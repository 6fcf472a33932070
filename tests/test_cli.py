import filecmp
import json
import subprocess
import sys

import numpy as np
import pytest

from copulamix import cli, model as mx, sampler as sp
from copulamix.schema import load_dataset

FAST = ["--iters", "30", "--burnin", "10", "--chains", "1"]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run(["simulate", "--preset", "example1", "--n", "120",
                "--seed", "7", "--out", str(out)])
    assert code == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run(["fit", str(sim_dir / "data.csv"), str(sim_dir / "schema.txt"),
                "--g", "2", "--out", str(out), *FAST])
    assert code == cli.EXIT_OK
    return out


class TestSimulate:
    def test_outputs_loadable(self, sim_dir):
        ds = load_dataset(str(sim_dir / "data.csv"),
                          str(sim_dir / "schema.txt"))
        assert ds.n == 120
        labels = (sim_dir / "labels.csv").read_text().strip().split("\n")
        assert labels[0] == "row_id,label"
        assert len(labels) == 121
        assert {ln.split(",")[1] for ln in labels[1:]} <= {"1", "2"}
        truth = mx.params_from_json((sim_dir / "truth.json").read_text())
        assert truth.g == 2

    def test_karlis_preset_has_no_truth_file(self, tmp_path):
        out = tmp_path / "k"
        assert run(["simulate", "--preset", "karlis", "--n", "50",
                    "--out", str(out)]) == cli.EXIT_OK
        assert (out / "data.csv").exists()
        assert not (out / "truth.json").exists()

    def test_params_file_source(self, sim_dir, tmp_path):
        out = tmp_path / "p"
        code = run(["simulate", "--params", str(sim_dir / "truth.json"),
                    "--n", "30", "--out", str(out)])
        assert code == cli.EXIT_OK
        ds = load_dataset(str(out / "data.csv"), str(out / "schema.txt"))
        assert ds.n == 30

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--preset", "example1", "--n", "40",
                        "--seed", "3", "--out", str(out)]) == cli.EXIT_OK
        assert filecmp.cmp(a / "data.csv", b / "data.csv", shallow=False)

    def test_bad_inputs(self, tmp_path):
        assert run(["simulate", "--n", "10",
                    "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
        assert run(["simulate", "--preset", "example1", "--n", "0",
                    "--out", str(tmp_path / "y")]) == cli.EXIT_USAGE


class TestFit:
    def test_bundle_contents(self, fit_dir):
        for name in ("theta.json", "partition.csv", "chain.ndjson",
                     "chain.ndjson.manifest", "acceptance.json"):
            assert (fit_dir / name).exists(), name

    def test_theta_loadable(self, fit_dir):
        params = mx.params_from_json((fit_dir / "theta.json").read_text())
        assert params.g == 2
        assert params.family == mx.HETEROSCEDASTIC

    def test_partition_csv(self, fit_dir):
        lines = (fit_dir / "partition.csv").read_text().strip().split("\n")
        assert lines[0] == "row_id,label,t1,t2"
        assert len(lines) == 121
        for ln in lines[1:3]:
            parts = ln.split(",")
            assert int(parts[1]) in (1, 2)
            t = [float(v) for v in parts[2:]]
            assert sum(t) == pytest.approx(1.0, abs=1e-8)

    def test_chain_loadable(self, fit_dir):
        draws, manifest = sp.load_chain(str(fit_dir / "chain.ndjson"))
        assert manifest["g"] == 2
        assert len(draws) == manifest["n_draws"] == 30

    def test_acceptance_json(self, fit_dir):
        doc = json.loads((fit_dir / "acceptance.json").read_text())
        assert np.isfinite(doc["loglik"])
        assert len(doc["chain_logliks"]) == 1
        assert np.array(doc["accept_margins"]).shape == (2, 3)

    def test_bundle_modes_match_plain_open(self, fit_dir):
        # atomic writes must not leave mkstemp's 0600 behind
        mode = (fit_dir / "chain.ndjson").stat().st_mode
        for path in fit_dir.iterdir():
            assert path.stat().st_mode == mode, path.name

    def test_reproducible(self, sim_dir, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(["fit", str(sim_dir / "data.csv"),
                        str(sim_dir / "schema.txt"), "--g", "2",
                        "--seed", "11", "--out", str(out), *FAST]) == 0
        assert filecmp.cmp(outs[0] / "theta.json", outs[1] / "theta.json",
                           shallow=False)

    def test_bad_g(self, sim_dir, tmp_path):
        assert run(["fit", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--g", "0",
                    "--out", str(tmp_path / "z"), *FAST]) == cli.EXIT_USAGE

    def test_argparse_error_is_usage_exit(self, sim_dir, tmp_path):
        assert run(["fit", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--g", "2",
                    "--family", "bogus",
                    "--out", str(tmp_path / "z"), *FAST]) == cli.EXIT_USAGE

    def test_missing_data_file(self, sim_dir, tmp_path):
        assert run(["fit", str(sim_dir / "nope.csv"),
                    str(sim_dir / "schema.txt"), "--g", "1",
                    "--out", str(tmp_path / "z"), *FAST]) == cli.EXIT_USAGE

    def test_degenerate_fit_is_numerical_exit(self, tmp_path):
        # more components than distinct rows forces a sampler collapse
        out = tmp_path / "sim"
        assert run(["simulate", "--preset", "example1", "--n", "5",
                    "--out", str(out)]) == cli.EXIT_OK
        code = run(["fit", str(out / "data.csv"), str(out / "schema.txt"),
                    "--g", "5", "--out", str(tmp_path / "f"), *FAST])
        assert code == cli.EXIT_NUMERICAL


class TestSelect:
    def test_sweep_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "sel"
        code = run(["select", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--gmin", "1", "--gmax", "2",
                    "--families", "independent,heteroscedastic",
                    "--out", str(out), *FAST])
        assert code == cli.EXIT_OK
        lines = (out / "criteria.csv").read_text().strip().split("\n")
        assert lines[0] == "family,g,loglik,nu,bic,icl"
        assert len(lines) == 5
        doc = json.loads((out / "criteria.json").read_text())
        assert len(doc["cells"]) == 4
        assert doc["best_bic"]["g"] in (1, 2)
        assert doc["best_icl"]["family"] in ("independent", "heteroscedastic")

    def test_argparse_error_is_usage_exit(self, sim_dir, tmp_path):
        # --thin belongs to fit only
        assert run(["select", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--thin", "2",
                    "--out", str(tmp_path / "s"), *FAST]) == cli.EXIT_USAGE

    def test_empty_family_list_is_usage_error(self, sim_dir, tmp_path,
                                              capsys):
        out = tmp_path / "sel"
        assert run(["select", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--families", ",",
                    "--out", str(out), *FAST]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_keeps_no_draws(self, sim_dir, tmp_path, monkeypatch):
        kept = []
        real_fit = sp.fit

        def fit(dataset, config):
            kept.append(config.keep_draws)
            return real_fit(dataset, config)

        monkeypatch.setattr(sp, "fit", fit)
        assert run(["select", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--gmin", "1", "--gmax", "1",
                    "--families", "independent",
                    "--out", str(tmp_path / "sel"), *FAST]) == cli.EXIT_OK
        assert kept == [False]

    def test_bad_grid(self, sim_dir, tmp_path):
        assert run(["select", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--gmin", "3", "--gmax", "2",
                    "--out", str(tmp_path / "s"), *FAST]) == cli.EXIT_USAGE
        assert run(["select", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--families", "banana",
                    "--out", str(tmp_path / "s"), *FAST]) == cli.EXIT_USAGE


class TestVisualize:
    def test_outputs(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "viz"
        code = run(["visualize", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"),
                    "--fit", str(fit_dir / "theta.json"),
                    "--component", "1", "--out", str(out)])
        assert code == cli.EXIT_OK
        scores = (out / "pca_scores.csv").read_text().strip().split("\n")
        assert len(scores) == 121
        circle = (out / "pca_circle.csv").read_text().strip().split("\n")
        assert len(circle) == 4
        eigen = (out / "pca_eigen.csv").read_text().strip().split("\n")
        assert len(eigen) == 4

    def test_axis_and_component_validation(self, sim_dir, fit_dir, tmp_path):
        base = ["visualize", str(sim_dir / "data.csv"),
                str(sim_dir / "schema.txt"),
                "--fit", str(fit_dir / "theta.json"),
                "--out", str(tmp_path / "v")]
        assert run(base + ["--component", "3"]) == cli.EXIT_USAGE
        assert run(base + ["--component", "1",
                           "--axes", "2,2"]) == cli.EXIT_USAGE
        assert run(base + ["--component", "1",
                           "--axes", "1,9"]) == cli.EXIT_USAGE
        assert run(base + ["--component", "1",
                           "--axes", "potato"]) == cli.EXIT_USAGE

    def test_margins_must_match_schema(self, sim_dir, fit_dir, tmp_path):
        # a Poisson margin on the binary column: same dimension, another
        # model
        theta = json.loads((fit_dir / "theta.json").read_text())
        for comp in theta["components"]:
            assert comp["margins"][-1]["family"] == "multinomial"
            comp["margins"][-1] = {"family": "poisson", "rate": 1.5}
        wrong = tmp_path / "theta.json"
        wrong.write_text(json.dumps(theta))
        assert run(["visualize", str(sim_dir / "data.csv"),
                    str(sim_dir / "schema.txt"), "--fit", str(wrong),
                    "--component", "1",
                    "--out", str(tmp_path / "v")]) == cli.EXIT_USAGE
        assert not (tmp_path / "v").exists()


class TestEval:
    def test_study_csv(self, tmp_path):
        out = tmp_path / "ev"
        code = run(["eval", "--study", "karlis", "--sizes", "80",
                    "--replicates", "1", "--out", str(out),
                    "--iters", "20", "--burnin", "5", "--chains", "1"])
        assert code == cli.EXIT_OK
        lines = (out / "study.csv").read_text().strip().split("\n")
        assert lines[0] == "study,n,replicate,metric,value"
        assert len(lines) == 7

    def test_bad_args(self, tmp_path):
        assert run(["eval", "--study", "nosuch",
                    "--out", str(tmp_path / "e")]) == cli.EXIT_USAGE
        assert run(["eval", "--study", "karlis", "--sizes", "a,b",
                    "--out", str(tmp_path / "e")]) == cli.EXIT_USAGE


class TestEntryPoint:
    def test_help_is_success(self, capsys):
        assert run(["--help"]) == cli.EXIT_OK
        assert run(["fit", "--help"]) == cli.EXIT_OK
        assert "--family" in capsys.readouterr().out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copulamix.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("fit", "select", "simulate", "visualize", "eval"):
            assert sub in proc.stdout

    def test_import_skips_scipy_optimize(self):
        # only evaluation needs linear_sum_assignment; every command would
        # otherwise pay for the import
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, copulamix.cli; "
             "print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_simulate_imports_no_scipy_linalg_or_stats(self, tmp_path):
        # numpy factors the small matrices and scipy.special inverts the
        # Poisson cdf; either import would cost every command memory and
        # start-up time
        script = (
            "import sys, copulamix.cli\n"
            "code = copulamix.cli.main(['simulate', '--preset', 'example1',"
            f" '--n', '50', '--out', {str(tmp_path / 'sim')!r}])\n"
            "print(code, [m for m in ('scipy.linalg', 'scipy.stats')"
            " if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{cli.EXIT_OK} []"
