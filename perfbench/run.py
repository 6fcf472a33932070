"""copulamix benchmark: fit, select and visualize end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there.  Each operation runs the workload's ``copulamix`` command
in a fresh process, as a user would.  Operations repeat until ``--seconds``
have passed; then every output is checked against ``reference.py``.

``--trace 0`` prints the end-to-end metrics: the median wall time and peak
resident memory of the command, and the median set-up time (a fresh
process importing ``copulamix.cli`` and loading the dataset).
``--trace 1`` runs the same untraced operations, then one more under
``traced_cli.py`` and prints the per-layer metrics from its spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
when its command exits non-zero or its output fails a check; ``correct``
is false when any output failed a check.

This file imports only the standard library, and inputs and checks run in
processes of their own (``workloads.py``): a child started from a process
holding numpy and scipy reports that parent's peak memory as its own.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ("cli", "schema", "sampler", "model", "gauss", "margins",
          "selection", "viz")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_CODE = ("import sys, copulamix.cli\n"
              "from copulamix.schema import load_dataset\n"
              "load_dataset(sys.argv[1], sys.argv[2])\n")


class Runner:
    """Starts processes and measures them; every process it starts has
    ended when a method returns."""

    def __init__(self, root, workdir, started):
        self.root = root
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(self, args, log_name, stdout=None):
        """Run ``python3 ARGS``; returns (exit code, wall s, peak RSS MB).
        Standard error, and standard output unless ``stdout`` is given,
        go to ``log_name`` in the work directory."""
        limit = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(os.path.join(self.workdir, log_name), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=self.root,
                                    env=self.env, stdout=stdout or log,
                                    stderr=log, stdin=subprocess.DEVNULL)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def helper(self, args, log_name):
        """Run ``workloads.py ARGS`` and return its standard output."""
        out_path = os.path.join(self.workdir, log_name + ".out")
        with open(out_path, "wb") as out:
            rc, _, _ = self.run([os.path.join(HERE, "workloads.py")] + args,
                                log_name + ".log", stdout=out)
        if rc != 0:
            with open(os.path.join(self.workdir, log_name + ".log"),
                      encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"workloads.py {args[0]} failed:\n"
                                   + fh.read()[-2000:])
        with open(out_path, encoding="utf-8") as fh:
            return fh.read()

    def setup(self, ctx):
        rc, wall, _ = self.run(["-c", SETUP_CODE, ctx["data"], ctx["schema"]],
                               "setup.log")
        if rc != 0:
            with open(os.path.join(self.workdir, "setup.log"),
                      encoding="utf-8", errors="replace") as fh:
                raise RuntimeError("set-up process failed:\n" + fh.read()[-2000:])
        return wall

    def operation(self, ctx, index, spans=None):
        """Run the workload's command once; returns (exit code, wall s,
        peak RSS MB, output directory)."""
        out = os.path.join(self.workdir, f"out{index}")
        cli_args = [out if a == "{out}" else a for a in ctx["command"]]
        if spans is None:
            args = ["-m", "copulamix.cli"] + cli_args
        else:
            args = [os.path.join(HERE, "traced_cli.py"), spans] + cli_args
        rc, wall, rss = self.run(args, f"op{index}.log")
        return rc, wall, rss, out


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _layer_metrics(spans, bundle_bytes, overhead):
    self_s, calls, amount = {}, {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, parent, work), inner in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
        amount[name] = amount.get(name, 0) + work

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("sampler.step_latent", "sampler.step_margins",
                 "sampler.step_correlation", "sampler.step_proportions",
                 "sampler.init_local_independent", "sampler.save_chain",
                 "model.posterior_probs_rows", "model.mixture_logpdf_rows",
                 "model.component_logpdf_rows",
                 "gauss.box_probabilities.d1", "gauss.box_probabilities.d2",
                 "gauss.box_probabilities.d3", "gauss.box_probabilities.qmc",
                 "gauss.bvn_rectangle", "gauss.truncated_mvn_gibbs_rows",
                 "gauss.truncated_normal_rows",
                 "gauss.conditional_coefficients",
                 "gauss.log_gaussian_interval", "gauss.inverse_wishart_sample",
                 "gauss.mvn_logpdf_rows", "margins.latent_bounds_arrays",
                 "margins.cdf_array", "margins.logpdf_array",
                 "margins.conjugate_posterior_sample", "selection.sweep",
                 "viz.conditional_latent_means", "schema.load_dataset",
                 "cli.main"):
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    for name in ("model.posterior_probs_rows", "model.mixture_logpdf_rows",
                 "model.component_logpdf_rows", "gauss.box_probabilities.d1",
                 "gauss.box_probabilities.d2", "gauss.box_probabilities.d3",
                 "gauss.box_probabilities.qmc",
                 "gauss.truncated_mvn_gibbs_rows"):
        put(f"{name}.rows", amount.get(name, 0), "count")
    for name in ("gauss.truncated_mvn_gibbs_rows",
                 "gauss.conditional_coefficients",
                 "margins.latent_bounds_arrays"):
        put(f"{name}.calls", calls.get(name, 0), "count")
    put("gauss.truncated_normal_rows.draws",
        amount.get("gauss.truncated_normal_rows", 0), "count")
    put("margins.latent_bounds_arrays.elements",
        amount.get("margins.latent_bounds_arrays", 0), "count")
    put("selection.sweep.cells", amount.get("selection.sweep", 0), "count")
    put("sampler.sweeps", calls.get("sampler.step_latent", 0), "count")
    margin_calls = calls.get("sampler.step_margins", 0)
    put("sampler.margin_accept",
        amount.get("sampler.step_margins", 0) / margin_calls
        if margin_calls else 0.0, "ratio")
    for layer in LAYERS:
        put(f"layer.{layer}.self_s",
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")),
            "s")
    put("cli.bundle_bytes", bundle_bytes, "B")
    put("trace.overhead_s", overhead, "s")
    put("trace.spans", len(spans), "count")

    roots = [s for s in spans if s[3] < 0]
    main = sum(end - start for name, start, end, _, _ in roots
               if name == "cli.main")
    gap = sum(self_s.values()) - main
    problems = []
    if len(roots) != 1 or abs(gap) > abs(overhead) + 1e-6:
        problems.append(f"trace: self times add up to {gap:+.6f} s more than "
                        f"the cli.main span ({len(roots)} root spans)")
    return metrics, problems


def _bundle_bytes(out):
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", args.workload):
        parser.error(f"bad workload name {args.workload!r}")

    started = time.perf_counter()
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "copulamix", "cli.py")):
        print("error: run from the root of a copulamix checkout "
              "(src/copulamix/cli.py not found)", file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(args, Runner(root, workdir, started))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run is still using it


def _run(args, runner) -> int:
    runner.helper(["prepare", args.workload, str(args.seed), runner.workdir],
                  "prepare")
    with open(os.path.join(runner.workdir, "context.json"),
              encoding="utf-8") as fh:
        ctx = json.load(fh)

    setup = []
    if not args.trace:
        runner.setup(ctx)  # fills the bytecode cache; not timed
        setup = [runner.setup(ctx) for _ in range(SETUP_REPEATS)]

    ops = []  # (exit code, wall s, peak RSS MB, output directory)
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < args.seconds:
        ops.append(runner.operation(ctx, len(ops)))
    traced = None
    if args.trace:
        spans_path = os.path.join(runner.workdir, "spans.json")
        traced = runner.operation(ctx, len(ops), spans=spans_path)
        ops.append(traced)

    outs = [out for rc, _, _, out in ops if rc == 0]
    problems = json.loads(runner.helper(
        ["check", args.workload, runner.workdir] + outs, "check"))
    failed = 0
    wrong = []
    for rc, _, _, out in ops:
        trouble = problems[out] if rc == 0 else [f"exit code {rc}"]
        if trouble:
            failed += 1
            wrong += trouble if rc == 0 else []
            print(f"{os.path.basename(out)} failed: {trouble}",
                  file=sys.stderr)

    untraced = [op for op in ops if op is not traced and op[0] == 0]
    if not untraced:
        print("error: every operation failed", file=sys.stderr)
        return 1
    walls = [wall for _, wall, _, _ in untraced]
    if traced is not None:
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        metrics, trace_problems = _layer_metrics(
            spans, _bundle_bytes(traced[3]) if traced[0] == 0 else 0,
            traced[1] - statistics.median(walls))
        if trace_problems:
            wrong += trace_problems
            print(f"trace: {trace_problems}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                rss for _, _, rss, _ in untraced), "unit": "MB"},
        }
    print(f"{args.workload}: {len(ops)} operations, {failed} failed, "
          f"wall times {[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
