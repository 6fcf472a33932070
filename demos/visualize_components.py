"""Export per-component PCA maps (scores, correlation circle, scree) as CSV.

Run:  python3 demos/visualize_components.py
Writes pca_*.csv files into demos/output/.
"""

import os

import numpy as np

from copulamix import evaluate as ev, model as mx, sampler as sp, viz

out = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out, exist_ok=True)

rng = np.random.default_rng(3)
truth = ev.example1_params()
dataset, _, _ = mx.generate(500, truth, rng)

result = sp.fit(dataset, sp.ChainConfig(g=2, iterations=200, burn_in=40,
                                        n_chains=1, seed=0))

for k in range(result.params.g):
    proj = viz.project(dataset, result.params, k)
    pca = proj["pca"]
    pct = 100.0 * pca.variance_explained[:2].sum()
    print(f"component {k + 1}: first two axes explain {pct:.1f}% of the "
          f"latent variance")
    for name, text in (("scores", viz.scores_csv(proj)),
                       ("circle", viz.circle_csv(pca, dataset.schema.names)),
                       ("eigen", viz.eigen_csv(pca))):
        path = os.path.join(out, f"pca_{name}_component{k + 1}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"  wrote {path}")
