"""Ablation: the exact subspace E-step vs the literal dense Eq. (3).

Both compute the same fit (property-tested in
``tests/test_subspace_em.py``); this ablation measures the cost
difference on a hierarchy where the fit's subspace is much smaller than
the space (r = 31 for 11 fully observed priors and 20 target samples,
against n = 192), which is why the subspace path is the default.  The
dense path inverts n x n matrices per mask group per iteration; the
subspace path factors one k x k or r x r matrix per mask group.
"""

import time

import numpy as np

from conftest import save_results
from repro.core.em import EMConfig, EMEngine
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.experiments.harness import format_table

#: Dense Eq. (3) on the full 1024-config space would invert 25 matrices
#: of 1024^2 per iteration; the ablation uses a mid-sized space so the
#: dense arm finishes quickly while the asymmetry stays obvious.
NUM_CONFIGS = 192
NUM_APPS = 12


def _observations(seed=0):
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(NUM_CONFIGS)
    a = rng.standard_normal((NUM_CONFIGS, NUM_CONFIGS))
    sigma = (a @ a.T) / NUM_CONFIGS + 0.3 * np.eye(NUM_CONFIGS)
    z = rng.multivariate_normal(mu, sigma, size=NUM_APPS)
    y = z + 0.05 * rng.standard_normal(z.shape)
    mask = np.ones((NUM_APPS, NUM_CONFIGS), dtype=bool)
    mask[-1] = False
    mask[-1, rng.choice(NUM_CONFIGS, 20, replace=False)] = True
    return ObservationSet(np.where(mask, y, 0.0), mask)


def test_ablation_woodbury(benchmark):
    obs = _observations()
    config = dict(max_iterations=4, tol=1e-12)

    def run_subspace():
        engine = EMEngine(prior=NIWPrior.paper_default(),
                          config=EMConfig(use_woodbury=True, **config))
        return engine.fit(obs)

    def run_dense():
        engine = EMEngine(prior=NIWPrior.paper_default(),
                          config=EMConfig(use_woodbury=False, **config))
        return engine.fit(obs)

    fast_result = benchmark.pedantic(run_subspace, rounds=1, iterations=1)

    started = time.perf_counter()
    slow_result = run_dense()
    dense_seconds = time.perf_counter() - started
    started = time.perf_counter()
    run_subspace()
    subspace_seconds = time.perf_counter() - started

    print()
    print(format_table(
        ["E-step", "seconds", "target curve max |delta|"],
        [
            [f"subspace (r={fast_result.sigma_basis.dim})",
             subspace_seconds, 0.0],
            ["dense Eq.(3)", dense_seconds,
             float(np.max(np.abs(fast_result.zhat - slow_result.zhat)))],
        ],
        title=(f"Ablation: E-step implementation "
               f"({NUM_APPS} apps x {NUM_CONFIGS} configs, 4 iterations)")))
    save_results("ablation_woodbury", {
        "subspace_seconds": subspace_seconds,
        "subspace_dim": fast_result.sigma_basis.dim,
        "dense_seconds": dense_seconds,
        "max_abs_delta": float(
            np.max(np.abs(fast_result.zhat - slow_result.zhat))),
    })

    # Identical math...
    np.testing.assert_allclose(fast_result.zhat, slow_result.zhat,
                               rtol=1e-5, atol=1e-7)
    # ...in far fewer dimensions, at a visibly different price.
    assert fast_result.sigma_basis.dim < NUM_CONFIGS // 4
    assert subspace_seconds < dense_seconds
