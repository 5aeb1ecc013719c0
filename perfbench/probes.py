"""Layer probes: direct calls to public functions that no CLI workload
reaches at these sizes, each timed once with perf_counter.

    python3 perfbench/probes.py SEED PROBES-JSON

PROBES-JSON maps each probe kind to ``[[metric, size], ...]`` (see
`Sizes.probes` in run.py).  Prints one JSON object
``{"metrics": {name: seconds}, "problems": [text, ...]}``; a probe whose
result fails its check adds a problem instead of stopping the rest.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from histolim import (  # noqa: E402
    KernelCovariance,
    PolynomialDensity,
    RandomStream,
    dyadic_chain,
    sample_stack,
    system_from_json,
    tv_martingale_curve,
)
from histolim.histograms import project_values  # noqa: E402
from histolim.systems import assemble_sigma  # noqa: E402

# The density of the total-variation acceptance check: TV at level m is
# exactly 2^-(m+2).
TV_DENSITY = PolynomialDensity((0.0, 2.0))
KERNEL = KernelCovariance("gaussian", {"length": 0.2})


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main() -> int:
    seed, probes = int(sys.argv[1]), json.loads(sys.argv[2])
    metrics, problems = {}, []

    deepest = max([d for _, d in probes["refinement"]]
                  + [d for _, d in probes["tv_curve"]]
                  + [d for _, d in probes["sigma_kernel"]])
    chain = dyadic_chain(depth=deepest)
    for name, depth in probes["refinement"]:
        metrics[name], rmap = timed(lambda: chain.refinement(0, depth))
        mass = project_values(np.ones(1 << depth), rmap)
        if mass.tolist() != [float(1 << depth)]:
            problems.append(f"{name}: projects {1 << depth} unit cells to {mass}")
    for name, depth in probes["tv_curve"]:
        metrics[name], curve = timed(
            lambda: tv_martingale_curve(TV_DENSITY, chain, range(1, depth + 1)))
        if any(abs(tv - 2.0 ** -(m + 2)) > 1e-12 for m, tv in curve):
            problems.append(f"{name}: curve {curve}")
    for name, depth in probes["sigma_kernel"]:
        metrics[name], sigma = timed(lambda: assemble_sigma(KERNEL, chain[depth]))
        if sigma.shape != (1 << depth,) * 2 or not np.array_equal(sigma, sigma.T):
            problems.append(f"{name}: bad matrix of shape {sigma.shape}")
    del chain

    for name, (system_file, depth, replicates) in probes["stack"]:
        system = system_from_json(json.loads((HERE / "systems" / system_file).read_text()))
        chain = dyadic_chain(depth=depth)
        metrics[name], stack = timed(lambda: sample_stack(
            system, chain, depth, RandomStream(seed), replicates, jobs=1))
        values = stack.values
        if values.shape != (replicates, 1 << depth) or not np.isfinite(values).all():
            problems.append(f"{name}: bad stack of shape {values.shape}")
        elif stack.kind == "probability" and \
                np.abs(values.sum(axis=1) - 1.0).max() > 1e-9:
            problems.append(f"{name}: rows do not sum to 1")
        del stack, values, chain

    print(json.dumps({"metrics": metrics, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
