"""Estimator benchmark: the cost of one keyed substream and of one MLP estimate.

Cases:

- ``uniform01`` and ``normals 9x2``: one ``indexrng.uniform01``, or one
  (9, 2) ``indexrng.standard_normals`` (a 9-step Brownian path in d = 2),
  on each of 20,000 distinct index paths, reported in microseconds per
  substream.
- ``euler path K=8``: one one-row ``sde.euler_evaluate`` from t = 0 to the
  horizon at relu-exact, d = 2, x = (0.25, -0.5), on a uniform grid of 8
  steps, on each of 4,000 distinct index paths, reported in microseconds
  per Euler step (its Brownian draw included).
- ``estimate n=M=3 K=8``, ``estimate n=M=4 K=8`` and ``estimate n=M=4 K=64``:
  one ``mlp_estimate`` at relu-exact, d = 2, x = (0.25, -0.5), t = 0, seed 0,
  on a uniform grid of K steps, reported in seconds per estimate.  The
  n = M = 3 case (about 15 ms) makes 16 estimates in one timed run, so that
  a run is long enough to time.  An n = M = 4 estimate
  opens 7,528 substreams, and each of its Euler paths is a batch of one
  row, so the K = 8 case also guards ``picardnet solve`` against per-step
  overhead in the Euler kernel.
- ``reference 4 points``: relu-exact's oracle reference, d = 2, at t = 0 on
  four fixed points, each the mean of 16 level-3 estimates on 27 steps,
  reported in seconds.

The output is the SHA-256 of every draw's bytes, or the estimates'
``float.hex``, so runs of different source trees can be shown to draw the
same bits.

    python3 bench/estimate.py parent=PARENT/src change=src

writes BENCH_estimate.json in the current directory: 11 runs of each case
per tree, by the method in ``harness.py``.
"""

from __future__ import annotations

import functools

import harness

SUBSTREAMS = 20_000
PER_SUBSTREAM = {"unit": "us per substream", "scale": 1e6 / SUBSTREAMS}
EULER_PATHS, EULER_STEPS = 4_000, 8
ESTIMATE_LOOPS = {(3, 8): 16, (4, 8): 1, (4, 64): 1}


def draws(shape):
    """Set up SUBSTREAMS draws: uniforms if ``shape`` is None, else normals of ``shape``."""
    from picardnet.indexrng import PURPOSE_BROWNIAN, FrozenSample, standard_normals, uniform01

    sample, paths = FrozenSample(0), [(i % 5, i) for i in range(SUBSTREAMS)]
    if shape is None:
        return (lambda: [uniform01(sample, path) for path in paths],
                lambda values: harness.sha256(float(u).hex().encode() for u in values))
    return (lambda: [standard_normals(sample, path, PURPOSE_BROWNIAN, shape) for path in paths],
            lambda values: harness.sha256(z.tobytes() for z in values))


def euler_paths():
    """Set up EULER_PATHS one-row Euler paths over the whole grid of EULER_STEPS steps."""
    import numpy as np

    from picardnet import FrozenSample, catalog_entry
    from picardnet.sde import euler_evaluate, uniform_grid

    problem = catalog_entry("relu-exact", d=2).problem
    grid, sample = uniform_grid(problem.horizon, EULER_STEPS), FrozenSample(0)
    x, paths = np.array([[0.25, -0.5]]), [(i % 5, i) for i in range(EULER_PATHS)]
    return (lambda: [euler_evaluate(problem, grid, sample, path, 0.0, x, problem.horizon)
                     for path in paths],
            lambda states: harness.sha256(y.tobytes() for y in states))


def estimate(n: int, steps: int):
    """Set up ESTIMATE_LOOPS level-n, M = n estimates on a uniform grid of ``steps`` steps."""
    import numpy as np

    from picardnet import FrozenSample, MlpConfig, ROOT_PATH, catalog_entry, mlp_estimate
    from picardnet.sde import uniform_grid

    problem = catalog_entry("relu-exact", d=2).problem
    config = MlpConfig(n, n, uniform_grid(problem.horizon, steps), FrozenSample(0))
    x = np.array([0.25, -0.5])
    return harness.looped(
        [lambda: mlp_estimate(problem, config, ROOT_PATH, 0.0, x)] * ESTIMATE_LOOPS[n, steps],
        float.hex)


def reference():
    """Set up relu-exact's oracle reference at four fixed points, t = 0."""
    import numpy as np

    from picardnet import catalog_entry

    entry = catalog_entry("relu-exact", d=2)
    X = np.array([[0.25, -0.5], [0.0, 0.0], [-0.75, 0.5], [1.0, 0.25]])
    return (lambda: entry.reference(0.0, X),
            lambda values: " ".join(float(v).hex() for v in values))


CASES = {
    "uniform01": harness.Case(functools.partial(draws, None), **PER_SUBSTREAM),
    "normals 9x2": harness.Case(functools.partial(draws, (9, 2)), **PER_SUBSTREAM),
    "euler path K=8": harness.Case(euler_paths, unit="us per step",
                                   scale=1e6 / (EULER_PATHS * EULER_STEPS)),
    **{f"estimate n=M={n} K={steps}": harness.Case(functools.partial(estimate, n, steps),
                                                   scale=1 / loops)
       for (n, steps), loops in ESTIMATE_LOOPS.items()},
    "reference 4 points": harness.Case(reference),
}

if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, "BENCH_estimate.json", CASES))
