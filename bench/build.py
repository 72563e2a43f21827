"""Network build benchmark: wall time and peak memory of one MLP network build.

Each case is relu-exact, d = 2, on a uniform grid of K = 8 Euler steps,
seed 0, t = 0, at n = M = 2 and n = M = 3.  The child makes the catalog
encodings, then times ``builder.build_mlp_network`` alone: one build at
n = M = 3, and 24 builds in one timed run at n = M = 2, whose single build
(about 10 ms) is too short to time on its own.  The time is per build; the
peak memory holds every network the run built.  The output is the SHA-256
of the raw bytes of every layer, so runs of different source trees can be
shown to build the same network.

    python3 bench/build.py parent=PARENT/src change=src

writes BENCH_build.json in the current directory: 11 builds per case and
tree, by the method in ``harness.py``.
"""

from __future__ import annotations

import functools

import harness

STEPS = 8
LOOPS = {2: 24, 3: 1}


def build(n: int):
    """Set up LOOPS[n] level-n, M = n builds; the output is the layers' SHA-256."""
    from picardnet import catalog_entry
    from picardnet.builder import build_mlp_network
    from picardnet.indexrng import FrozenSample
    from picardnet.mlp import ROOT_PATH, MlpConfig
    from picardnet.problems import network_encodings
    from picardnet.sde import uniform_grid

    problem = catalog_entry("relu-exact", d=2).problem
    encodings = network_encodings(problem)
    config = MlpConfig(n, n, uniform_grid(problem.horizon, STEPS), FrozenSample(0))
    return harness.looped(
        [lambda: build_mlp_network(encodings, config, ROOT_PATH, 0.0)] * LOOPS[n],
        lambda built: harness.sha256(part.tobytes() for layer in built.network.layers
                                     for part in layer))


CASES = {f"relu-exact d=2 n=M={n} K={STEPS}":
         harness.Case(functools.partial(build, n), scale=1 / LOOPS[n]) for n in LOOPS}

if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, "BENCH_build.json", CASES))
