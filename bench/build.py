"""Network build benchmark: wall time and peak memory of one MLP network build.

Each case is relu-exact, d = 2, on a uniform grid of K = 8 Euler steps,
seed 0, t = 0, at n = M = 2 and n = M = 3.  The child makes the catalog
encodings, then times ``builder.build_mlp_network`` alone.  The output is
the SHA-256 of the raw bytes of every layer, so runs of different source
trees can be shown to build the same network.

    python3 bench/build.py parent=PARENT/src change=src

writes BENCH_build.json in the current directory: 11 builds per case and
tree, by the method in ``harness.py``.
"""

from __future__ import annotations

import functools

import harness

STEPS = 8


def build(n: int):
    """Set up one level-n, M = n build; its output is the layers' SHA-256."""
    from picardnet import catalog_entry
    from picardnet.builder import build_mlp_network
    from picardnet.indexrng import FrozenSample
    from picardnet.mlp import ROOT_PATH, MlpConfig
    from picardnet.problems import network_encodings
    from picardnet.sde import uniform_grid

    problem = catalog_entry("relu-exact", d=2).problem
    encodings = network_encodings(problem)
    config = MlpConfig(n, n, uniform_grid(problem.horizon, STEPS), FrozenSample(0))
    return (lambda: build_mlp_network(encodings, config, ROOT_PATH, 0.0),
            lambda built: harness.sha256(part.tobytes() for layer in built.network.layers
                                         for part in layer))


CASES = {f"relu-exact d=2 n=M={n} K={STEPS}": harness.Case(functools.partial(build, n))
         for n in (2, 3)}

if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, "BENCH_build.json", CASES))
