"""Network build benchmark: wall time and peak memory of MLP network builds.

Each case is relu-exact, d = 2, on a uniform grid of K = 8 Euler steps.

- ``n=M=2`` and ``n=M=3``: seed 0, t = 0.  The child makes the catalog
  encodings, then times ``builder.build_mlp_network`` alone: one build at
  n = M = 3, and 24 builds in one timed run at n = M = 2, whose single
  build (about 10 ms) is too short to time on its own.  The time is per
  build; the peak memory holds every network the run built.  The output is
  the SHA-256 of the raw bytes of every layer, so runs of different source
  trees can be shown to build the same network.
- ``build-verify n=M=3``: one in-process ``picardnet build-verify`` on the
  config and CLI seed that perfbench's build-verify workload derives from
  its seed 0 (one probe).  The output is the SHA-256 of ``build_verify.json``.

    python3 bench/build.py parent=PARENT/src change=src

writes BENCH_build.json in the current directory: 11 runs per case and
tree, by the method in ``harness.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import tempfile

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


def build_verify():
    """Set up one n = M = 3 ``picardnet build-verify``; its files live until the child exits."""
    import numpy as np

    from picardnet import cli

    rng = np.random.default_rng(0)  # perfbench's BuildVerify.configs at its seed 0
    probe = rng.uniform(-1.0, 1.0, size=2).tolist()
    seed = int(rng.integers(0, 2**32))
    config = {"problem": "relu-exact", "dimension": 2, "time_grid": {"uniform_steps": STEPS},
              "n": 3, "M": 3, "probes": [probe]}
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "config.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(config, fh)
    argv = ["build-verify", "--config", path, "--seed", str(seed), "--out", tmp.name]

    def call() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def digest(code: int) -> str:
        if code != cli.EXIT_OK:
            raise RuntimeError(f"build-verify exited {code}")
        with open(os.path.join(tmp.name, "build_verify.json"), "rb") as fh:
            return harness.sha256([fh.read()])

    return call, digest


CASES = {
    **{f"relu-exact d=2 n=M={n} K={STEPS}":
       harness.Case(functools.partial(build, n), scale=1 / LOOPS[n]) for n in LOOPS},
    f"build-verify relu-exact d=2 n=M=3 K={STEPS}": harness.Case(build_verify),
}

if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, "BENCH_build.json", CASES))
