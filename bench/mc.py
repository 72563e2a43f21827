"""Monte Carlo benchmark: wall time and peak memory of the batched sweeps.

Cases:

- ``sweep perturbation``: ``picardnet sweep`` on heat, d = 2, 4,000 coupled
  paths, CLI seed 0; 24 sweeps per timed run.
- ``sweep lyapunov``: ``picardnet sweep`` on bs-like, d = 3, 50,000 paths
  at two probes, CLI seed 1; 8 sweeps per timed run.
- ``criterion 6``: ``test_criterion_6_perturbation_bound`` from the
  ``tests`` directory next to the source tree (two perturbation checks at
  20,000 paths each), 3 runs per tree.

A sweep takes 10 to 50 ms, too short to time on its own, so each timed run
makes several, each into its own output directory, and the time is per
sweep.

The output is the SHA-256 of the CLI's output file, the same for every
sweep of a run, or the acceptance line the test prints.

    python3 bench/mc.py parent=PARENT/src change=src

writes BENCH_mc.json in the current directory: 11 runs of each sweep per
tree, by the method in ``harness.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import tempfile

import harness

# name: (config, CLI seed, output file, sweeps per timed run)
SWEEPS = {
    "sweep perturbation": ({"problem": "heat", "dimension": 2, "sweep": "perturbation",
                            "paths": 4000}, 0, "perturbation.csv", 24),
    "sweep lyapunov": ({"problem": "bs-like", "dimension": 3, "sweep": "lyapunov",
                        "paths": 50_000, "probes": [[0.9, 1.0, 1.1], [-0.5, 0.2, 2.0]]},
                       1, "lyapunov.csv", 8),
}


def sweep(name: str):
    """Set up the ``picardnet sweep`` runs; their output files live until the child exits."""
    from picardnet import cli

    config, seed, output, loops = SWEEPS[name]
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "config.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(config, fh)

    def run(i: int) -> tuple[int, str]:
        out = os.path.join(tmp.name, str(i))  # each sweep writes its own directory
        return cli.main(["sweep", "--config", path, "--seed", str(seed), "--out", out]), out

    def digest(result: tuple[int, str]) -> str:
        code, out = result
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{name} exited {code}")
        with open(os.path.join(out, output), "rb") as fh:
            return harness.sha256([fh.read()])

    return harness.looped([functools.partial(run, i) for i in range(loops)], digest)


def criterion_6():
    """Set up acceptance criterion 6 from the tests next to picardnet's source tree."""
    import picardnet

    checkout = os.path.dirname(os.path.dirname(os.path.dirname(picardnet.__file__)))
    sys.path.insert(0, os.path.join(checkout, "tests"))
    import test_acceptance

    printed = io.StringIO()

    def call() -> None:
        with contextlib.redirect_stdout(printed):
            test_acceptance.test_criterion_6_perturbation_bound()

    return call, lambda _: printed.getvalue().strip()


CASES = {
    **{name: harness.Case(functools.partial(sweep, name), scale=1 / SWEEPS[name][3])
       for name in SWEEPS},
    "criterion 6": harness.Case(criterion_6, repeats=3),
}

if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, "BENCH_mc.json", CASES))
