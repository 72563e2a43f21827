"""Estimator benchmark: the cost of one keyed substream and of one MLP estimate.

Cases, each run in a fresh Python process:

- ``uniform01``: ``indexrng.uniform01`` on 20,000 distinct index paths,
  reported in microseconds per substream.
- ``normals 9x2``: ``indexrng.standard_normals`` of shape (9, 2), the draw
  of a 9-step Brownian path in d = 2, on 20,000 distinct index paths,
  reported in microseconds per substream.
- ``estimate n=M=3 K=8``, ``estimate n=M=4 K=8`` and ``estimate n=M=4 K=64``:
  one ``mlp_estimate`` at relu-exact, d = 2, x = (0.25, -0.5), t = 0, seed 0,
  on a uniform grid of K steps, reported in seconds.  An n = M = 4 estimate
  opens 7,528 substreams.

The child times the calls alone with ``time.perf_counter`` (imports and
catalog set-up come before them) and reports what they produced: the
SHA-256 of every draw's bytes, or the estimate's ``float.hex``, so runs of
different source trees can be shown to draw the same bits.  Source trees
given together run alternately, one run of each per repeat, so that drift
in the machine's load falls on all of them alike.  The file keeps every run
and, per case and tree, the median, the 25th and 75th percentiles, the
minimum and the maximum.

    python3 bench/estimate.py parent=PARENT/src change=src

writes BENCH_estimate.json in the current directory, together with the CPU
count and model, the Python and NumPy versions and the method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from build import machine

SUBSTREAMS = 20_000
DRAWS = {"uniform01": None, "normals 9x2": (9, 2)}  # case -> normals shape
ESTIMATES = {"estimate n=M=3 K=8": (3, 3, 8), "estimate n=M=4 K=8": (4, 4, 8),
             "estimate n=M=4 K=64": (4, 4, 64)}
CASES = (*DRAWS, *ESTIMATES)
UNITS = {**{case: "us per substream" for case in DRAWS}, **{case: "s" for case in ESTIMATES}}
REPEATS = 11


def run_draws(case: str) -> tuple[float, str]:
    from picardnet.indexrng import PURPOSE_BROWNIAN, FrozenSample, standard_normals, uniform01

    sample, shape = FrozenSample(0), DRAWS[case]
    paths = [(i % 5, i) for i in range(SUBSTREAMS)]
    start = time.perf_counter()
    if shape is None:
        draws = [uniform01(sample, path) for path in paths]
    else:
        draws = [standard_normals(sample, path, PURPOSE_BROWNIAN, shape) for path in paths]
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for value in draws:
        digest.update(float(value).hex().encode() if shape is None else value.tobytes())
    return elapsed / SUBSTREAMS * 1e6, digest.hexdigest()


def run_estimate(case: str) -> tuple[float, str]:
    import numpy as np

    from picardnet import FrozenSample, MlpConfig, ROOT_PATH, catalog_entry, mlp_estimate
    from picardnet.sde import uniform_grid

    n, M, steps = ESTIMATES[case]
    problem = catalog_entry("relu-exact", d=2).problem
    config = MlpConfig(n, M, uniform_grid(problem.horizon, steps), FrozenSample(0))
    x = np.array([0.25, -0.5])
    start = time.perf_counter()
    value = mlp_estimate(problem, config, ROOT_PATH, 0.0, x)
    return time.perf_counter() - start, value.hex()


def run_once(src: str, case: str) -> dict:
    """One run of ``case`` in this process; returns its time and output."""
    sys.path.insert(0, os.path.abspath(src))
    value, output = run_draws(case) if case in DRAWS else run_estimate(case)
    return {"time": value, "output": output}


def run_child(src: str, case: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, case],
        capture_output=True, text=True, check=False, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{case} from {src} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    values = [r["time"] for r in runs]
    p25, _, p75 = statistics.quantiles(values, n=4)
    seen = {r["output"] for r in runs}
    if len(seen) != 1:
        raise RuntimeError(f"output differs between runs of one tree: {sorted(seen)}")
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "min": min(values), "max": max(values), "output": seen.pop(), "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC",
                        help="a label and the source directory that holds picardnet")
    args = parser.parse_args(argv)
    trees = [spec.split("=", 1) for spec in args.trees]
    if any(len(t) != 2 for t in trees):
        parser.error("give each tree as LABEL=SRC")
    cases = {}
    for case in CASES:
        runs = {label: [] for label, _ in trees}
        for rep in range(REPEATS):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, src in order:
                runs[label].append(run_child(src, case))
                print(f"{case} {label} run {rep + 1}: {runs[label][-1]['time']:.4g} "
                      f"{UNITS[case]}", file=sys.stderr)
        summary = {label: summarize(r) for label, r in runs.items()}
        outputs = {s["output"] for s in summary.values()}
        cases[case] = {"unit": UNITS[case], "same_output": len(outputs) == 1, **summary}
    report = {
        "machine": machine(),
        "method": (f"each run in a fresh process with BLAS threads pinned to 1, trees "
                   f"alternating within a repeat; {REPEATS} runs of each case per tree; "
                   f"substream cases time {SUBSTREAMS} calls on distinct paths and report "
                   "microseconds per call, estimate cases time one mlp_estimate in seconds, "
                   "both with time.perf_counter around the calls alone (imports and set-up "
                   "before them); output is the SHA-256 of the draws' bytes or the "
                   "estimate's float.hex; median, 25th and 75th percentiles "
                   "(statistics.quantiles, exclusive method), min and max reported"),
        "cases": cases,
    }
    with open("BENCH_estimate.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        print(json.dumps(run_once(sys.argv[2], sys.argv[3])))
        raise SystemExit(0)
    raise SystemExit(main())
