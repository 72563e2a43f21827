"""Monte Carlo benchmark: wall time of the batched sweeps and of one estimate.

Cases, each run in a fresh Python process:

- ``sweep perturbation``: ``picardnet sweep`` on heat, d = 2, 4,000 coupled
  paths, CLI seed 0.
- ``sweep lyapunov``: ``picardnet sweep`` on bs-like, d = 3, 50,000 paths
  at two probes, CLI seed 1.
- ``estimate``: one ``mlp_estimate`` at relu-exact, d = 2, n = M = 4 on a
  uniform K = 8 grid, seed 0.  Every Euler path of an estimate is a batch
  of one row, so this case guards ``picardnet solve`` against per-step
  overhead in the Euler kernel.
- ``criterion 6``: ``test_criterion_6_perturbation_bound`` from the
  ``tests`` directory next to the source tree (two perturbation checks at
  20,000 paths each).

The child times the call alone with ``time.perf_counter`` (imports and
catalog set-up come before it), reads ``ru_maxrss`` right after, and reports
what it produced: the SHA-256 of the CLI's output file, the estimate's
``float.hex``, or the acceptance line the test prints.  Source trees given
together run alternately, one run of each per repeat, so that drift in the
machine's load falls on all of them alike.  The file keeps every run and,
per case and tree, the median, the 25th and 75th percentiles, the minimum
and the maximum.

    python3 bench/mc.py parent=PARENT/src change=src

writes BENCH_mc.json in the current directory, together with the CPU count
and model, the Python and NumPy versions and the method.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from build import machine

SWEEPS = {
    "sweep perturbation": ({"problem": "heat", "dimension": 2, "sweep": "perturbation",
                            "paths": 4000}, 0, "perturbation.csv"),
    "sweep lyapunov": ({"problem": "bs-like", "dimension": 3, "sweep": "lyapunov",
                        "paths": 50_000, "probes": [[0.9, 1.0, 1.1], [-0.5, 0.2, 2.0]]},
                       1, "lyapunov.csv"),
}
CASES = (*SWEEPS, "estimate", "criterion 6")
REPEATS = {"criterion 6": 3}  # the other cases run DEFAULT_REPEATS times
DEFAULT_REPEATS = 11


def run_sweep(case: str) -> tuple[float, str]:
    from picardnet import cli

    config, seed, output = SWEEPS[case]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(config, fh)
        argv = ["sweep", "--config", path, "--seed", str(seed), "--out", tmp]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{case} exited {code}")
        with open(os.path.join(tmp, output), "rb") as fh:
            return elapsed, hashlib.sha256(fh.read()).hexdigest()


def run_estimate() -> tuple[float, str]:
    import numpy as np

    from picardnet import FrozenSample, MlpConfig, ROOT_PATH, catalog_entry, mlp_estimate
    from picardnet.sde import uniform_grid

    problem = catalog_entry("relu-exact", d=2).problem
    config = MlpConfig(4, 4, uniform_grid(problem.horizon, 8), FrozenSample(0))
    x = np.array([0.25, -0.5])
    start = time.perf_counter()
    value = mlp_estimate(problem, config, ROOT_PATH, 0.0, x)
    return time.perf_counter() - start, value.hex()


def run_criterion_6(src: str) -> tuple[float, str]:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(src)), "tests"))
    import test_acceptance

    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        test_acceptance.test_criterion_6_perturbation_bound()
    return time.perf_counter() - start, printed.getvalue().strip()


def run_once(src: str, case: str) -> dict:
    """One run of ``case`` in this process; returns its time, peak RSS and output."""
    sys.path.insert(0, os.path.abspath(src))
    import resource

    if case in SWEEPS:
        elapsed, output = run_sweep(case)
    elif case == "estimate":
        elapsed, output = run_estimate()
    else:
        elapsed, output = run_criterion_6(src)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": elapsed, "peak_rss_mb": peak_kib / 1024.0, "output": output}


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
    out = {}
    for key in ("wall_s", "peak_rss_mb"):
        values = [r[key] for r in runs]
        p25, _, p75 = statistics.quantiles(values, n=4)
        out[key] = {"median": statistics.median(values), "p25": p25, "p75": p75,
                    "min": min(values), "max": max(values)}
    seen = {r["output"] for r in runs}
    if len(seen) != 1:
        raise RuntimeError(f"output differs between runs of one tree: {sorted(seen)}")
    out["output"] = seen.pop()
    return out


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
        for rep in range(REPEATS.get(case, DEFAULT_REPEATS)):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, src in order:
                runs[label].append(run_child(src, case))
                print(f"{case} {label} run {rep + 1}: {runs[label][-1]['wall_s']:.4f} s",
                      file=sys.stderr)
        summary = {label: {**summarize(r), "runs": [{k: x[k] for k in ("wall_s", "peak_rss_mb")}
                                                    for x in r]}
                   for label, r in runs.items()}
        outputs = {s["output"] for s in summary.values()}
        cases[case] = {"same_output": len(outputs) == 1, **summary}
    report = {
        "machine": machine(),
        "method": ("each run in a fresh process with BLAS threads pinned to 1, trees "
                   "alternating within a repeat; "
                   + ", ".join(f"{REPEATS.get(c, DEFAULT_REPEATS)} runs of {c}" for c in CASES)
                   + " per tree; wall_s is time.perf_counter around the call alone (imports "
                   "and set-up before it); peak_rss_mb is the child's ru_maxrss right after; "
                   "output is the SHA-256 of the CLI output file, the estimate's float.hex or "
                   "the acceptance line; median, 25th and 75th percentiles "
                   "(statistics.quantiles, exclusive method), min and max reported"),
        "cases": cases,
    }
    with open("BENCH_mc.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        print(json.dumps(run_once(sys.argv[2], sys.argv[3])))
        raise SystemExit(0)
    raise SystemExit(main())
