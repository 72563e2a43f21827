"""perfbench: the picardnet benchmark, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

Each workload runs in fresh worker processes (perfbench/worker.py) with
BLAS threads pinned to 1 and PICARDNET_THREADS unset.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # set-up samples per untraced run: the worker's own plus four probes
RUN_DEADLINE_S = 170.0

# The workload-specific name of each workload's rate_per_s, with its unit,
# and how it is derived from rate_per_s.
RATE_NAMES = {
    "solve": ("estimates_per_s", "1/s", lambda r: r),
    "build-verify": ("build_verify_s", "s/op", lambda r: 1.0 / r),
    "realize": ("realize_points_per_s", "1/s", lambda r: r),
    "sweep-perturbation": ("mc_paths_per_s", "1/s", lambda r: r),
}


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PICARDNET_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, mode: str, work_dir: Path, deadline: float) -> dict:
    result = work_dir / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode,
           "--work-dir", str(work_dir), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run one workload; returns (result line, method record).

    The metric names and units come from BENCHMARK.json (``spec``).
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_dir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, "setup", work_dir, deadline)["setup_s"])
        run = run_worker(args, "run", work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(run["setup_s"])
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        values, wanted = run["layers"], spec["per_layer"]
    else:
        values = {"rate_per_s": run["rate_per_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": failed == 0 and attempted >= 1, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    method = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "rounds": run["rounds"], "traced_rounds": run.get("traced_rounds", 0),
        "work_per_round": run["work_per_round"], "work_unit": run["work_unit"],
        "setup_repeats": len(setups), "setup_s_samples": setups,
        "statistic": "rate_per_s = work per round / median round time; setup_s = median",
        "round_s": run["round_s"], "failure_reasons": run["failure_reasons"],
        "output_digests": run["digests"], **run["environment"],
    }
    return line, method


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def print_report(line: dict, method: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    workload = method["workload"]
    print(f"== {workload}  seed={method['seed']}  trace={method['trace']}  "
          f"rounds={method['rounds']}  attempted={line['attempted']}  "
          f"failed={line['failed']}")
    rows = [(k, m["value"], m["unit"]) for k, m in line["metrics"].items()]
    if not method["trace"]:
        rate = line["metrics"]["rate_per_s"]["value"]
        name, unit, derive = RATE_NAMES[workload]
        rows.append((name, derive(rate), unit))
        rows.append(("ops_failed_frac", line["failed"] / line["attempted"], "ratio"))
    for name, value, unit in rows:
        print(f"  {name:38s} {value:>16.6g} {unit}")
    for reason in method["failure_reasons"]:
        print(f"  FAILED: {reason}")
    print("method " + json.dumps(method))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "picardnet" / "__init__.py").is_file():
        print(f"error: no picardnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            line, method = measure(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(line, method)
        lines.append(line)
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
