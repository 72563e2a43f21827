"""The one method behind the benchmark scripts in this directory.

A script names its cases and hands them to ``main``, so that

    python3 bench/build.py parent=PARENT/src change=src

runs every case on every ``LABEL=SRC`` tree, each run in a fresh process
``SCRIPT --child SRC CASE`` that imports picardnet from SRC alone, and
writes the script's ``BENCH_<topic>.json`` in the current directory.
``METHOD`` says how the runs are made and summarized.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

METRICS = ("time", "peak_rss_mb")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
METHOD = (
    "each run in a fresh process with PYTHONPATH removed and BLAS threads pinned to 1, "
    "trees alternating within a repeat; time is time.perf_counter around the case's call "
    "alone (imports and set-up before it), in the case's unit; peak_rss_mb is the child's "
    "ru_maxrss right after the call; output is computed from the call's result after both; "
    "median, 25th and 75th percentiles (statistics.quantiles, exclusive method), min and "
    "max reported; time_ratio_to_<first tree> is the per-repeat ratio of time over the "
    "first tree's, with the count of repeats below 1 as faster"
)


@dataclass(frozen=True)
class Case:
    """One benchmark case.

    ``setup()`` runs untimed in the child and returns ``(call, output)``:
    the zero-argument call to time, and the function that turns the call's
    result into the case's output string.  The reported time is the call's
    seconds times ``scale``, in ``unit``.
    """

    setup: Callable[[], tuple[Callable[[], Any], Callable[[Any], str]]]
    unit: str = "s"
    scale: float = 1.0
    repeats: int = 11


def looped(calls: list[Callable[[], Any]], output: Callable[[Any], str]):
    """``(call, output)`` of a case whose one timed run makes every call in ``calls``.

    A call too short to time on its own is repeated this way; give the case
    ``scale=1/len(calls)`` so that its unit stays per call.  The results are
    all kept until the output is computed, and their outputs must agree.
    """

    def agreed(results: list) -> str:
        seen = {output(result) for result in results}
        if len(seen) != 1:
            raise RuntimeError(f"output differs between calls of one run: {sorted(seen)}")
        return seen.pop()

    return lambda: [call() for call in calls], agreed


def sha256(chunks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def child(src: str, case: Case) -> dict:
    """One run of ``case`` in this process, with picardnet imported from ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    call, output = case.setup()
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"time": elapsed * case.scale, "peak_rss_mb": peak_kib / 1024.0,
            "output": output(result)}


def run_child(script: str, src: str, name: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(script), "--child", src, name],
        capture_output=True, text=True, check=False, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} from {src} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def spread(values: list[float]) -> dict:
    p25, _, p75 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    seen = {r["output"] for r in runs}
    if len(seen) != 1:
        raise RuntimeError(f"output differs between runs of one tree: {sorted(seen)}")
    return {**{key: spread([r[key] for r in runs]) for key in METRICS}, "output": seen.pop(),
            "runs": [{key: r[key] for key in METRICS} for r in runs]}


def paired(runs: list[dict], base: list[dict]) -> dict:
    """Per-repeat time ratios of one tree over the base tree."""
    ratios = [r["time"] / b["time"] for r, b in zip(runs, base)]
    return {**spread(ratios), "faster": sum(q < 1.0 for q in ratios), "repeats": len(ratios)}


def measure(script: str, cases: dict[str, Case], trees: list[tuple[str, str]]) -> dict:
    """Run every case of ``script`` on every (label, src) tree; returns the report."""
    base = trees[0][0]
    report = {}
    for name, case in cases.items():
        runs = {label: [] for label, _ in trees}
        for rep in range(case.repeats):
            for label, src in trees if rep % 2 == 0 else trees[::-1]:
                run = run_child(script, src, name)
                runs[label].append(run)
                print(f"{name} {label} run {rep + 1}: {run['time']:.4g} {case.unit}, "
                      f"{run['peak_rss_mb']:.0f} MB", file=sys.stderr)
        summary = {label: summarize(r) for label, r in runs.items()}
        for label, _ in trees[1:]:
            summary[label][f"time_ratio_to_{base}"] = paired(runs[label], runs[base])
        outputs = {s["output"] for s in summary.values()}
        report[name] = {"unit": case.unit, "repeats": case.repeats,
                        "same_output": len(outputs) == 1, **summary}
    return {"machine": machine(), "method": METHOD, "cases": report}


def main(script: str, out: str, cases: dict[str, Case]) -> int:
    """``SCRIPT LABEL=SRC ...`` writes ``out``; ``SCRIPT --child SRC CASE`` is one run."""
    if sys.argv[1:2] == ["--child"]:
        src, name = sys.argv[2:]
        print(json.dumps(child(src, cases[name])))
        return 0
    parser = argparse.ArgumentParser(description=f"Write {out} from fresh-process runs.")
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC",
                        help="a label and the source directory that holds picardnet")
    args = parser.parse_args()
    trees = [tuple(spec.split("=", 1)) for spec in args.trees]
    if any(len(t) != 2 for t in trees) or len({t[0] for t in trees}) != len(trees):
        parser.error("give each tree as LABEL=SRC, with distinct labels")
    report = measure(script, cases, trees)
    with open(out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0
