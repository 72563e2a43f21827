"""Network build benchmark: wall time and peak memory of one MLP network build.

Each case is relu-exact, d = 2, on a uniform grid of K = 8 Euler steps,
seed 0, t = 0, at n = M = 2 and n = M = 3.  Every build runs in a fresh
Python process, so that process's peak resident set (``ru_maxrss``)
belongs to that one build.  The child makes the catalog encodings, then
times ``builder.build_mlp_network`` alone with ``time.perf_counter``,
reads ``ru_maxrss`` right after it, and only then hashes the raw bytes of
every layer, so runs of different source trees can be shown to build the
same network.  Source trees given together are run alternately, one
build of each per repeat, so that drift in the machine's load falls on
all of them alike.  The file keeps every run and, per case and tree, the
median, the 25th and 75th percentiles, the minimum and the maximum.  For
every tree after the first it also keeps the paired ratio of build times,
that tree over the first one within each repeat: its median and
quartiles, and the number of repeats in which that tree was faster.

    python3 bench/build.py parent=PARENT/src change=src

writes BENCH_build.json in the current directory, together with the CPU
count and model, the Python and NumPy versions and the method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

CASES = ((2, 2), (3, 3))  # (n, M)
STEPS = 8
SEED = 0
REPEATS = 11


def build_once(src: str, n: int, M: int) -> dict:
    """One build in this process; returns its time, peak RSS and digest."""
    sys.path.insert(0, os.path.abspath(src))
    import resource

    from picardnet import catalog_entry
    from picardnet.builder import build_mlp_network
    from picardnet.indexrng import FrozenSample
    from picardnet.mlp import ROOT_PATH, MlpConfig
    from picardnet.nets import architecture, param_count
    from picardnet.problems import network_encodings
    from picardnet.sde import uniform_grid

    problem = catalog_entry("relu-exact", d=2).problem
    encodings = network_encodings(problem)
    config = MlpConfig(n, M, uniform_grid(problem.horizon, STEPS), FrozenSample(SEED))
    start = time.perf_counter()
    built = build_mlp_network(encodings, config, ROOT_PATH, 0.0)
    build_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = hashlib.sha256()
    for w, b in built.network.layers:
        digest.update(w.tobytes())
        digest.update(b.tobytes())
    return {
        "build_s": build_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "depth": len(architecture(built.network)),
        "dense_params": param_count(built.network),
        "network_sha256": digest.hexdigest(),
    }


def run_child(src: str, n: int, M: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, str(n), str(M)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"build n=M={n} from {src} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


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


def paired(runs: list[dict], base: list[dict]) -> dict:
    """Per-repeat build-time ratios of one tree over the base tree."""
    ratios = [r["build_s"] / b["build_s"] for r, b in zip(runs, base)]
    return {**spread(ratios), "faster": sum(q < 1.0 for q in ratios), "repeats": len(ratios)}


def summarize(runs: list[dict]) -> dict:
    out = {key: spread([r[key] for r in runs]) for key in ("build_s", "peak_rss_mb")}
    for key in ("depth", "dense_params", "network_sha256"):
        seen = {r[key] for r in runs}
        if len(seen) != 1:
            raise RuntimeError(f"{key} differs between runs of one tree: {sorted(seen)}")
        out[key] = seen.pop()
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
    for n, M in CASES:
        runs = {label: [] for label, _ in trees}
        for rep in range(REPEATS):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, src in order:
                runs[label].append(run_child(src, n, M))
                print(f"n=M={n} {label} run {rep + 1}: {runs[label][-1]['build_s']:.3f} s, "
                      f"{runs[label][-1]['peak_rss_mb']:.0f} MB", file=sys.stderr)
        base_label = trees[0][0]
        case = {
            label: {**summarize(r), "runs": [{k: x[k] for k in ("build_s", "peak_rss_mb")}
                                             for x in r]}
            for label, r in runs.items()
        }
        for label, _ in trees[1:]:
            case[label][f"build_s_ratio_to_{base_label}"] = paired(runs[label], runs[base_label])
        cases[f"relu-exact d=2 n=M={n} K={STEPS}"] = case
    report = {
        "machine": machine(),
        "method": (f"{REPEATS} builds per case and tree, each in a fresh process, trees "
                   "alternating within a repeat; build_s is time.perf_counter around "
                   "builder.build_mlp_network (encodings made before it); peak_rss_mb is the "
                   "child's ru_maxrss right after the build; median, 25th and 75th "
                   "percentiles (statistics.quantiles, exclusive method), min and max "
                   "reported; build_s_ratio_to_<first tree> is the per-repeat ratio of "
                   "build_s over the first tree's, with the count of repeats below 1"),
        "cases": cases,
    }
    with open("BENCH_build.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(build_once(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))
        raise SystemExit(0)
    raise SystemExit(main())
