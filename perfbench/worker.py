"""Run one perfbench workload in this (fresh) process and write its result.

run.py starts this script with BLAS threads pinned to 1 and
PICARDNET_THREADS unset.  ``--mode setup`` only times set-up (importing
picardnet, the catalog entry and encodings, the generated inputs, and for
realize the network build).  ``--mode run`` then runs rounds of operations
for ``--seconds`` (at least one round), checks every operation and records peak RSS.  With
``--trace 1`` it alternates untraced and traced rounds instead and reports
per-layer metrics for one set-up plus one round.
"""

import time

_START = time.perf_counter()  # set-up time includes importing picardnet and numpy

import argparse
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_FAILURE_REASONS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    return parser.parse_args(argv)


def import_picardnet():
    sys.path.insert(0, str(SRC))
    import picardnet

    if Path(picardnet.__file__).resolve().parent != (SRC / "picardnet").resolve():
        raise SystemExit(f"picardnet imported from {picardnet.__file__}, not from {SRC}")


class Ops:
    """Operation timings and gate outcomes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_FAILURE_REASONS:
                self.reasons.append(reason)


def run_round(workload, state, ops: Ops, clock=time.perf_counter) -> float:
    """One operation per input; returns the summed operation time."""
    busy = 0.0
    for item in state.inputs:
        workload.before(state, item)
        start = clock()
        try:
            result = workload.run(state, item)
        except Exception as exc:  # a crashing operation is a failed one
            busy += clock() - start
            ops.record(f"{type(exc).__name__}: {exc}")
            continue
        busy += clock() - start
        try:
            reason = workload.check(state, item, result)
        except Exception as exc:  # malformed output fails its operation
            reason = f"check raised {type(exc).__name__}: {exc}"
        ops.record(reason)
    return busy


def layer_metrics(setup: dict, total: dict, rounds: int, overhead_frac: float) -> dict:
    """Per-layer figures for one set-up plus one round (the mean traced round).

    ``setup`` and ``total`` are tracer snapshots taken after set-up and at
    the end.  The network sizes describe the last network built.
    """

    def one(key: str) -> float:
        before = setup.get(key, 0.0)
        return before + (total.get(key, 0.0) - before) / rounds

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m = {name: one(name) for name in (
        "indexrng.substreams", "indexrng.normals", "sde.euler_paths", "sde.euler_steps",
        "mlp.estimates", "builder.euler_networks", "nets.compose_calls", "nets.sum_calls",
        "nets.realize_calls", "analysis.paths", "analysis.steps",
        "trace.wall_s", "trace.remainder_s")}
    for bucket, name in (("indexrng", "indexrng.self_s"), ("sde", "sde.self_s"),
                         ("mlp", "mlp.self_s"), ("builder", "builder.self_s"),
                         ("nets.construct", "nets.construct_self_s"),
                         ("nets.realize", "nets.realize_self_s"),
                         ("analysis", "analysis.self_s"), ("problems", "problems.self_s"),
                         ("cli", "cli.self_s")):
        m[name] = one(f"self_s:{bucket}")
    for name in ("nets.dense_params", "nets.nonzero_params", "nets.stored_bytes"):
        m[name] = total.get(name, 0.0)
    m["nets.nonzero_frac"] = ratio(m["nets.nonzero_params"], m["nets.dense_params"])
    m["builder.live_step_frac"] = ratio(one("builder.live_steps"), one("builder.steps_built"))
    m["indexrng.us_per_substream"] = ratio(m["indexrng.self_s"], m["indexrng.substreams"], 1e6)
    m["sde.us_per_step"] = ratio(m["sde.self_s"], m["sde.euler_steps"], 1e6)
    m["nets.us_per_realize"] = ratio(m["nets.realize_self_s"], m["nets.realize_calls"], 1e6)
    m["nets.realize_computed_bytes_per_s"] = ratio(one("nets.realized_bytes"),
                                                   m["nets.realize_self_s"])
    m["analysis.us_per_step"] = ratio(m["analysis.self_s"], m["analysis.steps"], 1e6)
    m["trace.overhead_frac"] = overhead_frac
    return m


def environment() -> dict:
    """Versions and host facts recorded beside every result."""
    import ctypes
    import glob
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    cpu_model = l3 = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(ln.split(":", 1)[1].strip() for ln in fh
                             if ln.startswith("model name"))
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            l3 = fh.read().strip()
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "PICARDNET_THREADS": os.environ.get("PICARDNET_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_picardnet()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with tracer.window() if tracer else nullcontext():
        state = workload.setup(args.seed, work_dir)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s}
    if args.mode == "run":
        result.update(run(args, workload, state, tracer))
        result["environment"] = environment()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


def run(args, workload, state, tracer) -> dict:
    ops = Ops()
    for reason in workload.prepare(state):
        ops.record(reason)
    plain: list[float] = []
    traced: list[float] = []
    setup_snapshot = tracer.snapshot() if tracer else None
    start = time.perf_counter()
    while True:
        if tracer is None:
            plain.append(run_round(workload, state, ops))
        else:
            # alternate which side goes first, so drift hits both alike
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    with tracer.window():
                        covered = tracer.top_s
                        busy = run_round(workload, state, ops)
                        tracer.check_coverage(busy, tracer.top_s - covered, len(state.inputs))
                    traced.append(busy)
                else:
                    plain.append(run_round(workload, state, ops))
        if time.perf_counter() - start >= args.seconds:
            break
    work = workload.work_per_input * len(state.inputs)
    out = {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failure_reasons": ops.reasons,
        "rounds": len(plain),
        "round_s": plain,
        "work_per_round": work,
        "work_unit": workload.work_unit,
        "rate_per_s": work / statistics.median(plain),
        "digests": {str(k): v for k, v in state.digests.items()},
    }
    if tracer is not None:
        tracer.check_accounting()
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        out["traced_rounds"] = len(traced)
        out["layers"] = layer_metrics(setup_snapshot, tracer.snapshot(), len(traced), overhead)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
