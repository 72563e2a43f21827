"""Span tracer that wraps picardnet's public functions from outside.

The tracer replaces each public function of the traced modules with a
timing wrapper, in every picardnet namespace that holds the function, so
calls made through a name imported elsewhere (``mlp.euler_evaluate``,
``builder.compose``, ...) are seen too.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of the spans it
caused.  Self time is summed per bucket: one bucket per module, except that
``nets.realize`` is kept apart from the rest of ``nets`` (construction).
Count hooks run after their span has ended; their cost is kept out of every
self time and added to the untraced remainder, so that

    sum(self times) + remainder == traced wall time

holds exactly (up to float rounding) whenever the tracer is sound.  That
identity holds by construction, so it cannot show work that ran outside
every span; ``check_coverage`` does, by comparing the top-level span time
with the caller's own clock around the operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("indexrng", "sde", "mlp", "builder", "nets", "problems", "analysis", "cli")


class TraceAccountingError(AssertionError):
    pass


def _layers_bytes(net) -> int:
    return sum(w.nbytes + b.nbytes for w, b in net.layers)


def _bind(sig: inspect.Signature, args, kwargs) -> dict:
    if not kwargs and len(args) == len(sig.parameters):
        return dict(zip(sig.parameters, args))
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Collects per-bucket self times and per-layer counts inside windows."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.remainder_s = 0.0
        self.top_s = 0.0  # summed duration of the spans that have no parent
        self._stack: list[list] = []
        self._active = False
        self._idle_since = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._breakpoints = importlib.import_module("picardnet.sde").effective_breakpoints

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        package = importlib.import_module("picardnet")
        modules = {name: importlib.import_module(f"picardnet.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        for mod_name, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                bucket = mod_name
                if mod_name == "nets":
                    bucket = "nets.realize" if name == "realize" else "nets.construct"
                wrapper = self._wrap(bucket, fn, self._hook(mod_name, name, fn))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    @contextmanager
    def window(self):
        """Trace the enclosed block: patch, time, then restore the originals."""
        self.install()
        try:
            start = time.perf_counter()
            self._idle_since = start
            self._active = True
            try:
                yield self
            finally:
                self._active = False
                end = time.perf_counter()
                if self._stack:
                    raise TraceAccountingError(f"{len(self._stack)} spans left open")
                self.remainder_s += end - self._idle_since
                self.wall_s += end - start
        finally:
            self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, bucket: str, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            if not stack:
                self.remainder_s += frame[0] - self._idle_since
            stack.append(frame)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_s[bucket] += duration - frame[1]
                if done and hook is not None:
                    hook(args, kwargs, result)
                after = clock()
                if stack:
                    # hook cost is tracer overhead: keep it out of the parent's self time
                    stack[-1][1] += after - frame[0]
                    self.remainder_s += after - end
                else:
                    self.top_s += duration
                    self._idle_since = end
            return result

        return traced

    # -- counts -----------------------------------------------------------

    def _hook(self, module: str, name: str, fn):
        counts = self.counts
        key = f"{module}.{name}"
        sig = inspect.signature(fn)
        breakpoints = self._breakpoints  # the original, never a wrapper

        if key == "indexrng.generator":
            def hook(args, kwargs, result):
                counts["indexrng.substreams"] += 1
        elif key == "indexrng.standard_normals":
            def hook(args, kwargs, result):
                counts["indexrng.normals"] += result.size
        elif key == "sde.euler_evaluate":
            def hook(args, kwargs, result):
                a = _bind(sig, args, kwargs)
                counts["sde.euler_paths"] += 1
                counts["sde.euler_steps"] += len(breakpoints(a["grid"], a["t"], a["s"])) - 1
        elif key == "mlp.mlp_estimate":
            def hook(args, kwargs, result):
                counts["mlp.estimates"] += 1
        elif key == "builder.build_euler_network":
            def hook(args, kwargs, result):
                a = _bind(sig, args, kwargs)
                pts, t, s = a["grid"].points, a["t"], a["s"]
                live = 0
                for k in range(1, len(pts)):
                    lo = max(pts[k - 1], t)
                    if min(max(s, lo), max(pts[k], t)) - lo > 0.0:
                        live += 1
                counts["builder.euler_networks"] += 1
                counts["builder.steps_built"] += len(pts) - 1
                counts["builder.live_steps"] += live
        elif key == "builder.build_mlp_network":
            def hook(args, kwargs, result):
                net = result.network
                counts["nets.dense_params"] = sum(w.size + b.size for w, b in net.layers)
                counts["nets.nonzero_params"] = sum(
                    int(np.count_nonzero(w)) + int(np.count_nonzero(b)) for w, b in net.layers)
                counts["nets.stored_bytes"] = _layers_bytes(net)
        elif key == "nets.compose":
            def hook(args, kwargs, result):
                counts["nets.compose_calls"] += 1
        elif key == "nets.sum_networks":
            def hook(args, kwargs, result):
                counts["nets.sum_calls"] += 1
        elif key == "nets.realize":
            def hook(args, kwargs, result):
                counts["nets.realize_calls"] += 1
                counts["nets.realized_bytes"] += _layers_bytes(_bind(sig, args, kwargs)["net"])
        elif key in ("analysis.coupled_paths", "analysis.simulate_terminal_batch"):
            def hook(args, kwargs, result):
                a = _bind(sig, args, kwargs)
                if "s_values" in a:
                    s_values = sorted({float(v) for v in a["s_values"]})
                    pts = set(breakpoints(a["grid"], a["t"], max(s_values + [a["t"]])))
                    steps = len(pts | set(s_values)) - 1
                else:
                    steps = len(breakpoints(a["grid"], a["t"], a["s"])) - 1
                counts["analysis.paths"] += a["n_paths"]
                counts["analysis.steps"] += a["n_paths"] * steps
        else:
            return None
        return hook

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        """Every accumulated figure, flat; self times are keyed 'self_s:<bucket>'."""
        snap = {f"self_s:{k}": v for k, v in self.self_s.items()}
        snap.update(self.counts)
        snap["trace.wall_s"] = self.wall_s
        snap["trace.remainder_s"] = self.remainder_s
        return snap

    def check_accounting(self, rel_tol: float = 1e-6) -> None:
        """Self times plus the untraced remainder must add up to the wall time."""
        negative = {k: v for k, v in self.self_s.items() if v < -1e-9}
        if negative:
            raise TraceAccountingError(f"negative self time: {negative}")
        total = sum(self.self_s.values()) + self.remainder_s
        if abs(total - self.wall_s) > rel_tol * max(self.wall_s, 1e-3):
            raise TraceAccountingError(
                f"self {sum(self.self_s.values()):.9f} s + remainder {self.remainder_s:.9f} s"
                f" != traced wall {self.wall_s:.9f} s")

    def check_coverage(self, busy_s: float, covered_s: float, ops: int,
                       rel_tol: float = 0.01, per_op_s: float = 1e-3) -> None:
        """The top-level spans must cover the operations the caller timed.

        ``busy_s`` is the caller's own clock summed around ``ops`` operations;
        ``covered_s`` is the growth of ``top_s`` meanwhile.  An operation path
        that runs outside every wrapper shows as ``busy_s - covered_s`` beyond
        the call glue allowed here (1% plus 1 ms per operation).
        """
        gap = busy_s - covered_s
        if gap < -1e-6 * max(busy_s, 1.0) or gap > rel_tol * busy_s + per_op_s * ops:
            raise TraceAccountingError(
                f"top-level spans cover {covered_s:.6f} s of {busy_s:.6f} s timed"
                f" over {ops} operations")
