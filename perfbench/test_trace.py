"""Tests of the perfbench tracer: exact work counts, bit identity, accounting, coverage.

Run from the repository root:

    python3 -m pytest -q perfbench/test_trace.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from picardnet import builder, indexrng, mlp, nets, problems, sde  # noqa: E402
from tracer import TraceAccountingError, Tracer  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

# every namespace that imports a traced function by name must see the wrapper
IMPORTED_BY_NAME = [
    (mlp, "euler_evaluate", sde),
    (mlp, "uniform_time", indexrng),
    (sde, "brownian_path", indexrng),
    (builder, "brownian_path", indexrng),
    (builder, "compose", nets),
    (builder, "sum_networks", nets),
    (builder, "uniform_time", indexrng),
]


def _relu_exact_estimate(n: int, M: int):
    entry = problems.catalog_entry("relu-exact", d=2)
    config = mlp.MlpConfig(n, M, sde.uniform_grid(1.0, 8), indexrng.FrozenSample(DEFAULT_SEED))
    return lambda: mlp.mlp_estimate(entry.problem, config, mlp.ROOT_PATH, 0.0, [0.25, -0.5])


def test_traced_estimate_counts_the_known_work_and_is_bit_identical():
    estimate = _relu_exact_estimate(4, 4)
    untraced = estimate()
    tracer = Tracer()
    with tracer.window():
        traced = estimate()
    assert tracer.counts["sde.euler_paths"] == 4916
    assert tracer.counts["indexrng.substreams"] == 7528
    assert tracer.counts["mlp.estimates"] == 1
    assert traced.hex() == untraced.hex()
    tracer.check_accounting()


@pytest.mark.parametrize("user, name, home", IMPORTED_BY_NAME)
def test_names_imported_elsewhere_are_wrapped_and_restored(user, name, home):
    original = getattr(home, name)
    assert getattr(user, name) is original
    tracer = Tracer()
    with tracer.window():
        assert getattr(user, name) is getattr(home, name)
        assert getattr(user, name) is not original
    assert getattr(user, name) is original
    assert getattr(home, name) is original


def test_accounting_holds_for_nested_spans_and_failed_calls():
    entry = problems.catalog_entry("relu-exact", d=2)
    encodings = problems.network_encodings(entry.problem, None)
    config = mlp.MlpConfig(2, 2, sde.uniform_grid(1.0, 2), indexrng.FrozenSample(DEFAULT_SEED))
    tracer = Tracer()
    with tracer.window():
        built = builder.build_mlp_network(encodings, config, mlp.ROOT_PATH, 0.0)
        nets.realize(built.network, [0.5, 0.5])
        with pytest.raises(nets.NetworkError):
            nets.compose(encodings.g, encodings.g)  # g emits 1 value, g expects 2
    tracer.check_accounting()
    assert tracer.counts["builder.euler_networks"] > 0
    assert tracer.counts["nets.compose_calls"] > 0
    assert tracer.counts["nets.realize_calls"] == 1
    for bucket in ("builder", "nets.construct", "nets.realize", "indexrng"):
        assert tracer.self_s[bucket] > 0.0


def _timed(tracer: Tracer, op) -> tuple[float, float]:
    """(time on the test's own clock, top-level span time) of one operation."""
    covered = tracer.top_s
    start = time.perf_counter()
    op()
    return time.perf_counter() - start, tracer.top_s - covered


def test_coverage_check_sees_work_outside_every_span():
    estimate = _relu_exact_estimate(3, 3)
    tracer = Tracer()
    with tracer.window():
        tracer.check_coverage(*_timed(tracer, estimate), ops=1)
        busy, covered = _timed(tracer, lambda: (estimate(), time.sleep(0.05)))
        with pytest.raises(TraceAccountingError):
            tracer.check_coverage(busy, covered, ops=1)
