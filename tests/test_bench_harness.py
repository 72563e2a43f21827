"""bench/harness.py, run end to end on a throwaway case script."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

SCRIPT = """
import os
import sys
import time

sys.path.insert(0, BENCH_DIR)
import harness


def env():
    names = ("PYTHONPATH", *harness.PINNED_THREADS)
    seen = " ".join(f"{name}={os.environ.get(name)}" for name in names)
    return lambda: time.sleep(0.001), lambda _: seen


def pid():
    return lambda: time.sleep(0.001), lambda _: str(os.getpid())


CASES = {name: harness.Case(globals()[name], repeats=2) for name in CASE_NAMES}

if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, "BENCH_fake.json", CASES))
"""


def run_fake(tmp_path: Path, case_names: tuple, labels: str) -> subprocess.CompletedProcess:
    """Run the fake script from ``tmp_path`` on one tree per label, each of them ``src``."""
    script = tmp_path / "fake.py"
    script.write_text(SCRIPT.replace("BENCH_DIR", repr(str(ROOT / "bench")))
                      .replace("CASE_NAMES", repr(case_names)))
    env = {**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "4"}
    return subprocess.run([sys.executable, str(script), *(f"{label}={SRC}" for label in labels)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def test_runs_alternate_in_clean_children_and_the_report_pairs_them(tmp_path):
    proc = run_fake(tmp_path, ("env",), "ab")
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[1] for line in proc.stderr.splitlines()] == ["a", "b", "b", "a"]
    report = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert set(report) == {"machine", "method", "cases"}
    case = report["cases"]["env"]
    assert case["same_output"] is True
    assert (case["unit"], case["repeats"]) == ("s", 2)
    for label in "ab":
        tree = case[label]
        assert tree["output"] == ("PYTHONPATH=None OMP_NUM_THREADS=1 "
                                  "OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1")
        for key in ("time", "peak_rss_mb"):
            assert set(tree[key]) == {"median", "p25", "p75", "min", "max"}
        assert [set(run) for run in tree["runs"]] == [{"time", "peak_rss_mb"}] * 2
    assert "time_ratio_to_a" not in case["a"]
    ratios = [b["time"] / a["time"] for a, b in zip(case["a"]["runs"], case["b"]["runs"])]
    paired = case["b"]["time_ratio_to_a"]
    assert paired["median"] == pytest.approx(statistics.median(ratios))
    assert {"p25", "p75", "min", "max"} <= set(paired)
    assert (paired["faster"], paired["repeats"]) == (sum(q < 1.0 for q in ratios), 2)


def test_an_output_that_changes_between_runs_of_one_tree_raises(tmp_path):
    proc = run_fake(tmp_path, ("pid",), "a")
    assert proc.returncode != 0
    assert "RuntimeError: output differs between runs of one tree" in proc.stderr
    assert not (tmp_path / "BENCH_fake.json").exists()


def test_paired_ratio_counts_the_repeats_a_tree_was_faster(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import harness

    runs = [{"time": t} for t in (2.0, 0.5, 0.9, 1.0)]
    paired = harness.paired(runs, [{"time": 1.0}] * 4)
    assert (paired["faster"], paired["repeats"]) == (2, 4)
    assert (paired["median"], paired["min"], paired["max"]) == (0.95, 0.5, 2.0)


def test_looped_makes_every_call_and_raises_when_their_outputs_differ(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import harness

    call, output = harness.looped([lambda: 7] * 3, str)
    assert call() == [7, 7, 7] and output(call()) == "7"
    counter = iter(range(3))
    call, output = harness.looped([lambda: next(counter)] * 3, str)
    with pytest.raises(RuntimeError, match="output differs between calls of one run"):
        output(call())
