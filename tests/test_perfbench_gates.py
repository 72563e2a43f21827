"""perfbench's gates on the first operation of each workload, at its pinned seed.

``perfbench/workloads.py`` is loaded as it is, read-only.  Each workload sets
up its inputs, runs its once-only gates, then times nothing: it runs its
first input and checks the result, golden digest included.  So a change
that moves a digest pinned in ``perfbench/golden.json``, or drops a name
perfbench calls, fails here too, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operation_of_each_workload_passes_its_gates(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workloads.DEFAULT_SEED, tmp_path)
    assert [reason for reason in workload.prepare(state) if reason] == []
    item = state.inputs[0]
    workload.before(state, item)
    assert workload.check(state, item, workload.run(state, item)) is None
