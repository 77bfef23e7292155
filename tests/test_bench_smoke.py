"""One round of each benchmark workload, so a change that makes a benchmark op
fail or disagree with its oracle fails here first. Reads ``perfbench/`` and
writes only under the test's temporary directory."""

import importlib
from pathlib import Path

import pytest

import goodsign.cli  # noqa: F401 - binds gs.cli, which the cli workload calls, as perfbench/run.py's fresh_import does
import goodsign as gs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["search", "verify", "cli"])
def test_every_benchmark_op_passes_its_oracle(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name](gs, 1, tmp_path)
    try:
        for op in workload.ops:
            assert op.check(op.call()) is None, op.name
    finally:
        workload.close()
