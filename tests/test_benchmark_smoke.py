"""One pass of each perfbench workload, with every op's output gate.

The benchmark in perfbench/ reads library names and checks outputs that
no unit test sees.  A change that breaks one of its gates, or removes a
name it reads, fails here instead of only in a benchmark run.  Nothing
under perfbench/ is written: the workloads set up in tmp_path, and no
bytecode is cached for the imported modules.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_one_pass_of_each_workload_passes_every_gate(tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import harness
        import workloads

        lib = harness.Library(ROOT)
        assert workloads.WORKLOADS
        for name, workload_class in workloads.WORKLOADS.items():
            workdir = tmp_path / name
            workdir.mkdir()
            ops = next(iter(workload_class(lib, 0, workdir).passes()))
            assert ops, name
            for op in ops:
                # check raises GateError on a wrong output; True is a predicted failure
                assert op.check(op.run()) is False, (name, op.kind)
