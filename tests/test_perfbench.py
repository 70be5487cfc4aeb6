"""The benchmark's workloads still build and run against the package API."""

import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads
    return workloads


def test_workloads_build_and_run_their_first_op(workloads, tmp_path):
    for name in ("small-pool", "dense", "audit"):
        plan = workloads.build(name, 1, ROOT, str(tmp_path))
        ops = plan.ops(0)
        assert ops, name
        out = ops[0].call({})
        assert ops[0].check(out, {}) is None, (name, ops[0].name)
