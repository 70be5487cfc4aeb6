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


def test_audit_p1_bounds_pass_the_benchmark_checks(workloads, tmp_path):
    # every p = 1 operation of the audit, which runs the simplex step of both
    # targets through the CLI
    ops = [op for op in workloads.build("audit", 1, ROOT, str(tmp_path)).ops(0)
           if op.name.endswith(".p1")]
    assert ops
    done = {}
    for op in ops:
        done[op.name] = op.call(done)
        assert op.check(done[op.name], done) is None, op.name
