"""Planted faults must be counted as failed operations by the checker, the
tracer must attribute self time to the right spans, and the reference
rescaling must cancel the host's speed.

Run with: python3 -m pytest perfbench/test_checker.py
"""

import copy

import pytest

from checker import check_command
from sources import finite_pattern_count, partition_tuple_counts
from workloads import WORKLOADS


def _command(workload, kind):
    return next(c for c in WORKLOADS[workload] if c.kind == kind)


def _report(key, status, entries, residual=None):
    family, *rest = key.split(":")
    kind = rest[0] if len(rest) == 2 else ""
    nodes = [int(x) for x in rest[-1].split("-")] if rest else []
    report = {"relation": {"family": family, "kind": kind, "nodes": nodes},
              "scope": {}, "status": status, "entries_checked": entries}
    if residual is not None:
        report["counterexample"] = {"residual": residual}
    return report


def _suite_payload(cmd):
    return {"all_pass": True, "reports": [
        _report(key, "pass", cmd.expect["psi_sources"] if
                key.startswith("psi_psi") else 5)
        for key in cmd.families]}


def _controls_payload(cmd):
    return {"all_pass": True, "reports": [
        _report(key, "fail", 3, residual="v^2 - 1") for key in cmd.families]}


def _closure_payload(closed):
    violation = [{"kind": "f", "node": 3, "column": 3}]
    return {"closure": closed, "blocks": [
        {"inside_transitions": 4, "boundary_transitions": 2,
         "violations_nonvanishing": [],
         "violations_vanishing": [] if closed else violation}]}


def _failed(ops):
    return [label for label, why in ops if why]


def test_clean_outputs_pass():
    for workload in ("loop-symbolic", "toroidal-controls"):
        cmd = _command(workload, "suite")
        ops, problems = check_command(cmd, 0, _suite_payload(cmd))
        assert not _failed(ops) and not problems
        assert len(ops) == len(cmd.families)
    cmd = _command("toroidal-controls", "controls")
    ops, problems = check_command(cmd, 0, _controls_payload(cmd))
    assert not _failed(ops) and not problems
    ops, _ = check_command(_command("oracle-specialize", "closure"), 0,
                           _closure_payload(True))
    assert not _failed(ops)
    ops, _ = check_command(_command("oracle-specialize", "wrong_u"), 1,
                           _closure_payload(False))
    assert not _failed(ops)


def test_flipped_verdict_fails_one_operation():
    cmd = _command("loop-symbolic", "suite")
    payload = _suite_payload(cmd)
    payload["reports"][5]["status"] = "fail"
    payload["all_pass"] = False
    ops, problems = check_command(cmd, 1, payload)
    assert _failed(ops) == [cmd.families[5]]
    assert not problems


def test_control_that_passed_fails():
    cmd = _command("toroidal-controls", "controls")
    payload = _controls_payload(cmd)
    payload["reports"][2] = _report(cmd.families[2], "pass", 3)
    payload["all_pass"] = False
    ops, _ = check_command(cmd, 1, payload)
    assert _failed(ops) == [cmd.families[2]]


def test_control_without_residual_fails():
    cmd = _command("toroidal-controls", "controls")
    payload = _controls_payload(cmd)
    payload["reports"][0]["counterexample"]["residual"] = ""
    ops, _ = check_command(cmd, 0, payload)
    assert _failed(ops) == [cmd.families[0]]


def test_wrong_u_closing_cleanly_fails():
    cmd = _command("oracle-specialize", "wrong_u")
    ops, _ = check_command(cmd, 0, _closure_payload(True))
    assert _failed(ops) == [cmd.name]
    ops, _ = check_command(cmd, 1, _closure_payload(True))
    assert _failed(ops) == [cmd.name]


def test_missing_family_fails():
    cmd = _command("toroidal-controls", "suite")
    payload = _suite_payload(cmd)
    dropped = payload["reports"].pop(7)
    ops, _ = check_command(cmd, 0, payload)
    assert len(ops) == len(cmd.families)
    assert _failed(ops) == [cmd.families[7]]
    assert dropped["relation"]["family"] in cmd.families[7]


def test_wrong_source_count_fails():
    cmd = _command("loop-random", "suite")
    payload = _suite_payload(cmd)
    bad = next(r for r in payload["reports"]
               if r["relation"]["family"] == "psi_psi")
    bad["entries_checked"] += 1
    ops, _ = check_command(cmd, 0, payload)
    assert len(_failed(ops)) == 1 and _failed(ops)[0].startswith("psi_psi:")

    cmd = _command("oracle-specialize", "sources")
    count = cmd.expect["count"]
    listing = [{"n": 3, "lambdas": [[1], [], []]}] * (count + 1)
    ops, _ = check_command(cmd, 0, {"count": count + 1, "patterns": listing})
    assert _failed(ops) == [cmd.name]


def test_command_error_fails_every_operation():
    cmd = _command("loop-symbolic", "suite")
    ops, _ = check_command(cmd, None, None)
    assert len(_failed(ops)) == len(cmd.families)
    broken = copy.deepcopy(_suite_payload(cmd))
    del broken["reports"][0]["status"]
    ops, _ = check_command(cmd, 0, broken)
    assert len(_failed(ops)) == len(cmd.families)


def test_independent_counts():
    # finite n=3: d11 >= d21 and d22 free, total <= 2 gives 1 + 2 + 4
    assert finite_pattern_count(3, 2) == 7
    assert finite_pattern_count(2, 4) == 5
    # prod (1 - q^k)^-3 = 1 + 3q + 9q^2 + 22q^3 + ...
    assert partition_tuple_counts(3, 3) == [1, 3, 9, 22]
    assert partition_tuple_counts(1, 5) == [1, 1, 2, 3, 5, 7]


def test_tracer_self_time_and_nesting():
    import time

    from tracer import FIELDS, Tracer, _self_times

    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def outer(depth):
        if depth:
            outer(depth - 1)
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf", "g.leaf")
    outer = tracer.wrap(outer, "outer", "g.outer")
    outer(1)
    spans = tracer.spans
    count = len(spans) // FIELDS
    assert count == 6
    nested = sorted(spans[k * FIELDS + 6] for k in range(count)
                    if spans[k * FIELDS + 1] == 1)
    assert nested == [0, 1]
    self_time = _self_times(spans, count)
    durations = [spans[k * FIELDS + 4] - spans[k * FIELDS + 3]
                 for k in range(count)]
    root = next(k for k in range(count) if spans[k * FIELDS + 2] == -1)
    assert sum(self_time) == pytest.approx(durations[root])
    assert all(t >= 0 for t in self_time)


def test_meter_rescales_to_reference_speed():
    import time

    from meter import REF_CALL_S, SLICE_CALLS, Meter

    meter = Meter()
    with meter:
        time.sleep(0.3)
    assert not meter._thread.is_alive()
    assert meter.calls > 0 and meter.calls % SLICE_CALLS == 0
    per_call = meter.slice_cpu / meter.calls
    assert meter.ref_seconds(2.0) == pytest.approx(2.0 * REF_CALL_S / per_call)
    # on a host at half the speed, work and slices both take twice as long
    meter.slice_cpu *= 2
    assert meter.ref_seconds(4.0) == pytest.approx(2.0 * REF_CALL_S / per_call)
    with pytest.raises(ValueError):
        Meter().ref_seconds(1.0)
