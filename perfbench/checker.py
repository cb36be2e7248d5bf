"""Output checker: turns one round's command results into verdicts.

An operation is one verdict: one relation report, one closure run, one
negative control or one source-count check. It fails when its verdict is
not the expected one, when its report is missing or malformed, or when its
command errored. The number of operations of a command is fixed by the
workload table, so every round attempts the same operations.
"""

from __future__ import annotations

from sources import is_partition_tuple


def _report_key(report) -> str:
    rel = report["relation"]
    bits = [rel["family"]] + ([rel["kind"]] if rel["kind"] else [])
    if rel["nodes"]:
        bits.append("-".join(str(x) for x in rel["nodes"]))
    return ":".join(bits)


def _suite_ops(cmd, rc, payload, want_status):
    """One operation per expected family; `problems` lists output that no
    operation accounts for."""
    by_key = {}
    for report in payload.get("reports", []):
        by_key.setdefault(_report_key(report), []).append(report)
    ops = []
    for key in cmd.families:
        found = by_key.get(key, [])
        if len(found) != 1:
            ops.append((key, "family reported %d times" % len(found)))
        elif found[0]["status"] != want_status:
            ops.append((key, "status %s" % found[0]["status"]))
        elif want_status == "fail" and not (
                found[0].get("counterexample") or {}).get("residual"):
            ops.append((key, "control failed without a residual"))
        elif (key.startswith("psi_psi:") and found[0]["entries_checked"]
              != cmd.expect["psi_sources"]):
            ops.append((key, "%d sources, independent count %d" % (
                found[0]["entries_checked"], cmd.expect["psi_sources"])))
        else:
            ops.append((key, None))
    problems = ["unexpected family %s" % k
                for k in sorted(set(by_key) - set(cmd.families))]
    all_ok = all(failure is None for _, failure in ops)
    if payload and (rc == 0) != all_ok:
        problems.append("exit code %s disagrees with the verdicts" % rc)
    return ops, problems


def _closure_op(cmd, rc, payload):
    blocks = payload.get("blocks")
    if not blocks:
        return "no closure blocks"
    if cmd.kind == "closure":
        if rc != 0 or payload.get("closure") is not True:
            return "closure failed (exit %s)" % rc
        if any(b["violations_vanishing"] or b["violations_nonvanishing"]
               for b in blocks):
            return "closure reports violations"
        return None
    if rc != 1 or payload.get("closure") is not False:
        return "wrong-u control closed (exit %s)" % rc
    if not any(b["violations_vanishing"] for b in blocks):
        return "wrong-u control has no vanishing violation"
    return None


def _sources_op(cmd, rc, payload):
    if rc != 0:
        return "exit %s" % rc
    total, count = cmd.expect["total"], cmd.expect["count"]
    listing = payload.get("patterns", [])
    shapes = [tuple(tuple(parts) for parts in p["lambdas"]) for p in listing]
    if payload.get("count") != count or len(shapes) != count:
        return "%s patterns, independent count %d" % (payload.get("count"),
                                                       count)
    if len(set(shapes)) != count:
        return "duplicate patterns"
    if not all(is_partition_tuple([list(s) for s in shape], p["n"], total)
               for shape, p in zip(shapes, listing)):
        return "a listed pattern is not a partition tuple of the total"
    return None


def check_command(cmd, rc, payload):
    """Verdicts of one command: (ops, problems).

    ops is a list of (label, failure or None); problems lists output that
    no operation accounts for (such as an unexpected family). rc is the
    exit code, or None if the command raised; payload is the parsed report,
    or None if there is none.
    """
    try:
        return _check(cmd, rc, payload or {})
    except (KeyError, TypeError, AttributeError, IndexError) as err:
        labels = cmd.families or (cmd.name,)
        return [(label, "malformed report: %r" % err) for label in labels], []


def _check(cmd, rc, payload):
    if cmd.kind in ("suite", "controls"):
        want = "pass" if cmd.kind == "suite" else "fail"
        return _suite_ops(cmd, rc, payload, want)
    if cmd.kind == "oracle":
        reports = payload.get("reports", [])
        fine = (rc == 0 and len(reports) == 1
                and _report_key(reports[0]) == "bott_oracle"
                and reports[0]["status"] == "pass")
        return [(cmd.name, None if fine else "oracle failed")], []
    if cmd.kind in ("closure", "wrong_u"):
        return [(cmd.name, _closure_op(cmd, rc, payload))], []
    if cmd.kind == "sources":
        return [(cmd.name, _sources_op(cmd, rc, payload))], []
    raise ValueError("unknown command kind %r" % cmd.kind)


def entries_checked(payload) -> int:
    """Entries a report vouches for: relation entries, or closure
    transitions inside and on the boundary of D(mu)."""
    if not payload:
        return 0
    if "reports" in payload:
        return sum(r["entries_checked"] for r in payload["reports"])
    return sum(b["inside_transitions"] + b["boundary_transitions"]
               for b in payload.get("blocks", []))
