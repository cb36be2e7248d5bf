"""Acceptance suite: one test per exit criterion, exact arithmetic
throughout (zero tolerance), each printing a PASS/FAIL line.

Criteria:
 1. finite relation suite, n in {2, 3}, degrees <= 3, modes in [-2, 2],
    symbolic AND 5-point exact random evaluation
 2. zero-mode suite: the five Cartan-type relation families plus the
    closed-form coefficient match, |d| <= 3, n <= 4
 3. diagonal-series two-route identity, |d| <= 3, n <= 3, plus the exact
    vacuum closed form
 4. quotient-series cutoff-row independence, finite and affine, |d| <= 2
 5. toroidal suite at n = 3, degrees <= 2, modes in [-2, 2], plus the
    periodic-shift invariant
 6. localization oracle: tangent-character route equals closed forms,
    n = 3, degrees <= 2, modes in {-1, 0, 1}, with the dimension counts
 7. specialization closure for n = 3, K in {1, 2}, small dominant weights,
    with the off-by-one negative control failing
 8. soundness controls: every mutated relation fails with a counterexample
 9. determinism: identical (config, seed) gives byte-identical reports
"""

import json

from laumonk.finite_action import FiniteAction
from laumonk.patterns import AffinePattern, enumerate_affine_total, \
    enumerate_finite
from laumonk.relations import (
    loop_suite,
    negative_controls,
    toroidal_suite,
    verify_gl_zero_modes,
)
from laumonk.specialization import LevelWeight, closure_report
from laumonk.tangent import TangentOracle
from laumonk.toroidal_action import ToroidalAction


def _announce(criterion, ok, detail=""):
    print("ACCEPTANCE %-38s %s %s" % (criterion, "PASS" if ok else "FAIL",
                                      detail))
    assert ok


def _finite_patterns(n, max_total):
    def compositions(total, parts):
        if parts == 0:
            return [()] if total == 0 else []
        return [(h,) + t for h in range(total + 1)
                for t in compositions(total - h, parts - 1)]

    out = []
    for total in range(max_total + 1):
        for deg in compositions(total, n - 1):
            out.extend(enumerate_finite(n, deg))
    return out


def test_criterion_1_finite_relation_suite():
    failures = []
    entries = 0
    for n in (2, 3):
        for strategy in ("symbolic", "random"):
            reports = loop_suite(n, max_degree=3, window=2,
                                 strategy=strategy, seed=2024, trials=5)
            entries += sum(r.entries_checked for r in reports)
            failures += [(n, strategy, r.relation.key())
                         for r in reports if not r.passed]
    _announce("1 finite relations (both strategies)", not failures,
              "entries=%d %s" % (entries, failures[:3]))


def test_criterion_2_zero_mode_suite():
    failures = []
    for n in (2, 3, 4):
        reports = verify_gl_zero_modes(FiniteAction(n), max_degree=3,
                                       strategy="symbolic", seed=0)
        failures += [(n, r.relation.key()) for r in reports if not r.passed]
    _announce("2 zero-mode suite (n <= 4, |d| <= 3)", not failures,
              str(failures[:3]))


def test_criterion_3_psi_two_route():
    ok = True
    for n in (2, 3):
        A = FiniteAction(n)
        for p in _finite_patterns(n, 3):
            for i in range(1, n):
                if A.psi_via_a_series(p, i) != A.psi_eigenvalue(p, i):
                    ok = False
    # vacuum closed form, verbatim
    A2 = FiniteAction(2)
    ctx = A2.ctx
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    vac = enumerate_finite(2, (0,))[0]
    ok = ok and A2.psi_eigenvalue(vac, 1) == \
        t2 ** -1 * t1 * v ** -1 * (1 - t2 ** 2 * v ** 3 * z ** -1) \
        / (1 - t1 ** 2 * v * z ** -1)
    _announce("3 psi two-route identity", ok)


def test_criterion_4_quotient_row_independence():
    ok = True
    for n in (2, 3):
        A = FiniteAction(n)
        for p in _finite_patterns(n, 2):
            for i in range(1, n):
                vals = {A.psi_via_quotients(p, i, m).to_string()
                        for m in range(0, i)}
                ok = ok and len(vals) == 1
    T = ToroidalAction(3)
    pats = ([AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
            + enumerate_affine_total(3, 2))
    for p in pats:
        for i in (1, 2, 3):
            base = T.psi_via_quotients(p, i, i - 1)
            for m in (i - 3, i - 2):
                ok = ok and T.psi_via_quotients(p, i, m) == base
            ok = ok and base == T.psi_eigenvalue(p, i)
    _announce("4 cutoff-row independence", ok)


def test_criterion_5_toroidal_suite():
    reports = toroidal_suite(3, max_degree=2, window=2, strategy="symbolic",
                             seed=2024)
    failures = [r.relation.key() for r in reports if not r.passed]
    # periodic-shift invariant on the same range
    T = ToroidalAction(3)
    pats = ([AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
            + enumerate_affine_total(3, 2))
    shift_ok = True
    for p in pats:
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    for r in range(-2, 3):
                        lhs = T.node_shift_coeff(kind, p, node - 3,
                                                 tr.column - 3, r)
                        rhs = T.node_shift_coeff(kind, p, node, tr.column,
                                                 r) * T.hat_scale ** (-r)
                        shift_ok = shift_ok and lhs == rhs
    _announce("5 toroidal suite + periodic shift",
              not failures and shift_ok, str(failures[:3]))


def test_criterion_6_localization_oracle():
    oracle = TangentOracle(3)
    T = ToroidalAction(3)
    pats = ([AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
            + enumerate_affine_total(3, 2))
    ok = True
    checks = 0
    for p in pats:
        ok = ok and oracle.tangent_character_space(p).size() == \
            2 * sum(p.degree())
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    if kind == "f":
                        corr = oracle.tangent_character_correspondence(
                            p, node, tr.column)
                        ok = ok and corr.size() == 2 * sum(p.degree()) + 1
                    for r in (-1, 0, 1):
                        checks += 1
                        ok = ok and oracle.bott_coefficient(
                            kind, p, node, tr.column, r) == tr.coeff(r)
    _announce("6 localization oracle", ok, "checks=%d" % checks)


def test_criterion_7_specialization_closure():
    ok = True
    for K in (1, 2):
        for mu in ((0, 0, 0), (1, 0, 0), (1, 1, 0)):
            w = LevelWeight(3, K, mu)
            rep = closure_report(w, max_total=2)
            ok = ok and rep["closure"]
    w = LevelWeight(3, 1, (0, 0, 0))
    control = closure_report(w, max_total=2, wrong_u=True)
    control_failed = not control["closure"] and any(
        b["violations_vanishing"] for b in control["blocks"])
    _announce("7 specialization closure", ok and control_failed)


def test_criterion_8_soundness_controls():
    reports = negative_controls(3, max_degree=2, window=1,
                                strategy="symbolic", seed=0)
    ok = bool(reports) and all(
        (not r.passed) and r.counterexample is not None
        and r.counterexample.get("residual") for r in reports)
    _announce("8 soundness controls", ok,
              "controls=%d" % len(reports))


def test_criterion_9_determinism():
    def run_bytes():
        reports = loop_suite(2, max_degree=2, window=1, strategy="random",
                             seed=99, trials=5)
        reports += negative_controls(3, max_degree=1, window=1,
                                     strategy="random", seed=99)
        return json.dumps([r.to_json() for r in reports],
                          sort_keys=True).encode()

    _announce("9 determinism", run_bytes() == run_bytes())
