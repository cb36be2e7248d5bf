import hashlib
import json

import pytest

from laumonk import relations
from laumonk.finite_action import ActionError, FiniteAction
from laumonk.patterns import FinitePattern, enumerate_finite
from laumonk.relations import (
    RelationId,
    _Resample,
    _run,
    loop_suite,
    negative_controls,
    toroidal_suite,
    verify_commutator,
    verify_gl_zero_modes,
    verify_psi_psi,
    verify_psi_x,
    verify_serre,
    verify_xx_pair,
    verify_xx_same,
)
from laumonk.toroidal_action import ToroidalAction


@pytest.fixture(scope="module")
def fm2():
    return FiniteAction(2)


@pytest.fixture(scope="module")
def fm3():
    return FiniteAction(3)


@pytest.fixture(scope="module")
def am3():
    return ToroidalAction(3)


def test_xx_same_passes(fm2, fm3):
    assert verify_xx_same(fm2, "f", 1, window=2, max_degree=3).passed
    assert verify_xx_same(fm3, "e", 2, window=1, max_degree=2,
                          strategy="random", seed=5).passed


def test_xx_same_entry_count_matches_prediction(fm2):
    # completeness of scope: one residual per source, target and mode pair,
    # predicted here straight from the neighbor combinatorics
    report = verify_xx_same(fm2, "f", 1, window=2, max_degree=3)
    predicted = 0
    for total in range(4):
        for p in enumerate_finite(2, (total,)):
            targets = set()
            for _, q in p.moves(1, 1):
                for _, r in q.moves(1, 1):
                    targets.add(r)
            if targets:
                predicted += 25 * len(targets)
    assert report.entries_checked == predicted


def test_xx_adjacent_and_distant(fm3):
    assert verify_xx_pair(fm3, "f", 1, 2, window=1, max_degree=2).passed
    fm4 = FiniteAction(4)
    rep = verify_xx_pair(fm4, "f", 1, 3, window=1, max_degree=2)
    assert rep.passed  # a_{13} = 0: plain commutation


def test_commutator_diagonal_value(fm2):
    # composing the two quoted coefficient examples on the vacuum gives the
    # zero-mode eigenvalue difference over v^2 - 1
    ctx = fm2.ctx
    t1, t2 = ctx.t
    v = ctx.v
    zero = FinitePattern.zero(2)
    ef = ctx.zero
    for tr in fm2.transitions("f", 1, zero):
        for tr2 in fm2.transitions("e", 1, tr.target):
            if tr2.target == zero:
                ef = ef + tr.coeff(0) * tr2.coeff(0)
    want = (t1 * t2 ** -1 * v ** -1 - t1 ** -1 * t2 * v) / (v ** 2 - 1)
    assert ef == want
    assert verify_commutator(fm2, 1, 1, window=2, max_degree=3).passed


def test_commutator_beyond_support(fm2):
    # at a + b = 5 only the plus-series contributes
    zero = FinitePattern.zero(2)
    assert fm2.psi_mode(zero, 1, 5, "-").is_zero
    assert not fm2.psi_mode(zero, 1, 5, "+").is_zero


def test_psi_x_ratios(fm3):
    # the per-transition rational identity that encodes the psi-x relation
    for kind in ("e", "f"):
        for k in (1, 2):
            for l in (1, 2):
                assert verify_psi_x(fm3, k, l, kind, max_degree=2).passed


def test_psi_x_ratio_closed_forms(fm2, fm3):
    # a transition at the psi node itself changes the eigenvalue by
    # v^{-2} (1 - z^{-1} v^{l+2} s) / (1 - z^{-1} v^{l-2} s)
    ctx = fm2.ctx
    v, z = ctx.v, ctx.z
    zero = FinitePattern.zero(2)
    (tr,) = fm2.transitions("f", 1, zero)
    s = zero.weight(ctx, 1, 1)
    lhs = fm2.psi_eigenvalue(tr.target, 1) / fm2.psi_eigenvalue(zero, 1)
    rhs = v ** -2 * (1 - z ** -1 * v ** 3 * s) / (1 - z ** -1 * v ** -1 * s)
    assert lhs == rhs
    # a transition one row above the psi node multiplies it by
    # v (1 - z^{-1} v^{l} s) / (1 - z^{-1} v^{l+2} s)
    ctx3 = fm3.ctx
    v3, z3 = ctx3.v, ctx3.z
    zero3 = FinitePattern.zero(3)
    for tr in fm3.transitions("f", 2, zero3):
        s = zero3.weight(ctx3, 2, tr.column)
        lhs = fm3.psi_eigenvalue(tr.target, 1) \
            / fm3.psi_eigenvalue(zero3, 1)
        rhs = v3 * (1 - z3 ** -1 * v3 ** 1 * s) \
            / (1 - z3 ** -1 * v3 ** 3 * s)
        assert lhs == rhs


def test_psi_psi_diagonality(fm3, am3):
    assert verify_psi_psi(fm3, 1, 2, max_degree=2).passed
    assert verify_psi_psi(am3, 3, 1, max_degree=1).passed


def test_serre_passes_and_reduction_is_grouped(fm3):
    rep = verify_serre(fm3, "f", 1, 2, window=2, max_degree=2)
    assert rep.passed
    rep_e = verify_serre(fm3, "e", 2, 1, window=2, max_degree=2)
    assert rep_e.passed


def test_strategy_equivalence(fm3):
    # symbolic pass <=> random pass on suites small enough to run both
    for maker in (
        lambda s: verify_xx_same(fm3, "f", 1, window=1, max_degree=2,
                                 strategy=s, seed=3),
        lambda s: verify_commutator(fm3, 1, 2, window=1, max_degree=2,
                                    strategy=s, seed=3),
        lambda s: verify_serre(fm3, "f", 2, 1, window=1, max_degree=2,
                               strategy=s, seed=3),
        lambda s: verify_xx_same(fm3, "f", 1, window=1, max_degree=2,
                                 strategy=s, seed=3, mutate="halved_twist"),
    ):
        assert maker("symbolic").passed == maker("random").passed


@pytest.mark.parametrize("strategy", ["symbolic", "random"])
def test_serre_failing_group_without_witness_fails(monkeypatch, fm3,
                                                    strategy):
    # a surviving character group fails the family even when the windowed
    # sweep finds no concrete (a, b, c)
    monkeypatch.setattr(relations, "_serre_sweep", lambda *args: None)
    rep = verify_serre(fm3, "f", 1, 2, mutate="flattened", window=1,
                       max_degree=2, strategy=strategy, seed=3)
    assert rep.status == "fail" and rep.entries_checked == 28
    cex = rep.counterexample
    assert sorted(cex) == ["modes", "residual", "source", "target"]
    assert cex["modes"] == ["character group"] and cex["residual"]


def test_negative_controls_fail_with_counterexamples():
    for rep in negative_controls(3, max_degree=2, window=1):
        assert not rep.passed
        assert rep.counterexample is not None
        assert rep.counterexample["residual"]


def test_unknown_strategy_is_rejected(fm2):
    with pytest.raises(ValueError, match="unknown strategy"):
        verify_xx_same(fm2, "f", 1, window=1, max_degree=1,
                       strategy="bogus")


def test_random_strategy_needs_a_trial(fm2):
    # with no sample point every residual is empty and every entry "passes"
    with pytest.raises(ValueError, match="at least one trial"):
        verify_xx_same(fm2, "f", 1, window=1, max_degree=1,
                       strategy="random", trials=0)


def test_report_determinism(fm2):
    a = verify_xx_same(fm2, "f", 1, window=1, max_degree=2,
                       strategy="random", seed=42)
    b = verify_xx_same(fm2, "f", 1, window=1, max_degree=2,
                       strategy="random", seed=42)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_gl_zero_modes_small():
    reports = verify_gl_zero_modes(FiniteAction(3), max_degree=2)
    assert all(r.passed for r in reports)
    names = {r.relation.family for r in reports}
    assert names == {"gl_cartan", "gl_twist", "gl_commutator", "gl_distant",
                     "gl_serre", "gl_closed_form"}


def test_toroidal_boundary_families(am3):
    assert verify_xx_pair(am3, "f", 3, 1, window=1, max_degree=1,
                          boundary=True).passed
    assert verify_psi_x(am3, 1, 3, "f", max_degree=1,
                        boundary="psi_hat").passed
    assert verify_psi_x(am3, 3, 1, "e", max_degree=1,
                        boundary="x_hat").passed
    # the shift is necessary
    assert not verify_psi_x(am3, 1, 3, "f", max_degree=1, boundary="psi_hat",
                            mutate="unshifted").passed


def test_a_mutation_the_family_does_not_apply_is_rejected(fm3):
    # each would run unmutated and record the mutation in its scope
    fm4 = FiniteAction(4)
    cases = [
        lambda: verify_xx_pair(fm4, "f", 1, 3, mutate="squared_twist"),
        lambda: verify_xx_same(fm3, "f", 1, mutate="flattened"),
        lambda: verify_psi_x(fm3, 1, 2, "f", mutate="unshifted"),
        lambda: verify_commutator(fm3, 1, 2, mutate="textbook_divisor"),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="does not apply mutation"):
            case()


def test_negative_controls_reject_rank_two():
    with pytest.raises(ActionError):
        negative_controls(2, max_degree=1, window=1)


def test_resample_exhaustion_is_an_error_report(fm2):
    # a family whose every sample point hits a vanishing denominator is
    # reported with status "error", not thrown
    calls = []

    def body(ev, check):
        calls.append(ev.points)
        raise _Resample(0)

    rep = _run(fm2, RelationId("always_resamples"), body, "random", 0, 3)
    assert rep.status == "error" and not rep.passed
    assert rep.entries_checked == 0 and rep.counterexample is None
    assert rep.to_json()["error"]
    assert len(calls) == 13
    assert len({str(points) for points in calls}) == 13  # fresh points each time


# (suite, n) -> count and sha256 of the newline-joined relation keys in
# report order.  The golden digests pin that order only at n = 3 and 4.
SUITE_ORDER = {
    ("loop", 2): (6, "332ff94c11642f1233c4884c16318b85f781fa401025a47c5f6c74193454db11"),
    ("loop", 3): (28, "f2394fc7ac7d54f63fecb57c880d96807a9368b1a15a683c2bafcb53d2155796"),
    ("loop", 4): (62, "df612de7a6529311b9f3bc2f6833eae6da0166f324b0d8536de1c843544a2399"),
    ("loop", 5): (108, "bc21aef7936354d04f982b0b135324a82a9d7fa06b57b7643b4fa9e6c7ee9da4"),
    ("loop", 6): (166, "b59c58f4136d472e95f979a02cdbf9de06927f5ef7d15dc619b242a29f50bd61"),
    ("loop", 7): (236, "a224560b84a2745b12508870f4ae02601a8f90fb2e383fcf9297984a980cac83"),
    ("toroidal", 3): (64, "92f53cc9ef375f409853c7a3cef076aa698e2801f2f52e37407f1a06bd98524e"),
    ("toroidal", 4): (110, "c6e674e6232df6858265276e1e329bfd3c2943d6c6a5223e731025fe67949dd4"),
    ("toroidal", 5): (168, "dec5d74b395c4ce6651707fe043bf191a268bacc59adba5bae9c16664b0da475"),
    ("toroidal", 6): (238, "4d0d08347c2a3dffbb1aac89b7057c40175d840886b51200bf01d9792f15b138"),
    ("toroidal", 7): (320, "84153e22bbbee4221fd505291e67d2becbec2f9bbf6c115bf8714fbfa840c954"),
}


@pytest.mark.parametrize("suite, n", sorted(SUITE_ORDER))
def test_suite_relation_order_is_pinned(suite, n):
    run = {"loop": loop_suite, "toroidal": toroidal_suite}[suite]
    keys = [r.relation.key() for r in run(n, max_degree=0, window=0)]
    count, digest = SUITE_ORDER[suite, n]
    assert len(keys) == count
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == digest


GL_FAILING_DIGESTS = {
    "symbolic": "0f99d40995ed92094ebcc938b106e5871b3d77e3847e764b9296b5eaef8dc227",
    "random": "3788ff123ab3e656aa85b678250cea94c099d9bbe20efc3cbf9edcba7dc19831",
}


@pytest.mark.parametrize("strategy", sorted(GL_FAILING_DIGESTS))
def test_gl_zero_mode_failures_are_pinned(monkeypatch, strategy):
    # wrong Cartan eigenvalues and a wrong closed-form e coefficient make
    # three gl families fail; their counterexamples are pinned byte for byte
    cartan = FiniteAction.t_cartan_eigenvalue
    feigin_e = FiniteAction.feigin_e_coeff

    def bad_cartan(self, p, i):
        return cartan(self, p, i) * self.ctx.v ** (i + p.total())

    def bad_feigin_e(self, src, i, j):
        return feigin_e(self, src, i, j) * self.ctx.v

    monkeypatch.setattr(FiniteAction, "t_cartan_eigenvalue", bad_cartan)
    monkeypatch.setattr(FiniteAction, "feigin_e_coeff", bad_feigin_e)
    reports = verify_gl_zero_modes(FiniteAction(3), max_degree=2,
                                   strategy=strategy, seed=3, trials=3)
    failing = {r.relation.family: r.counterexample["modes"]
               for r in reports if r.status == "fail"}
    assert failing == {"gl_twist": [1, 1, "f"], "gl_commutator": [1, 1],
                       "gl_closed_form": ["e", 2, 2]}
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GL_FAILING_DIGESTS[strategy]
