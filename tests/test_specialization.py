import random

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from laumonk.exact import LaurentContext
from laumonk.finite_action import ActionError
from laumonk.patterns import AffinePattern, enumerate_affine_total
from laumonk.specialization import (
    LevelWeight,
    RenormalizedAction,
    SpecializationError,
    WeightError,
    build_Vmu_block,
    closure_report,
    in_D_mu,
    specialize,
)
from laumonk.tangent import TangentOracle


def test_level_weight_validation():
    LevelWeight(3, 1, (1, 0, 0))
    with pytest.raises(WeightError):
        LevelWeight(3, 0, (0, 0, 0))  # the level must be positive
    with pytest.raises(WeightError):
        LevelWeight(3, 1, (0, 1, 0))  # not nonincreasing
    with pytest.raises(WeightError):
        LevelWeight(3, 1, (2, 0, 0))  # dominance mu_0 + K >= mu_{1-n}


def test_extend_weight_example():
    w = LevelWeight(2, 1, (1, 0))
    mut = w.extended
    assert mut(1) == 0 and mut(2) == -1
    assert mut(-1) == 1 and mut(0) == 0


def test_extend_weight_properties():
    rng = random.Random(9)
    for _ in range(6):
        n = rng.choice((2, 3, 4))
        K = rng.randint(1, 3)
        mu0 = rng.randint(-2, 2)
        rest = sorted((rng.randint(mu0, mu0 + K) for _ in range(n - 1)),
                      reverse=True)
        w = LevelWeight(n, K, tuple(rest) + (mu0,))
        mut = w.extended
        for i in range(-40, 40):
            assert mut(i) >= mut(i + 1)
            assert mut(i + n) == mut(i) - K
    w0 = LevelWeight(3, 2, (0, 0, 0))
    mut0 = w0.extended
    for i in range(-20, 20):
        assert mut0(i) == (-i // 3) * 2


def test_in_D_mu_basics():
    w = LevelWeight(3, 1, (0, 0, 0))
    assert in_D_mu(AffinePattern.empty(3), w)
    assert in_D_mu(AffinePattern.empty(3), w, brute_bound=12)


def test_in_D_mu_dual_mode_agreement():
    weights = [LevelWeight(3, 1, (0, 0, 0)), LevelWeight(3, 2, (1, 0, 0)),
               LevelWeight(3, 1, (1, 1, 0)), LevelWeight(3, 2, (2, 1, 0))]
    for w in weights:
        for total in range(4):
            for p in enumerate_affine_total(3, total):
                assert in_D_mu(p, w) == in_D_mu(p, w, brute_bound=9)


@st.composite
def level_weights(draw):
    """A dominant weight: n in 2..5, K in 1..3, mu nonincreasing with
    mu_{1-n} - mu_0 <= K."""
    n, K = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    mu0 = draw(st.integers(-2, 2))
    rest = draw(st.lists(st.integers(mu0, mu0 + K), min_size=n - 1,
                         max_size=n - 1))
    return LevelWeight(n, K, tuple(sorted(rest, reverse=True)) + (mu0,))


@st.composite
def d_mu_members(draw, w):
    """A partition tuple in D(mu), built row by row: d_{ij} = lambda^j_m
    with m = i - j, so membership says that j -> lambda^{(j mod n)}_m -
    mu~_j is nondecreasing for every part index m.  Each row draws the
    value at j = 1 and sorted offsets in 0..K for j = 2..n (K bounds the
    total rise, because the sequence gains exactly K over a period); the
    tuple ends at the first row that leaves 0..5 or would grow a part."""
    n, mut = w.n, w.extended
    rows, cap = [], [5] * n
    for _ in range(draw(st.integers(0, 4))):
        b = draw(st.integers(-mut(1), 5 - mut(1)))
        offsets = sorted(draw(st.lists(st.integers(0, w.K), min_size=n - 1,
                                       max_size=n - 1)))
        row = [b + c + mut(j) for j, c in enumerate([0] + offsets, start=1)]
        if any(not 0 <= x <= c for x, c in zip(row, cap)):
            break
        rows.append(row)
        cap = row
    return AffinePattern(n, [tuple(r[j] for r in rows if r[j])
                             for j in range(n)])


@st.composite
def weights_and_patterns(draw):
    """(weight, kind, partition tuple) with parts up to 5 and lengths up to
    4; the kind says whether the tuple is plain random, a D(mu) member or a
    member with one box moved."""
    w = draw(level_weights())
    kind = draw(st.sampled_from(["random", "member", "near"]))
    if kind == "random":
        parts = st.lists(st.integers(1, 5), max_size=4).map(
            lambda xs: tuple(sorted(xs, reverse=True)))
        return w, kind, AffinePattern(w.n, draw(st.lists(
            parts, min_size=w.n, max_size=w.n)))
    p = draw(d_mu_members(w))
    if kind == "near":
        moves = [q for i in range(1, w.n + 1)
                 for m in range(p.max_length() + 1)
                 for q in (p.bump(i, i - m, 1), p.bump(i, i - m, -1))
                 if q is not None]
        p = draw(st.sampled_from(moves))
    return w, kind, p


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(weights_and_patterns())
def test_in_D_mu_reduction_matches_brute_force(case):
    # the reduced check (charged cells, shifts 1..n-1) against every shift
    # up to 2n+2 on a window that includes uncharged cells
    w, kind, p = case
    member = in_D_mu(p, w)
    event("in D(mu)" if member else "not in D(mu)")
    if member and p.total():
        event("in D(mu), nonempty")
    assert member == in_D_mu(p, w, brute_bound=2 * w.n + 2)
    if kind == "member":
        assert member


def test_in_D_mu_violator_at_l_equals_one():
    w = LevelWeight(3, 1, (0, 0, 0))
    mut = w.extended
    found = None
    for p in enumerate_affine_total(3, 3):
        for i in range(1, 4):
            for m in range(p.max_length()):
                j = i - m
                if p.d(i, j) and p.d(i, j) - mut(j) > \
                        p.d(i + 1, j + 1) - mut(j + 1):
                    found = p
                    break
    assert found is not None
    assert not in_D_mu(found, w)
    assert not in_D_mu(found, w, brute_bound=6)


def test_specialize_examples():
    w = LevelWeight(3, 1, (0, 0, 0))
    ctx = LaurentContext(3)
    mut = w.extended
    assert specialize(ctx.u * ctx.v ** (w.K + w.n), w) == ctx.one
    for j in (1, 2, 3):
        assert specialize(ctx.t[j - 1] ** 2, w) == \
            ctx.v ** (2 * mut(j) - 2 * j + 2)
    with pytest.raises(SpecializationError):
        specialize(1 / (1 - ctx.u * ctx.v ** (w.K + w.n)), w)


def test_renormalized_spectral_factors():
    # in the renormalized basis the e-spectral factor is (p v^i)^r and the
    # f-spectral factor (p v^{i+2})^r
    w = LevelWeight(3, 1, (0, 0, 0))
    ren = RenormalizedAction(w)
    T = ren.action
    ctx = ren.ctx
    pats = [AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
    for p in pats:
        for node in (1, 2, 3):
            for tr in T.transitions("f", node, p):
                big = tr.target
                ratio = big.weight(ctx, node, tr.column) * \
                    ctx.v ** (node + 2)
                assert ren.symbolic_coefficient("f", p, node, tr.column, 1) \
                    == ren.symbolic_coefficient("f", p, node, tr.column, 0) \
                    * ratio
                small_ratio = p.weight(ctx, node, tr.column) * \
                    ctx.v ** node
                assert ren.symbolic_coefficient("e", big, node, tr.column, 1) \
                    == ren.symbolic_coefficient("e", big, node, tr.column, 0) \
                    * small_ratio


def test_conjugation_identity_two_routes():
    w = LevelWeight(3, 1, (0, 0, 0))
    ren = RenormalizedAction(w)
    oracle = TangentOracle(3)
    T = ren.action
    pats = ([AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
            + enumerate_affine_total(3, 2))
    for p in pats:
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    for r in (-1, 0, 1):
                        assert ren.symbolic_coefficient(
                            kind, p, node, tr.column, r) == \
                            tr.coeff(r) * oracle.c_norm(tr.target) \
                            / oracle.c_norm(p)


def test_factored_specialization_matches_generic():
    w = LevelWeight(3, 2, (1, 0, 0))
    ren = RenormalizedAction(w)
    T = ren.action
    for p in [AffinePattern.empty(3)] + enumerate_affine_total(3, 1):
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    fc = ren.coefficient(kind, p, node, tr.column, 1)
                    sym = ren.symbolic_coefficient(kind, p, node, tr.column, 1)
                    if not fc.denominator_vanishes:
                        assert fc.value() == specialize(sym, w)


def test_closure_small_blocks():
    w = LevelWeight(3, 1, (0, 0, 0))
    block = build_Vmu_block(w, (0, 0, 0), window=1)
    assert block["basis_size"] == 1
    assert block["closure"]
    rep = closure_report(w, max_total=2)
    assert rep["closure"]


def test_closure_negative_control():
    w = LevelWeight(3, 1, (0, 0, 0))
    rep = closure_report(w, max_total=2, wrong_u=True)
    assert not rep["closure"]
    assert any(b["violations_vanishing"] for b in rep["blocks"])


def test_dimension_growth_under_level_reported():
    # reported, not asserted as a theorem: larger level admits at least as
    # many patterns on the tested range
    sizes = {}
    for K in (1, 2):
        w = LevelWeight(3, K, (0, 0, 0))
        rep = closure_report(w, max_total=2)
        sizes[K] = [b["basis_size"] for b in rep["blocks"]]
    assert all(a <= b for a, b in zip(sizes[1], sizes[2]))


def test_block_matrices_match_generic_specialization():
    # the matrix values of a block are the specialized renormalized
    # coefficients; at the vacuum every move adds the box at column = node
    w = LevelWeight(3, 1, (0, 0, 0))
    ren = RenormalizedAction(w)
    block = build_Vmu_block(w, (0, 0, 0), window=1)
    assert len(block["matrices"]) == 3 * block["inside_transitions"] > 0
    for entry in block["matrices"]:
        src = AffinePattern.from_json(entry["source"])
        node = entry["node"]
        sym = ren.symbolic_coefficient(entry["kind"], src, node, node,
                                       entry["mode"])
        assert entry["value"] == specialize(sym, w).to_string()


@pytest.mark.parametrize("method", ["coefficient", "symbolic_coefficient"])
def test_renormalized_input_errors(method):
    ren = RenormalizedAction(LevelWeight(3, 1, (0, 0, 0)))
    coefficient = getattr(ren, method)
    empty = AffinePattern.empty(3)
    box = empty.bump(1, 1, 1)
    with pytest.raises(ActionError):
        coefficient("e", empty, 1, 1, 0)  # no box to remove
    with pytest.raises(ActionError):
        coefficient("f", box, 1, 2, 0)  # column above the diagonal
    for kind in ("psi_plus", "x"):
        with pytest.raises(ActionError):
            coefficient(kind, box, 1, 1, 0)
