import pytest

from laumonk import cli
from laumonk.finite_action import ActionError
from laumonk.patterns import AffinePattern, enumerate_affine_total
from laumonk.tangent import CharacterError, TangentOracle, WeightMultiset
from laumonk.toroidal_action import ToroidalAction


@pytest.fixture(scope="module")
def O():
    return TangentOracle(3)


@pytest.fixture(scope="module")
def T():
    return ToroidalAction(3)


@pytest.fixture(scope="module")
def pats():
    return ([AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
            + enumerate_affine_total(3, 2))


def test_empty_pattern_characters(O):
    em = AffinePattern.empty(3)
    assert O.tangent_character_space(em).size() == 0
    assert O.c_norm(em).is_one
    corr = O.tangent_character_correspondence(em, 1, 1)
    assert corr.size() == 1
    assert corr.to_strings() == ["v^2 x1"]


def test_single_box_character(O):
    ctx = O.ctx
    box = AffinePattern(3, [(1,), (), ()])
    ch = O.tangent_character_space(box)
    assert ch.size() == 2
    assert ch.weights == {ctx.v ** 2: 1,
                          ctx.t[1] ** 2 * ctx.t[0] ** -2 * ctx.v ** 2: 1}


def test_character_sizes(O, T, pats):
    for p in pats:
        assert O.tangent_character_space(p).size() == 2 * sum(p.degree())
        for node in (1, 2, 3):
            for tr in T.transitions("f", node, p):
                corr = O.tangent_character_correspondence(p, node, tr.column)
                assert corr.size() == 2 * sum(p.degree()) + 1


def test_multiset_guards(O):
    from collections import Counter

    with pytest.raises(CharacterError):
        WeightMultiset(O.ctx, Counter({O.ctx.v ** 2: -1}))
    with pytest.raises(CharacterError):
        WeightMultiset(O.ctx, Counter({O.ctx.one: 1}))


def test_bott_oracle_equality(O, T, pats):
    # the strongest cross-check: the localization route equals the closed
    # forms on every single-box move, both kinds, modes -1, 0, 1
    for p in pats:
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    for r in (-1, 0, 1):
                        assert O.bott_coefficient(kind, p, node, tr.column,
                                                  r) == tr.coeff(r)


def test_renormalized_conjugation_identity(O, T, pats):
    # renormalized = plain * c_norm(target) / c_norm(source)
    from laumonk.specialization import LevelWeight, RenormalizedAction

    ren = RenormalizedAction(LevelWeight(3, 1, (0, 0, 0)))
    for p in pats[:8]:
        for node in (1, 2, 3):
            for tr in T.transitions("f", node, p):
                for r in (-1, 0, 1):
                    assert ren.symbolic_coefficient("f", p, node, tr.column,
                                                    r) == \
                        tr.coeff(r) * O.c_norm(tr.target) / O.c_norm(p)
            for tr in T.transitions("e", node, p):
                for r in (-1, 0, 1):
                    assert ren.symbolic_coefficient("e", p, node, tr.column,
                                                    r) == \
                        tr.coeff(r) * O.c_norm(tr.target) / O.c_norm(p)


def test_renormalized_e_vs_plain_f_monomial(O, T, pats):
    # the ratio of the renormalized e-coefficient to the plain
    # f-coefficient of the reversed move is the monomial
    # -t_i t_{i+1}^{-1} v^{d_{i+1}-2d_i+d_{i-1}+1-2i} p_{ij}^{-1},
    # everything read at the smaller pattern
    from laumonk.specialization import LevelWeight, RenormalizedAction

    ctx = O.ctx
    ren = RenormalizedAction(LevelWeight(3, 1, (0, 0, 0)))
    for p in pats[:8]:
        for node in (1, 2, 3):
            for tr in T.transitions("f", node, p):
                big = tr.target
                for r in (0, 1):
                    ren_e = ren.symbolic_coefficient("e", big, node,
                                                     tr.column, r)
                    mono = (-ctx.t_res(node) * ctx.t_res(node + 1) ** -1
                            * ctx.v ** (p.row_sum(node + 1)
                                        - 2 * p.row_sum(node)
                                        + p.row_sum(node - 1) + 1 - 2 * node)
                            / p.weight(ctx, node, tr.column))
                    assert ren_e == tr.coeff(r) * mono


def test_invalid_move_rejected(O):
    with pytest.raises(ActionError):
        O.tangent_character_correspondence(AffinePattern.empty(3), 2, 1)


def _moves(action, max_degree):
    """(kind, smaller pattern, node, column) of every single-box move from
    the sources up to max_degree, f-moves and e-moves."""
    for p in action.sources(max_degree):
        for node in action.nodes:
            for kind in ("f", "e"):
                for tr in action.transitions(kind, node, p):
                    small = p if kind == "f" else tr.target
                    yield kind, small, node, tr.column


@pytest.mark.parametrize("n", [3, 4])
def test_memoized_correspondence_matches_a_fresh_oracle(n):
    oracle = TangentOracle(n)
    seen = {}
    reused = 0
    for kind, small, node, column in _moves(ToroidalAction(n), 2):
        got = oracle.tangent_character_correspondence(small, node, column)
        fresh = TangentOracle(n).tangent_character_correspondence(
            small, node, column)
        assert got == fresh
        key = (small, node, column)
        if key in seen:
            # an e-move back to a source reads its f-move's character
            assert got is seen[key]
            reused += kind == "e"
        seen[key] = got
    assert reused
    assert oracle._corr_cache == seen


@pytest.mark.parametrize("src, i, j", [
    (AffinePattern.empty(3), 2, 1),                 # bump fails
    (AffinePattern(3, [(1,), (), ()]), 1, 2),       # j > i
    (AffinePattern.empty(3), 4, 4),                 # node n + 1
    (AffinePattern.empty(3), 0, 0),                 # node 0
])
def test_invalid_move_raises_cold_and_warm_and_is_not_cached(src, i, j):
    cold = TangentOracle(3)
    with pytest.raises(ActionError):
        cold.tangent_character_correspondence(src, i, j)
    assert cold._corr_cache == {}
    warm = TangentOracle(3)
    for _kind, small, node, column in _moves(ToroidalAction(3), 1):
        warm.tangent_character_correspondence(small, node, column)
    assert warm._corr_cache
    for _ in range(2):
        with pytest.raises(ActionError):
            warm.tangent_character_correspondence(src, i, j)
        assert (src, i, j) not in warm._corr_cache


def test_oracle_suite_builds_each_character_once(monkeypatch):
    calls = []

    class Counting(TangentOracle):
        def _four_sums(self, p, acc):
            calls.append(p)
            super()._four_sums(p, acc)

    monkeypatch.setattr(cli, "TangentOracle", Counting)
    (report,) = cli.oracle_suite(3, max_degree=2)
    assert report.status == "pass"
    # once per source pattern and once per move (src, i, j)
    assert len(calls) == 67
