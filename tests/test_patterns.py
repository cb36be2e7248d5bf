import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laumonk.exact import LaurentContext
from laumonk.patterns import (
    AffinePattern,
    FinitePattern,
    PatternError,
    enumerate_affine,
    enumerate_affine_total,
    enumerate_finite,
)


def brute_force_finite(n, deg):
    """Independent enumeration oracle over the bounded grid 0 <= d_ij <= d_i."""
    cells = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
    ranges = [range(deg[i - 1] + 1) for i, _ in cells]
    out = []
    for combo in itertools.product(*ranges):
        d = {cell: val for cell, val in zip(cells, combo)}
        if any(sum(d[(i, j)] for j in range(1, i + 1)) != deg[i - 1]
               for i in range(1, n)):
            continue
        ok = True
        for (i, j) in cells:
            if i > j and d[(i, j)] > d[(i - 1, j)]:
                ok = False
                break
        if not ok:
            continue
        out.append(FinitePattern(n, [[d[(i, j)] for j in range(1, i + 1)]
                                     for i in range(1, n)]))
    out.sort(key=FinitePattern.sort_key)
    return out


def test_enumerate_finite_against_oracle():
    for n, deg in [(3, (0, 0)), (3, (1, 1)), (3, (2, 1)), (2, (3,)),
                   (4, (1, 1, 1)), (3, (0, 2))]:
        assert enumerate_finite(n, deg) == brute_force_finite(n, deg)


def test_enumerate_finite_examples():
    assert [p.rows for p in enumerate_finite(3, (0, 0))] == [((0,), (0, 0))]
    two = enumerate_finite(3, (1, 1))
    assert [p.rows for p in two] == [((1,), (0, 1)), ((1,), (1, 0))]
    assert len(enumerate_finite(2, (3,))) == 1
    # the n=2 block is a singleton for every degree
    for d in range(7):
        assert len(enumerate_finite(2, (d,))) == 1


def test_finite_invariants_enforced():
    with pytest.raises(PatternError):
        FinitePattern(3, [[0], [1, 0]])  # column increases downwards
    with pytest.raises(PatternError):
        FinitePattern(3, [[-1], [0, 0]])


def test_finite_row_sum_rejects_rows_outside_0_to_n():
    p = FinitePattern(3, [[1], [1, 0]])
    assert [p.row_sum(i) for i in range(4)] == [0, 1, 1, 0]
    for row in (-1, -3, 4):
        with pytest.raises(PatternError):
            p.row_sum(row)


def test_affine_enumeration_and_count_identity():
    assert [p.lambdas for p in enumerate_affine(2, (0, 0))] == [((), ())]
    assert len(enumerate_affine_total(2, 1)) == 2
    # number of n-tuples of partitions of total size m: the coefficient of
    # q^m in prod (1-q^k)^{-n}, computed here by independent convolution
    for n in (2, 3):
        coeffs = [1] + [0] * 6
        for k in range(1, 7):
            for _ in range(n):
                for m in range(k, 7):
                    coeffs[m] += coeffs[m - k]
        for m in range(5):
            assert len(enumerate_affine_total(n, m)) == coeffs[m]


def test_affine_degree_convention():
    p = AffinePattern(2, [(1,), ()])
    assert p.degree() == (0, 1)
    q = AffinePattern(2, [(), (1,)])
    assert q.degree() == (1, 0)
    assert p.d(1, 1) == 1 and p.d(3, 3) == 1 and p.d(2, 1) == 0
    # periodicity of the encoded collection
    big = AffinePattern(3, [(3, 1), (2,), (1, 1, 1)])
    for i in range(-3, 6):
        for j in range(i - 5, i + 1):
            assert big.d(i, j) == big.d(i + 3, j + 3)


def test_weights():
    ctx3 = LaurentContext(3)
    z3 = FinitePattern.zero(3)
    assert z3.weight(ctx3, 1, 1) == ctx3.t[0] ** 2
    assert z3.weight(ctx3, 3, 2) == ctx3.t[1] ** 2  # boundary row n
    b = z3.bump(1, 1, 1)
    assert b.weight(ctx3, 1, 1) == ctx3.t[0] ** 2 * ctx3.v ** -2

    ctx2 = LaurentContext(2)
    e2 = AffinePattern.empty(2)
    assert e2.weight(ctx2, 5, 0) == ctx2.t[1] ** 2
    assert e2.weight(ctx2, 5, 1) == ctx2.t[0] ** 2 * ctx2.u ** 2
    assert e2.weight(ctx2, 7, -1) == ctx2.t[0] ** 2
    assert e2.weight(ctx2, 7, 3) == ctx2.t[0] ** 2 * ctx2.u ** 4


def test_moves_finite():
    z3 = FinitePattern.zero(3)
    up = z3.moves(1, 1)
    assert len(up) == 1 and up[0][0] == 1 and up[0][1].rows == ((1,), (0, 0))
    assert z3.moves(1, -1) == []
    # independent oracle: enumerate bumps and filter by the invariants
    for pat in enumerate_finite(3, (1, 1)):
        expected = sorted(j for j in (1, 2)
                          if pat.bump(2, j, 1) is not None)
        assert sorted(j for j, _ in pat.moves(2, 1)) == expected
    two = FinitePattern(3, [[1], [0, 1]])
    assert sorted(j for j, _ in two.moves(2, 1)) == [1, 2]
    one = FinitePattern(3, [[1], [1, 0]])
    assert sorted(j for j, _ in one.moves(2, 1)) == [2]


def test_moves_one_unit_difference():
    for pat in enumerate_finite(3, (2, 1)) + enumerate_finite(3, (1, 2)):
        for node in (1, 2):
            for direction in (1, -1):
                for j, q in pat.moves(node, direction):
                    diffs = [
                        (i, k, q.rows[i - 1][k - 1] - pat.rows[i - 1][k - 1])
                        for i in range(1, 3)
                        for k in range(1, i + 1)
                        if q.rows[i - 1][k - 1] != pat.rows[i - 1][k - 1]
                    ]
                    assert diffs == [(node, j, direction)]
    for pat in enumerate_affine_total(3, 2):
        for node in (1, 2, 3):
            for direction in (1, -1):
                moves = pat.moves(node, direction)
                for j, q in moves:
                    assert q.total() - pat.total() == direction
                    assert q.d(node, j) - pat.d(node, j) == direction
                # affine moves come by decreasing column
                columns = [j for j, _ in moves]
                assert columns == sorted(set(columns), reverse=True)


def test_affine_neighbors_move_whole_class():
    p = AffinePattern(3, [(1,), (), ()])
    for j, q in p.moves(2, 1):
        # the periodic translates move together
        assert q.d(2, j) == p.d(2, j) + 1
        assert q.d(5, j + 3) == p.d(5, j + 3) + 1


def test_json_round_trip():
    f = FinitePattern(3, [[2], [1, 1]])
    assert FinitePattern.from_json(json.loads(json.dumps(f.to_json()))) == f
    a = AffinePattern(3, [(2, 1), (), (1,)])
    assert AffinePattern.from_json(json.loads(json.dumps(a.to_json()))) == a


def test_rank_bounds():
    with pytest.raises(PatternError):
        FinitePattern(1, [])
    with pytest.raises(PatternError):
        AffinePattern(1, [()])


# -- moves against enumeration (hypothesis) ------------------------------------

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def finite_cases(draw):
    """(pattern, node) with n in 2..4 and row sums at most 2."""
    n = draw(st.integers(2, 4))
    deg = tuple(draw(st.lists(st.integers(0, 2), min_size=n - 1,
                              max_size=n - 1)))
    pat = draw(st.sampled_from(enumerate_finite(n, deg)))
    return pat, draw(st.integers(1, n - 1))


@st.composite
def affine_cases(draw):
    """(pattern, node representative) with n in 3..4 and at most 3 boxes."""
    n = draw(st.integers(3, 4))
    pat = draw(st.sampled_from(
        enumerate_affine_total(n, draw(st.integers(0, 3)))))
    return pat, draw(st.integers(1, n))


def _contains_one_box_less(big: AffinePattern, small: AffinePattern) -> bool:
    return big.total() == small.total() + 1 and all(
        small.part(res, m) <= big.part(res, m)
        for res in range(1, big.n + 1)
        for m in range(small.max_length()))


@SETTINGS
@given(finite_cases())
def test_moves_finite_match_enumeration(case):
    pat, i = case
    deg = list(pat.degree())
    deg[i - 1] += 1
    found = set()
    for q in enumerate_finite(pat.n, deg):
        diffs = [(a, b) for a in range(1, pat.n) for b in range(1, a + 1)
                 if q.d(a, b) != pat.d(a, b)]
        if len(diffs) == 1 and q.d(*diffs[0]) == pat.d(*diffs[0]) + 1:
            found.add((diffs[0][1], q))
    assert set(pat.moves(i, 1)) == found


@SETTINGS
@given(affine_cases())
def test_moves_affine_match_enumeration(case):
    pat, i = case
    deg = list(pat.degree())
    deg[i % pat.n] += 1
    found = {q for q in enumerate_affine(pat.n, deg)
             if _contains_one_box_less(q, pat)}
    moves = pat.moves(i, 1)
    assert {q for _, q in moves} == found
    assert all(pat.bump(i, j, 1) == q for j, q in moves)


@SETTINGS
@given(finite_cases())
def test_bump_up_then_down_finite(case):
    pat, i = case
    for j in range(1, i + 1):
        up = pat.bump(i, j, 1)
        if up is not None:
            assert up.bump(i, j, -1) == pat


@SETTINGS
@given(affine_cases())
def test_bump_up_then_down_affine(case):
    pat, i = case
    for j in range(i - pat.max_length(), i + 1):
        up = pat.bump(i, j, 1)
        if up is not None:
            assert up.bump(i, j, -1) == pat
