import operator
import random
from fractions import Fraction

import pytest
from sympy.polys.domains import QQ

from laumonk.exact import (
    AT_INFINITY,
    AT_ZERO,
    DivisionByZeroExpr,
    EvaluationError,
    ExactError,
    LaurentContext,
    NotExpandable,
    _cancel,
    _cancel_modular,
    expand_series,
    recomposition_residual,
    z_partial_fractions,
)


@pytest.fixture(scope="module")
def ctx():
    return LaurentContext(2)


def test_arith_examples(ctx):
    t1, t2 = ctx.t
    v = ctx.v
    assert ((t1 * v) / (t1 * v)).is_one
    assert (1 - v ** 2) / (1 - v) == 1 + v
    with pytest.raises(DivisionByZeroExpr):
        (1 - t1 ** 2 * t2 ** -2) / ctx.zero


def test_field_axioms_random_points(ctx):
    t1, t2 = ctx.t
    v = ctx.v
    rng = random.Random(0)
    pool = [t1, t2, v, ctx.one, ctx.rational(Fraction(3, 2)),
            1 - v ** 2, t1 * t2 ** -1, 2 + v * t1]
    for _ in range(40):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a
        if not b.is_zero:
            assert (a / b) * b == a


def test_canonical_form_parenthesization(ctx):
    # equal expressions built along different parenthesizations compare equal
    t1, t2 = ctx.t
    v = ctx.v
    terms = [t1, t2 ** -1, 1 - v, v ** 3, 2 * t1 * t2, 1 + v + v ** 2]
    rng = random.Random(1)
    for _ in range(20):
        sample = [rng.choice(terms) for _ in range(5)]
        left = ((sample[0] * sample[1]) * sample[2]) * (sample[3] * sample[4])
        right = sample[0] * (sample[1] * (sample[2] * (sample[3] * sample[4])))
        assert left == right
        assert hash(left) == hash(right)


def test_evaluate_examples(ctx):
    t1, _ = ctx.t
    v = ctx.v
    assert (v ** 2).evaluate({"v": 3}) == 9
    assert ((1 - v ** 2) / (1 - v)).evaluate({"v": 2}) == 3
    assert (t1 ** 2 * v ** -2).evaluate({"t1": 2, "v": 3}) == Fraction(4, 9)


def test_evaluate_preconditions(ctx):
    t1, _ = ctx.t
    v = ctx.v
    with pytest.raises(EvaluationError):
        (t1 * v).evaluate({"v": 2})  # t1 occurs but is unassigned
    with pytest.raises(EvaluationError):
        (v ** 2).evaluate({"v": 0})  # zero assignment
    with pytest.raises(EvaluationError):
        (1 / (1 - v)).evaluate({"v": 1})  # denominator vanishes


def test_evaluate_is_ring_homomorphism(ctx):
    t1, t2 = ctx.t
    v = ctx.v
    rng = random.Random(2)
    pool = [t1 + v, t2 ** -2, 1 - t1 * v, 3 * v ** 2 - t2, t1 * t2 * v]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        pt = {name: Fraction(rng.randint(1, 30), rng.randint(1, 30))
              for name in ("t1", "t2", "u", "v", "z")}
        for op in (operator.add, operator.sub, operator.mul):
            assert op(a, b).evaluate(pt) == op(a.evaluate(pt), b.evaluate(pt))
        if b.evaluate(pt) != 0:
            assert (a / b).evaluate(pt) == a.evaluate(pt) / b.evaluate(pt)


def test_expand_series_geometric(ctx):
    a = ctx.t[0]
    z = ctx.z
    s = expand_series(1 / (1 - a * z ** -1), AT_INFINITY, 2)
    assert s == [x.reduce() for x in (ctx.one, a, a ** 2)]
    s0 = expand_series(z / (z - 1), AT_ZERO, 2)
    assert s0 == [x.reduce() for x in (ctx.zero, -ctx.one, -ctx.one)]


def test_expand_series_vacuum_constant_term(ctx):
    # constant term of the degree-zero diagonal series at the first node
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    f = t2 ** -1 * t1 * v ** -1 * (1 - t2 ** 2 * v ** 3 * z ** -1) \
        / (1 - t1 ** 2 * v * z ** -1)
    assert expand_series(f, AT_INFINITY, 0)[0] == \
        (t2 ** -1 * t1 * v ** -1).reduce()


def test_expand_series_errors(ctx):
    z = ctx.z
    with pytest.raises(NotExpandable):
        expand_series(1 / (z - 1) + z ** 2, AT_INFINITY, 1)
    with pytest.raises(NotExpandable):
        expand_series(1 / z, AT_ZERO, 1)
    with pytest.raises(ExactError):
        expand_series(1 / (z - 1), "sideways", 1)


def test_partial_fractions_of_zero_and_z_free_factors(ctx):
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    assert z_partial_fractions(ctx.zero) == (ctx.zero, ())
    assert z_partial_fractions(z / z - 1) == (ctx.zero, ())
    # z-free factors belong to the limit; zeros may have any exponent
    f = (1 - t1 / t2) * (1 - t1 / z) ** 2 / ((1 - v / z) * (1 - t2 / z))
    limit, poles = z_partial_fractions(f)
    assert limit == 1 - t1 / t2
    assert {b.as_monomial(): c for b, c in poles} == {
        v.as_monomial(): limit * (1 - t1 / v) ** 2 / (1 - t2 / v),
        t2.as_monomial(): limit * (1 - t1 / t2) ** 2 / (1 - v / t2)}
    assert z_partial_fractions(f) is z_partial_fractions(f)


@pytest.mark.parametrize("case", ["z-in-the-monomial",
                                  "not-1-minus-beta-over-z", "double-pole",
                                  "more-zeros-than-poles"])
def test_partial_fractions_not_expandable(ctx, case):
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    f = {"z-in-the-monomial": z / (1 - t1 / z),
         # the lowest z^{-1}-order part of t1 + t2 + z^{-1} is t1 + t2: the
         # reduced value expands over the field, the partial fractions refuse
         "not-1-minus-beta-over-z": 1 / (t1 + t2 + z ** -1),
         "double-pole": (1 - v / z) / (1 - t1 / z) ** 2,
         "more-zeros-than-poles": (1 - v / z) ** 2 / (1 - t1 / z)}[case]
    if case == "not-1-minus-beta-over-z":
        assert expand_series(f, AT_INFINITY, 0) == [(1 / (t1 + t2)).reduce()]
        with pytest.raises(NotExpandable):
            z_partial_fractions(1 / (1 - t1 / z ** 2))
    with pytest.raises(NotExpandable):
        z_partial_fractions(f)


def test_recomposition(ctx):
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    rng = random.Random(3)
    samples = [
        t2 ** -1 * t1 * v ** -1 * (1 - t2 ** 2 * v ** 3 * z ** -1)
        / (1 - t1 ** 2 * v * z ** -1),
        (1 + z ** -1 * t1) / ((1 - z ** -1 * v) * (1 - z ** -1 * t2 ** 2)),
        1 / (1 - v * z ** -1) / (1 - t1 * z ** -1),
    ]
    for f in samples:
        for order in (0, 1, 3, rng.randint(4, 6)):
            s = expand_series(f, AT_INFINITY, order)
            assert len(s) == order + 1
            assert recomposition_residual(f, AT_INFINITY, s)
            s[-1] = s[-1] + 1
            assert not recomposition_residual(f, AT_INFINITY, s)
    g = (z + v * z ** 2) / (1 - t1 * z)
    for order in (0, 2, 5):
        assert recomposition_residual(g, AT_ZERO,
                                      expand_series(g, AT_ZERO, order))


def test_contexts_do_not_mix():
    a = LaurentContext(2).v
    b = LaurentContext(3).v
    with pytest.raises(Exception):
        a + b  # noqa: B018


def test_import_leaves_sympy_gcd_alone():
    import laumonk.cli  # noqa: F401  (imports every module)
    from sympy.polys.rings import PolyElement

    gcd_zz = PolyElement.__dict__["_gcd_ZZ"]
    assert gcd_zz.__module__ == "sympy.polys.rings"
    assert gcd_zz.__qualname__ == "PolyElement._gcd_ZZ"


def _cancel_samples(ctx):
    R = ctx.ring
    x, y, _, _, v, z = R.gens
    half = R.ground_new(QQ(1, 2))
    return [
        ((x ** 2 - y ** 2) * (v + 3), (x - y) * (2 * v - 1)),
        (6 * x * y ** 2 * (1 - v * z), -4 * x ** 3 * (1 - v * z) ** 2),
        (half * (x + y) ** 3, (x + y) * (x - 2 * y) * 3),
        (R.zero, x + 1),
        (x * v + 7, half),
    ]


def test_cancel_modular_matches_cancel():
    ctx = LaurentContext(3)
    for num, den in _cancel_samples(ctx):
        assert _cancel_modular(num, den) == num.cancel(den)


def test_cancel_falls_back_when_the_heuristic_gcd_fails(monkeypatch):
    from sympy.polys.polyerrors import HeuristicGCDFailed
    from sympy.polys.rings import PolyElement

    ctx = LaurentContext(3)
    samples = _cancel_samples(ctx)
    want = [num.cancel(den) for num, den in samples]

    def fail(f, g):
        raise HeuristicGCDFailed("no luck")

    monkeypatch.setattr(PolyElement, "_gcd_ZZ", fail)
    assert [_cancel(num, den) for num, den in samples] == want
