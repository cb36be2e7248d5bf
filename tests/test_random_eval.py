"""The random strategy's arithmetic: RVec against Fraction, and the lift.

RVec keeps unreduced integer numerator/denominator pairs, so every value is
built here with its numerator and denominator scaled by a common nonzero
(possibly negative) integer, and every result is compared with the same
operation on Fractions: values, the zero test and the emitted strings.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laumonk.finite_action import FiniteAction
from laumonk.patterns import FinitePattern
from laumonk.relations import RVec, _RandomEval, _Resample

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

TRIALS = 3
# zero is drawn often, so that vanishing values and the division errors
# they cause come up
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
)
scales = st.integers(-4, 4).filter(bool)


@st.composite
def vectors(draw):
    """(RVec with unreduced pairs, the same values as Fractions)."""
    vals = draw(st.lists(rationals, min_size=TRIALS, max_size=TRIALS))
    nums, dens = [], []
    for q in vals:
        s = draw(scales)
        nums.append(q.numerator * s)
        dens.append(q.denominator * s)
    return RVec(nums, dens), vals


ints = st.integers(-5, 5)


def _check(got, want):
    assert isinstance(got, RVec)
    assert all(got.dens), "zero denominator"
    assert [Fraction(a, c) for a, c in zip(got.nums, got.dens)] == want
    assert got.is_zero == all(q == 0 for q in want)
    assert got.payload() == [str(q) for q in want]


def _vanishes(vals):
    return any(q == 0 for q in vals)


@SETTINGS
@given(vectors(), vectors(), ints)
def test_ring_operations_match_fractions(x, y, k):
    (rx, fx), (ry, fy) = x, y
    _check(rx + ry, [a + b for a, b in zip(fx, fy)])
    _check(rx - ry, [a - b for a, b in zip(fx, fy)])
    _check(rx * ry, [a * b for a, b in zip(fx, fy)])
    _check(-rx, [-a for a in fx])
    _check(rx + k, [a + k for a in fx])
    _check(rx - k, [a - k for a in fx])
    _check(rx * k, [a * k for a in fx])
    _check(rx, fx)


@SETTINGS
@given(vectors(), vectors(), ints, st.integers(-3, 3))
def test_division_and_powers_match_fractions(x, y, k, e):
    (rx, fx), (ry, fy) = x, y
    if _vanishes(fy):
        with pytest.raises(ZeroDivisionError):
            rx / ry
    else:
        _check(rx / ry, [a / b for a, b in zip(fx, fy)])
    if _vanishes(fx):
        with pytest.raises(ZeroDivisionError):
            k / rx
    else:
        _check(k / rx, [k / a for a in fx])
    if e < 0 and _vanishes(fx):
        with pytest.raises(ZeroDivisionError):
            rx ** e
    else:
        _check(rx ** e, [a ** e for a in fx])


@SETTINGS
@given(vectors(), vectors(), vectors())
def test_compound_expressions_after_inversion(x, y, w):
    # inverting negative values makes negative denominators; they must
    # survive further arithmetic, the zero test and the emitted strings
    (rx, fx), (ry, fy), (rw, fw) = x, y, w
    if _vanishes(fy) or _vanishes(fw):
        return
    got = (rx - 1 / ry) * (rw ** -2) + ry / rw - 3
    _check(got, [(a - 1 / b) * c ** -2 + b / c - 3
                 for a, b, c in zip(fx, fy, fw)])
    _check(got - got, [Fraction(0)] * TRIALS)


def test_a_zero_numerator_with_any_denominator_is_zero():
    assert RVec([0, 0], [-7, 3]).is_zero
    assert not RVec([0, 1], [5, -5]).is_zero
    assert RVec([0, 6, -4], [-7, -4, 6]).payload() == ["0", "-3/2", "-2/3"]


# -- the lift -------------------------------------------------------------------


@pytest.fixture(scope="module")
def fm2():
    return FiniteAction(2)


def _evaluator(action, seed=1):
    return _RandomEval(action.ctx, random.Random(seed), 4)


def _values(rvec):
    return [Fraction(a, c) for a, c in zip(rvec.nums, rvec.dens)]


def test_lift_agrees_with_evaluate(fm2):
    ctx = fm2.ctx
    ev = _evaluator(fm2)
    expr = (ctx.v + 1 / ctx.v) / (1 - ctx.t[0] * ctx.v ** -2) - ctx.z ** 3
    assert _values(ev.lift(expr)) == [expr.evaluate(pt) for pt in ev.points]
    assert _values(ev.z) == [pt["z"] for pt in ev.points]
    assert ev.zero.is_zero


def test_equal_expressions_built_apart_share_one_lift(fm2):
    ctx = fm2.ctx
    ev = _evaluator(fm2)

    def build():
        return 1 / (1 - ctx.t[0] * ctx.t[1] ** -1) * ctx.v ** 2

    a, b = build(), build()
    assert a is not b
    assert ev.lift(a) is ev.lift(b)
    src = FinitePattern(2, [[2]])
    p, q = fm2.psi_mode(src, 1, 2, "+"), fm2.psi_mode(src, 1, 2, "+")
    assert p is not q
    assert ev.lift(p) is ev.lift(q)
    assert _values(ev.lift(p)) == [p.evaluate(pt) for pt in ev.points]
    # a fresh evaluator has fresh points and its own memo
    other = _evaluator(fm2, seed=2)
    assert other.points != ev.points
    assert _values(other.lift(a)) == [a.evaluate(pt) for pt in other.points]


def test_a_vanishing_factor_still_resamples(fm2):
    ctx = fm2.ctx
    ev = _evaluator(fm2)
    v2 = ev.points[2]["v"]
    pole = 1 / (1 - ctx.v * ctx.rational(1 / v2))
    for _ in range(2):  # nothing is memoized for an expression that resamples
        with pytest.raises(_Resample) as info:
            ev.lift(pole)
        assert info.value.args == (2,)
