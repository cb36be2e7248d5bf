"""FactoredExpr against the reduced field.

Every generated expression is built twice, once in FactoredExpr and once in
LaurentExpr (sympy's reduced field, each operation reduced on the spot), and
the two must agree on the reduced form, the zero test, exact evaluation, the
text form, hashing and the psi modes of the partial fractions in z.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laumonk.exact import (
    AT_INFINITY,
    AT_ZERO,
    EvalPoint,
    EvaluationError,
    FactoredExpr,
    LaurentContext,
    LaurentExpr,
    expand_series,
    z_partial_fractions,
)
from laumonk.finite_action import FiniteAction

CTX = LaurentContext(2)
# reference generators in the reduced field, same order as CTX.var_names
REF = [LaurentExpr(CTX, g) for g in CTX.field.gens]
FAC = list(CTX.t) + [CTX.u, CTX.v, CTX.z]
REF_ONE = LaurentExpr(CTX, CTX.field.one)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
# exponents of (t1, t2, v); u and z stay out of most leaves to keep the
# polynomials small, and one leaf kind brings z in
exponents = st.tuples(*[st.integers(-2, 2)] * 3)


def _monomial(c, exps, z=0):
    f, r = CTX.rational(c), REF_ONE * c
    for i, e in zip((0, 1, 3, 4), exps + (z,)):
        f, r = f * FAC[i] ** e, r * REF[i] ** e
    return f, r


@st.composite
def leaves(draw):
    c, exps = draw(coefficients), draw(exponents)
    kind = draw(st.sampled_from(["monomial", "factor", "z-factor"]))
    if kind == "monomial":
        return _monomial(c, exps)
    f, r = _monomial(c, exps, z=-1 if kind == "z-factor" else 0)
    if kind == "factor" and not exps[0] and not exps[1] and not exps[2]:
        return f, r
    return 1 - f, 1 - r


def _combine(a, b, op):
    (fa, ra), (fb, rb) = a, b
    if op == "+":
        return fa + fb, ra + rb
    if op == "-":
        return fa - fb, ra - rb
    if op == "*" or rb.is_zero:
        return fa * fb, ra * rb
    return fa / fb, ra / rb


pairs = st.recursive(
    leaves(),
    lambda children: st.builds(_combine, children, children,
                               st.sampled_from("+-*/")),
    max_leaves=7,
)

points = st.fixed_dictionaries({
    name: st.builds(Fraction, st.integers(-9, 9).filter(bool),
                    st.integers(1, 9))
    for name in CTX.var_names
})


@SETTINGS
@given(pairs)
def test_reduce_and_zero_test_match_the_field(pair):
    f, r = pair
    assert f.reduce() == r
    assert f.is_zero == r.is_zero
    assert f.to_string() == r.to_string()


@SETTINGS
@given(pairs, pairs)
def test_products_and_sums_match_the_field(a, b):
    (fa, ra), (fb, rb) = a, b
    assert (fa * fb).reduce() == ra * rb
    assert (fa * fb).to_string() == (ra * rb).to_string()
    assert (fa + fb).reduce() == ra + rb
    assert (fa + fb).to_string() == (ra + rb).to_string()
    assert ((fa - fb) == 0) == (ra == rb)
    if not rb.is_zero:
        assert (fa / fb).reduce() == ra / rb
        assert (fa / fb).to_string() == (ra / rb).to_string()


@SETTINGS
@given(pairs)
def test_hash_matches_the_field(pair):
    f, r = pair
    assert hash(f) == hash(r)
    # the same value written with one more pair of different factors
    m = CTX.t[0] * CTX.v ** -1
    other = f + 1 / (1 - m ** 2) - 1 / ((1 - m) * (1 + m))
    assert f == other
    assert hash(f) == hash(other)


@SETTINGS
@given(pairs, points)
def test_evaluate_matches_the_field(pair, point):
    f, r = pair
    try:
        want = r.evaluate(point)
    except EvaluationError:
        # a vanishing reduced denominator vanishes an unreduced one too
        try:
            f.evaluate(point)
        except EvaluationError:
            return
        raise AssertionError("factored evaluation missed a pole")
    try:
        got = f.evaluate(EvalPoint(CTX, point))
    except EvaluationError:
        return  # an unreduced factor vanished: the caller resamples
    assert got == want


@SETTINGS
@given(pairs, points)
def test_evaluate_pair_is_the_unreduced_evaluate(pair, point):
    f, _ = pair
    at = EvalPoint(CTX, point)
    try:
        want = f.evaluate(at)
    except EvaluationError:
        try:
            f.evaluate_pair(at)
        except EvaluationError:
            return
        raise AssertionError("evaluate_pair missed a vanishing factor")
    num, den = f.evaluate_pair(at)
    assert type(num) is int and type(den) is int and den
    assert Fraction(num, den) == want
    assert f.evaluate_pair(point) == (num, den)


def test_evaluate_pair_raises_on_a_vanishing_denominator_factor():
    pole = CTX.t[0] / (1 - CTX.v * CTX.t[1])
    point = {"t1": Fraction(2), "t2": Fraction(-1, 3), "u": Fraction(5),
             "v": Fraction(-3), "z": Fraction(7)}
    for evaluate in (pole.evaluate, pole.evaluate_pair):
        for at in (point, EvalPoint(CTX, point)):
            with pytest.raises(EvaluationError):
                evaluate(at)
    # a vanishing numerator factor is a zero value, not an error
    num, den = (1 / pole).evaluate_pair(point)
    assert num == 0 and den


@st.composite
def pole_products(draw):
    """L * prod (1 - b/z)^k over distinct monomials b: simple poles (k = -1)
    and zeros of exponent 1 or 2, no more zeros than poles."""
    c, exps = draw(coefficients), draw(exponents)
    betas = draw(st.lists(st.tuples(coefficients, exponents), max_size=4,
                          unique=True))
    ks = [draw(st.sampled_from([-1, -1, 1, 2])) for _ in betas]
    while sum(k for k in ks if k > 0) > ks.count(-1):
        ks[next(i for i, k in enumerate(ks) if k > 0)] = -1
    f, r = _monomial(c, exps)
    for (cb, eb), k in zip(betas, ks):
        bf, br = _monomial(cb, eb, z=-1)
        f, r = f * (1 - bf) ** k, r * (1 - br) ** k
    return f, r


@SETTINGS
@given(pole_products())
def test_partial_fractions_match_expand_series(pair):
    f, ref = pair
    limit, poles = z_partial_fractions(f)
    z = CTX.z
    assert f == limit + sum((c * (1 / (1 - b / z) - 1) for b, c in poles),
                            CTX.zero)
    # psi modes of both signs from the decomposition, against the field's
    # expansion at z = infinity (z^-r) and at z = 0 (z^r)
    action = SimpleNamespace(ctx=CTX, psi_eigenvalue=lambda p, i: f)
    at_infinity = expand_series(ref, AT_INFINITY, 3)
    at_zero = expand_series(ref, AT_ZERO, 3)
    for r in range(4):
        assert FiniteAction.psi_mode(action, None, 1, r, "+").reduce() \
            == at_infinity[r]
        assert FiniteAction.psi_mode(action, None, 1, -r, "-").reduce() \
            == at_zero[r]


def test_factors_differing_by_a_unit_cancel():
    # 1 - m and 1 - m^{-1} are one normalized factor, so this sum is zero
    for m in (CTX.v ** 2, CTX.t[0] ** 2 * CTX.t[1] ** -2 * CTX.v,
              -3 * CTX.t[1] * CTX.u):
        total = 1 / (1 - m) + 1 / (1 - m ** -1) - 1
        assert total.is_zero
        assert total == 0


def test_common_denominator_need_not_be_least():
    # (1 - m^2) and (1 - m)(1 + m) are different factors of equal value
    m = CTX.t[0] * CTX.v ** -1
    sq = 1 - m ** 2
    split = (1 - m) * (1 + m)
    assert (1 / sq - 1 / split).is_zero
    nonzero = 1 / sq + 1 / split
    assert not nonzero.is_zero
    mr = REF[0] * REF[3] ** -1
    assert nonzero.reduce() == 2 / (1 - mr ** 2)
    assert nonzero.to_string() == (2 / (1 - mr ** 2)).to_string()


def _gcd_cases():
    """(FactoredExpr, LaurentExpr reference, text) whose canonical form
    needs a nontrivial gcd of two factors; built anew on each call."""
    t1, t2, u, v = FAC[0], FAC[1], FAC[2], FAC[3]
    r1, r2, ru, rv = REF[0], REF[1], REF[2], REF[3]
    m, mr = t1 * v ** -1, r1 * rv ** -1
    cases = [
        # 1 - m^4 and 1 - m^2 share the cyclotomic factor 1 - m^2
        ((1 - m ** 4) / (1 - m ** 2), (1 - mr ** 4) / (1 - mr ** 2),
         "(t1^2 + v^2) / (v^2)"),
    ]
    # a three-term denominator factor against the six-term factor that the
    # expanded numerator (t1 - u)(t1 + t2 + v) collapses into
    g, gr = t1 + t2 + v, r1 + r2 + rv
    num = t1 ** 2 + t1 * t2 + t1 * v - u * t1 - u * t2 - u * v
    cases.append((num / g, r1 - ru, "t1^1 - u^1"))
    cases.append((num / (2 * g * (t1 - u) ** 2),
                  ((r1 - ru) * gr) / (2 * gr * (r1 - ru) ** 2),
                  "(1) / (2*t1^1 - 2*u^1)"))
    # a sum (no factor in common with 1 + m by syntax) that is a monomial
    cases.append(((t1 / (1 - m) - t1 * m ** 2 / (1 - m)) / (1 + m), r1,
                  "t1^1"))
    return cases


def test_canonical_form_through_a_common_factor():
    for f, r, text in _gcd_cases():
        assert f.terms and f._single()[2]  # a factored term, not a monomial
        assert f.to_string() == r.to_string() == text
        assert f.reduce() == r
        assert hash(f) == hash(r)
    sum_to_monomial = _gcd_cases()[-1][0]
    assert len(sum_to_monomial.terms) == 1
    assert hash(sum_to_monomial) == hash(FAC[0])
    assert sum_to_monomial == FAC[0]


def test_canonical_form_when_the_heuristic_gcd_gives_up(monkeypatch):
    import laumonk.exact as exact

    def values():
        out = [f for f, _, _ in _gcd_cases()]
        m = FAC[0] * FAC[1] ** -1 * FAC[3]
        out.append((1 - m ** 6) * FAC[2] / ((1 - m ** 4) * (FAC[0] - FAC[2])))
        return out

    want = [f.to_string() for f in values()]
    calls = []

    def give_up(f, g):
        calls.append(1)
        return None

    monkeypatch.setattr(exact, "_heugcd", give_up)
    assert [f.to_string() for f in values()] == want
    assert calls


def test_factor_table_under_concurrent_interning():
    # threads sharing one context intern overlapping sets of new factors;
    # every id must still name its own polynomial
    import sys
    from concurrent.futures import ThreadPoolExecutor

    ctx = LaurentContext(7)

    def intern(offset):
        return [ctx._factor_id(((-k, -1), (0, 1)))
                for k in range(offset, offset + 3000)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(intern, 1 + 1000 * (k % 4))
                       for k in range(16)]
            ids = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert len(ctx._factor_polys) == len(ctx._factor_ids)
    for key, fid in ctx._factor_ids.items():
        assert ctx._factor_polys[fid] == dict(key)
    assert ids[0] == ids[4] and ids[1][1000:] == ids[2][:2000]
