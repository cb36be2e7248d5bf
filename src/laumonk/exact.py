"""Exact arithmetic substrate: multivariate Laurent rational functions.

Everything downstream computes in the field Q(t_1..t_n, u, v, z) with
arbitrary-precision rational coefficients, one `LaurentContext` per rank n
with the variables ordered (t_1..t_n, u, v, z).  Values come in two types:

* `FactoredExpr`, the working type.  Every closed form in the theory is a
  monomial times powers of (1 - monomial) factors, so a value is kept as a
  lazy sum of terms, each a rational coefficient times a Laurent monomial
  times a product of powers of polynomial factors.  A factor is normalized
  by dividing out its leading monomial and coefficient (so 1 - m and
  1 - m^{-1} are one factor), and factors are identified by syntax.  A
  product adds exponents and a sum concatenates terms; no gcd ever runs,
  so values are NOT reduced and equal values may be written differently.
  `is_zero` brings the terms over a common denominator (the largest
  denominator exponent per factor), adds the numerators and tests the sum;
  the denominator need not be least, only nonzero, so the test is exact.
  `evaluate` works at exact rational points from per-point caches;
  `evaluate_pair` gives the same value as an unreduced integer
  numerator/denominator pair, with no gcd.
  `canonical` is the reduced form, unique per value: a coprime, jointly
  primitive integer pair under graded-lexicographic order with a positive
  leading denominator coefficient.  Pure Python computes it (the heuristic
  gcd GCDHEU of Char, Geddes and Gonnet, one pair of factors at a time),
  and it is the emitted text form (`to_string`) and the hash.
* `LaurentExpr`, the same form as a sympy field element: the independent
  reference of the tests, loaded with sympy on first use.
  `FactoredExpr.reduce()` produces it; its field operations and
  `expand_series` reduce through `_cancel`, which falls back to the modular
  gcd where sympy's heuristic gcd gives up.

Psi modes come from `z_partial_fractions`, which reads the limit at
z = infinity and the residue of every simple pole 1 - beta/z off the
factored form, with no gcd.

Laurent monomials with negative exponents are ordinary field elements
(t^-2 is 1/t^2).  No floating point anywhere.
"""

from __future__ import annotations

import heapq
import threading
from fractions import Fraction
from math import gcd, isqrt, lcm, prod


class ExactError(Exception):
    """Base error for the arithmetic layer."""


class DivisionByZeroExpr(ExactError):
    """Division by the zero expression."""


class NotExpandable(ExactError):
    """Rational function has no Laurent expansion in the requested direction."""


class EvaluationError(ExactError):
    """Evaluation point misses a variable or vanishes a denominator."""


AT_INFINITY = "at_infinity"
AT_ZERO = "at_zero"

# A Laurent monomial is packed into one int, sum_i e_i * 2^(32 i) over the
# variable index i, with z most significant.  The balanced base-2^32 digits
# decode uniquely while every |e_i| < 2^31; multiplying monomials adds the
# ints, and comparing the ints is a lex order compatible with products.
_BITS = 32
_BASE = 1 << _BITS
_HALF = _BASE >> 1
_MASK = _BASE - 1
_MAX_POWER_EXP = 1 << 20  # bound on exponents made by ** (headroom for products)


def _to_ground(x):
    from sympy.polys.domains import QQ
    if isinstance(x, (int, Fraction)):
        return QQ(int(getattr(x, "numerator", x)), int(getattr(x, "denominator", 1)))
    raise ExactError("coefficients must be int or Fraction, got %r" % (x,))


def _ground_to_fraction(x):
    from sympy.polys.domains import QQ
    return Fraction(int(QQ.numer(x)), int(QQ.denom(x)))


def _q(x):
    """A rational as an int when it is integral (cheaper arithmetic)."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _qdiv(a, b):
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _q(Fraction(a) / b)


def _qpow(c, e):
    return c ** e if e >= 0 else _q(Fraction(1) / c ** -e)


def _unpack(key, nvars):
    out = []
    for _ in range(nvars):
        r = key & _MASK
        if r >= _HALF:
            r -= _BASE
        out.append(r)
        key = (key - r) >> _BITS
    return out


def _pack(exps):
    key = 0
    for i, e in enumerate(exps):
        if e:
            key += e << (_BITS * i)
    return key


def _cancel(num, den):
    """Reduced (numerator, denominator) of num/den.

    This is sympy's `PolyElement.cancel`; where its heuristic gcd gives up
    (HeuristicGCDFailed on rare inputs) the same steps run with the
    deterministic modular gcd.
    """
    from sympy.polys.polyerrors import HeuristicGCDFailed
    try:
        return num.cancel(den)
    except HeuristicGCDFailed:
        return _cancel_modular(num, den)


def _cancel_modular(f, g):
    """`PolyElement.cancel` over QQ with the modular gcd for the cofactors."""
    from sympy.polys import modulargcd as _modgcd
    from sympy.polys.domains import ZZ
    ring = f.ring
    if not f:
        return f, ring.one
    zz = ring.clone(domain=ZZ)
    cq, f = f.clear_denoms()
    cp, g = g.clear_denoms()
    f, g = f.set_ring(zz), g.set_ring(zz)
    if len(f) == 1 or len(g) == 1:
        _, p, q = f.cofactors(g)
    else:
        inner = (_modgcd.modgcd_univariate if zz.ngens == 1
                 else _modgcd.modgcd_multivariate)
        shape, (f, g) = f.deflate(g)
        _, p, q = inner(f, g)
        p, q = p.inflate(shape), q.inflate(shape)
    _, cp, cq = ZZ.cofactors(cp, cq)
    p = p.set_ring(ring).mul_ground(cp)
    q = q.set_ring(ring).mul_ground(cq)
    if q.LC < 0:
        p, q = -p, -q
    return p, q


class LaurentContext:
    """Field Q(t_1..t_n, u, v, z) for a fixed rank n, plus factories.

    The generators t, u, v, z and the constants are `FactoredExpr` values;
    `field` and `ring` are the sympy field of the `LaurentExpr` reference
    and its polynomial ring, built on first access.  The context also owns
    the table of normalized factors (interned by syntax), their cached
    powers and the memo of `z_partial_fractions`; these grow with the
    distinct factors and psi eigenvalues a computation meets and live as
    long as the context.
    """

    _cache: dict = {}

    def __new__(cls, n: int):
        if n < 1:
            raise ValueError("need at least one t variable")
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        names = ["t%d" % i for i in range(1, n + 1)] + ["u", "v", "z"]
        self.n = n
        self.var_names = tuple(names)
        self.nvars = len(names)
        self._field = None
        self._z_index = n + 2
        self._factor_lock = threading.Lock()
        self._factor_ids = {}
        self._factor_polys = []
        self._factor_pows = {}
        self._partial_fractions = {}
        var = [FactoredExpr(self, ((1, 1 << (_BITS * i), ()),))
               for i in range(len(names))]
        self.t = tuple(var[:n])
        self.u, self.v, self.z = var[n:]
        self.zero = FactoredExpr(self, ())
        self.one = FactoredExpr(self, ((1, 0, ()),))
        cls._cache[n] = self
        return self

    @property
    def field(self):
        if self._field is None:
            from sympy.polys.domains import QQ
            from sympy.polys.fields import field
            from sympy.polys.orderings import grlex
            self._field = field(" ".join(self.var_names), QQ, grlex)[0]
        return self._field

    @property
    def ring(self):
        return self.field.ring

    def rational(self, q) -> "FactoredExpr":
        q = _q(Fraction(q))
        return FactoredExpr(self, ((q, 0, ()),) if q else ())

    def t_res(self, j: int) -> "FactoredExpr":
        """t_{(j mod n)} with residues taken in {1..n}."""
        return self.t[(j - 1) % self.n]

    def _frac(self, num, den):
        """Reduced field element num/den of two ring polynomials."""
        return self.field.raw_new(*_cancel(num, den))

    def _ground(self, q):
        return self._frac(self.ring.ground_new(_to_ground(Fraction(q))), self.ring.one)

    # -- the factor table ---------------------------------------------------

    def _factor_id(self, key) -> int:
        fid = self._factor_ids.get(key)
        if fid is None:
            with self._factor_lock:
                fid = self._factor_ids.get(key)
                if fid is None:
                    # publish the id only once its polynomial is stored
                    self._factor_polys.append(dict(key))
                    fid = self._factor_ids[key] = len(self._factor_polys) - 1
        return fid

    def _factor_pow(self, fid: int, e: int) -> dict:
        if e == 1:
            return self._factor_polys[fid]
        hit = self._factor_pows.get((fid, e))
        if hit is None:
            hit = _pclean(_pmul(self._factor_pow(fid, e - 1),
                                self._factor_polys[fid]))
            self._factor_pows[(fid, e)] = hit
        return hit

    def __repr__(self):
        return "LaurentContext(n=%d)" % self.n


# -- sparse Laurent polynomials {packed monomial: int} ----------------------


def _pmul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    items = list(b.items())
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in items:
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


def _pclean(poly: dict) -> dict:
    return {e: c for e, c in poly.items() if c}


def _normalize(poly: dict):
    """poly = unit * x^lead * Q, with Q's leading term 1 and content 1.

    Returns (unit, lead, key) where key is Q as a sorted item tuple.
    """
    lead = max(poly)
    unit = gcd(*poly.values())
    if poly[lead] < 0:
        unit = -unit
    key = tuple(sorted((e - lead, c // unit) for e, c in poly.items()))
    return unit, lead, key


def _merge(fa, fb, sign=1):
    """Factor exponents of a product (sign=1) or quotient (sign=-1)."""
    if not fb:
        return fa
    if not fa and sign == 1:
        return fb
    acc = dict(fa)
    for f, e in fb:
        e = acc.get(f, 0) + sign * e
        if e:
            acc[f] = e
        else:
            del acc[f]
    return tuple(sorted(acc.items()))


def _merge_like(terms):
    """Terms with equal monomial and factors added; zero terms dropped."""
    merged = {}
    for c, m, fac in terms:
        key = (m, fac)
        merged[key] = merged.get(key, 0) + c
    return [(c, m, fac) for (m, fac), c in merged.items() if c]


def _numerator(ctx, terms):
    """The terms over their syntactic common denominator.

    Returns (scale, common, poly) with
        sum(terms) = poly / scale * prod_f Q_f^common_f,
    common_f the smallest exponent of factor f over the terms (0 where a
    term lacks f) and poly an integer polynomial.  No gcd runs: the common
    denominator need not be least, only a nonzero product of factors.
    """
    count, low = {}, {}
    scale = 1
    for c, _, fac in terms:
        if type(c) is Fraction:
            scale = lcm(scale, c.denominator)
        for f, e in fac:
            count[f] = count.get(f, 0) + 1
            if f not in low or e < low[f]:
                low[f] = e
    nterms = len(terms)
    common = sorted((f, e if count[f] == nterms else min(e, 0))
                    for f, e in low.items())
    groups = {}
    for c, m, fac in terms:
        have = dict(fac)
        rest = tuple((f, have.get(f, 0) - g) for f, g in common
                     if have.get(f, 0) != g)
        group = groups.setdefault(rest, {})
        group[m] = group.get(m, 0) + int(c * scale)
    poly = {}
    for rest, part in groups.items():
        for f, e in rest:
            part = _pmul(part, ctx._factor_pow(f, e))
        for e, c in part.items():
            poly[e] = poly.get(e, 0) + c
    common = tuple((f, g) for f, g in common if g)
    return scale, common, _pclean(poly)


def _collapse(ctx, terms):
    """A sum of terms as one term (coeff, mono, factors), or None if zero."""
    terms = _merge_like(terms)
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    scale, common, poly = _numerator(ctx, terms)
    if not poly:
        return None
    unit, lead, key = _normalize(poly)
    fac = common
    if len(key) > 1:
        fac = _merge(common, ((ctx._factor_id(key), 1),))
    return _qdiv(unit, scale), lead, fac


_UNSET = object()


class FactoredExpr:
    """A Laurent rational function as a lazy sum of factored terms.

    Each term is (coefficient, packed Laurent monomial, factors) with the
    factors a sorted tuple of (factor id, nonzero exponent).  Immutable.
    Values are not reduced; `==` and `is_zero` are exact zero tests, and
    `hash` agrees with `==` (it hashes the canonical form unless the value
    is a monomial).
    """

    __slots__ = ("ctx", "terms", "_term", "_canon")

    def __init__(self, ctx: LaurentContext, terms):
        self.ctx = ctx
        self.terms = terms
        if len(terms) > 1:
            self._term = _UNSET
        else:
            self._term = terms[0] if terms else None
        self._canon = None

    def _single(self):
        """This value as one term, or None if it is zero (cached)."""
        t = self._term
        if t is _UNSET:
            t = self._term = _collapse(self.ctx, self.terms)
        return t

    def _coerce(self, other):
        if isinstance(other, FactoredExpr):
            if other.ctx is not self.ctx:
                raise ExactError("mixing expressions from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.terms:
            return self
        if not self.terms:
            return o
        return FactoredExpr(self.ctx, self.terms + o.terms)

    __radd__ = __add__

    def __neg__(self):
        return FactoredExpr(self.ctx, tuple((-c, m, f) for c, m, f in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self._single(), o._single()
        if a is None or b is None:
            return self.ctx.zero
        return FactoredExpr(self.ctx, ((a[0] * b[0], a[1] + b[1],
                                        _merge(a[2], b[2])),))

    __rmul__ = __mul__

    def _divide(self, a, b):
        if b is None:
            raise DivisionByZeroExpr("division by zero expression")
        if a is None:
            return self.ctx.zero
        return FactoredExpr(self.ctx, ((_qdiv(a[0], b[0]), a[1] - b[1],
                                        _merge(a[2], b[2], -1)),))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._divide(self._single(), o._single())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._divide(o._single(), self._single())

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ExactError("exponents must be integers")
        a = self._single()
        if a is None:
            if e < 0:
                raise DivisionByZeroExpr("negative power of zero expression")
            return self.ctx.one if e == 0 else self.ctx.zero
        if e == 0:
            return self.ctx.one
        c, m, fac = a
        if max(map(abs, _unpack(m, self.ctx.nvars))) * abs(e) >= _MAX_POWER_EXP:
            raise ExactError("monomial exponent out of range")
        return FactoredExpr(self.ctx, ((_qpow(c, e), m * e,
                                        tuple((f, k * e) for f, k in fac)),))

    # -- zero test, equality, hashing ----------------------------------------

    @property
    def is_zero(self):
        t = self._term
        if t is _UNSET:
            terms = _merge_like(self.terms)
            if len(terms) > 1:
                if _numerator(self.ctx, terms)[2]:
                    return False
                t = self._term = None
            else:
                t = self._term = terms[0] if terms else None
        return t is None

    def __bool__(self):
        return not self.is_zero

    @property
    def is_one(self):
        return self == 1

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, FactoredExpr) and other.ctx is not self.ctx:
            return False
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).is_zero

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        t = self._single()
        if t is None:
            return hash(0)
        if not t[2]:
            return hash((t[0], t[1]))
        return _hash_terms(*self.canonical())

    def as_monomial(self):
        """(coefficient, exponent tuple) of a monomial value."""
        t = self._single()
        if t is None or t[2]:
            raise ExactError("not a monomial")
        return t[0], tuple(_unpack(t[1], self.ctx.nvars))

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a point assigning nonzero rationals to variables.

        `point` is an `EvalPoint` (whose caches then serve later calls) or a
        mapping from variable names to rationals.  Every variable of the
        expression must be assigned.  Raises EvaluationError when a
        denominator factor vanishes at the point, even where it would cancel
        in the reduced form.
        """
        return Fraction(*self.evaluate_pair(point))

    def evaluate_pair(self, point):
        """The value of `evaluate` as an unreduced integer pair (num, den).

        No gcd runs; den is nonzero but may be negative.  Takes the same
        points and raises the same errors as `evaluate`.
        """
        if not isinstance(point, EvalPoint):
            point = EvalPoint(self.ctx, point)
        elif point.ctx is not self.ctx:
            raise ExactError("point from a different context")
        # integer numerator/denominator pairs; one reduction at the end
        num, den = 0, 1
        for c, m, fac in self.terms:
            tn, td = point.monomial(m)
            if type(c) is int:
                tn *= c
            else:
                tn, td = tn * c.numerator, td * c.denominator
            for f, e in fac:
                fn, fd = point.factor(f)
                if e > 0:
                    tn, td = tn * fn ** e, td * fd ** e
                elif not fn:
                    raise EvaluationError("denominator vanishes at the point")
                else:
                    tn, td = tn * fd ** -e, td * fn ** -e
            num, den = num * td + tn * den, den * td
        return num, den

    # -- the canonical form ---------------------------------------------------

    def canonical(self):
        """The reduced form as (numerator, denominator) terms (cached).

        Each is a grlex-descending tuple of (exponent tuple, int) over
        nonnegative exponents; the pair is coprime and jointly primitive,
        and the denominator's leading coefficient is positive, which makes
        it unique.  The zero value is ((), (((0, .., 0), 1),)).
        """
        r = self._canon
        if r is None:
            r = self._canon = _canonical(self.ctx, self._single())
        return r

    def reduce(self) -> "LaurentExpr":
        """The canonical form as a sympy field element (the test reference)."""
        ring = self.ctx.ring
        return LaurentExpr(self.ctx, self.ctx.field.raw_new(
            *(ring.from_dict(dict(p)) for p in self.canonical())))

    def to_string(self) -> str:
        return _terms_to_string(self.ctx, *self.canonical())

    __str__ = to_string

    def __repr__(self):
        return "FactoredExpr(%s)" % self.to_string()


# -- the reduced canonical form ---------------------------------------------
#
# Integer polynomials are {packed monomial: int} with every exponent >= 0,
# so the base-2^32 digits of a key are plain: variable 0 is key & _MASK and
# the other variables are key >> _BITS.

def _canonical(ctx, term):
    """(num, den) of `FactoredExpr.canonical` for one term, or for zero.

    The factors, shifted to polynomials, are cancelled one numerator piece
    against one denominator piece at a time until every such pair is
    coprime; then both products are multiplied out and divided by their
    joint integer content.
    """
    nvars = ctx.nvars
    if term is None:
        return (), (((0,) * nvars, 1),)
    c, shift, fac = term
    num, den = [], []
    for f, e in fac:
        poly = ctx._factor_polys[f]
        low = _pack(map(min, zip(*(_unpack(k, nvars) for k in poly))))
        shift += e * low
        piece = [{k - low: v for k, v in poly.items()}, abs(e)]
        (num if e > 0 else den).append(piece)
    # a common factor h of pieces a^i, b^j leaves (a/h)^i, (b/h)^j and
    # h^(i-j) on the side of the larger exponent; new pieces are appended
    # and so meet every piece of the other side later in the loops
    for a in num:
        for b in den:
            h, a[0], b[0] = _cofactors(ctx, a[0], b[0])
            if max(h) and a[1] != b[1]:
                (num if a[1] > b[1] else den).append([h, abs(a[1] - b[1])])
    c = Fraction(c)
    shift = _unpack(shift, nvars)
    top = _expand(num, c.numerator, _pack(max(x, 0) for x in shift))
    bottom = _expand(den, c.denominator, _pack(max(-x, 0) for x in shift))
    content = gcd(*top.values(), *bottom.values())
    top, bottom = (sorted(((tuple(_unpack(k, nvars)), v)
                           for k, v in poly.items()),
                          key=lambda t: (sum(t[0]), t[0]), reverse=True)
                   for poly in (top, bottom))
    if bottom[0][1] < 0:
        content = -content
    return tuple(tuple((e, v // content) for e, v in poly)
                 for poly in (top, bottom))


def _expand(pieces, coeff, mono):
    """coeff * x^mono * prod(poly^e for poly, e in pieces)."""
    out = {mono: coeff}
    for poly, e in pieces:
        for _ in range(e):
            out = _pclean(_pmul(out, poly))
    return out


def _cofactors(ctx, f, g):
    """(h, f / h, g / h), h = gcd(f, g): GCDHEU, else sympy's modular gcd."""
    out = _heugcd(f, g)
    if out is None:
        from sympy.polys import modulargcd
        from sympy.polys.domains import ZZ
        zz = ctx.ring.clone(domain=ZZ)
        out = modulargcd.modgcd_multivariate(*(
            zz.from_dict({tuple(_unpack(k, ctx.nvars)): v
                          for k, v in p.items()}) for p in (f, g)))
        out = tuple({_pack(e): int(v) for e, v in p.items()} for p in out)
    return out


def _heugcd(f, g):
    """(h, f / h, g / h) with h = gcd(f, g) for nonzero f, g, or None.

    GCDHEU as sympy's `heugcd` runs it: evaluate variable 0 at an integer
    x, take the gcd of the images (recursively, down to integers), read h
    back from its x-adic digits and accept it only if it divides both
    inputs; else try either cofactor, then a larger x.  None after six x.
    """
    if not max(f) or not max(g):
        h = gcd(*f.values(), *g.values())
        return {0: h}, _quo_ground(f, h), _quo_ground(g, h)
    if not any(k & _MASK for k in f) and not any(k & _MASK for k in g):
        out = _heugcd(*({k >> _BITS: v for k, v in p.items()} for p in (f, g)))
        return out and tuple({k << _BITS: v for k, v in p.items()}
                             for p in out)
    content = gcd(*f.values(), *g.values())
    f, g = _quo_ground(f, content), _quo_ground(g, content)
    f_norm, g_norm = (max(map(abs, p.values())) for p in (f, g))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _ in range(6):  # evaluation points, as in sympy
        ff, gg = _eval_low(f, x), _eval_low(g, x)
        if ff and gg:
            images = _heugcd(ff, gg)
            if images is None:
                return None
            for h in _candidates(f, g, images, x):
                cff = None if h is None else _exact_quo(f, h)
                cfg = None if cff is None else _exact_quo(g, h)
                if cfg is not None:
                    return {k: v * content for k, v in h.items()}, cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _candidates(f, g, images, x):
    """GCDHEU's candidate gcds from the images (h, cff, cfg) at x."""
    h, cff, cfg = images
    h = _interpolate(h, x)
    yield _quo_ground(h, gcd(*h.values()))
    yield _exact_quo(f, _interpolate(cff, x))
    yield _exact_quo(g, _interpolate(cfg, x))


def _quo_ground(f, c):
    return f if c == 1 else {k: v // c for k, v in f.items()}


def _eval_low(f, x):
    """f at variable 0 = x, as a polynomial in the other variables."""
    out, pows = {}, {}
    for k, c in f.items():
        e = k & _MASK
        p = pows.get(e)
        if p is None:
            p = pows[e] = x ** e
        rest = k >> _BITS
        out[rest] = out.get(rest, 0) + c * p
    return _pclean(out)


def _interpolate(h, x):
    """h's coefficients read as symmetric x-adic digits in variable 0."""
    out, i, half = {}, 0, x // 2
    while h:
        rest = {}
        for k, c in h.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                out[(k << _BITS) | i] = d
            if c != d:
                rest[k] = (c - d) // x
        h, i = rest, i + 1
    if out[max(out)] < 0:
        out = {k: -v for k, v in out.items()}
    return out


def _exact_quo(f, h):
    """f / h if h divides f (both integer polynomials), else None, by
    division by leading terms in the lex order of the packed keys."""
    lead = max(h)
    lc = h[lead]
    tail = [(k - lead, v) for k, v in h.items() if k != lead]
    # top bit of each digit: set in a key difference that borrowed
    digits = max(max(f), lead).bit_length() // _BITS + 1
    guard = _HALF * (((1 << (_BITS * digits)) - 1) // _MASK)
    rem = dict(f)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue
        d = k - lead
        if d < 0 or d & guard or c % lc:
            return None
        q = quo[d] = c // lc
        for e, v in tail:
            key = k + e
            if key in rem:
                rem[key] -= q * v
            else:
                rem[key] = -q * v
                heapq.heappush(heap, -key)
    return quo


def _terms_to_string(ctx, num, den) -> str:
    text = _poly_to_string(ctx, num)
    if len(den) == 1 and not any(den[0][0]) and den[0][1] == 1:
        return text
    return "(%s) / (%s)" % (text, _poly_to_string(ctx, den))


def _hash_terms(num, den) -> int:
    """Hash of a canonical pair; a monomial hashes as (coeff, packed m)."""
    if not num:
        return hash(0)
    if len(num) == 1 and len(den) == 1:
        (ne, nc), = num
        (de, dc), = den
        return hash((_q(Fraction(nc, dc)), _pack([a - b for a, b in zip(ne, de)])))
    return hash((tuple(num), tuple(den)))


class EvalPoint:
    """An assignment of nonzero rationals to variables, with per-point caches
    of monomial values and factor values as integer (numerator, denominator)
    pairs."""

    __slots__ = ("ctx", "values", "_monos", "_factors")

    def __init__(self, ctx: LaurentContext, point):
        values = []
        for name in ctx.var_names:
            if name in point:
                q = Fraction(point[name])
                if q == 0:
                    raise EvaluationError("variable %s assigned zero" % name)
                values.append(q)
            else:
                values.append(None)
        self.ctx = ctx
        self.values = values
        self._monos = {}
        self._factors = {}

    def monomial(self, key: int):
        hit = self._monos.get(key)
        if hit is None:
            n = d = 1
            for i, e in enumerate(_unpack(key, self.ctx.nvars)):
                if not e:
                    continue
                x = self.values[i]
                if x is None:
                    raise EvaluationError("variable %s occurs but is not "
                                          "assigned" % self.ctx.var_names[i])
                if e > 0:
                    n, d = n * x.numerator ** e, d * x.denominator ** e
                else:
                    n, d = n * x.denominator ** -e, d * x.numerator ** -e
            hit = self._monos[key] = (n, d)
        return hit

    def factor(self, fid: int):
        hit = self._factors.get(fid)
        if hit is None:
            n, d = 0, 1
            for k, c in self.ctx._factor_polys[fid].items():
                mn, md = self.monomial(k)
                n, d = n * md + c * mn * d, d * md
            g = gcd(n, d)
            hit = self._factors[fid] = (n // g, d // g)
        return hit


class LaurentExpr:
    """A reduced Laurent rational function over a LaurentContext.

    Immutable; all operators return new values.  Equality and hash are
    canonical (same value <=> same representation).  Field operations
    follow sympy's own formulas and reduce through `_cancel`.
    """

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: LaurentContext, raw):
        self.ctx = ctx
        self.raw = raw

    def _new(self, num, den):
        return LaurentExpr(self.ctx, self.ctx._frac(num, den))

    def _coerce(self, other):
        if isinstance(other, LaurentExpr):
            if other.ctx is not self.ctx:
                raise ExactError("mixing expressions from different contexts")
            return other.raw
        if isinstance(other, (int, Fraction)):
            return self.ctx._ground(other)
        return NotImplemented

    def __add__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return g
        f = self.raw
        if not g:
            return self
        if not f:
            return LaurentExpr(self.ctx, g)
        if f.denom == g.denom:
            return self._new(f.numer + g.numer, f.denom)
        return self._new(f.numer * g.denom + f.denom * g.numer, f.denom * g.denom)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return g
        return self._difference(self.raw, g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return g
        return self._difference(g, self.raw)

    def _difference(self, f, g):
        if not g:
            return LaurentExpr(self.ctx, f)
        if not f:
            return LaurentExpr(self.ctx, -g)
        if f.denom == g.denom:
            return self._new(f.numer - g.numer, f.denom)
        return self._new(f.numer * g.denom - f.denom * g.numer, f.denom * g.denom)

    def __mul__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return g
        f = self.raw
        if not f or not g:
            return LaurentExpr(self.ctx, self.ctx.field.zero)
        return self._new(f.numer * g.numer, f.denom * g.denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return g
        if not g:
            raise DivisionByZeroExpr("division by zero expression")
        f = self.raw
        return self._new(f.numer * g.denom, f.denom * g.numer)

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return g
        f = self.raw
        if not f:
            raise DivisionByZeroExpr("division by zero expression")
        return self._new(g.numer * f.denom, g.denom * f.numer)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ExactError("exponents must be integers")
        if e < 0 and not self.raw:
            raise DivisionByZeroExpr("negative power of zero expression")
        return LaurentExpr(self.ctx, self.raw ** e)

    def __neg__(self):
        return LaurentExpr(self.ctx, -self.raw)

    def __eq__(self, other):
        if isinstance(other, LaurentExpr):
            return self.ctx is other.ctx and self.raw == other.raw
        if isinstance(other, (int, Fraction)):
            return self.raw == self._coerce(other)
        return NotImplemented

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        # the key of FactoredExpr.__hash__, so equal values hash alike
        return _hash_terms(self.numerator_terms(), self.denominator_terms())

    def __bool__(self):
        return bool(self.raw)

    @property
    def is_zero(self):
        return not self.raw

    @property
    def is_one(self):
        return self.raw == self.ctx.field.one

    def reduce(self) -> "LaurentExpr":
        return self

    def numerator_terms(self):
        """Terms of the reduced numerator, grlex-descending: (exps, Fraction)."""
        return [(e, _ground_to_fraction(c)) for e, c in self.raw.numer.terms()]

    def denominator_terms(self):
        return [(e, _ground_to_fraction(c)) for e, c in self.raw.denom.terms()]

    def evaluate(self, point) -> Fraction:
        """Exact value at a point assigning nonzero rationals to variables.

        `point` maps variable names ("t1", "u", "v", "z") to rationals.  Every
        variable occurring in the expression must be assigned; unused
        variables may be omitted.
        """
        ctx = self.ctx
        names = ctx.var_names
        used = [False] * len(names)
        for poly in (self.raw.numer, self.raw.denom):
            for exps in poly.monoms():
                for i, e in enumerate(exps):
                    if e:
                        used[i] = True
        vals = []
        for i, name in enumerate(names):
            if name in point:
                q = Fraction(point[name])
                if q == 0:
                    raise EvaluationError("variable %s assigned zero" % name)
                vals.append(_to_ground(q))
            elif used[i]:
                raise EvaluationError("variable %s occurs but is not assigned" % name)
            else:
                vals.append(_to_ground(1))
        pairs = list(zip(ctx.ring.gens, vals))
        num = self.raw.numer.evaluate(pairs)
        den = self.raw.denom.evaluate(pairs)
        if not den:
            raise EvaluationError("denominator vanishes at the point")
        return _ground_to_fraction(num) / _ground_to_fraction(den)

    def z_coeffs(self):
        """(num_coeffs, den_coeffs): dicts z-degree -> z-free LaurentExpr."""
        ctx = self.ctx
        zi = ctx._z_index

        def split(poly):
            buckets = {}
            for exps, c in poly.terms():
                zdeg = exps[zi]
                stripped = list(exps)
                stripped[zi] = 0
                term = ctx.ring.from_terms([(tuple(stripped), c)])
                buckets[zdeg] = buckets.get(zdeg, ctx.ring.zero) + term
            return {
                d: LaurentExpr(ctx, ctx._frac(p, ctx.ring.one))
                for d, p in buckets.items()
            }

        return split(self.raw.numer), split(self.raw.denom)

    def to_string(self) -> str:
        """Canonical text form: sorted monomials, explicit exponents."""
        return _terms_to_string(self.ctx, self.numerator_terms(),
                                self.denominator_terms())

    __str__ = to_string

    def __repr__(self):
        return "LaurentExpr(%s)" % self.to_string()


def _poly_to_string(ctx, terms) -> str:
    """Text of grlex-descending (exponent tuple, rational) terms."""
    if not terms:
        return "0"
    parts = []
    for exps, c in terms:
        factors = []
        for name, e in zip(ctx.var_names, exps):
            if e:
                factors.append("%s^%d" % (name, e))
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append("%s*%s" % (c, body))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def expand_series(f, direction: str, order: int) -> list:
    """Laurent expansion of f at z=infinity (powers z^{-r}) or z=0 (z^{r}).

    Returns the coefficients c_0..c_order of sum_r c_r z^{-r} (at infinity)
    resp. sum_r c_r z^{r} (at zero) as `LaurentExpr` values; `f` is reduced
    first.  The denominator, read as a polynomial in z resp. z^{-1}, must
    have an invertible constant term; at infinity the numerator's z-degree
    must not exceed the denominator's (otherwise the expansion is not a pure
    z^{-r} series and NotExpandable is raised).  This is the reference that
    tests hold the psi modes of `z_partial_fractions` to.
    """
    if direction not in (AT_INFINITY, AT_ZERO):
        raise ExactError("bad direction %r" % direction)
    if order < 0:
        raise ExactError("order must be nonnegative")
    f = f.reduce()
    ctx = f.ctx
    zero = LaurentExpr(ctx, ctx.field.zero)
    numc, denc = f.z_coeffs()
    if not numc:
        return [zero] * (order + 1)
    num_degs = sorted(numc)
    den_degs = sorted(denc)
    if direction == AT_ZERO:
        num_low, den_low = num_degs[0], den_degs[0]
        shift = min(num_low, den_low)
        # cancel z^shift so both sides are honest polynomials in z
        n_of = lambda r: numc.get(r + shift, zero)
        d_of = lambda r: denc.get(r + shift, zero)
        if d_of(0).is_zero:
            raise NotExpandable("denominator has no invertible constant term at z=0")
        dmax = den_degs[-1] - shift
    else:
        num_high, den_high = num_degs[-1], den_degs[-1]
        if num_high > den_high:
            raise NotExpandable("numerator z-degree exceeds denominator at z=infinity")
        shift = den_high
        n_of = lambda r: numc.get(shift - r, zero)
        d_of = lambda r: denc.get(shift - r, zero)
        dmax = shift - den_degs[0]
    lead = d_of(0)
    coeffs = []
    for r in range(order + 1):
        acc = n_of(r)
        for b in range(1, min(r, dmax) + 1):
            db = d_of(b)
            if not db.is_zero:
                acc = acc - db * coeffs[r - b]
        coeffs.append(acc / lead)
    return coeffs


def recomposition_residual(f, direction: str, coeffs) -> bool:
    """True iff f minus the truncated series vanishes through its order.

    Independent check of expand_series: `coeffs` are the coefficients
    c_0..c_order of the expansion of f in `direction`; the difference of f
    and their series must vanish to the stated order.
    """
    f = f.reduce()
    ctx = f.ctx
    order = len(coeffs) - 1
    z = LaurentExpr(ctx, ctx.field.gens[ctx._z_index])
    s = LaurentExpr(ctx, ctx.field.zero)
    sign = -1 if direction == AT_INFINITY else 1
    for r, c in enumerate(coeffs):
        s = s + c * z ** (sign * r)
    diff = f - s
    if diff.is_zero:
        return True
    numc, denc = diff.z_coeffs()
    # diff must vanish to the stated order: every numerator z-degree must lie
    # strictly beyond it relative to the denominator's reference degree.
    if direction == AT_INFINITY:
        dref = max(denc)
        return all(dref - d > order for d in numc)
    dref = min(denc)
    return all(d - dref > order for d in numc)


def z_partial_fractions(f):
    """Partial fractions of f in z: (limit at z = infinity, ((beta, c), ..)).

    f must be one term L * prod_a (1 - a/z)^k / prod_b (1 - b/z) with L and
    every a, b free of z, simple poles b and no more zeros than poles
    (counted with exponent); z-free factors belong to L.  Then
        f = L + sum_b c_b (1 / (1 - b/z) - 1),  c_b = [(1 - b/z) f] at z = b,
    so f is L + sum_{m>0} (sum_b c_b b^m) z^{-m} at z = infinity and
    L - sum_b c_b - sum_{m<0} (sum_b c_b b^m) z^{-m} at z = 0.  Any other
    shape raises NotExpandable; zero gives (0, ()).  Memoized per context
    under the expression's terms.
    """
    ctx = f.ctx
    hit = ctx._partial_fractions.get(f.terms)
    if hit is not None:
        return hit
    t = f._single()
    if t is None:
        return ctx.zero, ()
    coeff, mono, fac = t
    zi = ctx._z_index
    if _unpack(mono, ctx.nvars)[zi]:
        raise NotExpandable("monomial carries z")
    rest, roots = [], []
    for fid, k in fac:
        poly = ctx._factor_polys[fid]
        zexps = {_unpack(e, ctx.nvars)[zi] for e in poly}
        if zexps == {0}:
            rest.append((fid, k))
            continue
        if len(poly) != 2 or zexps != {0, -1}:
            raise NotExpandable("z-factor is not 1 - beta/z")
        if k < -1:
            raise NotExpandable("pole of order %d" % -k)
        # the normalized factor a + b x/z, leading key 0, is a (1 - beta/z)
        e, a = min(poly), poly[0]
        roots.append((FactoredExpr(ctx, ((_qdiv(-poly[e], a),
                                          e + (1 << (_BITS * zi)), ()),)), k))
        coeff = coeff * _qpow(a, k)
    if sum(k for _, k in roots) > 0:
        raise NotExpandable("more zeros than poles")
    limit = FactoredExpr(ctx, ((_q(coeff), mono, tuple(rest)),))
    hit = ctx._partial_fractions[f.terms] = (limit, tuple(
        (b, prod(((1 - a / b) ** k for a, k in roots if a is not b),
                 start=limit))
        for b, kb in roots if kb < 0))
    return hit
