"""Integrable-module construction: the pattern subset D(mu), the
specialization u = v^{-K-n}, t_j = v^{mu~_j - j + 1}, renormalized matrix
coefficients, and closure verification.

Renormalized coefficients are handled in factored form (monomial prefactor
times (1 - monomial) factors), and the specialization is applied factor by
factor on the unreduced data, so a vanishing numerator factor is detected
before any cancellation could mask it and a vanishing denominator factor is
reported with the offending exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactError, FactoredExpr, LaurentContext
from .finite_action import ActionError, column_ratios, move_beta, \
    move_prefactor, shaped
from .patterns import AffinePattern, enumerate_affine, \
    enumerate_affine_total
from .toroidal_action import ToroidalAction


class WeightError(ValueError):
    pass


class SpecializationError(ValueError):
    pass


@dataclass(frozen=True)
class LevelWeight:
    """Dominant level-K weight given on the index window {1-n, .., 0}."""

    n: int
    K: int
    mu: tuple

    def __post_init__(self):
        if self.n < 2:
            raise WeightError("need n >= 2")
        if self.K < 1:
            raise WeightError("the level must be a positive integer")
        if len(self.mu) != self.n:
            raise WeightError("mu must have n entries (indices 1-n .. 0)")
        seq = list(self.mu)
        for a, b in zip(seq, seq[1:]):
            if a < b:
                raise WeightError("mu must be nonincreasing")
        if seq[-1] + self.K < seq[0]:
            raise WeightError("dominance needs mu_0 + K >= mu_{1-n}")

    def extended(self, i: int) -> int:
        """Nonincreasing extension mu~_i = mu_{i mod n} + floor(-i/n) K,
        with the residue i mod n taken in the window {1-n, .., 0}."""
        return self.mu[(i - 1) % self.n] + (-i // self.n) * self.K


def in_D_mu(p: AffinePattern, w: LevelWeight, brute_bound: int = None) -> bool:
    """Membership in the pattern subset surviving the specialization.

    Checks d_{ij} - mu~_j <= d_{i+l,j+l} - mu~_{j+l} for all j <= i, l >= 0.
    The default mode uses the finite reduction: cells with d_{ij} = 0 hold by
    monotonicity of mu~, and the condition for l >= n follows from l - n by
    periodicity (the step adds +K >= 0), so l in 1..n-1 on charged cells
    suffices.  With brute_bound set, all l up to the bound are checked on a
    window of cells including uncharged ones (cross-validation mode).
    """
    if p.n != w.n:
        raise WeightError("pattern and weight rank differ")
    n = p.n
    mut = w.extended
    if brute_bound is None:
        for i in range(1, n + 1):
            for m in range(p.max_length()):
                j = i - m
                dij = p.d(i, j)
                if dij == 0:
                    continue
                for l in range(1, n):
                    if dij - mut(j) > p.d(i + l, j + l) - mut(j + l):
                        return False
        return True
    lo_extra = n + 2
    for i in range(1, n + 1):
        lo = i - p.max_length() - lo_extra
        for j in range(lo, i + 1):
            for l in range(0, brute_bound + 1):
                if p.d(i, j) - mut(j) > p.d(i + l, j + l) - mut(j + l):
                    return False
    return True


class SpecializationMap:
    """Exponent map of the one-variable specialization.

    Sends t_j to v^{mu~_j - j + 1} (j = 1..n) and u to v^{-K-n};
    everything lands in exact Laurent rationals in v.  With wrong_u the
    u-exponent is off by one, -K-n+1: the negative control.
    """

    def __init__(self, w: LevelWeight, wrong_u: bool = False):
        self.w = w
        self.n = w.n
        self.t_exponents = tuple(w.extended(j) - j + 1
                                 for j in range(1, w.n + 1))
        self.u_exponent = -w.K - w.n + (1 if wrong_u else 0)
        # v-exponents of t_1..t_n, u and v; z has none
        self._weights = self.t_exponents + (self.u_exponent, 1)
        self.ctx = LaurentContext(w.n)

    def exponent(self, exps) -> int:
        """v-exponent of the specialized monomial with exponent vector exps."""
        if exps[-1]:
            raise SpecializationError("expression involves z")
        out = 0
        for power, weight in zip(exps, self._weights):
            out += power * weight
        return out

    def monomial_exponent(self, mono: FactoredExpr) -> int:
        """v-exponent of the specialized monomial."""
        try:
            coeff, exps = mono.as_monomial()
        except ExactError:
            raise SpecializationError("not a monomial") from None
        if abs(coeff) != 1:
            raise SpecializationError("not a unit-coefficient monomial")
        return self.exponent(exps)

    def _specialize_terms(self, terms):
        v = self.ctx.v
        return sum((self.ctx.rational(coeff) * v ** self.exponent(exps)
                    for exps, coeff in terms), self.ctx.zero)


def specialize(x: FactoredExpr, w: LevelWeight,
               wrong_u: bool = False) -> FactoredExpr:
    """Exact substitution on the reduced numerator/denominator pair."""
    smap = SpecializationMap(w, wrong_u)
    num, den = map(smap._specialize_terms, x.canonical())
    if den.is_zero:
        raise SpecializationError("denominator specializes to zero")
    return num / den


@dataclass
class FactoredCoefficient:
    """A renormalized matrix coefficient after specialization.

    sign * v^{v_power} * prod_f (1 - v^e_f) / prod_g (1 - v^e_g); a zero
    exponent upstairs means the coefficient vanishes, downstairs that it is
    ill-defined.
    """

    smap: SpecializationMap
    sign: int
    v_power: int
    num_exponents: tuple
    den_exponents: tuple

    @property
    def numerator_vanishes(self) -> bool:
        return any(e == 0 for e in self.num_exponents)

    @property
    def denominator_vanishes(self) -> bool:
        return any(e == 0 for e in self.den_exponents)

    def value(self) -> FactoredExpr:
        if self.denominator_vanishes:
            raise SpecializationError(
                "denominator factor specializes to zero: exponents %s"
                % (self.den_exponents,)
            )
        ctx = self.smap.ctx
        v = ctx.v
        return shaped(ctx, ctx.rational(self.sign) * v ** self.v_power,
                      [v ** e for e in self.num_exponents],
                      [v ** e for e in self.den_exponents])


class RenormalizedAction:
    """Matrix coefficients in the renormalized fixed-point basis, factored.

    In this basis the raising/lowering coefficients swap product shapes:
    the e-coefficient of the transition that removes the box at (i, j)
    reads off the smaller pattern with lowering-type products and spectral
    factor (p_{ij} v^i)^r; the f-coefficient of the box-adding transition
    reads off the larger pattern with raising-type products and spectral
    factor (p_{ij} v^{i+2})^r.
    """

    def __init__(self, w: LevelWeight, wrong_u: bool = False):
        self.w = w
        self.smap = SpecializationMap(w, wrong_u)
        self.action = ToroidalAction(w.n)
        self.ctx = self.action.ctx

    def _parts(self, kind: str, src: AffinePattern, i: int, j: int, r: int):
        """(monomial prefactor, numerator, denominator monomials) of the
        renormalized coefficient: the f-move reads the larger pattern with
        the e-shaped products, the e-move the smaller one with the f-shaped
        products."""
        if kind not in ("e", "f"):
            raise ActionError("kind must be e or f")
        read = src.bump(i, j, 1 if kind == "f" else -1)
        if read is None:
            raise ActionError("invalid %s-move" % kind)
        shape, rows = ("e", (i, i + 1)) if kind == "f" else ("f", (i - 1, i))
        pij, num, den = column_ratios(self.ctx, shape, read, i, j,
                                      read.low(rows, j - 1))
        pref = move_prefactor(self.ctx, kind, read, i)
        pref = pref * pij * self.ctx.v if kind == "f" else pref / self.ctx.v
        if r:
            pref = pref * move_beta(pij, shape, i) ** r
        return pref, num, den

    def coefficient(self, kind: str, src: AffinePattern, i: int, j: int,
                    r: int) -> FactoredCoefficient:
        """Factored specialized coefficient of the transition from src
        moving the box at cell (i, j) (up for f, down for e)."""
        pref, num, den = self._parts(kind, src, i, j, r)
        exponent = self.smap.monomial_exponent
        return FactoredCoefficient(
            self.smap, pref.as_monomial()[0], exponent(pref),
            tuple(map(exponent, num)), tuple(map(exponent, den)))

    def symbolic_coefficient(self, kind: str, src: AffinePattern, i: int,
                             j: int, r: int) -> FactoredExpr:
        """The same renormalized coefficient before specialization."""
        return shaped(self.ctx, *self._parts(kind, src, i, j, r))


def _closure_block(w: LevelWeight, ren: RenormalizedAction, deg, patterns):
    """Basis and closure data of the graded block of degree deg, whose
    patterns are given, and the moves that stay inside D(mu) with
    well-defined values: (kind, source, node, column, target) each."""
    n = w.n
    basis = [p for p in patterns if in_D_mu(p, w)]
    defined = []
    violations_a = []
    violations_b = []
    inside = boundary = 0
    for p in basis:
        for kind, direction in (("f", 1), ("e", -1)):
            for node in range(1, n + 1):
                for j, tgt in p.moves(node, direction):
                    coeff = ren.coefficient(kind, p, node, j, 0)
                    member = in_D_mu(tgt, w)
                    if member:
                        inside += 1
                        if coeff.denominator_vanishes:
                            violations_a.append(
                                {"kind": kind, "source": p.to_json(),
                                 "target": tgt.to_json(), "node": node,
                                 "column": j})
                        else:
                            defined.append((kind, p, node, j, tgt))
                    else:
                        boundary += 1
                        if not coeff.numerator_vanishes:
                            violations_b.append(
                                {"kind": kind, "source": p.to_json(),
                                 "target": tgt.to_json(), "node": node,
                                 "column": j})
    block = {
        "degree": list(deg),
        "basis_size": len(basis),
        "basis": [p.to_json() for p in basis],
        "inside_transitions": inside,
        "boundary_transitions": boundary,
        "violations_nonvanishing": violations_a,
        "violations_vanishing": violations_b,
        "closure": not violations_a and not violations_b,
    }
    return block, defined


def build_Vmu_block(w: LevelWeight, deg, window: int = 2,
                    wrong_u: bool = False) -> dict:
    """Basis and closure data of one graded block of the candidate module.

    Returns the D(mu)-basis of the degree block, the specialized matrices of
    all raising/lowering modes in the window, and the closure report: (a)
    transitions staying inside D(mu) have nonvanishing denominators (well
    defined values), (b) transitions leaving D(mu) have vanishing numerators.
    Violations are collected, not thrown.
    """
    ren = RenormalizedAction(w, wrong_u)
    block, defined = _closure_block(w, ren, deg, enumerate_affine(w.n, deg))
    block["matrices"] = [
        {"kind": kind, "mode": r, "node": node, "source": p.to_json(),
         "target": tgt.to_json(),
         "value": ren.coefficient(kind, p, node, j, r).value().to_string()}
        for kind, p, node, j, tgt in defined
        for r in range(-window, window + 1)
    ]
    return block


def closure_report(w: LevelWeight, max_total: int = 2,
                   wrong_u: bool = False) -> dict:
    """Closure status over all degree blocks with total box count <= bound."""
    n = w.n
    by_degree = {}
    for total in range(max_total + 1):
        for p in enumerate_affine_total(n, total):
            by_degree.setdefault(p.degree(), []).append(p)
    ren = RenormalizedAction(w, wrong_u)
    blocks = []
    for deg in sorted(by_degree):
        block, _ = _closure_block(w, ren, deg, by_degree[deg])
        block.pop("basis")
        blocks.append(block)
    return {
        "n": n,
        "level": w.K,
        "mu": list(w.mu),
        "u_exponent": ren.smap.u_exponent,
        "max_total_degree": max_total,
        "blocks": blocks,
        "closure": all(b["closure"] for b in blocks),
    }
