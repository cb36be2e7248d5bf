"""Loop-algebra operators on the finite module in the fixed-point basis.

Matrix coefficients of the raising/lowering modes, the diagonal psi-series
(its modes read off the partial fractions of the eigenvalue in z), the
auxiliary b-series and the chi coefficients.  All s-values are read
off the SOURCE pattern of a transition: the f-modes raise degree at node i
and read the smaller pattern, the e-modes lower it and read the larger one.  Boundary rows obey d_0 = d_n = 0 and
s_{n,k} = t_k^2.

The coefficient shapes (a monomial times (1 - monomial) products) are built
once here, by module-level functions that read the weights off the pattern
and take the column lower bound and the prefactor twist; the renormalized
affine basis calls the same functions, and the affine module binds the
operator methods of `FiniteAction` itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .exact import FactoredExpr, LaurentContext, z_partial_fractions
from .patterns import ActionError, FinitePattern, enumerate_finite


@dataclass(frozen=True)
class Transition:
    """Single-box transition src -> target with mode-r coefficient base*beta^r."""

    column: int
    target: object
    base: FactoredExpr
    beta: FactoredExpr

    def coeff(self, r: int) -> FactoredExpr:
        return self.base * self.beta ** r


# -- the shared coefficient kernel ------------------------------------------
#
# The finite and the affine module (and the renormalized affine basis) build
# every coefficient from the pattern's weight p.weight(ctx, i, j) -- s on the
# finite module, p on the affine one -- and a column lower bound lo, which
# the callers read as p.low(rows, bound): the products run over the columns
# lo < k, all of them on the finite module (lo = 0) and a telescoped window
# on the affine one.


def column_ratios(ctx, kind, src, i, j, lo):
    """(w_{ij}, numerator, denominator) of the f- or e-shaped products at
    cell (i, j) of src over the columns lo < k: the lists hold the monomials
    m of the (1 - m) factors, and the denominator opens with v^2 for the
    (1 - v^2) factor of every shape."""
    w = src.weight
    wij = w(ctx, i, j)
    v = ctx.v
    den = [v * v]
    if kind == "f":
        num = [wij / w(ctx, i - 1, k) for k in range(lo + 1, i)]
        den += [wij / w(ctx, i, k) for k in range(lo + 1, i + 1) if k != j]
    elif kind == "e":
        num = [w(ctx, i + 1, k) / wij for k in range(lo + 1, i + 2)]
        den += [w(ctx, i, k) / wij for k in range(lo + 1, i + 1) if k != j]
    else:
        raise ActionError("kind must be e or f")
    return wij, num, den


def shaped(ctx, pref, num, den) -> FactoredExpr:
    """pref * prod_{m in num} (1 - m) / prod_{m in den} (1 - m)."""
    return prod((1 - m for m in num), start=pref) \
        / prod((1 - m for m in den), start=ctx.one)


def move_prefactor(ctx, kind, p, i) -> FactoredExpr:
    """Monomial prefactor of a move at row i read off p, without the
    line-bundle weight: -t_i^{-1} v^{d_i - d_{i-1} - 1 + i} for f,
    t_{i+1}^{-1} v^{d_{i+1} - d_i + 1 - i} for e."""
    if kind == "f":
        return -ctx.v ** (p.row_sum(i) - p.row_sum(i - 1) - 1 + i) \
            / ctx.t_res(i)
    return ctx.v ** (p.row_sum(i + 1) - p.row_sum(i) + 1 - i) \
        / ctx.t_res(i + 1)


def move_coefficient(ctx, kind, src, i, j, lo) -> FactoredExpr:
    """r=0 coefficient of the f-move raising (e-move lowering) d_{ij},
    read off the source pattern: the prefactor, times w_{ij} for f."""
    if src.bump(i, j, 1 if kind == "f" else -1) is None:
        raise ActionError("invalid %s-move at (%d, %d)" % (kind, i, j))
    wij, num, den = column_ratios(ctx, kind, src, i, j, lo)
    pref = move_prefactor(ctx, kind, src, i)
    return shaped(ctx, wij * pref if kind == "f" else pref, num, den)


def move_beta(wij, kind, i) -> FactoredExpr:
    """Spectral factor of a move at row i with weight wij: wij v^i for f,
    wij v^{i+2} for e."""
    return wij * wij.ctx.v ** (i if kind == "f" else i + 2)


def psi_prefactor(ctx, p, i, twist) -> FactoredExpr:
    """twist * t_{i+1}^{-1} t_i v^{d_{i+1} - 2 d_i + d_{i-1} - 1}; the twist
    is u^2 on the affine module and 1 on the finite one."""
    return twist * ctx.t_res(i + 1) ** -1 * ctx.t_res(i) * ctx.v ** (
        p.row_sum(i + 1) - 2 * p.row_sum(i) + p.row_sum(i - 1) - 1)


def psi_value(ctx, p, i, scale, lo, twist) -> FactoredExpr:
    """Eigenvalue of the psi-series at node i at argument z*scale, rational
    in z."""
    w = p.weight
    low = (ctx.z * scale) ** -1 * ctx.v ** i
    high = low * ctx.v ** 2
    num = [high * w(ctx, i + 1, j) for j in range(lo + 1, i + 2)]
    num += [low * w(ctx, i - 1, j) for j in range(lo + 1, i)]
    den = []
    for j in range(lo + 1, i + 1):
        wij = w(ctx, i, j)
        den += [high * wij, low * wij]
    return shaped(ctx, psi_prefactor(ctx, p, i, twist), num, den)


def b_quotient(ctx, p, m, i, scale, lo) -> FactoredExpr:
    """Eigenvalue of the quotient of the row-i by the row-m tautological
    series at argument z*scale."""
    zs = (ctx.z * scale) ** -1
    return shaped(ctx, ctx.one,
                  [zs * p.weight(ctx, i, j) for j in range(lo + 1, i + 1)],
                  [zs * p.weight(ctx, m, j) for j in range(lo + 1, m + 1)])


class FiniteAction:
    """Operator calculus for a fixed rank n >= 2.

    The operator methods from `f_base_coeff` to `psi_via_quotients` serve
    both modules: `ToroidalAction` binds these same functions.  They read
    what differs by module only through the pattern's `weight`, `low` and
    `moves` and the action's `nodes` and `twist`.
    """

    affine = False

    def __init__(self, n: int):
        if n < 2:
            raise ActionError("need n >= 2")
        self.n = n
        self.ctx = LaurentContext(n)
        self.nodes = range(1, n)
        self.twist = self.ctx.one
        self._transitions_cache = {}
        self._psi_cache = {}

    def sources(self, max_degree: int) -> list:
        """All patterns of total degree at most max_degree, by total degree
        and then by degree vector."""
        degrees = sorted((sum(deg), deg) for deg in itertools.product(
            range(max_degree + 1), repeat=self.n - 1))
        return [p for total, deg in degrees if total <= max_degree
                for p in enumerate_finite(self.n, deg)]

    # -- matrix coefficients (both modules) --------------------------------

    def f_base_coeff(self, src, i: int, j: int) -> FactoredExpr:
        """r=0 coefficient of the f-transition raising d_{ij}."""
        return move_coefficient(self.ctx, "f", src, i, j,
                                src.low((i - 1, i), j - 1))

    def e_base_coeff(self, src, i: int, j: int) -> FactoredExpr:
        """r=0 coefficient of the e-transition lowering d_{ij}."""
        return move_coefficient(self.ctx, "e", src, i, j,
                                src.low((i, i + 1), j - 1))

    def transitions(self, kind: str, node: int, src):
        """All single-box e/f moves of src at a node of the module, with base
        coefficient and spectral factor; cached per (kind, node, src)."""
        key = (kind, node, src)
        hit = self._transitions_cache.get(key)
        if hit is not None:
            return hit
        if node not in self.nodes:
            raise ActionError("node out of range")
        if kind == "f":
            base, direction = self.f_base_coeff, 1
        elif kind == "e":
            base, direction = self.e_base_coeff, -1
        else:
            raise ActionError("transitions are for kinds e/f")
        out = self._transitions_cache[key] = [
            Transition(j, tgt, base(src, node, j),
                       move_beta(src.weight(self.ctx, node, j), kind, node))
            for j, tgt in src.moves(node, direction)
        ]
        return out

    # -- diagonal series (both modules) ------------------------------------

    def psi_eigenvalue(self, p, i: int) -> FactoredExpr:
        """Diagonal eigenvalue of the psi-series at node i, rational in z."""
        if i not in self.nodes:
            raise ActionError("node out of range")
        key = (p, i)
        hit = self._psi_cache.get(key)
        if hit is None:
            hit = self._psi_cache[key] = psi_value(
                self.ctx, p, i, self.ctx.one,
                p.low((i - 1, i, i + 1), i - 1), self.twist)
        return hit

    def psi_mode(self, p, i: int, m: int, sign: str) -> FactoredExpr:
        """Coefficient of z^{-m} in the +/- expansion of the psi eigenvalue;
        0 on sign mismatch.  With the partial fractions
        psi = L + sum_b c_b (1 / (1 - b/z) - 1), psi^+_0 = L,
        psi^-_0 = L - sum_b c_b and psi^+_m = -psi^-_m = sum_b c_b b^m.
        The eigenvalue is read first, so a bad node raises on either sign."""
        if sign not in ("+", "-"):
            raise ActionError("sign must be '+' or '-'")
        psi = self.psi_eigenvalue(p, i)
        if (sign == "+" and m < 0) or (sign == "-" and m > 0):
            return self.ctx.zero
        limit, poles = z_partial_fractions(psi)
        if m == 0:
            return limit if sign == "+" else limit - sum(
                (c for _, c in poles), self.ctx.zero)
        mode = sum((c * b ** m for b, c in poles), self.ctx.zero)
        return mode if sign == "+" else -mode

    def b_quotient_eigenvalue(self, p, m: int, i: int,
                              scale: FactoredExpr) -> FactoredExpr:
        """Eigenvalue of the quotient series b_{mi} (rows m <= i) at
        argument z*scale."""
        if m > i:
            raise ActionError("need m <= i")
        return b_quotient(self.ctx, p, m, i, scale, p.low((m, i), m))

    def psi_via_quotients(self, p, i: int, m: int) -> FactoredExpr:
        """psi eigenvalue at node i assembled from the four row-m quotient
        series (m < i)."""
        if i not in self.nodes:
            raise ActionError("node out of range")
        if m >= i:
            raise ActionError("need m < i")
        v = self.ctx.v
        b = self.b_quotient_eigenvalue
        return (
            psi_prefactor(self.ctx, p, i, self.twist)
            / b(p, m, i, v ** (-i - 2))
            / b(p, m, i, v ** -i)
            * b(p, m, i - 1, v ** -i)
            * b(p, m, i + 1, v ** (-i - 2))
        )

    # -- the finite module only ----------------------------------------------

    def psi_via_a_series(self, p: FinitePattern, i: int) -> FactoredExpr:
        """psi eigenvalue from the a-series product (the m=0 quotient route)."""
        return self.psi_via_quotients(p, i, 0)

    def chi_coeff(self, p: FinitePattern, i: int, a: int) -> FactoredExpr:
        """Diagonal commutator coefficient chi_{i,a}."""
        if not (1 <= i <= self.n - 1):
            raise ActionError("node out of range")
        ctx = self.ctx
        v = ctx.v
        pref = (
            -(ctx.t[i] ** -1)
            * ctx.t[i - 1] ** -1
            * v ** -1
            / (v ** 2 - 1)
            * v ** (p.row_sum(i + 1) - p.row_sum(i - 1))
        )
        total = ctx.zero
        for j in range(1, i + 1):
            sij = p.weight(ctx, i, j)
            first = ctx.one
            second = ctx.one
            for k in range(1, i + 1):
                if k == j:
                    continue
                sik = p.weight(ctx, i, k)
                first = first / (1 - sij / sik) / (1 - v ** 2 * sik / sij)
                second = second / (1 - sik / sij) / (1 - v ** 2 * sij / sik)
            for k in range(1, i):
                sk = p.weight(ctx, i - 1, k)
                first = first * (1 - sij / sk)
                second = second * (1 - v ** 2 * sij / sk)
            for k in range(1, i + 2):
                sk = p.weight(ctx, i + 1, k)
                first = first * (1 - v ** 2 * sk / sij)
                second = second * (1 - sk / sij)
            term = first * (sij * v ** i) ** a - v ** 2 * second * (
                sij * v ** (i + 2)
            ) ** a
            total = total + sij * term
        return pref * total

    def t_cartan_eigenvalue(self, p: FinitePattern, i: int) -> FactoredExpr:
        """Zero-mode Cartan eigenvalue t_i v^{d_{i-1} - d_i + i - 1}."""
        if not (1 <= i <= self.n):
            raise ActionError("Cartan node out of range")
        return self.ctx.t[i - 1] * self.ctx.v ** (
            p.row_sum(i - 1) - p.row_sum(i) + i - 1
        )

    # -- independent zero-mode formulas ------------------------------------

    def feigin_f_coeff(self, src: FinitePattern, i: int, j: int) -> FactoredExpr:
        """Zero-mode f coefficient written directly in the t,v variables."""
        if src.bump(i, j, 1) is None:
            raise ActionError("invalid f-move")
        ctx = self.ctx
        v = ctx.v
        dij = src.d(i, j)
        out = (
            -(ctx.t[i - 1] ** -1)
            * v ** (src.row_sum(i) - src.row_sum(i - 1) - 1 + i)
            * ctx.t[j - 1] ** 2
            * v ** (-2 * dij)
            / (1 - v ** 2)
        )
        for k in range(1, i + 1):
            if k != j:
                out = out / (
                    1
                    - ctx.t[j - 1] ** 2
                    * ctx.t[k - 1] ** -2
                    * v ** (2 * src.d(i, k) - 2 * dij)
                )
        for k in range(1, i):
            out = out * (
                1
                - ctx.t[j - 1] ** 2
                * ctx.t[k - 1] ** -2
                * v ** (2 * src.d(i - 1, k) - 2 * dij)
            )
        return out

    def feigin_e_coeff(self, src: FinitePattern, i: int, j: int) -> FactoredExpr:
        """Zero-mode e coefficient written directly in the t,v variables."""
        if src.bump(i, j, -1) is None:
            raise ActionError("invalid e-move")
        ctx = self.ctx
        v = ctx.v
        dij = src.d(i, j)
        out = (
            ctx.t[i] ** -1
            * v ** (src.row_sum(i + 1) - src.row_sum(i) + 1 - i)
            / (1 - v ** 2)
        )
        for k in range(1, i + 1):
            if k != j:
                out = out / (
                    1
                    - ctx.t[k - 1] ** 2
                    * ctx.t[j - 1] ** -2
                    * v ** (2 * dij - 2 * src.d(i, k))
                )
        for k in range(1, i + 2):
            out = out * (
                1
                - ctx.t[k - 1] ** 2
                * ctx.t[j - 1] ** -2
                * v ** (2 * dij - 2 * src.d(i + 1, k))
            )
        return out

