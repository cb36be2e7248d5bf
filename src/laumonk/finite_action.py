"""Loop-algebra operators on the finite module in the fixed-point basis.

Matrix coefficients of the raising/lowering modes, the diagonal psi-series,
the auxiliary b-series and chi coefficients, and application of operators to
vectors.  All s-values are read off the SOURCE pattern of a transition: the
f-modes raise degree at node i and read the smaller pattern, the e-modes
lower it and read the larger one.  Boundary rows obey d_0 = d_n = 0 and
s_{n,k} = t_k^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import AT_INFINITY, AT_ZERO, FactoredExpr, LaurentContext, \
    series_coefficient
from .patterns import FinitePattern, neighbors, s_weight


class ActionError(ValueError):
    pass


@dataclass(frozen=True)
class ModeSpec:
    """One generator mode: kind in {e,f,psi_plus,psi_minus,t_cartan}."""

    kind: str
    node: int
    mode: int = 0

    def __post_init__(self):
        if self.kind not in ("e", "f", "psi_plus", "psi_minus", "t_cartan"):
            raise ActionError("unknown kind %r" % self.kind)
        if self.kind == "psi_plus" and self.mode < 0:
            raise ActionError("psi_plus modes are nonnegative")
        if self.kind == "psi_minus" and self.mode > 0:
            raise ActionError("psi_minus modes are nonpositive")


@dataclass(frozen=True)
class Transition:
    """Single-box transition src -> target with mode-r coefficient base*beta^r."""

    column: int
    target: object
    base: FactoredExpr
    beta: FactoredExpr

    def coeff(self, r: int) -> FactoredExpr:
        return self.base * self.beta ** r


class FiniteAction:
    """Operator calculus for a fixed rank n >= 2."""

    def __init__(self, n: int):
        if n < 2:
            raise ActionError("need n >= 2")
        self.n = n
        self.ctx = LaurentContext(n)
        self._transitions_cache = {}
        self._psi_cache = {}

    # -- weights ---------------------------------------------------------

    def s(self, p: FinitePattern, i: int, j: int) -> FactoredExpr:
        return s_weight(self.ctx, p, i, j)

    # -- matrix coefficients ----------------------------------------------

    def f_base_coeff(self, src: FinitePattern, i: int, j: int) -> FactoredExpr:
        """r=0 coefficient of the f-transition raising d_{ij}."""
        if src.bump(i, j, 1) is None:
            raise ActionError("invalid f-move at (%d, %d)" % (i, j))
        ctx = self.ctx
        v = ctx.v
        sij = self.s(src, i, j)
        out = (
            -(ctx.t[i - 1] ** -1)
            * v ** (src.degree_entry(i) - src.degree_entry(i - 1) - 1 + i)
            * sij
            / (1 - v ** 2)
        )
        for k in range(1, i + 1):
            if k != j:
                out = out / (1 - sij / self.s(src, i, k))
        for k in range(1, i):
            out = out * (1 - sij / self.s(src, i - 1, k))
        return out

    def e_base_coeff(self, src: FinitePattern, i: int, j: int) -> FactoredExpr:
        """r=0 coefficient of the e-transition lowering d_{ij}."""
        if src.bump(i, j, -1) is None:
            raise ActionError("invalid e-move at (%d, %d)" % (i, j))
        ctx = self.ctx
        v = ctx.v
        sij = self.s(src, i, j)
        out = (
            ctx.t[i] ** -1
            * v ** (src.degree_entry(i + 1) - src.degree_entry(i) + 1 - i)
            / (1 - v ** 2)
        )
        for k in range(1, i + 1):
            if k != j:
                out = out / (1 - self.s(src, i, k) / sij)
        for k in range(1, i + 2):
            out = out * (1 - self.s(src, i + 1, k) / sij)
        return out

    def f_mode_coeff(self, src: FinitePattern, i: int, j: int, r: int) -> FactoredExpr:
        return self.f_base_coeff(src, i, j) * self.f_beta(src, i, j) ** r

    def e_mode_coeff(self, src: FinitePattern, i: int, j: int, r: int) -> FactoredExpr:
        return self.e_base_coeff(src, i, j) * self.e_beta(src, i, j) ** r

    def f_beta(self, src: FinitePattern, i: int, j: int) -> FactoredExpr:
        """Spectral parameter s_{ij} v^i of an f-transition."""
        return self.s(src, i, j) * self.ctx.v ** i

    def e_beta(self, src: FinitePattern, i: int, j: int) -> FactoredExpr:
        """Spectral parameter s_{ij} v^{i+2} of an e-transition."""
        return self.s(src, i, j) * self.ctx.v ** (i + 2)

    def transitions(self, kind: str, node: int, src: FinitePattern):
        """All single-box transitions of e/f at the node, with base and beta."""
        key = (kind, node, src)
        hit = self._transitions_cache.get(key)
        if hit is not None:
            return hit
        out = []
        if kind == "f":
            for j, tgt in neighbors(src, node, 1):
                out.append(
                    Transition(j, tgt, self.f_base_coeff(src, node, j),
                               self.f_beta(src, node, j))
                )
        elif kind == "e":
            for j, tgt in neighbors(src, node, -1):
                out.append(
                    Transition(j, tgt, self.e_base_coeff(src, node, j),
                               self.e_beta(src, node, j))
                )
        else:
            raise ActionError("transitions are for kinds e/f")
        self._transitions_cache[key] = out
        return out

    # -- diagonal series ---------------------------------------------------

    def psi_eigenvalue(self, p: FinitePattern, i: int) -> FactoredExpr:
        """Diagonal eigenvalue of the psi-series at node i, rational in z."""
        if not (1 <= i <= self.n - 1):
            raise ActionError("node out of range")
        key = (p, i)
        hit = self._psi_cache.get(key)
        if hit is not None:
            return hit
        ctx = self.ctx
        v, z = ctx.v, ctx.z
        out = ctx.t[i] ** -1 * ctx.t[i - 1] * v ** (
            p.degree_entry(i + 1) - 2 * p.degree_entry(i) + p.degree_entry(i - 1) - 1
        )
        for j in range(1, i + 1):
            sij = self.s(p, i, j)
            out = out / (1 - z ** -1 * v ** (i + 2) * sij)
            out = out / (1 - z ** -1 * v ** i * sij)
        for j in range(1, i + 2):
            out = out * (1 - z ** -1 * v ** (i + 2) * self.s(p, i + 1, j))
        for j in range(1, i):
            out = out * (1 - z ** -1 * v ** i * self.s(p, i - 1, j))
        self._psi_cache[key] = out
        return out

    def psi_mode(self, p: FinitePattern, i: int, m: int, sign: str) -> FactoredExpr:
        """Coefficient of z^{-m} in the +/- expansion; 0 on sign mismatch."""
        if sign not in ("+", "-"):
            raise ActionError("sign must be '+' or '-'")
        if (sign == "+" and m < 0) or (sign == "-" and m > 0):
            return self.ctx.zero
        psi = self.psi_eigenvalue(p, i)
        if sign == "+":
            return series_coefficient(psi, AT_INFINITY, m)
        return series_coefficient(psi, AT_ZERO, -m)

    def b_series_eigenvalue(self, p: FinitePattern, m: int) -> FactoredExpr:
        """Eigenvalue of the m-th tautological series: prod_{j<=m}(1 - z^{-1}s_{mj})."""
        if not (0 <= m <= self.n):
            raise ActionError("row out of range")
        out = self.ctx.one
        for j in range(1, m + 1):
            out = out * (1 - self.ctx.z ** -1 * self.s(p, m, j))
        return out

    def b_quotient_eigenvalue(
        self, p: FinitePattern, m: int, i: int, scale: FactoredExpr
    ) -> FactoredExpr:
        """Eigenvalue of the quotient series b_{mi} at argument z*scale."""
        if not (0 <= m <= i <= self.n):
            raise ActionError("need 0 <= m <= i <= n")
        ctx = self.ctx
        zs = ctx.z * scale
        num = ctx.one
        for j in range(1, i + 1):
            num = num * (1 - zs ** -1 * self.s(p, i, j))
        den = ctx.one
        for j in range(1, m + 1):
            den = den * (1 - zs ** -1 * self.s(p, m, j))
        return num / den

    def psi_via_quotients(self, p: FinitePattern, i: int, m: int) -> FactoredExpr:
        """psi eigenvalue computed through the b_{m*} quotient route (m < i)."""
        if not (0 <= m < i):
            raise ActionError("need 0 <= m < i")
        ctx = self.ctx
        v = ctx.v
        pref = ctx.t[i] ** -1 * ctx.t[i - 1] * v ** (
            p.degree_entry(i + 1) - 2 * p.degree_entry(i) + p.degree_entry(i - 1) - 1
        )
        return (
            pref
            / self.b_quotient_eigenvalue(p, m, i, v ** (-i - 2))
            / self.b_quotient_eigenvalue(p, m, i, v ** -i)
            * self.b_quotient_eigenvalue(p, m, i - 1, v ** -i)
            * self.b_quotient_eigenvalue(p, m, i + 1, v ** (-i - 2))
        )

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
            * v ** (p.degree_entry(i + 1) - p.degree_entry(i - 1))
        )
        total = ctx.zero
        for j in range(1, i + 1):
            sij = self.s(p, i, j)
            first = ctx.one
            second = ctx.one
            for k in range(1, i + 1):
                if k == j:
                    continue
                sik = self.s(p, i, k)
                first = first / (1 - sij / sik) / (1 - v ** 2 * sik / sij)
                second = second / (1 - sik / sij) / (1 - v ** 2 * sij / sik)
            for k in range(1, i):
                sk = self.s(p, i - 1, k)
                first = first * (1 - sij / sk)
                second = second * (1 - v ** 2 * sij / sk)
            for k in range(1, i + 2):
                sk = self.s(p, i + 1, k)
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
            p.degree_entry(i - 1) - p.degree_entry(i) + i - 1
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
            * v ** (src.degree_entry(i) - src.degree_entry(i - 1) - 1 + i)
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
            * v ** (src.degree_entry(i + 1) - src.degree_entry(i) + 1 - i)
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


class GradedVector:
    """Finite linear combination of fixed-point basis vectors."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs = {}
        for p, c in (coeffs or {}).items():
            if p.n != n:
                raise ActionError("mixed ranks in vector")
            if not c.is_zero:
                self.coeffs[p] = c

    @classmethod
    def basis(cls, ctx: LaurentContext, p) -> "GradedVector":
        return cls(p.n, {p: ctx.one})

    def add_term(self, p, c: FactoredExpr) -> None:
        if p.n != self.n:
            raise ActionError("mixed ranks in vector")
        acc = self.coeffs.get(p)
        new = c if acc is None else acc + c
        if new.is_zero:
            self.coeffs.pop(p, None)
        else:
            self.coeffs[p] = new

    def __add__(self, other: "GradedVector") -> "GradedVector":
        out = GradedVector(self.n, dict(self.coeffs))
        for p, c in other.coeffs.items():
            out.add_term(p, c)
        return out

    def scaled(self, c: FactoredExpr) -> "GradedVector":
        if c.is_zero:
            return GradedVector(self.n)
        return GradedVector(self.n, {p: x * c for p, x in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, GradedVector)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "GradedVector(%s)" % {
            repr(p): str(c) for p, c in sorted(
                self.coeffs.items(), key=lambda kv: kv[0].sort_key()
            )
        }


def apply_mode(action: FiniteAction, spec: ModeSpec, x: GradedVector) -> GradedVector:
    """Linear extension of the mode's matrix coefficients."""
    if x.n != action.n:
        raise ActionError("vector rank does not match the action")
    out = GradedVector(action.n)
    for p, c in x.coeffs.items():
        if spec.kind in ("e", "f"):
            for tr in action.transitions(spec.kind, spec.node, p):
                out.add_term(tr.target, c * tr.coeff(spec.mode))
        elif spec.kind == "t_cartan":
            out.add_term(p, c * action.t_cartan_eigenvalue(p, spec.node))
        else:
            sign = "+" if spec.kind == "psi_plus" else "-"
            out.add_term(p, c * action.psi_mode(p, spec.node, spec.mode, sign))
    return out
