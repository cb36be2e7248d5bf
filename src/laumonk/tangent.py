"""Torus characters of tangent spaces at affine fixed points, and the
Bott-Lefschetz recomputation of matrix coefficients.

Characters are assembled as signed sums of Laurent monomials, with every
geometric factor (v^{2d}-1)/(v^2-1) expanded into an explicit monomial sum
before any cancellation; conversion to a multiset is the final step and
validates positivity.  The localization products use (1-w) Euler-type
factors over the tangent weights: the coefficient of a single-box move is

    prefactor * prod_{w in T_src}(1-w) / prod_{w in T_corr}(1-w)

with the numerator at the SOURCE fixed point, which is the unique reading
consistent with the closed-form coefficients (the two routes share nothing
beyond the weight monomials themselves).
"""

from __future__ import annotations

from collections import Counter

from .exact import FactoredExpr, LaurentContext
from .finite_action import ActionError
from .patterns import AffinePattern, ceil_div


class CharacterError(ValueError):
    pass


class WeightMultiset:
    """Finite multiset of Laurent monomials with positive multiplicities."""

    __slots__ = ("ctx", "weights")

    def __init__(self, ctx: LaurentContext, signed_counter: Counter):
        weights = {}
        for w, mult in signed_counter.items():
            if mult == 0:
                continue
            if mult < 0:
                raise CharacterError(
                    "negative multiplicity survived cancellation at %s" % (w,)
                )
            if w.is_one:
                raise CharacterError("unit weight in a tangent character")
            weights[w] = mult
        self.ctx = ctx
        self.weights = weights

    def size(self) -> int:
        return sum(self.weights.values())

    def euler_product(self) -> FactoredExpr:
        """prod (1 - w)^mult over the multiset."""
        out = self.ctx.one
        for w, mult in self.weights.items():
            out = out * (1 - w) ** mult
        return out

    def sorted_items(self):
        return sorted(self.weights.items(), key=lambda kv: kv[0].to_string())

    def to_strings(self):
        return ["%s x%d" % (w.to_string(), m) for w, m in self.sorted_items()]

    def __eq__(self, other):
        return isinstance(other, WeightMultiset) and self.weights == other.weights


class TangentOracle:
    """Characters and Bott-Lefschetz coefficients for rank n >= 3."""

    def __init__(self, n: int):
        if n < 3:
            raise ActionError("the affine oracle needs n >= 3")
        self.n = n
        self.ctx = LaurentContext(n)
        self._space_cache = {}
        self._corr_cache = {}

    # -- building blocks -----------------------------------------------------

    def _mono(self, l: int, lp: int, vexp: int) -> FactoredExpr:
        """t_l^2 t_{l'}^{-2} u^{2(ceil(l/n)-ceil(l'/n))} v^{vexp}."""
        ctx = self.ctx
        return (
            ctx.t_res(l) ** 2
            * ctx.t_res(lp) ** -2
            * ctx.u ** (2 * (ceil_div(l, self.n) - ceil_div(lp, self.n)))
            * ctx.v ** vexp
        )

    def _add_geom_pair(self, acc: Counter, base: FactoredExpr, a: int, b: int,
                       sign: int):
        """Add sign * base * v^2 * (v^{2a}-1)(v^{-2b}-1)/(v^2-1), expanded.

        (v^{2a}-1)/(v^2-1) = sum_{s=0}^{a-1} v^{2s} for a >= 0; the remaining
        factor (v^{-2b}-1) splits into +v^{-2b} and -1.
        """
        if a < 0 or b < 0:
            raise CharacterError("negative geometric length")
        if a == 0 or b == 0:
            return
        v = self.ctx.v
        for s in range(a):
            acc[base * v ** (2 * s + 2 - 2 * b)] += sign
            acc[base * v ** (2 * s + 2)] -= sign

    def _four_sums(self, p: AffinePattern, acc: Counter):
        """The four double sums shared by both tangent characters.

        Every summand vanishes unless its d-entries are positive, so the
        formally infinite column ranges truncate to the support.
        """
        n = self.n
        v = self.ctx.v
        length = p.max_length()
        for k in range(1, n + 1):
            lo = k - length - 1
            # l <= k against l' <= k-1 on row k-1, and against l' <= k on
            # row k subtracted
            for row, sign in ((k - 1, 1), (k, -1)):
                for l in range(lo, k + 1):
                    b = p.d(k, l)
                    if b == 0:
                        continue
                    for lp in range(lo, row + 1):
                        a = p.d(row, lp)
                        if a:
                            self._add_geom_pair(acc, self._mono(l, lp, 0),
                                                a, b, sign)
            # l' <= k-1 alone: v^2 (v^{2a}-1)/(v^2-1)
            for lp in range(lo, k):
                a = p.d(k - 1, lp)
                if a == 0:
                    continue
                base = self._mono(k, lp, 0)
                for s in range(a):
                    acc[base * v ** (2 * s + 2)] += 1
            # l <= k alone, subtracted; v^2 (v^{-2b}-1)/(v^2-1) is itself
            # -sum_{s=0}^{b-1} v^{-2s}, so the net sign is positive
            for l in range(lo, k + 1):
                b = p.d(k, l)
                if b == 0:
                    continue
                base = self._mono(l, k, 0)
                for s in range(b):
                    acc[base * v ** (-2 * s)] += 1

    def tangent_character_space(self, p: AffinePattern) -> WeightMultiset:
        """Character of the tangent space at a fixed point; size 2*sum(d),
        which the oracle suite checks."""
        hit = self._space_cache.get(p)
        if hit is not None:
            return hit
        acc = Counter()
        self._four_sums(p, acc)
        out = self._space_cache[p] = WeightMultiset(self.ctx, acc)
        return out

    def tangent_character_correspondence(
        self, src: AffinePattern, i: int, j: int
    ) -> WeightMultiset:
        """Character of the correspondence tangent space at a single-box move.

        `src` is the smaller pattern and (i, j) the cell being added;
        size 2*sum(d) + 1, which the oracle suite checks.  Memoized per
        valid move: the f-move from `src`, its reverse e-move and every mode
        read the same character.
        """
        key = (src, i, j)
        hit = self._corr_cache.get(key)
        if hit is not None:
            return hit
        if src.bump(i, j, 1) is None:
            raise ActionError("invalid move at (%d, %d)" % (i, j))
        if not (1 <= i <= self.n):
            raise ActionError("node representative out of range")
        acc = Counter()
        self._four_sums(src, acc)
        v = self.ctx.v
        acc[v ** 2] += 1
        if j < i:
            # at j = i these two extra terms cancel identically
            acc[v ** (-2 * src.d(i, j) + 2 * src.d(i - 1, j))] -= 1
            acc[self._mono(j, i, -2 * src.d(i, j) + 2 * src.d(i, i))] += 1
        lo = i - src.max_length() - 1
        for k in range(lo, i):
            if k == j:
                continue
            dik = src.d(i, k)
            dimk = src.d(i - 1, k)
            if dik == dimk:
                continue
            base = self._mono(j, k, -2 * src.d(i, j))
            acc[base * v ** (2 * dik)] += 1
            acc[base * v ** (2 * dimk)] -= 1
        out = self._corr_cache[key] = WeightMultiset(self.ctx, acc)
        return out

    # -- renormalization and the oracle ---------------------------------------

    def c_norm(self, p: AffinePattern) -> FactoredExpr:
        """Renormalization constant: Euler product over the space character."""
        return self.tangent_character_space(p).euler_product()

    def bott_coefficient(self, kind: str, src: AffinePattern, i: int, j: int,
                         r: int) -> FactoredExpr:
        """Matrix coefficient recomputed from tangent characters alone.

        For kind "f" the transition is src -> src+box at (i, j); for kind
        "e" it is src -> src-box, and (i, j) names the removed cell.  The
        prefactor of an f-move is read off the pattern WITH the box, that
        of an e-move off the pattern WITHOUT it (the renormalized-basis
        normalization, under which the two kinds swap roles).
        """
        ctx = self.ctx
        v, u = ctx.v, ctx.u
        if kind == "e":
            small = src.bump(i, j, -1)
            if small is None:
                raise ActionError("invalid e-move")
            big = src
            pref = ctx.t_res(i + 1) ** -1 * v ** (
                small.row_sum(i + 1) - small.row_sum(i) - i
            ) * (
                ctx.t_res(j) ** 2
                * v ** (-2 * small.d(i, j))
                * u ** (2 * ceil_div(j, self.n))
                * v ** i
            ) ** r
        elif kind == "f":
            big = src.bump(i, j, 1)
            if big is None:
                raise ActionError("invalid f-move")
            small = src
            w = (
                ctx.t_res(j) ** 2
                * v ** (-2 * big.d(i, j) + 2)
                * u ** (2 * ceil_div(j, self.n))
            )
            pref = (
                -(ctx.t_res(i) ** -1)
                * v ** (big.row_sum(i) - big.row_sum(i - 1) - 2 + i)
                * w
                * (w * v ** i) ** r
            )
        else:
            raise ActionError("kind must be e or f")
        corr = self.tangent_character_correspondence(small, i, j)
        src_char = self.tangent_character_space(src)
        return pref * src_char.euler_product() / corr.euler_product()
