"""Toroidal operators on the affine module in the fixed-point basis.

The operator methods are `FiniteAction`'s own functions, bound into this
class (no base class: each traced method resolves in its own class).  They
read the module through the affine pattern, whose `weight` is the p-weight
p_{ij} = t_{(j mod n)}^2 v^{-2 d_{ij}} u^{2 ceil(j/n)} and whose `low` is
the telescoped column lower bound, and through two members of this class:
the node representatives 1..n as `nodes` and the u^2 `twist` of the psi
prefactor.  The products over columns are formally infinite and are
DEFINED by their telescoped finite values: below the support of the
involved rows the weights are row-independent and factor pairs cancel
exactly, so any lower bound at or below `low` gives the same value.

Node conventions: operators live at node representatives 1..n; the node-0
family needed by the boundary relations is expressed through the shifted
node-n series x_n(z v^n u^2) / psi_n(z v^n u^2).  For the periodic-shift
invariant the formulas extend to arbitrary integer node index with
t_{k+n} = t_k v^n u^2 (the unique extension under which shifting the node
by -n multiplies the mode-r coefficient by exactly (v^n u^2)^{-r}).
"""

from __future__ import annotations

from .exact import FactoredExpr, LaurentContext, z_partial_fractions
from .finite_action import ActionError, FiniteAction, move_beta, \
    move_prefactor, psi_prefactor, psi_value
from .patterns import AffinePattern, ceil_div, enumerate_affine_total


class ToroidalAction:
    """Operator calculus on affine patterns for a fixed rank n >= 3."""

    affine = True

    def __init__(self, n: int):
        if n < 3:
            raise ActionError("toroidal operators need n >= 3")
        self.n = n
        self.ctx = LaurentContext(n)
        self.nodes = range(1, n + 1)
        # forced by the commutator relation: an f-coefficient carries the
        # line-bundle weight p_{ij} (u^2 on the principal column window)
        # while e-coefficients carry only ratios
        self.twist = self.ctx.u ** 2
        self.hat_scale = self.ctx.v ** n * self.ctx.u ** 2
        self._transitions_cache = {}
        self._psi_cache = {}

    def sources(self, max_degree: int) -> list:
        """All patterns of total degree at most max_degree, by total degree."""
        return [p for total in range(max_degree + 1)
                for p in enumerate_affine_total(self.n, total)]

    # -- the operators, shared with the finite module --------------------------

    f_base_coeff = FiniteAction.f_base_coeff
    e_base_coeff = FiniteAction.e_base_coeff
    transitions = FiniteAction.transitions
    psi_eigenvalue = FiniteAction.psi_eigenvalue
    psi_mode = FiniteAction.psi_mode
    b_quotient_eigenvalue = FiniteAction.b_quotient_eigenvalue
    psi_via_quotients = FiniteAction.psi_via_quotients

    def psi_hat_eigenvalue(self, p: AffinePattern) -> FactoredExpr:
        """Node-0 series: psi_n evaluated at z v^n u^2, cached as node 0."""
        key = (p, 0)
        hit = self._psi_cache.get(key)
        if hit is None:
            n = self.n
            hit = self._psi_cache[key] = psi_value(
                self.ctx, p, n, self.hat_scale,
                p.low((n - 1, n, n + 1), n - 1), self.twist)
        return hit

    # -- hat shift and node translation ---------------------------------------

    def node_shift_coeff(self, kind: str, src: AffinePattern, node: int,
                         j: int, r: int) -> FactoredExpr:
        """Mode-r coefficient with the formulas extended to any integer node.

        The implicit t-prefactor is extended per kind so that shifting the
        node by -n multiplies the coefficient by exactly (v^n u^2)^{-r}:
        t_{m+n} = t_m v^n u^2 for the f-prefactor t_k, t_{m+n} = t_m v^{-n}
        for the e-prefactor t_{k+1}.  (No single extension serves both, and
        the e-extension deliberately anchors to nodes 1..n-1: it is the
        beta-shift and product reindexing that the boundary relations use.)
        """
        if kind == "f":
            ext = self.hat_scale ** -(ceil_div(node, self.n) - 1)
            base = self.f_base_coeff(src, node, j)
        elif kind == "e":
            ext = self.ctx.v ** (self.n * (ceil_div(node + 1, self.n) - 1))
            base = self.e_base_coeff(src, node, j)
        else:
            raise ActionError("kind must be e or f")
        return ext * base * move_beta(src.weight(self.ctx, node, j), kind,
                                      node) ** r

    # -- Chevalley generators ---------------------------------------------------

    def chevalley_k(self, p: AffinePattern, i: int) -> FactoredExpr:
        """Cartan eigenvalue at node i in 0..n-1: the psi prefactor, with
        the u-twist u^{-1} at i=0."""
        if not (0 <= i <= self.n - 1):
            raise ActionError("Chevalley node out of range 0..n-1")
        return psi_prefactor(self.ctx, p, i,
                             self.ctx.u ** -1 if i == 0 else self.ctx.one)

    def chevalley_transitions(self, p: AffinePattern, i: int, kind: str):
        """Zero-mode raising/lowering coefficients at node i in 0..n-1.

        Nodes 1..n-1 are the plain r=0 modes; node 0 reuses the node-n
        correspondence: the bare push-pull operator is identical, and the
        node-0 line bundle weight differs from the node-n one by u^{-2}
        (twist by the degree-shift divisor), so each node-n coefficient
        trades its move prefactor for the node-0 one, times u^{-1} on the
        f-side.
        """
        if not (0 <= i <= self.n - 1):
            raise ActionError("Chevalley node out of range 0..n-1")
        if i != 0:
            return [(tr.target, tr.base) for tr in self.transitions(kind, i, p)]
        ctx = self.ctx
        plain = self.transitions(kind, self.n, p)
        scale = move_prefactor(ctx, kind, p, 0) \
            / move_prefactor(ctx, kind, p, self.n)
        if kind == "f":
            scale = scale * ctx.u ** -1
        return [(tr.target, tr.base * scale) for tr in plain]

    def chevalley_node0_ratios(self, p: AffinePattern):
        """Empirical ratios (e, f, k) of node-0 Chevalley ops to hat-shifted
        node-n zero modes, reported per transition; constant across moves."""
        ratios = {"e": set(), "f": set(), "k": set()}
        for kind in ("e", "f"):
            plain = {
                tr.target: tr.base for tr in self.transitions(kind, self.n, p)
            }
            for tgt, coeff in self.chevalley_transitions(p, 0, kind):
                ratios[kind].add((coeff / plain[tgt]).to_string())
        psi0 = z_partial_fractions(self.psi_hat_eigenvalue(p))[0]
        ratios["k"].add((self.chevalley_k(p, 0) / psi0).to_string())
        return {k: sorted(v) for k, v in ratios.items()}
