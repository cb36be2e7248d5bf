import itertools
from types import SimpleNamespace

import pytest

from laumonk.exact import AT_INFINITY, AT_ZERO, expand_series, \
    z_partial_fractions
from laumonk.finite_action import ActionError, FiniteAction, \
    move_coefficient, psi_value
from laumonk.patterns import AffinePattern, FinitePattern, \
    enumerate_affine_total, enumerate_finite
from laumonk.toroidal_action import ToroidalAction


@pytest.fixture(scope="module")
def T():
    return ToroidalAction(3)


@pytest.fixture(scope="module")
def pats():
    return ([AffinePattern.empty(3)] + enumerate_affine_total(3, 1)
            + enumerate_affine_total(3, 2))


def test_rank_two_rejected():
    with pytest.raises(ActionError):
        ToroidalAction(2)


def test_below_support_cancellation(T, pats):
    # factor pairs below the support contribute exactly 1: pushing the
    # column lower bound of the kernel deeper never changes a coefficient
    for p in pats:
        for i in (1, 2, 3):
            for tr in T.transitions("f", i, p):
                c0 = min(p.low((i - 1, i), i - 1), tr.column - 1)
                for extra in (1, 4, 9):
                    assert move_coefficient(T.ctx, "f", p, i, tr.column,
                                            c0 - extra) == tr.base
            for tr in T.transitions("e", i, p):
                c0 = p.low((i, i + 1), tr.column - 1)
                for extra in (1, 4, 9):
                    assert move_coefficient(T.ctx, "e", p, i, tr.column,
                                            c0 - extra) == tr.base


def test_psi_cutoff_independence(T, pats):
    for p in pats:
        for i in (1, 2, 3):
            base = T.psi_eigenvalue(p, i)
            c0 = p.low((i - 1, i, i + 1), i - 1)
            for extra in (1, 3, 8):
                assert psi_value(T.ctx, p, i, T.ctx.one, c0 - extra,
                                 T.twist) == base


def test_psi_empty_pattern_closed_form(T):
    # telescoped value at the empty pattern, with the u^2 normalization the
    # commutator relation forces
    ctx = T.ctx
    v, u, z = ctx.v, ctx.u, ctx.z
    em = AffinePattern.empty(3)
    for i in (1, 2):
        want = u ** 2 * ctx.t[i] ** -1 * ctx.t[i - 1] * v ** -1 \
            * (1 - z ** -1 * v ** (i + 2) * ctx.t[i] ** 2 * u ** 2) \
            / (1 - z ** -1 * v ** i * ctx.t[i - 1] ** 2 * u ** 2)
        assert T.psi_eigenvalue(em, i) == want


def test_psi_zero_mode_monomial(T, pats):
    ctx = T.ctx
    for p in pats:
        for i in (1, 2, 3):
            (zm,) = expand_series(T.psi_eigenvalue(p, i), AT_INFINITY, 0)
            want = ctx.u ** 2 * ctx.t_res(i + 1) ** -1 * ctx.t_res(i) \
                * ctx.v ** (p.row_sum(i + 1) - 2 * p.row_sum(i)
                            + p.row_sum(i - 1) - 1)
            assert zm == want.reduce()


def test_quotient_route_and_cutoff_row_independence(T, pats):
    for p in pats[:8]:
        for i in (2, 3):
            base = T.psi_via_quotients(p, i, i - 1)
            for m in (i - 4, i - 3, i - 2):
                assert T.psi_via_quotients(p, i, m) == base
            assert base == T.psi_eigenvalue(p, i)


def test_periodic_shift_invariant(T, pats):
    hat = T.hat_scale
    for p in pats:
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    for r in (-2, -1, 0, 1, 2):
                        lhs = T.node_shift_coeff(kind, p, node - 3,
                                                 tr.column - 3, r)
                        rhs = T.node_shift_coeff(kind, p, node, tr.column,
                                                 r) * hat ** (-r)
                        assert lhs == rhs


def test_hat_mode_factor(T, pats):
    # the shifted node-n series psi_n(z v^n u^2) has the node-n limit, the
    # node-n poles times (v^n u^2)^{-1} and the same residues, so its modes
    # are the node-n modes times (v^n u^2)^{-r}
    assert T.hat_scale == T.ctx.v ** 3 * T.ctx.u ** 2
    for p in pats[:6]:
        hat_limit, hat_poles = z_partial_fractions(T.psi_hat_eigenvalue(p))
        limit, poles = z_partial_fractions(T.psi_eigenvalue(p, 3))
        assert hat_limit == limit
        assert poles
        residues = {(b / T.hat_scale).as_monomial(): c for b, c in poles}
        assert {b.as_monomial() for b, _ in hat_poles} == set(residues)
        for b, c in hat_poles:
            assert c == residues[b.as_monomial()]


def test_psi_hat_is_scaled_node_n():
    # reference: substitute z -> z v^n u^2 into the numerator and the
    # denominator of the reduced node-n eigenvalue with sympy's compose
    for n in (3, 4):
        T = ToroidalAction(n)
        ring = T.ctx.ring
        t_u, t_v, t_z = ring.gens[n:]
        shifted = t_z * t_v ** n * t_u ** 2
        pats = [p for total in range(3)
                for p in enumerate_affine_total(n, total)][:12]
        assert len(pats) == 12
        for p in pats:
            plain = T.psi_eigenvalue(p, n).reduce().raw
            num = plain.numer.compose(t_z, shifted)
            den = plain.denom.compose(t_z, shifted)
            hat = T.psi_hat_eigenvalue(p).reduce().raw
            assert hat.numer * den == hat.denom * num


def test_coefficients_are_products_of_nonzero_factors(T, pats):
    # denominators of the telescoped coefficients never vanish identically
    for p in pats:
        for node in (1, 2, 3):
            for kind in ("e", "f"):
                for tr in T.transitions(kind, node, p):
                    assert not tr.base.is_zero


def test_chevalley_cartan(T):
    ctx = T.ctx
    t1, t2, t3 = ctx.t
    v, u = ctx.v, ctx.u
    em = AffinePattern.empty(3)
    assert T.chevalley_k(em, 1) == t2 ** -1 * t1 * v ** -1
    assert T.chevalley_k(em, 2) == t3 ** -1 * t2 * v ** -1
    assert T.chevalley_k(em, 0) == t1 ** -1 * t3 * u ** -1 * v ** -1


def test_chevalley_matches_zero_modes_inside(T, pats):
    for p in pats[:8]:
        for i in (1, 2):
            for kind in ("e", "f"):
                got = T.chevalley_transitions(p, i, kind)
                want = [(tr.target, tr.base)
                        for tr in T.transitions(kind, i, p)]
                assert got == want


def test_chevalley_transitions_reject_an_unknown_kind(T, pats):
    # node 0 sends its kind through `transitions`, as nodes 1..n-1 do
    for i in (0, 1):
        with pytest.raises(ActionError):
            T.chevalley_transitions(pats[1], i, "x")


def test_chevalley_node0_ratios_constant(T, pats):
    # the scalars relating node-0 Chevalley operators to the shifted node-n
    # zero modes are reported, not asserted; they must not depend on the
    # pattern or the move
    seen = {"e": set(), "f": set(), "k": set()}
    for p in pats:
        ratios = T.chevalley_node0_ratios(p)
        for key in seen:
            seen[key].update(ratios[key])
    assert len(seen["f"]) == 1
    assert len(seen["k"]) == 1
    assert len(seen["e"]) <= 1  # e-moves at node n need deep enough patterns


@pytest.mark.parametrize("action, src", [
    (FiniteAction(3), FinitePattern(3, [[1], [0, 0]])),
    (ToroidalAction(3), AffinePattern(3, [(1,), (1,), ()])),
], ids=["finite", "affine"])
def test_transitions_reject_unknown_kinds(action, src):
    assert action.transitions("e", 1, src)  # e-moves exist at this node
    for kind in ("psi_plus", "t_cartan", "x"):
        with pytest.raises(ActionError):
            action.transitions(kind, 1, src)
    assert {key[0] for key in action._transitions_cache} == {"e"}


# the operator methods written once in FiniteAction and bound into
# ToroidalAction; a def of any of them in ToroidalAction would fork the code
SHARED = ("f_base_coeff", "e_base_coeff", "transitions", "psi_eigenvalue",
          "psi_mode", "b_quotient_eigenvalue", "psi_via_quotients")


@pytest.mark.parametrize("name", SHARED)
def test_operator_methods_are_one_function_on_both_modules(name):
    assert vars(ToroidalAction)[name] is vars(FiniteAction)[name]


@pytest.mark.parametrize("action, src, node", [
    (FiniteAction(3), FinitePattern.zero(3), 0),
    (FiniteAction(3), FinitePattern.zero(3), 3),
    (ToroidalAction(3), AffinePattern.empty(3), 0),
    (ToroidalAction(3), AffinePattern.empty(3), 4),
], ids=["finite-0", "finite-n", "affine-0", "affine-n+1"])
def test_transitions_reject_a_bad_node(action, src, node):
    for kind in ("e", "f"):
        with pytest.raises(ActionError):
            action.transitions(kind, node, src)


def test_finite_quotient_rows_lie_in_0_to_n():
    A = FiniteAction(3)
    zero = FinitePattern.zero(3)
    for m, i in ((-1, 1), (-1, 3), (0, 4)):
        with pytest.raises(ActionError):
            A.b_quotient_eigenvalue(zero, m, i, A.ctx.one)
    for i, m in ((1, -1), (2, -1)):
        with pytest.raises(ActionError):
            A.psi_via_quotients(zero, i, m)
    assert A.psi_via_quotients(zero, 2, 0) == A.psi_eigenvalue(zero, 2)


@pytest.mark.parametrize("action, src, node", [
    (FiniteAction(3), FinitePattern(3, [[1], [1, 0]]), 3),
    (ToroidalAction(3), AffinePattern(3, [(1,), (), ()]), 0),
    (ToroidalAction(3), AffinePattern(3, [(1,), (), ()]), 4),
], ids=["finite-n", "affine-0", "affine-n+1"])
def test_psi_via_quotients_rejects_a_node_outside_the_nodes(action, src,
                                                             node):
    with pytest.raises(ActionError):
        action.psi_via_quotients(src, node, node - 1)


@pytest.mark.parametrize("action, src, node", [
    (FiniteAction(3), FinitePattern.zero(3), 99),
    (ToroidalAction(3), AffinePattern.empty(3), 0),
], ids=["finite", "affine"])
def test_psi_mode_rejects_a_bad_node_on_either_sign(action, src, node):
    # a sign mismatch is the zero mode only at a node of the module
    for m, sign in ((1, "+"), (-1, "+"), (-2, "+"), (1, "-"), (-1, "-")):
        with pytest.raises(ActionError):
            action.psi_mode(src, node, m, sign)
    assert action.psi_mode(src, 1, -1, "+").is_zero


def _psi_eigenvalues(kind, n, max_total=3):
    """Every psi eigenvalue of the finite (n) or affine (n) module on the
    patterns of total degree <= max_total, with psi_hat on the affine one,
    each as (psi, mode) with mode(m, sign) its psi mode: `psi_mode` for the
    plain eigenvalues, the same mode function read through psi_hat for the
    hat."""
    if kind == "finite":
        action = FiniteAction(n)
        degrees = [d for d in itertools.product(range(max_total + 1),
                                                 repeat=n - 1)
                   if sum(d) <= max_total]
        pats = [p for d in degrees for p in enumerate_finite(n, d)]
        nodes = range(1, n)
    else:
        action = ToroidalAction(n)
        pats = [p for t in range(max_total + 1)
                for p in enumerate_affine_total(n, t)]
        nodes = range(1, n + 1)
    for p in pats:
        for i in nodes:
            yield action.psi_eigenvalue(p, i), \
                lambda m, sign, p=p, i=i: action.psi_mode(p, i, m, sign)
        if kind == "affine":
            hat = action.psi_hat_eigenvalue(p)
            probe = SimpleNamespace(ctx=action.ctx,
                                    psi_eigenvalue=lambda q, i, hat=hat: hat)
            yield hat, lambda m, sign, probe=probe: FiniteAction.psi_mode(
                probe, None, 0, m, sign)


@pytest.mark.parametrize("kind, n, size", [("finite", 3, 26),
                                           ("finite", 4, 87),
                                           ("affine", 3, 140)])
def test_psi_eigenvalues_expand_in_both_directions(kind, n, size):
    # z_partial_fractions raises NotExpandable on any other shape than
    # simple poles 1 - beta/z with no more zeros than poles; psi_mode, and
    # so verify, never meets one
    count = 0
    for psi, _ in _psi_eigenvalues(kind, n):
        limit, poles = z_partial_fractions(psi)
        assert limit and poles
        count += 1
    assert count == size


@pytest.mark.parametrize("kind, max_total, size", [("finite", 3, 26),
                                                   ("affine", 2, 52)])
def test_psi_modes_match_expand_series(kind, max_total, size):
    # psi^+_m is the z^-m coefficient at z = infinity, psi^-_m the z^-m
    # coefficient at z = 0
    count = 0
    for psi, mode in _psi_eigenvalues(kind, 3, max_total):
        at_infinity = expand_series(psi, AT_INFINITY, 2)
        at_zero = expand_series(psi, AT_ZERO, 2)
        for m in range(-2, 3):
            plus, minus = mode(m, "+"), mode(m, "-")
            assert plus.reduce() == (at_infinity[m] if m >= 0 else 0)
            assert minus.reduce() == (at_zero[-m] if m <= 0 else 0)
        count += 1
    assert count == size
