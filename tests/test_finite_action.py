import pytest

from laumonk.finite_action import ActionError, FiniteAction
from laumonk.patterns import FinitePattern, enumerate_finite


@pytest.fixture(scope="module")
def A2():
    return FiniteAction(2)


@pytest.fixture(scope="module")
def A3():
    return FiniteAction(3)


def all_patterns(n, max_total):
    out = []

    def compositions(total, parts):
        if parts == 0:
            return [()] if total == 0 else []
        return [(h,) + t for h in range(total + 1)
                for t in compositions(total - h, parts - 1)]

    for total in range(max_total + 1):
        for deg in compositions(total, n - 1):
            out.extend(enumerate_finite(n, deg))
    return out


def test_f_coefficient_vacuum(A2):
    ctx = A2.ctx
    t1, _ = ctx.t
    v = ctx.v
    zero = FinitePattern.zero(2)
    (tr,) = A2.transitions("f", 1, zero)
    assert (tr.column, tr.target) == (1, zero.bump(1, 1, 1))
    assert tr.coeff(0) == -t1 / (1 - v ** 2)
    assert tr.coeff(1) == -t1 ** 3 * v / (1 - v ** 2)


def test_e_coefficient_one_box(A2):
    ctx = A2.ctx
    t1, t2 = ctx.t
    v = ctx.v
    box = FinitePattern.zero(2).bump(1, 1, 1)
    base = t2 ** -1 * v ** -1 * (1 - t2 ** 2 * t1 ** -2 * v ** 2)
    (tr,) = A2.transitions("e", 1, box)
    assert (tr.column, tr.target) == (1, FinitePattern.zero(2))
    assert tr.coeff(0) == base
    assert tr.coeff(1) == base * t1 ** 2 * v


def test_invalid_moves_rejected(A2):
    zero = FinitePattern.zero(2)
    with pytest.raises(ActionError):
        A2.e_base_coeff(zero, 1, 1)  # no decreasing move from the vacuum
    assert A2.transitions("e", 1, zero) == []


def test_psi_vacuum_closed_form(A2):
    ctx = A2.ctx
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    zero = FinitePattern.zero(2)
    want = t2 ** -1 * t1 * v ** -1 * (1 - t2 ** 2 * v ** 3 * z ** -1) \
        / (1 - t1 ** 2 * v * z ** -1)
    assert A2.psi_eigenvalue(zero, 1) == want


def test_psi_zero_modes(A2, A3):
    for A in (A2, A3):
        ctx = A.ctx
        for p in all_patterns(A.n, 3):
            for i in range(1, A.n):
                d = p.row_sum
                plus = ctx.t[i - 1] * ctx.t[i] ** -1 * ctx.v ** (
                    d(i + 1) - 2 * d(i) + d(i - 1) - 1)
                assert A.psi_mode(p, i, 0, "+") == plus
                assert A.psi_mode(p, i, 0, "-") == 1 / plus


def test_psi_first_mode_and_sign_convention(A2):
    ctx = A2.ctx
    t1, t2 = ctx.t
    v = ctx.v
    zero = FinitePattern.zero(2)
    assert A2.psi_mode(zero, 1, 1, "+") == \
        t2 ** -1 * t1 * v ** -1 * (t1 ** 2 * v - t2 ** 2 * v ** 3)
    assert A2.psi_mode(zero, 1, 1, "-").is_zero
    assert A2.psi_mode(zero, 1, -2, "+").is_zero


def test_b_series(A2):
    ctx = A2.ctx
    t1, t2 = ctx.t
    v, z = ctx.v, ctx.z
    zero = FinitePattern.zero(2)
    box = zero.bump(1, 1, 1)

    def b(p, m):
        # the m-th tautological series is the quotient by row 0
        return A2.b_quotient_eigenvalue(p, 0, m, ctx.one)

    assert b(zero, 0).is_one
    assert b(zero, 2) == (1 - t1 ** 2 * z ** -1) * (1 - t2 ** 2 * z ** -1)
    assert b(box, 1) == 1 - t1 ** 2 * v ** -2 * z ** -1


def test_psi_two_route_identity(A2, A3):
    # closed-form eigenvalue vs the auxiliary-series product route
    for A in (A2, A3):
        for p in all_patterns(A.n, 3):
            for i in range(1, A.n):
                assert A.psi_via_a_series(p, i) == A.psi_eigenvalue(p, i)


def test_quotient_route_m_independence(A3):
    # the four-factor quotient expression is independent of the cutoff row
    for p in all_patterns(3, 2):
        for i in (1, 2):
            values = {A3_psi.to_string()
                      for A3_psi in (A3.psi_via_quotients(p, i, m)
                                     for m in range(0, i))}
            assert len(values) == 1
            assert A3.psi_via_quotients(p, i, 0) == A3.psi_eigenvalue(p, i)


def test_spectral_recursion(A3):
    # mode-r coefficients are geometric with ratio s_{ij} v^i resp. v^{i+2}
    for p in all_patterns(3, 2):
        for i in (1, 2):
            for kind, shift in (("f", 0), ("e", 2)):
                for tr in A3.transitions(kind, i, p):
                    ratio = p.weight(A3.ctx, i, tr.column) \
                        * A3.ctx.v ** (i + shift)
                    for b in (-1, 0, 2):
                        assert tr.coeff(b + 1) == tr.coeff(b) * ratio


def test_chi_identities(A2):
    ctx = A2.ctx
    v = ctx.v
    zero = FinitePattern.zero(2)
    box = zero.bump(1, 1, 1)
    for p in (zero, box):
        for m in (-2, -1, 0, 1, 2):
            # (v^2-1) [e_{1,m}, f_{1,0}] diagonal equals the commutator
            # coefficient, which equals the psi-mode difference
            diag = ctx.zero
            for tr in A2.transitions("f", 1, p):
                for tr2 in A2.transitions("e", 1, tr.target):
                    if tr2.target == p:
                        diag = diag + tr.coeff(0) * tr2.coeff(m)
            for tr in A2.transitions("e", 1, p):
                for tr2 in A2.transitions("f", 1, tr.target):
                    if tr2.target == p:
                        diag = diag - tr.coeff(m) * tr2.coeff(0)
            chi = A2.chi_coeff(p, 1, m)
            assert (v ** 2 - 1) * diag == chi
            assert chi == A2.psi_mode(p, 1, m, "+") - A2.psi_mode(p, 1, m, "-")
        for m in (1, 2):
            assert A2.chi_coeff(p, 1, m) == A2.psi_mode(p, 1, m, "+")


def test_t_cartan(A2):
    ctx = A2.ctx
    zero = FinitePattern.zero(2)
    assert A2.t_cartan_eigenvalue(zero, 1) == ctx.t[0]
    box = zero.bump(1, 1, 1)
    assert A2.t_cartan_eigenvalue(box, 1) == ctx.t[0] * ctx.v ** -1
    assert A2.t_cartan_eigenvalue(box, 2) == ctx.t[1] * ctx.v ** 2


def test_zero_mode_closed_forms(A3):
    # r = 0 coefficients match the direct t,v-variable expressions
    for p in all_patterns(3, 3):
        for i in (1, 2):
            for tr in A3.transitions("f", i, p):
                assert tr.base == A3.feigin_f_coeff(p, i, tr.column)
            for tr in A3.transitions("e", i, p):
                assert tr.base == A3.feigin_e_coeff(p, i, tr.column)



class _Forwarding:
    """A pattern of neither pattern class: every attribute, its weight, low
    and moves included, is read off the wrapped pattern."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_kernel_reads_only_the_pattern_protocol():
    # the operators read the module off the pattern's methods, not its class
    for p in all_patterns(3, 2):
        wrapped, plain = FiniteAction(3), FiniteAction(3)
        proxy = _Forwarding(p)
        assert not isinstance(proxy, FinitePattern)
        for kind in ("e", "f"):
            for node in (1, 2):
                assert [(tr.column, tr.target, tr.base, tr.beta)
                        for tr in wrapped.transitions(kind, node, proxy)] \
                    == [(tr.column, tr.target, tr.base, tr.beta)
                        for tr in plain.transitions(kind, node, p)]
        for i in (1, 2):
            assert wrapped.psi_eigenvalue(proxy, i) \
                == plain.psi_eigenvalue(p, i)
        v = plain.ctx.v
        for m, i in ((0, 1), (0, 2), (1, 2), (1, 3)):
            assert wrapped.b_quotient_eigenvalue(proxy, m, i, v ** -2) \
                == plain.b_quotient_eigenvalue(p, m, i, v ** -2)
