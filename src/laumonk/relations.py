"""Verifier for the loop-algebra relations and their toroidal boundary
modifications, in mode form, by exact symbolic or exact random-rational
evaluation.

Generating-function relations are checked as identities between windowed
compositions of mode operators; the psi-x relations reduce per transition
to one exact rational-function identity in the spectral variable, because
every matrix entry is geometric in the mode index.  The commutator family
uses the normalization the fixed-point operators actually satisfy,

    [e_{k,a}, f_{l,b}] = delta_{kl} (psi^+_{k,a+b} - psi^-_{k,a+b}) / (v^2-1),

(one global factor v away from the textbook divisor; rescaling e by v
recovers it and leaves every other family invariant).

Failures are reported, never thrown: each run returns a VerificationReport
with a counterexample payload when a residual survives, and with status
"error" when the random strategy finds no usable sample points.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import EvalPoint, EvaluationError, FactoredExpr
from .finite_action import FiniteAction
from .toroidal_action import ToroidalAction

SYMBOLIC = "symbolic"
RANDOM = "random"


@dataclass(frozen=True)
class RelationId:
    family: str
    kind: str = ""
    nodes: tuple = ()

    def key(self) -> str:
        bits = [self.family]
        if self.kind:
            bits.append(self.kind)
        if self.nodes:
            bits.append("-".join(str(x) for x in self.nodes))
        return ":".join(bits)

    def to_json(self):
        return {"family": self.family, "kind": self.kind,
                "nodes": list(self.nodes)}


@dataclass
class VerificationReport:
    relation: RelationId
    scope: dict
    status: str
    entries_checked: int
    counterexample: dict | None = None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self):
        out = {
            "relation": self.relation.to_json(),
            "scope": self.scope,
            "status": self.status,
            "entries_checked": self.entries_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.error is not None:
            out["error"] = self.error
        return out


# -- the module an action acts on ---------------------------------------------
#
# The engine reads a FiniteAction or a ToroidalAction directly, through the
# members they share: `sources`, `nodes` and the operator methods.


def _cartan(action, k: int, l: int) -> int:
    """Cyclic Cartan entry a_{kl}; on the finite nodes 1..n-1 it is the
    type-A entry."""
    if k == l:
        return 2
    return -1 if (k - l) % action.n in (1, action.n - 1) else 0


# -- evaluation strategies ------------------------------------------------------


class _Resample(Exception):
    pass


class RVec:
    """Exact rational values of an expression at the sample points.

    Parallel lists of unreduced integer numerators and denominators, one
    pair per point.  Arithmetic with another RVec, with an int on the right
    of + - *, or of an int divided by an RVec multiplies and adds integers
    and never runs a gcd.  A denominator is never zero: inverting a value
    that vanishes at some point raises ZeroDivisionError, as Fraction does.
    So a value is zero exactly when every numerator is, and only `payload`
    reduces, for the emitted text.  The lists are never mutated, so values
    share them.
    """

    __slots__ = ("nums", "dens")

    def __init__(self, nums, dens):
        self.nums = nums
        self.dens = dens

    def __add__(self, other):
        if isinstance(other, RVec):
            return RVec([a * d + b * c for a, c, b, d in
                         zip(self.nums, self.dens, other.nums, other.dens)],
                        [c * d for c, d in zip(self.dens, other.dens)])
        if isinstance(other, int):
            return RVec([a + other * c for a, c in zip(self.nums, self.dens)],
                        self.dens)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, RVec):
            return RVec([a * d - b * c for a, c, b, d in
                         zip(self.nums, self.dens, other.nums, other.dens)],
                        [c * d for c, d in zip(self.dens, other.dens)])
        if isinstance(other, int):
            return RVec([a - other * c for a, c in zip(self.nums, self.dens)],
                        self.dens)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RVec):
            return RVec([a * b for a, b in zip(self.nums, other.nums)],
                        [c * d for c, d in zip(self.dens, other.dens)])
        if isinstance(other, int):
            return RVec([a * other for a in self.nums], self.dens)
        return NotImplemented

    def _nonvanishing(self):
        if not all(self.nums):
            raise ZeroDivisionError("RVec division by a value vanishing at "
                                    "a sample point")

    def __truediv__(self, other):
        if isinstance(other, RVec):
            other._nonvanishing()
            return RVec([a * d for a, d in zip(self.nums, other.dens)],
                        [c * b for c, b in zip(self.dens, other.nums)])
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            self._nonvanishing()
            return RVec([other * c for c in self.dens], self.nums)
        return NotImplemented

    def __pow__(self, e):
        if e < 0:
            self._nonvanishing()
            return RVec([c ** -e for c in self.dens],
                        [a ** -e for a in self.nums])
        return RVec([a ** e for a in self.nums], [c ** e for c in self.dens])

    def __neg__(self):
        return RVec([-a for a in self.nums], self.dens)

    @property
    def is_zero(self):
        return not any(self.nums)

    def payload(self):
        return [str(Fraction(a, c)) for a, c in zip(self.nums, self.dens)]


class _SymbolicEval:
    def __init__(self, ctx):
        self.zero, self.v, self.z = ctx.zero, ctx.v, ctx.z

    def lift(self, expr: FactoredExpr):
        return expr

    @staticmethod
    def payload(residual):
        return residual.to_string()


class _RandomEval:
    """Values at `trials` random rational points, as RVecs.

    `lift` evaluates each expression once per evaluator: the RVec is
    memoized under the expression's terms, so equal expressions built
    afresh (psi modes, inverted scales) share it.  The memo lives and dies
    with the evaluator, and so with its points.
    """

    def __init__(self, ctx, rng: random.Random, trials: int):
        self.ctx = ctx
        self.rng = rng
        self.points = [self._sample_point() for _ in range(trials)]
        self._at = [EvalPoint(ctx, pt) for pt in self.points]
        self._lifted = {}
        self.zero = RVec([0] * trials, [1] * trials)
        self.v, self.z = (RVec([pt[name].numerator for pt in self.points],
                               [pt[name].denominator for pt in self.points])
                          for name in ("v", "z"))

    def _sample_point(self):
        # nonzero rationals with numerator/denominator at most 97, pairwise
        # distinct across the variables of one point
        point = {}
        seen = set()
        for name in self.ctx.var_names:
            while True:
                q = Fraction(self.rng.randint(1, 97), self.rng.randint(1, 97))
                if self.rng.random() < 0.5:
                    q = -q
                if q not in seen:
                    break
            seen.add(q)
            point[name] = q
        return point

    def lift(self, expr: FactoredExpr):
        hit = self._lifted.get(expr.terms)
        if hit is None:
            nums, dens = [], []
            for i, pt in enumerate(self._at):
                try:
                    num, den = expr.evaluate_pair(pt)
                except EvaluationError:
                    raise _Resample(i)
                nums.append(num)
                dens.append(den)
            hit = self._lifted[expr.terms] = RVec(nums, dens)
        return hit

    @staticmethod
    def payload(residual):
        return residual.payload()


def _relation_seed(seed: int, rel: RelationId, scope: dict) -> int:
    text = json.dumps(
        {"seed": seed, "relation": rel.to_json(),
         "scope": {k: scope[k] for k in sorted(scope) if k != "seed"}},
        sort_keys=True,
    )
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _make_eval(action, strategy, rel, scope, seed, trials):
    if strategy == SYMBOLIC:
        return _SymbolicEval(action.ctx)
    if strategy != RANDOM:
        raise ValueError("unknown strategy %r" % strategy)
    if trials < 1:
        raise ValueError("the random strategy needs at least one trial")
    rng = random.Random(_relation_seed(seed, rel, scope))
    return _RandomEval(action.ctx, rng, trials)


_ATTEMPTS = 13


class _Check:
    """Entry count and first failing entry of one attempt at a family."""

    def __init__(self, ev):
        self.ev = ev
        self.entries = 0
        self.counterexample = None

    def entry(self, src, tgt, modes, residual):
        """Count one entry; the first nonzero residual is the counterexample."""
        self.entries += 1
        if self.counterexample is None and not residual.is_zero:
            self.fail(src, tgt, modes, residual)

    def acc(self, src, acc, modes):
        """One entry per target of an accumulator dict."""
        for tgt, residual in acc.items():
            self.entry(src, tgt, modes, residual)

    def fail(self, src, tgt, modes, residual, **extra):
        """Record the counterexample; `extra` adds keys to it."""
        self.counterexample = {
            "source": src.to_json(),
            "target": tgt.to_json(),
            "modes": modes,
            "residual": self.ev.payload(residual),
            **extra,
        }


def _run(action, rel, body, strategy=SYMBOLIC, seed=0, trials=None,
         **scope):
    """Drive `body(ev, check)`, resampling on unlucky random points; when
    every attempt hits a vanishing denominator the report has status
    "error".  The report scope is the module, the strategy and the keyword
    arguments."""
    scope = {"n": action.n, "module": "affine" if action.affine else "finite",
             "strategy": strategy, "seed": seed, **scope}
    if strategy == RANDOM:
        scope["trials"] = trials
    for attempt in range(_ATTEMPTS):
        ev = _make_eval(action, strategy, rel, scope, seed + attempt, trials)
        check = _Check(ev)
        try:
            body(ev, check)
        except _Resample:
            continue
        status = "pass" if check.counterexample is None else "fail"
        return VerificationReport(rel, scope, status, check.entries,
                                  check.counterexample)
    return VerificationReport(
        rel, scope, "error", 0,
        error="each of %d sets of sample points vanished a denominator"
        % _ATTEMPTS)


class _PathTable:
    """Compositions of two or three mode families applied right-to-left.

    Each row is (target, product of base coefficients, lifted spectral
    parameters of the legs, symbolic spectral parameters), so any mode
    assignment is a monomial sweep; the symbolic ones are the character
    keys of the Serre group decomposition.
    """

    def __init__(self, action, ev, legs, src):
        # legs are (kind, node, beta_shift) applied right to left
        rows = [(src, None, (), ())]
        for kind, node, shift in legs:
            out = []
            for tgt, base, betas, sbetas in rows:
                for tr in action.transitions(kind, node, tgt):
                    b = ev.lift(tr.base)
                    beta = ev.lift(tr.beta)
                    sbeta = tr.beta
                    if shift is not None:
                        beta = beta * ev.lift(shift)
                        sbeta = sbeta * shift
                    out.append((
                        tr.target,
                        b if base is None else base * b,
                        betas + (beta,),
                        sbetas + (sbeta,),
                    ))
            rows = out
        self.rows = rows
        self._pow_cache = {}

    def _beta_pow(self, row_idx, leg, m):
        key = (row_idx, leg, m)
        hit = self._pow_cache.get(key)
        if hit is None:
            hit = self.rows[row_idx][2][leg] ** m
            self._pow_cache[key] = hit
        return hit

    def accumulate(self, acc, modes, coeff, zero):
        """acc[target] += coeff * base * prod beta_i^{modes[i]}"""
        for idx, (tgt, base, _, _) in enumerate(self.rows):
            term = base
            for leg, m in enumerate(modes):
                if m:
                    term = term * self._beta_pow(idx, leg, m)
            if coeff is not None:
                term = term * coeff
            acc[tgt] = acc.get(tgt, zero) + term
        return acc


def _twisted(acc, t_lk, t_kl, a, b, c, zero):
    """acc += X_{k,a+1} X_{l,b} - c X_{k,a} X_{l,b+1}
              - c X_{l,b} X_{k,a+1} + X_{l,b+1} X_{k,a},
    or the commutator X_{k,a} X_{l,b} - X_{l,b} X_{k,a} when c is None.

    t_lk applies node l's leg first, t_kl node k's; a mode tuple lists the
    legs right-to-left, so its first mode pairs with the right factor."""
    if c is None:
        t_lk.accumulate(acc, (b, a), None, zero)
        t_kl.accumulate(acc, (a, b), -1, zero)
    else:
        t_lk.accumulate(acc, (b, a + 1), None, zero)
        t_lk.accumulate(acc, (b + 1, a), -c, zero)
        t_kl.accumulate(acc, (a + 1, b), -c, zero)
        t_kl.accumulate(acc, (a, b + 1), None, zero)
    return acc


def _serre_tables(action, ev, kind, i, j, src):
    """Path tables of X_i X_i X_j, X_i X_j X_i and X_j X_i X_i, legs listed
    right-to-left."""
    return tuple(_PathTable(action, ev, [(kind, node, None) for node in legs],
                            src)
                 for legs in ((j, i, i), (i, j, i), (i, i, j)))


def _serre(acc, tables, a, b, c, coeff, zero):
    """acc += X_{i,a}X_{i,b}X_{j,c} - coeff X_{i,a}X_{j,c}X_{i,b}
              + X_{j,c}X_{i,a}X_{i,b}"""
    t_jii, t_iji, t_iij = tables
    t_jii.accumulate(acc, (c, b, a), None, zero)
    t_iji.accumulate(acc, (b, c, a), -coeff, zero)
    t_iij.accumulate(acc, (b, a, c), None, zero)
    return acc


# -- relation families ----------------------------------------------------------


def _applies(mutate, applied):
    """Reject a mutation that the family would not apply: it would run
    unmutated and still record the mutation in its scope."""
    if mutate and mutate != applied:
        raise ValueError("this family does not apply mutation %r" % mutate)


def verify_xx_same(action, kind: str, k: int, window: int = 2,
                   max_degree: int = 3, strategy: str = SYMBOLIC,
                   seed: int = 0, trials: int = 5,
                   mutate: str = None) -> VerificationReport:
    """Same-node relation in mode form:
    X_{a+1}X_b - c X_a X_{b+1} = c X_b X_{a+1} - X_{b+1} X_a
    with c = v^{-2} on the f-side and v^{2} on the e-side.
    """
    _applies(mutate, "halved_twist")
    cexp = -2 if kind == "f" else 2
    if mutate == "halved_twist":
        cexp //= 2
    leg = (kind, k, None)
    return _xx(action, RelationId("xx_same", kind, (k,)), leg, leg, cexp,
               window, max_degree, strategy, seed, trials, mutate)


def verify_xx_pair(action, kind: str, k: int, l: int, window: int = 2,
                   max_degree: int = 3, strategy: str = SYMBOLIC,
                   seed: int = 0, trials: int = 5, mutate: str = None,
                   boundary: bool = False) -> VerificationReport:
    """Distinct-node relation in mode form.

    For a_{kl} = 0 this is plain commutation of all windowed modes; for
    adjacent nodes it is the twisted identity with c = v^{-a_{kl}} (f-side)
    resp. v^{a_{kl}} (e-side).  With boundary=True the node-n series is
    hat-shifted (beta -> beta (v^n u^2)^{-1}), giving the toroidal relation.
    """
    family = "tor_xx_boundary" if boundary else "xx_adjacent"
    a_kl = -1 if boundary else _cartan(action, k, l)
    _applies(mutate, "squared_twist" if a_kl else None)
    cexp = None
    if a_kl:
        cexp = -a_kl if kind == "f" else a_kl
        if mutate == "squared_twist":
            cexp *= 2
    shift = 1 / action.hat_scale if boundary else None
    leg_k = (kind, k, shift if k == action.n else None)
    leg_l = (kind, l, shift if l == action.n else None)
    return _xx(action, RelationId(family, kind, (k, l)), leg_k, leg_l, cexp,
               window, max_degree, strategy, seed, trials, mutate)


def _xx(action, rel, leg_k, leg_l, cexp, window, max_degree, strategy, seed,
        trials, mutate, diagonal=None):
    """The twisted identity with c = v^cexp (the commutator when cexp is
    None) of the legs (kind, node, beta shift) X_k and X_l at every windowed
    mode pair (a, b).  `diagonal(ev)`, when given, returns the term
    d(src, m) that is subtracted on the source at m = a + b.  When the legs
    agree one path table serves both orders."""
    sources = action.sources(max_degree)

    def body(ev, check):
        c = None if cexp is None else ev.v ** cexp
        diag = None if diagonal is None else diagonal(ev)
        for src in sources:
            t_lk = _PathTable(action, ev, [leg_l, leg_k], src)
            t_kl = t_lk if leg_k == leg_l else _PathTable(
                action, ev, [leg_k, leg_l], src)
            if diag is None and not (t_lk.rows or t_kl.rows):
                continue
            for a in range(-window, window + 1):
                for b in range(-window, window + 1):
                    acc = _twisted({}, t_lk, t_kl, a, b, c, ev.zero)
                    if diag is not None:
                        acc[src] = acc.get(src, ev.zero) - diag(src, a + b)
                    check.acc(src, acc, [a, b])

    return _run(action, rel, body, strategy, seed, trials,
                max_degree=max_degree, window=window, mutate=mutate or "")


def verify_commutator(action, k: int, l: int, window: int = 2,
                      max_degree: int = 3, strategy: str = SYMBOLIC,
                      seed: int = 0, trials: int = 5,
                      mutate: str = None) -> VerificationReport:
    """[e_{k,a}, f_{l,b}] = delta_{kl} (psi^+ - psi^-)_{k,a+b} / (v^2-1)."""
    _applies(mutate, "textbook_divisor" if k == l else None)

    def diagonal(ev):
        v = ev.v
        divisor = (v - 1 / v) if mutate == "textbook_divisor" else (v * v - 1)
        return lambda src, m: (ev.lift(action.psi_mode(src, k, m, "+"))
                               - ev.lift(action.psi_mode(src, k, m, "-"))
                               ) / divisor

    return _xx(action, RelationId("x_commutator", "", (k, l)),
               ("e", k, None), ("f", l, None), None, window, max_degree,
               strategy, seed, trials, mutate, diagonal if k == l else None)


def verify_psi_x(action, k: int, l: int, kind: str, max_degree: int = 3,
                 strategy: str = SYMBOLIC, seed: int = 0, trials: int = 5,
                 boundary: str = None, mutate: str = None) -> VerificationReport:
    """psi-x relation as the per-transition rational identity.

    Every x-matrix entry is geometric in the mode index with spectral
    parameter beta, so the relation reduces to
        (z - v^c beta) Psi_l(target) = (v^c z - beta) Psi_l(source)
    per single-box transition at node k, with c = +a_{kl} on the e-side and
    -a_{kl} on the f-side; one rational identity covers both psi signs.

    boundary="psi_hat" checks the shifted node-n psi against node-1
    transitions; boundary="x_hat" checks node-1 psi against the shifted
    node-n transitions.  mutate="unshifted" drops the shift (soundness
    control: the toroidal boundary relations fail without it).
    """
    family = {None: "psi_x", "psi_hat": "tor_psix_boundary_a",
              "x_hat": "tor_psix_boundary_b"}[boundary]
    _applies(mutate, "unshifted" if boundary else None)
    sources = action.sources(max_degree)
    a_kl = -1 if boundary else _cartan(action, k, l)

    def body(ev, check):
        z = ev.z
        cexp = a_kl if kind == "e" else -a_kl
        c = ev.v ** cexp
        shifted = mutate != "unshifted"
        for src in sources:
            if boundary == "psi_hat" and shifted:
                psi_src = ev.lift(action.psi_hat_eigenvalue(src))
            else:
                psi_src = ev.lift(action.psi_eigenvalue(src, l))
            for tr in action.transitions(kind, k, src):
                beta = ev.lift(tr.beta)
                if boundary == "x_hat" and shifted:
                    beta = beta * ev.lift(1 / action.hat_scale)
                if boundary == "psi_hat" and shifted:
                    psi_tgt = ev.lift(action.psi_hat_eigenvalue(tr.target))
                else:
                    psi_tgt = ev.lift(action.psi_eigenvalue(tr.target, l))
                check.entry(src, tr.target, ["rational identity"],
                            (z - c * beta) * psi_tgt - (c * z - beta) * psi_src)

    return _run(action, RelationId(family, kind, (k, l)), body, strategy, seed,
                trials, max_degree=max_degree, window="rational",
                mutate=mutate or "")


def verify_psi_psi(action, k: int, l: int, max_degree: int = 3,
                   strategy: str = SYMBOLIC, seed: int = 0,
                   trials: int = 5) -> VerificationReport:
    """psi-series commute: all psi operators are diagonal in one basis, so
    the products in either order agree; the check asserts the diagonal
    eigenvalue products and that no off-diagonal entries exist anywhere."""
    sources = action.sources(max_degree)

    def body(ev, check):
        for src in sources:
            a = ev.lift(action.psi_eigenvalue(src, k))
            b = ev.lift(action.psi_eigenvalue(src, l))
            check.entry(src, src, ["diagonal"], a * b - b * a)

    return _run(action, RelationId("psi_psi", "", (k, l)), body, strategy,
                seed, trials, max_degree=max_degree, window="rational")


def verify_serre(action, kind: str, i: int, j: int, window: int = 2,
                 max_degree: int = 3, strategy: str = SYMBOLIC, seed: int = 0,
                 trials: int = 5, mutate: str = None) -> VerificationReport:
    """Cubic Serre relation in mode form, symmetrized over the two like modes:
    {X_{i,a}X_{i,b}X_{j,c} - (v+v^{-1}) X_{i,a}X_{j,c}X_{i,b}
     + X_{j,c}X_{i,a}X_{i,b}} + {a <-> b} = 0.

    Every path contribution is geometric in (a, b, c) with monomial spectral
    parameters, so the identity over ALL integer modes decomposes, by linear
    independence of distinct characters of Z^3, into one exact sum per
    (target, character) group; those group sums are what is verified (a
    superset of the stated window).  When a group survives, the windowed
    sweep runs to exhibit a concrete (a, b, c) counterexample; when the
    sweep finds none, the surviving group itself is the counterexample.
    """
    _applies(mutate, "flattened")
    sources = action.sources(max_degree)

    def body(ev, check):
        v = ev.v
        coeff = ev.zero + 2 if mutate == "flattened" else v + 1 / v
        for src in sources:
            tables = _serre_tables(action, ev, kind, i, j, src)
            if not any(table.rows for table in tables):
                continue
            groups = {}
            # X_{i,a} X_{i,b} X_{j,c} applies leg j first with mode c, so the
            # character seen by (a, b, c) permutes the leg betas accordingly:
            # legs (j:c, i:b, i:a), (i:b, j:c, i:a) and (i:b, i:a, j:c)
            for table, pos, weight in zip(tables, ((2, 1, 0), (2, 0, 1),
                                                   (1, 0, 2)),
                                          (None, -coeff, None)):
                for tgt, base, _, sbetas in table.rows:
                    chi = (sbetas[pos[0]], sbetas[pos[1]], sbetas[pos[2]])
                    term = base if weight is None else base * weight
                    for key in (
                        (tgt, chi),
                        (tgt, (chi[1], chi[0], chi[2])),  # the a <-> b half
                    ):
                        groups[key] = groups.get(key, ev.zero) + term
            failing = None
            for (tgt, chi), total in groups.items():
                check.entries += 1
                if failing is None and not total.is_zero:
                    failing = tgt, total
            if failing is not None and check.counterexample is None \
                    and not _serre_sweep(check, src, tables, coeff, window):
                tgt, total = failing
                check.fail(src, tgt, ["character group"], total)

    return _run(action, RelationId("serre", kind, (i, j)), body, strategy,
                seed, trials, max_degree=max_degree, window=window,
                mutate=mutate or "")


def _serre_sweep(check, src, tables, coeff, window):
    """Windowed sweep recording the first concrete failing (a, b, c);
    False when every windowed residual vanishes."""
    zero = check.ev.zero
    rng = range(-window, window + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                acc = {}
                _serre(acc, tables, a, b, c, coeff, zero)
                _serre(acc, tables, b, a, c, coeff, zero)
                for tgt, residual in acc.items():
                    if not residual.is_zero:
                        check.fail(src, tgt, [a, b, c], residual)
                        return True
    return False


# -- gl_n zero-mode families ---------------------------------------------------


def verify_gl_zero_modes(action, max_degree: int = 3,
                         strategy: str = SYMBOLIC, seed: int = 0,
                         trials: int = 5) -> list:
    """The five zero-mode relation families, plus the closed-form
    coefficient comparison for the raising/lowering generators; each family
    is a body run on every source."""
    n = action.n
    nodes = action.nodes
    cartan = action.t_cartan_eigenvalue

    # Cartan family: diagonal operators commute and invert
    def cartan_body(ev, check, src):
        for ti in range(1, n + 1):
            for tj in range(1, n + 1):
                a = ev.lift(cartan(src, ti))
                b = ev.lift(cartan(src, tj))
                check.entry(src, src, [ti, tj], a * b - b * a)

    # t x t^{-1} twists: t_i X_j t_i^{-1} = X_j v^{+-(delta_{ij}-delta_{i,j+1})}
    def twist_body(ev, check, src):
        for jn in nodes:
            for kind, sgn in (("e", 1), ("f", -1)):
                for tr in action.transitions(kind, jn, src):
                    for ti in range(1, n + 1):
                        tw = sgn * ((ti == jn) - (ti == jn + 1))
                        lhs = ev.lift(cartan(tr.target, ti)) * ev.lift(tr.base)
                        rhs = (ev.lift(tr.base) * ev.lift(cartan(src, ti))
                               * ev.v ** tw)
                        check.entry(src, tr.target, [ti, jn, kind], lhs - rhs)

    # [X_k, X_l] = 0 at mode (0, 0) for each (leg_k, leg_l, modes), except
    # [e_k, f_k] = (k_k - k_k^{-1}) / (v^2-1) with k_k = t_k t_{k+1}^{-1}
    def bracket_body(pairs):
        def body(ev, check, src):
            for leg_k, leg_l, modes in pairs:
                acc = _twisted({}, _PathTable(action, ev, [leg_l, leg_k], src),
                               _PathTable(action, ev, [leg_k, leg_l], src),
                               0, 0, None, ev.zero)
                k = leg_k[1]
                if leg_l[1] == k:
                    kk = (ev.lift(cartan(src, k))
                          / ev.lift(cartan(src, k + 1)))
                    acc[src] = (acc.get(src, ev.zero)
                                - (kk - 1 / kk) / (ev.v * ev.v - 1))
                check.acc(src, acc, modes)
        return body

    def serre_body(ev, check, src):
        coeff = ev.v + 1 / ev.v
        for kind in ("e", "f"):
            for ii in nodes:
                for jj in (ii - 1, ii + 1):
                    if jj in nodes:
                        tables = _serre_tables(action, ev, kind, ii, jj, src)
                        check.acc(src, _serre({}, tables, 0, 0, 0, coeff,
                                              ev.zero), [kind, ii, jj])

    # zero modes match the direct t,v-variable coefficient expressions
    def closed_form_body(ev, check, src):
        for node in nodes:
            for kind, closed in (("f", action.feigin_f_coeff),
                                 ("e", action.feigin_e_coeff)):
                for tr in action.transitions(kind, node, src):
                    check.entry(src, tr.target, [kind, node, tr.column],
                                ev.lift(tr.base)
                                - ev.lift(closed(src, node, tr.column)))

    families = (
        ("gl_cartan", cartan_body),
        ("gl_twist", twist_body),
        ("gl_commutator", bracket_body([
            (("e", k, None), ("f", l, None), [k, l])
            for k in nodes for l in nodes])),
        # distant-node commutation
        ("gl_distant", bracket_body([
            ((kind, k, None), (kind, l, None), [kind, k, l])
            for kind in ("e", "f") for k in nodes for l in range(k + 2, n)])),
        ("gl_serre", serre_body),
        ("gl_closed_form", closed_form_body),
    )
    sources = action.sources(max_degree)

    def each_source(body):
        def run(ev, check):
            for src in sources:
                body(ev, check, src)
        return run

    return [_run(action, RelationId(name), each_source(body), strategy, seed,
                 trials, max_degree=max_degree, window=0)
            for name, body in families]


# -- suites --------------------------------------------------------------------


def _module_suite(action, max_degree, window, strategy, seed, trials):
    """Every relation family on the action's nodes.  The affine module reads
    the loop relations cyclically on nodes 1..n, and the pair {1, n} gets
    the boundary families with the shifted node-n series instead."""
    n = action.n
    common = dict(max_degree=max_degree, strategy=strategy, seed=seed,
                  trials=trials)
    windowed = dict(common, window=window)
    # what differs by module, in the report order that the digests pin
    nodes = action.nodes
    if action.affine:
        skip = {(1, n), (n, 1)}
        psi_x_ls = {k: list(nodes) for k in nodes}
        serre_ends = {i: ((i % n) + 1, ((i - 2) % n) + 1) for i in nodes}
        boundary = ((verify_xx_pair, n, 1, dict(windowed, boundary=True)),
                    (verify_psi_x, 1, n, dict(common, boundary="psi_hat")),
                    (verify_psi_x, n, 1, dict(common, boundary="x_hat")))
    else:
        skip = set()
        psi_x_ls = {k: [l for l in nodes if l != k] + [k] for k in nodes}
        serre_ends = {i: (i - 1, i + 1) for i in nodes}
        boundary = ()
    pairs = [(k, l) for k in nodes for l in nodes]
    reports = [verify_psi_psi(action, k, l, **common) for k, l in pairs]
    reports += [verify_psi_x(action, k, l, kind, **common)
                for kind in ("e", "f") for k in nodes for l in psi_x_ls[k]
                if (k, l) not in skip]
    reports += [verify_commutator(action, k, l, **windowed) for k, l in pairs]
    for kind in ("e", "f"):
        reports += [verify_xx_same(action, kind, k, **windowed) for k in nodes]
        reports += [verify_xx_pair(action, kind, k, l, **windowed)
                    for k, l in pairs if k != l and (k, l) not in skip]
        reports += [verify_serre(action, kind, i, j, **windowed)
                    for i in nodes for j in serre_ends[i]
                    if j in nodes and j != i]
        reports += [family(action, kind=kind, k=k, l=l, **kw)
                    for family, k, l, kw in boundary]
    return reports


def loop_suite(n: int, max_degree: int = 3, window: int = 2,
               strategy: str = SYMBOLIC, seed: int = 0,
               trials: int = 5) -> list:
    """All relation families of the loop algebra on the finite module."""
    return _module_suite(FiniteAction(n), max_degree, window, strategy, seed,
                         trials)


def toroidal_suite(n: int = 3, max_degree: int = 2, window: int = 2,
                   strategy: str = SYMBOLIC, seed: int = 0,
                   trials: int = 5) -> list:
    """Relations (1)-(6) cyclically plus the boundary modifications."""
    return _module_suite(ToroidalAction(n), max_degree, window, strategy,
                         seed, trials)


def negative_controls(n: int = 3, max_degree: int = 2, window: int = 1,
                      strategy: str = SYMBOLIC, seed: int = 0,
                      trials: int = 5) -> list:
    """Mutated relations; every report here must FAIL with a counterexample.
    Half of them run on the affine module, so n < 3 raises `ActionError`."""
    affine, finite = ToroidalAction(n), FiniteAction(n)
    common = dict(max_degree=max_degree, strategy=strategy, seed=seed,
                  trials=trials)
    windowed = dict(common, window=window)
    return [
        verify_xx_same(finite, "f", 1, mutate="halved_twist", **windowed),
        verify_xx_pair(finite, "f", 1, 2, mutate="squared_twist", **windowed),
        verify_serre(finite, "f", 1, 2, mutate="flattened", **windowed),
        verify_commutator(finite, 1, 1, mutate="textbook_divisor",
                          **windowed),
        verify_psi_x(affine, 1, n, "f", boundary="psi_hat",
                     mutate="unshifted", **common),
        verify_xx_pair(affine, "f", n, 1, boundary=True,
                       mutate="squared_twist", **windowed),
    ]
