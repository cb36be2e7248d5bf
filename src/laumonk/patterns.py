"""Fixed-point index sets: triangular patterns and partition n-tuples.

Finite side: a point of the degree-d space is a triangular array
d_{ij} (1 <= j <= i <= n-1) with columns nonincreasing downwards
(d_{kj} >= d_{ij} for i >= k >= j) and row sums d_i.  Boundary
conventions used throughout: d_{n,j} := 0 and d_0 := 0, d_n := 0.

Affine side: an n-tuple of partitions (lambda^1..lambda^n) encodes the
doubly-infinite periodic collection via d(i,j) = lambda^{(j mod n)}_{i-j}
(zero beyond the partition length), which automatically satisfies
monotonicity, periodicity d(i+n,j+n) = d(i,j) and finite support.
Residues (j mod n) are taken in {1..n}; partitions are 0-indexed with
nonincreasing positive parts.

Each pattern type carries what the operator kernel reads of its module: the
torus weight `weight(ctx, i, j)`, the column lower bound `low(rows, bound)`
of a product over the given rows and the single-box moves `moves(i, dir)`.
"""

from __future__ import annotations

import itertools

from .exact import FactoredExpr, LaurentContext


class PatternError(ValueError):
    pass


class ActionError(ValueError):
    pass


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _moves(p, i: int, columns, direction: int) -> list:
    """(column, new pattern) of each valid single-box move at row i of p
    over the given columns, in their order."""
    if direction not in (1, -1):
        raise PatternError("direction must be +1 or -1")
    moved = ((j, p.bump(i, j, direction)) for j in columns)
    return [(j, q) for j, q in moved if q is not None]


class FinitePattern:
    """Triangular array indexing a torus fixed point, immutable."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows):
        if n < 2:
            raise PatternError("finite patterns need n >= 2")
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if len(rows) != n - 1:
            raise PatternError("expected %d rows" % (n - 1))
        for i, r in enumerate(rows, start=1):
            if len(r) != i:
                raise PatternError("row %d must have %d entries" % (i, i))
            if any(x < 0 for x in r):
                raise PatternError("negative entry in row %d" % i)
        for j in range(1, n - 1):
            for i in range(j, n - 1):
                if rows[i][j - 1] > rows[i - 1][j - 1]:
                    raise PatternError(
                        "column %d increases from row %d to %d" % (j, i, i + 1)
                    )
        self.n = n
        self.rows = rows
        self._hash = hash((n, rows))

    def d(self, i: int, j: int) -> int:
        """Entry d_{ij}; row n is identically zero by convention."""
        if not (1 <= j <= i <= self.n):
            raise PatternError("bad cell (%d, %d)" % (i, j))
        if i == self.n:
            return 0
        return self.rows[i - 1][j - 1]

    def degree(self):
        return tuple(sum(r) for r in self.rows)

    def row_sum(self, i: int) -> int:
        """Row sum d_i with the boundary convention d_0 = d_n = 0; rows
        outside 0..n raise."""
        if 0 < i < self.n:
            return sum(self.rows[i - 1])
        if i in (0, self.n):
            return 0
        raise PatternError("row %d outside 0..%d" % (i, self.n))

    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def bump(self, i: int, j: int, delta: int):
        """Pattern with d_{ij} replaced by d_{ij}+delta, or None if invalid."""
        if not (1 <= j <= i <= self.n - 1):
            return None
        rows = [list(r) for r in self.rows]
        rows[i - 1][j - 1] += delta
        try:
            return FinitePattern(self.n, rows)
        except PatternError:
            return None

    def weight(self, ctx: LaurentContext, i: int, j: int) -> FactoredExpr:
        """Torus weight s_{ij} = t_j^2 v^{-2 d_{ij}} (row n contributes
        plain t_j^2)."""
        if not (1 <= j <= i <= self.n):
            raise PatternError("weight needs 1 <= j <= i <= n")
        return ctx.t[j - 1] ** 2 * ctx.v ** (-2 * self.d(i, j))

    def low(self, rows, bound: int) -> int:
        """Column lower bound of a product over the given rows: 0, so the
        products run over every column; the rows must lie in 0..n."""
        if min(rows) < 0 or max(rows) > self.n:
            raise ActionError("rows must lie in 0..n")
        return 0

    def moves(self, i: int, direction: int):
        """Single-box moves at node i in 1..n-1: (column, new pattern) over
        the columns 1..i."""
        if not (1 <= i <= self.n - 1):
            raise PatternError("node out of range")
        return _moves(self, i, range(1, i + 1), direction)

    def sort_key(self):
        return tuple(x for r in self.rows for x in r)

    def to_json(self) -> dict:
        return {"n": self.n, "d": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "FinitePattern":
        return cls(obj["n"], obj["d"])

    @classmethod
    def zero(cls, n: int) -> "FinitePattern":
        return cls(n, [[0] * i for i in range(1, n)])

    def __eq__(self, other):
        return (
            isinstance(other, FinitePattern)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FinitePattern(n=%d, %s)" % (self.n, list(map(list, self.rows)))


def enumerate_finite(n: int, deg) -> list:
    """All finite patterns with the given degree vector, lexicographic order."""
    deg = tuple(int(x) for x in deg)
    if n < 2 or len(deg) != n - 1:
        raise PatternError("degree vector must have n-1 entries")
    if any(x < 0 for x in deg):
        raise PatternError("degrees must be nonnegative")

    def rows_with_sum(bounds, total):
        """Compositions r with 0 <= r[j] <= bounds[j] (None = unbounded last)."""
        if not bounds:
            return [()] if total == 0 else []
        head, *rest = bounds
        out = []
        top = total if head is None else min(head, total)
        for x in range(top + 1):
            for tail in rows_with_sum(rest, total - x):
                out.append((x,) + tail)
        return out

    results = []

    def build(i, acc):
        if i == n:
            results.append(FinitePattern(n, acc))
            return
        bounds = [acc[-1][j] for j in range(i - 1)] + [None] if acc else [None]
        for row in rows_with_sum(bounds, deg[i - 1]):
            build(i + 1, acc + [row])

    build(1, [])
    results.sort(key=FinitePattern.sort_key)
    return results


def _is_partition(parts) -> bool:
    return all(
        isinstance(p, int) and p > 0 for p in parts
    ) and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


class AffinePattern:
    """n-tuple of partitions encoding a periodic collection d_{ij}."""

    __slots__ = ("n", "lambdas", "_hash")

    def __init__(self, n: int, lambdas):
        if n < 2:
            raise PatternError("affine patterns need n >= 2")
        lambdas = tuple(tuple(int(x) for x in lam) for lam in lambdas)
        if len(lambdas) != n:
            raise PatternError("expected %d partitions" % n)
        for lam in lambdas:
            if not _is_partition(lam):
                raise PatternError("parts must be positive and nonincreasing")
        self.n = n
        self.lambdas = lambdas
        self._hash = hash((n, lambdas))

    def part(self, res: int, m: int) -> int:
        """m-th part (0-indexed) of lambda^{res}, residue in 1..n."""
        lam = self.lambdas[(res - 1) % self.n]
        return lam[m] if 0 <= m < len(lam) else 0

    def d(self, i: int, j: int) -> int:
        """Entry d_{ij}; cells above the diagonal (i < j) read as 0."""
        if j > i:
            return 0
        return self.part(j, i - j)

    def max_length(self) -> int:
        return max((len(lam) for lam in self.lambdas), default=0)

    def degree(self):
        """(d_0, .., d_{n-1}) with d_k the row-k sum (row 0 read as row n)."""
        out = []
        for k in range(self.n):
            row = self.n if k == 0 else k
            out.append(self.row_sum(row))
        return tuple(out)

    def row_sum(self, i: int) -> int:
        return sum(self.part(i - m, m) for m in range(self.max_length() + 1))

    def total(self) -> int:
        return sum(sum(lam) for lam in self.lambdas)

    def weight(self, ctx: LaurentContext, i: int, j: int) -> FactoredExpr:
        """Torus weight p_{ij} = t_{(j mod n)}^2 v^{-2 d_{ij}} u^{2 ceil(j/n)}."""
        if j > i:
            raise PatternError("weight needs j <= i")
        return (
            ctx.t_res(j) ** 2
            * ctx.v ** (-2 * self.d(i, j))
            * ctx.u ** (2 * ceil_div(j, self.n))
        )

    def low(self, rows, bound: int) -> int:
        """Telescoped column lower bound of a product over the given rows:
        the largest admissible one, below the rows' support (their smallest
        column with a nonzero entry, max(rows)+1 when they all vanish) and
        below the product bound (so no unpaired tail factor is dropped)."""
        support = [i - m for i in rows for m in range(self.max_length())
                   if self.part(i - m, m) > 0]
        return min(min(support, default=max(rows) + 1) - 1, bound)

    def moves(self, i: int, direction: int):
        """Single-box moves at the node representative i in 1..n: (column,
        new pattern) over the columns j <= i by decreasing j (the whole
        periodic class moves at once through the partition encoding)."""
        if not (1 <= i <= self.n):
            raise PatternError("node representative out of range")
        return _moves(self, i, range(i, i - self.max_length() - 1, -1),
                      direction)

    def bump(self, i: int, j: int, delta: int):
        """Pattern with the periodic class of d_{ij} shifted by delta, or None."""
        if j > i or delta not in (1, -1):
            return None
        res = (j - 1) % self.n
        m = i - j
        lam = list(self.lambdas[res])
        if m < 0 or m > len(lam):
            return None
        if delta == 1:
            if m == len(lam):
                lam.append(1)
            elif m == 0 or lam[m - 1] >= lam[m] + 1:
                lam[m] += 1
            else:
                return None
        else:
            if m >= len(lam):
                return None
            if m + 1 < len(lam) and lam[m] - 1 < lam[m + 1]:
                return None
            lam[m] -= 1
            if lam[m] == 0:
                lam.pop()
        lams = list(self.lambdas)
        lams[res] = tuple(lam)
        return AffinePattern(self.n, lams)

    def sort_key(self):
        return tuple((len(lam),) + lam for lam in self.lambdas)

    def to_json(self) -> dict:
        return {"n": self.n, "lambdas": [list(lam) for lam in self.lambdas]}

    @classmethod
    def from_json(cls, obj) -> "AffinePattern":
        return cls(obj["n"], obj["lambdas"])

    @classmethod
    def empty(cls, n: int) -> "AffinePattern":
        return cls(n, [()] * n)

    def __eq__(self, other):
        return (
            isinstance(other, AffinePattern)
            and self.n == other.n
            and self.lambdas == other.lambdas
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "AffinePattern(n=%d, %s)" % (self.n, [list(l) for l in self.lambdas])


def _partitions_of(m: int):
    """All partitions of m as nonincreasing tuples."""
    if m == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(m, m, [])
    return out


def enumerate_affine(n: int, deg) -> list:
    """All affine patterns whose induced degree vector equals deg."""
    deg = tuple(int(x) for x in deg)
    if len(deg) != n:
        raise PatternError("affine degree vector must have n entries")
    return enumerate_affine_total(n, sum(deg), deg=deg)


def enumerate_affine_total(n: int, total: int, *, deg=None) -> list:
    """All affine patterns with total box count `total`; with a degree
    vector deg, only those of that degree (filtered before sorting)."""
    if n < 2 or total < 0:
        raise PatternError("affine patterns need n >= 2 and total >= 0")
    results = []
    for split in itertools.product(range(total + 1), repeat=n):
        if sum(split) != total:
            continue
        for lams in itertools.product(*(_partitions_of(m) for m in split)):
            p = AffinePattern(n, lams)
            if deg is None or p.degree() == deg:
                results.append(p)
    results.sort(key=AffinePattern.sort_key)
    return results
