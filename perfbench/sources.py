"""Independent source counts for the relation suites.

The relation engine iterates over fixed-point sources that `laumonk.patterns`
enumerates. The benchmark recounts them here from the definitions alone, so a
regression in enumeration shows as a wrong count instead of a quieter suite.
Nothing in this file imports laumonk.
"""

from __future__ import annotations

import itertools


def finite_pattern_count(n: int, max_total: int) -> int:
    """Triangular arrays d[i][j] (1 <= j <= i <= n-1) with nonnegative
    entries, every column nonincreasing downwards (d[i][j] >= d[i+1][j]) and
    total at most max_total, counted by brute force over small arrays."""
    cells = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
    below = [(k, cells.index((i + 1, j))) for k, (i, j) in enumerate(cells)
             if i + 1 <= n - 1]
    count = 0
    for values in itertools.product(range(max_total + 1), repeat=len(cells)):
        if sum(values) <= max_total and all(values[a] >= values[b]
                                            for a, b in below):
            count += 1
    return count


def partition_tuple_counts(n: int, max_total: int) -> list:
    """Number of n-tuples of partitions with t boxes, for t = 0..max_total:
    the coefficients of prod_{k>=1} (1 - q^k)^(-n)."""
    coeffs = [1] + [0] * max_total
    for k in range(1, max_total + 1):
        for _ in range(n):
            for t in range(k, max_total + 1):
                coeffs[t] += coeffs[t - k]
    return coeffs


def is_partition_tuple(lambdas, n: int, total: int) -> bool:
    """True iff lambdas is n partitions (positive nonincreasing parts) with
    `total` boxes in all."""
    if len(lambdas) != n:
        return False
    for parts in lambdas:
        if any(not isinstance(p, int) or p <= 0 for p in parts):
            return False
        if any(a < b for a, b in zip(parts, parts[1:])):
            return False
    return sum(sum(parts) for parts in lambdas) == total
