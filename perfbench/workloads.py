"""The four workloads: the `laumonk` commands of one round and the verdict
each of them must give.

Scopes are smaller than the acceptance scopes so that a round takes seconds
and several rounds fit in one run; the README gives the reasons per workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from sources import finite_pattern_count, partition_tuple_counts

N = 3
RANKS = (N,)
WORKERS = ("--workers", "2")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `name` is the stem of its report file."""

    name: str
    argv: tuple
    kind: str  # suite | controls | oracle | closure | wrong_u | sources
    families: tuple = ()
    expect: dict = field(default_factory=dict)


def _key(family, kind="", nodes=()):
    bits = [family] + ([kind] if kind else [])
    if nodes:
        bits.append("-".join(str(x) for x in nodes))
    return ":".join(bits)


def loop_families(n: int) -> tuple:
    """Family keys of the loop suite on the finite module of rank n."""
    nodes = range(1, n)
    keys = [_key("psi_psi", "", (k, l)) for k in nodes for l in nodes]
    keys += [_key("x_commutator", "", (k, l)) for k in nodes for l in nodes]
    for kind in ("e", "f"):
        keys += [_key("psi_x", kind, (k, l)) for k in nodes for l in nodes]
        keys += [_key("xx_same", kind, (k,)) for k in nodes]
        keys += [_key("xx_adjacent", kind, (k, l))
                 for k in nodes for l in nodes if k != l]
        keys += [_key("serre", kind, (i, j)) for i in nodes for j in nodes
                 if abs(i - j) == 1]
    return tuple(sorted(keys))


def toroidal_families(n: int) -> tuple:
    """Family keys of the toroidal suite: the cyclic relations, with the
    node pair {1, n} replaced by the three boundary families."""
    nodes = range(1, n + 1)
    boundary = {(1, n), (n, 1)}
    keys = [_key("psi_psi", "", (k, l)) for k in nodes for l in nodes]
    keys += [_key("x_commutator", "", (k, l)) for k in nodes for l in nodes]
    for kind in ("e", "f"):
        keys += [_key("psi_x", kind, (k, l)) for k in nodes for l in nodes
                 if (k, l) not in boundary]
        keys += [_key("xx_same", kind, (k,)) for k in nodes]
        keys += [_key("xx_adjacent", kind, (k, l)) for k in nodes
                 for l in nodes if k != l and (k, l) not in boundary]
        keys += [_key("serre", kind, (i, j)) for i in nodes for j in nodes
                 if i != j and (j - i) % n in (1, n - 1)]
        keys += [_key("tor_xx_boundary", kind, (n, 1)),
                 _key("tor_psix_boundary_a", kind, (1, n)),
                 _key("tor_psix_boundary_b", kind, (n, 1))]
    return tuple(sorted(keys))


CONTROL_FAMILIES = tuple(sorted([
    "xx_same:f:1", "xx_adjacent:f:1-2", "serre:f:1-2", "x_commutator:1-1",
    "tor_psix_boundary_a:f:1-3", "tor_xx_boundary:f:3-1",
]))


def _verify(*flags):
    return ("verify",) + flags + ("-n", str(N)) + WORKERS


def _loop(strategy, *extra):
    return Command(
        "loop-" + strategy,
        _verify("--suite", "loop", "-D", "3", "-R", "1",
                "--strategy", strategy, *extra),
        "suite", loop_families(N),
        {"psi_sources": finite_pattern_count(N, 3)})


def _oracle_specialize():
    max_degree = 2
    counts = partition_tuple_counts(N, max_degree)
    cmds = [Command("oracle", _verify("--suite", "oracle", "-D",
                                      str(max_degree)), "oracle")]
    cmds += [Command("sources-%d" % t,
                     ("patterns", "--affine", "-n", str(N), "--total", str(t)),
                     "sources", expect={"total": t, "count": counts[t]})
             for t in range(max_degree + 1)]
    for level in (1, 2):
        for mu in ("0,0,0", "1,0,0", "1,1,0"):
            cmds.append(Command(
                "specialize-K%d-%s" % (level, mu.replace(",", "")),
                ("specialize", "-n", str(N), "-K", str(level), "--mu", mu,
                 "--max-degree", "3"), "closure"))
    cmds.append(Command(
        "specialize-wrong-u",
        ("specialize", "-n", str(N), "-K", "1", "--mu", "0,0,0",
         "--max-degree", "3", "--wrong-u"), "wrong_u"))
    return cmds


WORKLOADS = {
    "loop-symbolic": [_loop("symbolic")],
    "loop-random": [_loop("random", "--seed", "7", "--trials", "5")],
    "toroidal-controls": [
        Command("toroidal", _verify("--suite", "toroidal", "-D", "1",
                                    "-R", "1"),
                "suite", toroidal_families(N),
                {"psi_sources": sum(partition_tuple_counts(N, 1))}),
        Command("controls", _verify("--suite", "controls", "-D", "1"),
                "controls", CONTROL_FAMILIES),
    ],
    "oracle-specialize": _oracle_specialize(),
}


def round_commands(workload: str, seed: int) -> list:
    """The commands of one round, in an order fixed by the seed. Scopes do
    not depend on the seed, so report digests agree across seeds."""
    cmds = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cmds)
    return cmds
