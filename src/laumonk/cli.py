"""Command-line front end: enumeration dumps, relation suites, oracle
cross-checks, operator matrix dumps, and specialization runs, with
reproducible seeded JSON reports.

Subcommands:

* patterns    -- enumerate finite or affine patterns with counts
* verify      -- run one suite of SUITES; exit 0 iff everything passes
* specialize  -- D(mu) block sizes and closure checks
* op-matrix   -- matrix of one mode operator between degree blocks

All reports are JSON with sorted keys; identical (config, seed) runs are
byte-identical.  verify runs its suite in one process; --workers is
accepted and has no effect yet.  A --config file supplies subcommand
defaults, checked as flags are.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import relations as rel
from .exact import ExactError
from .finite_action import FiniteAction
from .patterns import ceil_div, enumerate_affine, enumerate_affine_total, \
    enumerate_finite
from .specialization import LevelWeight, WeightError, closure_report
from .tangent import TangentOracle
from .toroidal_action import ToroidalAction


def _write_report(path, payload) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _at_least(low):
    """Option type: an integer that is at least `low`."""
    def check(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return int(text)
    return check


def _parse_int_list(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def cmd_patterns(args) -> int:
    if args.total is not None and (args.deg or not args.affine):
        raise ValueError("--total needs --affine and no --deg")
    if args.affine:
        if args.total is not None:
            pats = enumerate_affine_total(args.n, args.total)
        else:
            pats = enumerate_affine(args.n, _parse_int_list(args.deg))
    else:
        pats = enumerate_finite(args.n, _parse_int_list(args.deg))
    listing = [p.to_json() for p in pats]
    payload = {
        "command": "patterns",
        "module": "affine" if args.affine else "finite",
        "n": args.n,
        "count": len(listing),
        "patterns": listing,
    }
    text = _write_report(args.out, payload)
    if args.out:
        print("%d patterns -> %s" % (len(listing), args.out))
    else:
        sys.stdout.write(text)
    return 0


def oracle_suite(n: int, max_degree: int = 2, strategy: str = rel.SYMBOLIC,
                 seed: int = 0) -> list:
    """Bott-Lefschetz equality and character-size checks as reports; the
    checks compare symbolically, so only the symbolic strategy runs."""
    if strategy != rel.SYMBOLIC:
        raise ValueError("the oracle suite runs only the symbolic strategy")
    oracle = TangentOracle(n)
    action = ToroidalAction(n)
    ctx = action.ctx
    sources = action.sources(max_degree)

    def body(ev, check):
        for p in sources:
            space = oracle.tangent_character_space(p)
            expected = 2 * sum(p.degree())
            if space.size() != expected and check.counterexample is None:
                check.fail(p, p, ["character size"],
                           ctx.rational(space.size() - expected),
                           size=space.size())
            for node in range(1, n + 1):
                for kind in ("e", "f"):
                    for tr in action.transitions(kind, node, p):
                        if kind == "f":
                            corr = oracle.tangent_character_correspondence(
                                p, node, tr.column)
                            check.entries += 1
                            if (corr.size() != expected + 1
                                    and check.counterexample is None):
                                check.fail(
                                    p, tr.target,
                                    [kind, node, tr.column,
                                     "correspondence size"],
                                    ctx.rational(corr.size() - expected - 1),
                                    size=corr.size())
                        for r in (-1, 0, 1):
                            got = oracle.bott_coefficient(kind, p, node,
                                                          tr.column, r)
                            check.entry(p, tr.target,
                                        [kind, node, tr.column, r],
                                        got - tr.coeff(r))

    return [rel._run(action, rel.RelationId("bott_oracle"), body, seed=seed,
                     max_degree=max_degree, window=[-1, 0, 1])]


# suite name -> the suite's reports for the parsed verify arguments
SUITES = {
    "loop": lambda args: rel.loop_suite(
        args.n, max_degree=args.max_degree, window=args.window,
        strategy=args.strategy, seed=args.seed, trials=args.trials),
    "toroidal": lambda args: rel.toroidal_suite(
        args.n, max_degree=args.max_degree, window=args.window,
        strategy=args.strategy, seed=args.seed, trials=args.trials),
    "glzero": lambda args: rel.verify_gl_zero_modes(
        FiniteAction(args.n), max_degree=args.max_degree,
        strategy=args.strategy, seed=args.seed, trials=args.trials),
    "oracle": lambda args: oracle_suite(
        args.n, max_degree=args.max_degree, strategy=args.strategy,
        seed=args.seed),
    "controls": lambda args: rel.negative_controls(
        args.n, max_degree=args.max_degree, window=args.window,
        strategy=args.strategy, seed=args.seed, trials=args.trials),
}


def cmd_verify(args) -> int:
    if args.suite == "controls":
        # the controls run at window 1 and max-degree at most 2; the payload
        # states the scope that ran
        args.max_degree, args.window = min(args.max_degree, 2), 1
    reports = SUITES[args.suite](args)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "n": args.n,
        "max_degree": args.max_degree,
        "window": args.window,
        "strategy": args.strategy,
        "seed": args.seed,
        "trials": args.trials,
        "reports": [r.to_json() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    if args.suite == "toroidal":
        # reported, not asserted: the scalars relating the node-0 Chevalley
        # operators to the shifted node-n zero modes (constant across moves)
        action = ToroidalAction(args.n)
        ratios = {"e": set(), "f": set(), "k": set()}
        for p in action.sources(min(args.max_degree, 2)):
            for key, vals in action.chevalley_node0_ratios(p).items():
                ratios[key].update(vals)
        payload["chevalley_node0_ratios"] = {
            k: sorted(v) for k, v in ratios.items()}
    if args.suite == "controls":
        payload["all_pass"] = all(
            r.status == "fail" and r.counterexample for r in reports)
        payload["note"] = "negative controls: pass means every mutation failed"
    _write_report(args.out, payload)
    for r in reports:
        print("%-40s %s  (%d entries)" % (r.relation.key(), r.status,
                                          r.entries_checked))
    ok = payload["all_pass"]
    print("suite %s: %s" % (args.suite, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_specialize(args) -> int:
    try:
        w = LevelWeight(args.n, args.level, _parse_int_list(args.mu))
    except WeightError as err:
        print("rejected: %s" % err, file=sys.stderr)
        return 2
    report = closure_report(w, max_total=args.max_degree,
                            wrong_u=args.wrong_u)
    report["command"] = "specialize"
    _write_report(args.out, report)
    for block in report["blocks"]:
        print("degree %s  basis %d  closure %s"
              % (block["degree"], block["basis_size"], block["closure"]))
    print("closure: %s" % ("PASS" if report["closure"] else "FAIL"))
    return 0 if report["closure"] else 1


def cmd_op_matrix(args) -> int:
    deg = _parse_int_list(args.deg)
    if args.affine:
        action, sources = ToroidalAction(args.n), enumerate_affine(args.n, deg)
    else:
        action, sources = FiniteAction(args.n), enumerate_finite(args.n, deg)
    entries = []
    for p in sources:
        for tr in action.transitions(args.kind, args.node, p):
            entry = {
                "source": p.to_json(),
                "target": tr.target.to_json(),
                "column": tr.column,
                "value": tr.coeff(args.mode).to_string(),
            }
            if args.affine:
                entry["u_exponent"] = 2 * ceil_div(tr.column, args.n)
                entry["node_residue"] = (args.node - 1) % args.n + 1
            entries.append(entry)
    payload = {
        "command": "op-matrix",
        "module": "affine" if args.affine else "finite",
        "kind": args.kind,
        "node": args.node,
        "mode": args.mode,
        "n": args.n,
        "degree": list(deg),
        "entries": entries,
    }
    text = _write_report(args.out, payload)
    if not args.out:
        sys.stdout.write(text)
    else:
        print("%d entries -> %s" % (len(entries), args.out))
    return 0


def _read_config(path, sub) -> dict:
    """Option values of the subcommand parser `sub` from a JSON config file.

    Every key must name an option (a dash reads as an underscore), and each
    value passes the checks its flag would: a switch takes a JSON boolean,
    any other option a string or an integer, which goes through the
    option's type and must be one of its choices."""
    with open(path, encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("config %s is not a JSON object" % path)
    conf = {key.replace("-", "_"): value for key, value in conf.items()}
    actions = {a.dest: a for a in sub._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(conf) - set(actions))
    if unknown:
        raise ValueError("config %s: unknown option(s) %s"
                         % (path, ", ".join(unknown)))
    for key, value in conf.items():
        action = actions[key]
        if action.nargs == 0:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, (str, int)) and not isinstance(value, bool)
            if ok and action.type is not None:
                try:
                    conf[key] = action.type(str(value))
                except (ValueError, argparse.ArgumentTypeError):
                    ok = False
            ok = ok and (action.choices is None
                         or conf[key] in action.choices)
        if not ok:
            raise ValueError("config %s: invalid value %s for option %s"
                             % (path, json.dumps(value), key))
    return conf


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laumonk",
        description="exact fixed-point calculus for quantum loop and "
                    "toroidal algebra actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    registry = {}

    pat = sub.add_parser("patterns", help="enumerate fixed-point patterns")
    pat.add_argument("-n", type=int, required=True)
    group = pat.add_mutually_exclusive_group()
    group.add_argument("--finite", action="store_true")
    group.add_argument("--affine", action="store_true")
    pat.add_argument("-d", "--deg", default="")
    pat.add_argument("--total", type=_at_least(0), default=None)
    pat.add_argument("--out", default=None)
    pat.set_defaults(fn=cmd_patterns)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=list(SUITES))
    ver.add_argument("-n", type=int, default=3)
    ver.add_argument("-D", "--max-degree", type=_at_least(0), default=None)
    ver.add_argument("-R", "--window", type=_at_least(0), default=2)
    ver.add_argument("--strategy", choices=["symbolic", "random"],
                     default="symbolic")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=_at_least(1), default=5)
    ver.add_argument("--workers", type=int, default=None,
                     help="accepted; has no effect yet")
    ver.add_argument("--config", default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(fn=cmd_verify)

    spec = sub.add_parser("specialize", help="integrable-module closure")
    spec.add_argument("-n", type=int, default=3)
    spec.add_argument("-K", "--level", type=int, required=True)
    spec.add_argument("--mu", required=True)
    spec.add_argument("--max-degree", type=_at_least(0), default=2)
    spec.add_argument("--wrong-u", action="store_true",
                      help="negative control: off-by-one u exponent")
    spec.add_argument("--config", default=None)
    spec.add_argument("--out", default=None)
    spec.set_defaults(fn=cmd_specialize)

    mat = sub.add_parser("op-matrix", help="dump one mode operator matrix")
    mat.add_argument("-n", type=int, required=True)
    mat.add_argument("--affine", action="store_true")
    mat.add_argument("--kind", choices=["e", "f"], required=True)
    mat.add_argument("--node", type=int, required=True)
    mat.add_argument("-r", "--mode", type=int, default=0)
    mat.add_argument("-d", "--deg", required=True)
    mat.add_argument("--out", default=None)
    mat.set_defaults(fn=cmd_op_matrix)

    registry.update(patterns=pat, verify=ver, specialize=spec,
                    **{"op-matrix": mat})
    return parser, registry


def main(argv=None) -> int:
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the config becomes the subcommand's defaults, so explicit
            # flags win when the command line is parsed again
            sub = registry[args.command]
            sub.set_defaults(**_read_config(args.config, sub))
            args = parser.parse_args(argv)
        if args.command == "verify" and args.max_degree is None:
            args.max_degree = 3 if args.suite in ("loop", "glzero") else 2
        return args.fn(args)
    except (ValueError, OSError, ExactError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
