"""laumonk verifier benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload, each in a fresh child interpreter and one at a
time, until the next round would end after S seconds (at least one round).
Every round's reports are checked; their sha256 digests are printed and must
agree between rounds. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
the times are rescaled to a reference host speed (see meter.py).
With --trace 1 untraced and traced rounds alternate; the metrics are the
per-layer ones from the traced rounds, plus the tracing overhead.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import check_command, entries_checked  # noqa: E402
from workloads import RANKS, WORKLOADS, round_commands  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_ONLY = 5  # extra children that only set up, so set-up has 6+ samples


def run_round(commands, report_dir, trace, deadline):
    """Start one child, wait for it, return (result dict, seconds taken)."""
    spec = {"ranks": list(RANKS), "trace": bool(trace),
            "report_dir": str(report_dir),
            "commands": [[c.name, list(c.argv)] for c in commands]}
    started = time.monotonic()
    spec["spawned"] = started
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("a round did not finish before the run limit")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise SystemExit("round child exited %s without a result"
                         % proc.returncode)
    if err.strip():
        sys.stderr.write(err[-4000:])
    return json.loads(lines[-1][len("RESULT "):]), time.monotonic() - started


def check_round(commands, result, report_dir):
    """Verdicts, digests and entries of one round."""
    rcs = {name: rc for name, rc, _ in result["commands"]}
    ops, problems, digests, entries = [], [], {}, 0
    for cmd in commands:
        path = report_dir / (cmd.name + ".json")
        payload = None
        if path.exists():
            data = path.read_bytes()
            digests[cmd.name] = hashlib.sha256(data).hexdigest()
            try:
                payload = json.loads(data)
            except ValueError:
                problems.append("%s: report is not JSON" % cmd.name)
        cmd_ops, cmd_problems = check_command(cmd, rcs.get(cmd.name), payload)
        ops += [("%s/%s" % (cmd.name, label), why) for label, why in cmd_ops]
        problems += ["%s: %s" % (cmd.name, p) for p in cmd_problems]
        entries += entries_checked(payload)
    return ops, problems, digests, entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "laumonk" / "cli.py").is_file():
        raise SystemExit("no laumonk sources under %s" % (ROOT / "src"))

    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    commands = round_commands(args.workload, args.seed)
    report_dir = ROOT / ".perfbench_out" / args.workload
    report_dir.mkdir(parents=True, exist_ok=True)

    setups = [run_round([], report_dir, False, deadline)[0]["setup_s"]
              for _ in range(SETUP_ONLY)]
    rounds = []  # (traced, result, seconds, ops, entries)
    problems, digest_sets = [], []
    def traced_round(index):  # untraced and traced rounds alternate
        return bool(args.trace) and index % 2 == 1

    while True:
        traced = traced_round(len(rounds))
        result, took = run_round(commands, report_dir, traced, deadline)
        ops, round_problems, digests, entries = check_round(
            commands, result, report_dir)
        rounds.append((traced, result, took, ops, entries))
        print("round %d%s: wall %.3f s, cpu %.3f s, ref wall %.3f ref_s, "
              "ref cpu %.3f ref_s, %d kernel calls, set-up %.3f s, %s" % (
            len(rounds), " traced" if traced else "", result["wall_s"],
            result["cpu_s"], result.get("ref_wall_s", 0.0),
            result.get("ref_cpu_s", 0.0), result.get("kernel_calls", 0),
            result["setup_s"], " ".join(
                "%s=%.2f" % (name, sec) for name, _, sec in result["commands"])))
        problems += round_problems
        digest_sets.append(digests)
        kinds = {r[0] for r in rounds}
        done = kinds == ({False, True} if args.trace else {False})
        next_kind = traced_round(len(rounds))
        next_took = max([r[2] for r in rounds if r[0] == next_kind]
                        or [r[2] for r in rounds])
        elapsed = time.monotonic() - begin
        if done and (elapsed + next_took > args.seconds
                     or elapsed + next_took > RUN_LIMIT_S):
            break

    for digests in digest_sets[1:]:
        if digests != digest_sets[0]:
            problems.append("report digests differ between rounds")
            break
    if args.trace:
        counts = [{k: v for k, v in r[1]["layers"].items()
                   if not k.endswith("_s")} for r in rounds if r[0]]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced rounds")

    failures = [(label, why) for r in rounds for label, why in r[3] if why]
    for label, why in sorted(set(failures)):
        print("FAILED %s: %s" % (label, why))
    for problem in sorted(set(problems)):
        print("PROBLEM %s" % problem)
    for name, digest in sorted(digest_sets[0].items()):
        print("digest %s %s %s" % (args.workload, name, digest))

    plain = [r for r in rounds if not r[0]]
    if args.trace:
        traced = [r for r in rounds if r[0]]
        layers = {}
        for key in traced[0][1]["layers"]:
            vals = [r[1]["layers"][key] for r in traced]
            layers[key] = median(vals) if key.endswith("_s") else vals[0]
        layers["trace.overhead_s"] = (median([r[1]["wall_s"] for r in traced])
                                      - median([r[1]["wall_s"] for r in plain]))
        metrics = {key: {"value": value,
                         "unit": "s" if key.endswith("_s")
                         else "bytes" if key.endswith("_bytes") else "count"}
                   for key, value in layers.items()}
    else:
        metrics = {
            "wall_ref_s": {"value": median(
                [r[1]["ref_wall_s"] for r in plain]), "unit": "ref_s"},
            "entries_per_ref_cpu_s": {"value": median(
                [r[4] / r[1]["ref_cpu_s"] for r in plain]), "unit": "1/ref_s"},
            "peak_rss_mb": {"value": median(
                [r[1]["peak_rss_mb"] for r in plain]), "unit": "MB"},
            "setup_s": {"value": median(
                setups + [r[1]["setup_s"] for r in rounds]), "unit": "s"},
        }
    print("rounds %d (%d traced), %.1f s" % (
        len(rounds), sum(r[0] for r in rounds), time.monotonic() - begin))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r[3]) for r in rounds),
        "failed": len([1 for r in rounds for _, why in r[3] if why]),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
