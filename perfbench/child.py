"""One round of a workload in a fresh interpreter, as a CLI user runs it.

Usage (started by run.py, one child at a time):

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds the spawn time on the monotonic clock, the report directory,
the ranks to set up, whether to trace, and the commands as
[[report_name, [argv...]], ...]. Each command runs through
`laumonk.cli.main` with `--out <report_dir>/<report_name>.json`. In untraced
rounds a sampler thread runs reference-kernel slices alongside the commands
(see meter.py); the round's wall and CPU times leave the slices out. The last
line of standard output is `RESULT <json>`.
"""

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(spec):
    sys.path.insert(0, str(ROOT / "src"))
    import laumonk.cli as cli
    from laumonk.exact import LaurentContext

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("laumonk imported from outside this checkout: %s"
                         % cli.__file__)
    for n in spec["ranks"]:
        LaurentContext(n)
    setup_s = time.monotonic() - spec["spawned"]

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from meter import Meter

    tracer = meter = None
    if spec["commands"] and spec["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    elif spec["commands"]:
        meter = Meter()

    report_dir = Path(spec["report_dir"])
    with meter or contextlib.nullcontext():
        results, wall_s, cpu_s = _run_commands(cli, spec, report_dir)
    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": _peak_rss_mb(), "commands": results}
    if meter is not None:
        # while a slice runs, the commands wait for the interpreter lock
        out["wall_s"] -= meter.slice_cpu
        out["cpu_s"] -= meter.slice_cpu
        out["ref_wall_s"] = meter.ref_seconds(out["wall_s"])
        out["ref_cpu_s"] = meter.ref_seconds(out["cpu_s"])
        out["kernel_calls"] = meter.calls
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        tracer.write(report_dir / "spans.bin")
    sys.stdout.flush()
    print("RESULT " + json.dumps(out))
    return 0


def _run_commands(cli, spec, report_dir):
    """Run the round's commands; (results, wall seconds, CPU seconds)."""
    results = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for name, argv in spec["commands"]:
        path = report_dir / (name + ".json")
        if path.exists():
            path.unlink()
        started = time.perf_counter()
        try:
            rc = cli.main(list(argv) + ["--out", str(path)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
        results.append([name, rc, time.perf_counter() - started])
    return results, time.perf_counter() - t0, _cpu_s() - cpu0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
