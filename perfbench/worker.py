"""One cold benchmark process: runs suites the way `selbergkit verify` does.

Started by run.py in a fresh interpreter, so every cache in selbergkit
starts empty, as it does for a user of the CLI.  The suites of the plan run
one after another through `selbergkit.cli.main` with `--jobs 1` and a JSONL
`--report`.  The last line on stdout is a JSON object with the monotonic
clock reading when the first case started and when the last report was
written, this process's CPU time and peak RSS up to that moment, the number
of cases each suite generated, and the reference checks run afterwards.
With `--calibrate KIND` it runs calibration slices (calibrate.py) from the
first case to the last report, and reports their cost; the clock readings
and CPU time above include them.

    python3 perfbench/worker.py --plan JSON --seed N --report FILE
        [--setup-only] [--fast] [--checks WORKLOAD] [--corrupt CHECK]
        [--trace-out FILE] [--calibrate py|mixed]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class _SetupDone(Exception):
    """Raised at the first case of a setup-only process."""


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import selbergkit
    if Path(selbergkit.__file__).resolve().parent != ROOT / "src" / "selbergkit":
        raise ImportError(f"selbergkit imported from {selbergkit.__file__}, "
                          f"not from {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True,
                    help='JSON list of [suite, [extra CLI args]]')
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fast", action="store_true",
                    help="keep only the first case of every suite")
    ap.add_argument("--checks", default=None,
                    help="workload whose reference checks run at the end")
    ap.add_argument("--corrupt", default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--calibrate", default=None, choices=("py", "mixed"))
    args = ap.parse_args(argv)

    _import_program()
    from selbergkit import cli, suites

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    calibrator = None
    if args.calibrate:
        from calibrate import Calibrator
        calibrator = Calibrator(args.calibrate)

    first_case = []
    run_one = cli._run_one

    def timed_run_one(task):
        if not first_case:
            first_case.append(time.monotonic())
            if calibrator:
                calibrator.start(ticking=not args.setup_only)
            if args.setup_only:
                raise _SetupDone
        return run_one(task)

    cli._run_one = timed_run_one

    generated = {}

    def counting(name, gen):
        def cases(cfg):
            out = list(gen(cfg))
            if args.fast:
                out = out[:1]
            generated[name] = generated.get(name, 0) + len(out)
            return out
        return cases

    plan = json.loads(args.plan)
    for name, _ in plan:
        gen, runner = suites.SUITES[name]
        suites.SUITES[name] = (counting(name, gen), runner)

    crashed = []
    with open(os.devnull, "w") as sink:
        for name, extra in plan:
            argv_suite = ["verify", name, "--seed", str(args.seed),
                          "--jobs", "1", "--report", args.report] + extra
            try:
                with contextlib.redirect_stdout(sink):
                    cli.main(argv_suite)
            except _SetupDone:
                break
            except Exception:  # a crashed suite is counted, not fatal
                traceback.print_exc()
                crashed.append(name)
    if calibrator and first_case and not args.setup_only:
        calibrator.stop()
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "first_case": first_case[0] if first_case else None,
        "done": done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "generated": generated,
        "crashed": crashed,
    }
    if calibrator is not None:
        out["calibration"] = calibrator.summary()
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.save(args.trace_out)
    if not args.setup_only:
        from selbergkit import kernels
        out["has_numba"] = bool(kernels.HAS_NUMBA)
        if args.checks:
            from refchecks import run_checks
            out["checks"] = run_checks(args.checks, args.seed, args.corrupt)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
