"""Cold-process benchmark of `selbergkit verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is one fresh Python process (perfbench/worker.py) that runs the
workload's suites one after another through the entry points of
`selbergkit verify <suite> --seed N --jobs 1 --report FILE`, so every
lru_cache starts cold as it does for a user of the CLI.  One client runs the
cases in a closed loop: each case starts when the one before it ends.

An untraced run first starts five setup-only processes, which stop when
the first case would start, and then runs whole rounds until the next round
would end after `--seconds`; it always runs at least one.  Its rounds and
probes run calibration slices (calibrate.py), by which their times are
scaled to the reference machine's speed.  Every report line is read back
and checked against the number of cases the suites generated, and each
round ends with the workload's reference checks (refchecks.py).  A case that
does not pass and a reference check that does not hold are failed
operations.

With `--trace 0` the last stdout line holds the end-to-end metrics, each the
median over the run's rounds (setup_s: over the probes).  With `--trace 1`
a run makes one untraced and one traced round and prints the per-layer
metrics of the traced one; `trace.overhead_s` is the traced round's wall
time minus the untraced one's.  Every result is also appended, with the
machine facts, to perfbench/results/runs.jsonl; spans of the traced round
go to perfbench/results/trace-<workload>.npz (with `--fast`:
trace-<workload>-fast.npz).

Self-test flags: `--fast` keeps one small suite and its first case;
`--corrupt CHECK` makes one reference check's expected value wrong.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import UNIT_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

EXACT_ALGEBRA = ["cauchy", "skew-sum", "eval-sym", "an-cauchy"]
ELLIPTIC_TORUS = ["elliptic-beta", "thm92", "elliptic-aflt", "jackson",
                  "connection", "skew-limit"]
# complex-schur and recursion are left out: some seeds draw parameters on
# which one of their cases fails (complex-schur misses its 1e-9 tolerance
# on about one seed in twenty; recursion hit a pole on seed 105), so the
# share of failed operations would depend on the seed.
QUADRATURE_CLOSEDFORM = ["aflt", "an-selberg", "an-aflt", "an-alt", "hyper",
                         "guess", "mac-limit", "ortho", "zbifund",
                         "beta-schur", "nplusone", "properties"]

# suite name -> extra CLI arguments.  skew-sum runs at --max-size 2: at the
# default size 3 it alone takes about 34 s, and the exact workload must
# leave room for a traced round within the 180 s a run may take.
# "calibrate" names the calibration unit (calibrate.py) that stands beside
# the workload's own kind of work.
WORKLOADS = {
    "exact-algebra": {
        "plan": [[s, ["--max-size", "2"] if s == "skew-sum" else []]
                 for s in EXACT_ALGEBRA],
        "fast": [["eval-sym", []]],
        "calibrate": "py",
    },
    "elliptic-torus": {
        "plan": [[s, []] for s in ELLIPTIC_TORUS],
        "fast": [["jackson", []]],
        "calibrate": "mixed",
    },
    "quadrature-closedform": {
        "plan": [[s, []] for s in QUADRATURE_CLOSEDFORM],
        "fast": [["aflt", []]],
        "calibrate": "mixed",
    },
}

# wall_ref_s and cpu_ref_s are the round's wall and CPU time with the
# calibration slices taken out, scaled to the reference machine's speed by
# the calibration units run beside the cases (calibrate.py).  The raw
# wall_s and cpu_s, and the slowest case's time, are kept per round in
# runs.jsonl: on the shared 2-core machine they were measured on, they
# drift with its speed by more than the 0.25 any bound may allow.
END_TO_END = {
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {name: "s" if name.endswith("_s") else "count" for name in (
    "field.gcd.calls", "field.gcd.self_s", "field.prs_fallback.calls",
    "field.divide_exact.calls", "field.divide_exact.self_s",
    "field.mpoly_mul.calls", "field.mpoly_mul.self_s",
    "field.fe_arith.calls", "field.fe_arith.self_s", "field.peak_terms",
    "symfunc.plethysm.self_s", "symfunc.letterseries_mul.calls",
    "symfunc.letterseries_mul.self_s", "symfunc.to_basis.self_s",
    "symfunc.h_series.self_s",
    "macdonald.P.builds", "macdonald.P.self_s",
    "macdonald.skew_table.self_s", "macdonald.eval_symmetry.self_s",
    "macdonald.jack.self_s",
    "identities.skew_sum.self_s", "identities.f_function.self_s",
    "identities.an_cauchy.self_s",
    "quadrature.chain.self_s", "quadrature.chain.nodes",
    "quadrature.chain.refinements", "quadrature.gauss_jacobi.self_s",
    "quadrature.err_estimate_max",
    "quadrature.torus.self_s", "quadrature.torus.nodes",
    "kernels.ellgamma.points", "kernels.ellgamma.self_s",
    "kernels.qpoch.points", "kernels.qpoch.self_s",
    "elliptic.pole_scan.points", "elliptic.pole_scan.self_s",
    "elliptic.interp.self_s",
    "closedform.rhs.calls", "closedform.rhs.self_s",
    "complexschur.self_s", "coeffs.scalar.self_s",
    "suites.harness.self_s", "trace.overhead_s",
)}
PER_LAYER["quadrature.err_estimate_max"] = "1"

SETUP_PROBES = 5
# One BLAS thread: a round then uses one core of the 2-vCPU machine, and its
# times do not depend on where the scheduler puts a second OpenBLAS thread
# (OpenBLAS's idle threads also spin, which inflated CPU time by about a
# fifth on quadrature-closedform).
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure: nothing is printed, exit is 1."""


class Run:
    def __init__(self, workload: str, seed: int, fast: bool,
                 corrupt: str | None):
        self.workload = workload
        self.seed = seed
        self.plan = WORKLOADS[workload]["fast" if fast else "plan"]
        self.fast = fast
        self.corrupt = corrupt
        self.started = time.monotonic()
        self.rounds_made = 0
        self.has_numba = None

    def _spawn(self, *extra) -> tuple[float, float, dict]:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--plan", json.dumps(self.plan), "--seed", str(self.seed),
               *(["--fast"] if self.fast else []), *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining, env=WORKER_ENV)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s") from None
        ended = time.monotonic()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {proc.returncode}")
        return spawned, ended, json.loads(lines[-1])

    def setup_probe(self) -> float:
        """Set-up time of one process, scaled to the reference machine's
        speed by the calibration slice it runs at its first case."""
        report = RESULTS / f"probe-{os.getpid()}.jsonl"
        kind = WORKLOADS[self.workload]["calibrate"]
        spawned, _, out = self._spawn("--setup-only", "--report", str(report),
                                      "--calibrate", kind)
        report.unlink(missing_ok=True)
        if out["first_case"] is None:
            raise BenchError("setup probe never reached a case")
        cal = out["calibration"]
        return ((out["first_case"] - spawned)
                * UNIT_REF_S[kind] * cal["units"] / cal["wall_s"])

    def round(self, trace: bool, calibrate: bool = False) -> dict:
        self.rounds_made += 1
        report = RESULTS / f"report-{os.getpid()}-{self.rounds_made}.jsonl"
        report.unlink(missing_ok=True)
        extra = ["--report", str(report), "--checks", self.workload]
        kind = WORKLOADS[self.workload]["calibrate"]
        if calibrate:
            extra += ["--calibrate", kind]
        if self.corrupt:
            extra += ["--corrupt", self.corrupt]
        if trace:
            tag = "-fast" if self.fast else ""
            extra += ["--trace-out", str(
                RESULTS / f"trace-{self.workload}{tag}.npz")]
        spawned, ended, out = self._spawn(*extra)
        try:
            with report.open() as fh:
                reports = [json.loads(line) for line in fh]
        except FileNotFoundError:
            reports = []
        report.unlink(missing_ok=True)
        self.has_numba = out["has_numba"]
        if out["first_case"] is None:
            raise BenchError("no case started")
        wall_s = out["done"] - spawned
        normed = {}
        cal = out.get("calibration")
        if cal:
            ref_s = UNIT_REF_S[kind] * cal["units"]
            normed = {
                "wall_ref_s": (wall_s - cal["wall_s"]) * ref_s / cal["wall_s"],
                "cpu_ref_s": (out["cpu_s"] - cal["cpu_s"]) * ref_s
                / cal["cpu_s"],
            }
        return {
            "duration": ended - spawned,
            "wall_s": wall_s,
            "setup_s": out["first_case"] - spawned,
            "cpu_s": out["cpu_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            **normed,
            "calibration": cal,
            "slowest_case_s": max((r["runtime_ms"] for r in reports),
                                  default=0.0) / 1000.0,
            **self._judge(out, reports),
            "layers": out.get("layers"),
        }

    def _judge(self, out: dict, reports: list) -> dict:
        """Count operations and failures; `correct` is False when the
        reports cannot be matched with the cases that were generated."""
        correct = True
        attempted = failed = 0
        seen = set()
        passed: dict[str, int] = {}
        written: dict[str, int] = {}
        for rep in reports:
            key = (rep["suite"], rep["case_id"])
            if key in seen or not isinstance(rep["passed"], bool):
                correct = False
            seen.add(key)
            written[rep["suite"]] = written.get(rep["suite"], 0) + 1
            passed[rep["suite"]] = passed.get(rep["suite"], 0) + rep["passed"]
        failures = []
        for name, _ in self.plan:
            generated = out["generated"].get(name)
            if not generated or written.get(name, 0) > generated:
                correct = False
                continue
            attempted += generated
            failed += generated - passed.get(name, 0)
            if generated != passed.get(name, 0):
                failures.append(name)
        if set(written) - {name for name, _ in self.plan}:
            correct = False
        checks = out.get("checks", [])
        attempted += len(checks)
        failed += sum(not c["ok"] for c in checks)
        failures += [c["name"] for c in checks if not c["ok"]]
        return {"attempted": attempted, "failed": failed, "correct": correct,
                "failures": failures, "checks": checks}


def _machine(has_numba) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "numba": has_numba,
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def measure(args) -> tuple[dict, dict]:
    run = Run(args.workload, args.seed, args.fast, args.corrupt)
    probes = 0 if args.trace else 1 if args.fast else SETUP_PROBES
    setups = [run.setup_probe() for _ in range(probes)]
    rounds = []
    while True:
        rounds.append(run.round(trace=False, calibrate=not args.trace))
        if args.trace or args.fast:
            break
        elapsed = time.monotonic() - run.started
        if elapsed + rounds[-1]["duration"] > args.seconds:
            break
    if args.trace:
        rounds.append(run.round(trace=True))

    if args.trace:
        untraced, traced = rounds
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {name: statistics.median(r[name] for r in rounds)
                  for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "fast": args.fast,
        "corrupt": args.corrupt,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "machine": _machine(run.has_numba),
        "setups": setups,
        "rounds": [{k: v for k, v in r.items() if k != "layers"}
                   for r in rounds],
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true")
    ap.add_argument("--corrupt", default=None, metavar="CHECK")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "selbergkit" / "__init__.py").is_file():
        print(f"perfbench: no selbergkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        result, record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with (RESULTS / "runs.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
