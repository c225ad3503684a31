"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs run.py with `--fast` (one small suite, its first
case, the workload's reference checks) untraced and traced, and checks that
the last stdout line has exactly the keys correct/attempted/failed/metrics
and that the metric names and units are those of BENCHMARK.json.  It then
makes one reference check per workload wrong with `--corrupt` and checks
that the run still ends normally with that check counted as the one failed
operation.  Last, it runs a copy of the benchmark in a directory without
the program's sources and checks that it exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CORRUPT = {
    "exact-algebra": "macdonald-P2-m11-sympy",
    "elliptic-torus": "ellgamma-shift-0",
    "quadrature-closedform": "selberg-closedform-k2-g1.5",
}


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "1", *args], cwd=root, stdout=subprocess.PIPE,
        text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok, what):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = bench("--workload", wl, "--trace", str(trace), "--fast")
            check(code == 0 and out is not None
                  and set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace={trace}: exit 0 and one result object")
            if out is None:
                continue
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            check(units == expected[trace],
                  f"{wl} trace={trace}: metric names and units match "
                  f"BENCHMARK.json")
            check(out["correct"] and out["failed"] == 0
                  and out["attempted"] >= 1,
                  f"{wl} trace={trace}: {out['attempted']} attempted, "
                  f"{out['failed']} failed, correct={out['correct']}")
        code, out = bench("--workload", wl, "--trace", "0", "--fast",
                          "--corrupt", CORRUPT[wl])
        check(code == 0 and out is not None and out["correct"]
              and out["failed"] == 1,
              f"{wl}: a wrong reference value for {CORRUPT[wl]} is one "
              f"failed operation, and the run ends normally")

    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, out = bench("--workload", "exact-algebra", "--trace", "0",
                      root=bare)
    shutil.rmtree(bare)
    check(code != 0 and out is None,
          f"without the program's sources: exit {code}, no result printed")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
