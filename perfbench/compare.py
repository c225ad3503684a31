"""Compare two sets of benchmark results, for example a parent and a change.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a runs.jsonl file written by run.py, or a directory
holding one.  Only untraced, full-size runs are compared.  For every
workload and end-to-end metric the table gives each side's median and
quartiles (statistics.quantiles, n=4), the ratio of the medians with its
base, and a verdict against the metric's bound in BENCHMARK.json:

- `worse` / `better`: the medians differ by more than the bound;
- `within bound`: they differ by less;
- `unresolved`: a side's quartile spread is wider than the bound, and the
  runs do not all read better (or all worse) than every run of the other.

It also prints the share of failed operations on each side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> dict:
    """workload -> metric -> list of values, plus `_ops` -> [attempted,
    failed] and `_runs` -> number of runs."""
    p = Path(path)
    files = sorted(p.rglob("runs.jsonl")) if p.is_dir() else [p]
    out: dict = {}
    for f in files:
        with f.open() as fh:
            records = [json.loads(line) for line in fh]
        for rec in records:
            if rec["trace"] or rec["fast"] or rec["corrupt"]:
                continue
            wl = out.setdefault(rec["workload"], {"_ops": [0, 0], "_runs": 0})
            res = rec["result"]
            wl["_runs"] += 1
            wl["_ops"][0] += res["attempted"]
            wl["_ops"][1] += res["failed"]
            for name, m in res["metrics"].items():
                wl.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, lower_is_better) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if lower_is_better else -1
    change = sign * (nm - bm) / bm  # > 0 means worse
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if spread > bound:
        if sign * max(new) < sign * min(base):
            return "better (every run)"
        if sign * min(new) > sign * max(base):
            return "worse (every run)"
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if change > bound:
        return f"worse by {change:.1%} > bound {bound:.0%}"
    if change < -bound:
        return f"better by {-change:.1%}"
    return f"within bound {bound:.0%}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in base or name not in new:
            print(f"{name}: no results on {'base' if name not in base else 'new'} side")
            continue
        print(f"== {name}  (runs: base {base[name]['_runs']}, "
              f"new {new[name]['_runs']})")
        for m in spec["end_to_end"]:
            b, n = base[name].get(m["name"]), new[name].get(m["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            print(f"  {m['name']:<15} base {bq[1]:10.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                  f"  new {nq[1]:10.4g} [{nq[0]:.4g}, {nq[2]:.4g}] {m['unit']:<3}"
                  f"  new/base {nq[1] / bq[1]:.3f}  "
                  f"{verdict(b, n, m['bound'], m['better'] == 'lower')}")
        for side, data in (("base", base[name]), ("new", new[name])):
            att, fail = data["_ops"]
            print(f"  failed ops {side}: {fail}/{att}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
