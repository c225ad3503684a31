"""Command-line verification harness.

Subcommands: `verify <suite>|all`, `eval <formula>`, `list`.  Reports are
JSON lines (one VerificationReport per line); the process exits 0 iff all
cases pass.  A JSON config file may mirror any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .partitions import P
from .suites import SUITES, run_case


def _build_parser():
    ap = argparse.ArgumentParser(prog="selbergkit")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", help="suite name, or 'all'")
    v.add_argument("--config", help="JSON config file mirroring flags")
    v.add_argument("--max-degree", type=int, default=None)
    v.add_argument("--max-size", type=int, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--k", type=str, default=None,
                   help="comma-separated cardinalities, e.g. 1,2")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--quad-points", type=int, default=None)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--report", type=str, default=None,
                   help="append JSON-lines reports to this path")
    v.add_argument("--precision", choices=("double", "extended"),
                   default="double")
    v.add_argument("--rho", type=float, default=None)
    v.add_argument("--theta", type=float, default=None)
    v.add_argument("--radius", type=float, default=None)
    v.add_argument("--epsilon0", type=float, default=None)

    e = sub.add_parser("eval", help="evaluate a closed form")
    e.add_argument("formula", help="selberg|aflt|an-selberg|an-one|an-aflt|"
                                   "nplusone|mac-aflt|ortho|elliptic-selberg")
    e.add_argument("--k", type=str, default="1")
    e.add_argument("--n", type=int, default=1)
    e.add_argument("--alpha", type=str, default="1")
    e.add_argument("--beta", type=float, default=1.0)
    e.add_argument("--gamma", type=float, default=1.0)
    e.add_argument("--lam", type=str, default="")
    e.add_argument("--mu", type=str, default="")
    e.add_argument("--a", type=float, default=0.45)
    e.add_argument("--b", type=float, default=0.35)
    e.add_argument("--q", type=float, default=0.3)
    e.add_argument("--t", type=float, default=0.4)
    e.add_argument("--p", type=float, default=0.1)
    e.add_argument("--ts", type=str, default=None,
                   help="six comma-separated elliptic parameters")

    sub.add_parser("list", help="list available suites")
    return ap


def _parse_ints(s):
    return [int(x) for x in s.split(",") if x != ""]


def _parse_floats(s):
    return [float(x) for x in s.split(",") if x != ""]


def _parse_partition(s):
    return P(tuple(int(x) for x in s.split(",") if x != ""))


def _flag(args, name, parse):
    """Parse the value of --name; a ValueError names the flag and its value."""
    text = getattr(args, name)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"--{name} {text!r}: {exc}") from None


def _config_from_args(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key in ("max_degree", "max_size", "n", "seed", "tol", "quad_points",
                "jobs", "precision", "rho", "theta", "radius", "epsilon0"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "k", None):
        cfg["k"] = _flag(args, "k", _parse_ints)
    cfg.setdefault("seed", 7)
    cfg.setdefault("jobs", 1)
    return cfg


def _run_one(task):
    suite, params, cfg = task
    return run_case(suite, params, cfg)


def cmd_verify(args) -> int:
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"verify {args.suite}: {exc}", file=sys.stderr)
        return 2
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            print(f"unknown suite: {name}", file=sys.stderr)
            print(f"available: {', '.join(SUITES)}", file=sys.stderr)
            return 2
    tasks = []
    for name in names:
        gen, _ = SUITES[name]
        for params in gen(cfg):
            tasks.append((name, params, cfg))
    jobs = cfg.get("jobs", 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_one, tasks))
    else:
        reports = [_run_one(t) for t in tasks]
    reports.sort(key=lambda r: (r.suite, r.case_id))
    sink = open(args.report, "a") if args.report else None
    npass = 0
    for rep in reports:
        line = rep.to_json()
        if sink:
            sink.write(line + "\n")
        status = "PASS" if rep.passed else "FAIL"
        extra = f" rel_err={rep.rel_err:.2e}" if rep.rel_err == rep.rel_err \
            else ""
        print(f"[{status}] {rep.suite}/{rep.case_id}{extra} "
              f"({rep.runtime_ms:.0f} ms) {rep.notes}")
        npass += rep.passed
    if sink:
        sink.close()
    print(f"{npass}/{len(reports)} cases passed")
    return 0 if npass == len(reports) else 1


def cmd_eval(args) -> int:
    from . import closedform as cf
    f = args.formula
    try:
        lam = _flag(args, "lam", _parse_partition)
        mu = _flag(args, "mu", _parse_partition)
        ks = _flag(args, "k", _parse_ints)
        alphas = _flag(args, "alpha", _parse_floats)
        ts = _flag(args, "ts", _parse_floats) if args.ts else []
    except ValueError as exc:
        print(f"eval {f}: {exc}", file=sys.stderr)
        return 2
    if f == "selberg":
        val = cf.selberg_rhs(ks[0], alphas[0], args.beta, args.gamma)
    elif f == "aflt":
        val = cf.aflt_rhs(ks[0], lam, mu, alphas[0], args.beta, args.gamma)
    elif f == "an-selberg":
        val = cf.an_selberg_rhs(len(ks), ks, alphas, args.beta, args.gamma)
    elif f == "an-one":
        val = cf.an_one_rhs(len(ks), ks, alphas, args.beta)
    elif f == "an-aflt":
        val = cf.an_aflt_rhs(len(ks), ks, alphas, args.beta, args.gamma,
                             lam, mu)
    elif f == "nplusone":
        lams = [lam] * (len(ks) + 1) if args.lam else [P()] * (len(ks) + 1)
        val = cf.nplusone_rhs(len(ks), ks, alphas, args.beta, lams)
    elif f == "mac-aflt":
        val = cf.mac_aflt_rhs(args.n, lam, mu, args.a, args.b, args.q,
                              args.t)
    elif f == "ortho":
        val = cf.ortho_norm_rhs(args.n, lam, args.q, args.t)
    elif f == "elliptic-selberg":
        if len(ts) != 6:
            print("eval elliptic-selberg needs --ts with six comma-separated "
                  f"values; got {len(ts)}", file=sys.stderr)
            return 2
        try:
            val = cf.elliptic_selberg_rhs(args.n, ts, args.t, args.p, args.q)
        except ValueError as exc:
            print(f"eval elliptic-selberg: --ts {args.ts!r} with --n {args.n} "
                  f"--t {args.t} --p {args.p} --q {args.q}: {exc} "
                  "(t^(2n-2) t1...t6 must equal p q)", file=sys.stderr)
            return 2
    else:
        print(f"unknown formula: {f}", file=sys.stderr)
        return 2
    vc = complex(val)
    if abs(vc.imag) < 1e-14 * max(1.0, abs(vc.real)):
        print(f"{vc.real:.12g}")
    else:
        print(f"{vc.real:.12g}{vc.imag:+.12g}j")
    return 0


def cmd_list() -> int:
    for name in SUITES:
        print(name)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "eval":
        return cmd_eval(args)
    return cmd_list()


if __name__ == "__main__":
    sys.exit(main())
