"""Command-line verification harness.

Subcommands: `verify <suite>|all`, `eval <formula>`, `list`.  Reports are
JSON lines (one VerificationReport per line); the process exits 0 iff all
cases pass.  A JSON config file may set any of the VERIFY_KEYS; explicit
flags win.  Bad input gets one line on stderr and exit code 2: a config
file that is not a JSON object, an unknown config key, a setting of the
wrong type, a negative size, fewer than one quadrature point or job, a
size above a suite's cap, an eval flag the formula does not read, a
malformed eval value, an eval --k or --alpha list of the wrong length, a
negative eval --k or --n, and a closed form that rejects its parameters or
meets a pole or a zero division.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .partitions import P
from .suites import SUITES, run_case


# the eval flags with their defaults, and the flags each formula reads
EVAL_DEFAULTS = {"k": "1", "n": 1, "alpha": "1", "beta": 1.0, "gamma": 1.0,
                 "lam": "", "mu": "", "a": 0.45, "b": 0.35, "q": 0.3,
                 "t": 0.4, "p": 0.1, "ts": ""}
EVAL_READS = {
    "selberg": ("k", "alpha", "beta", "gamma"),
    "aflt": ("k", "alpha", "beta", "gamma", "lam", "mu"),
    "an-selberg": ("k", "alpha", "beta", "gamma"),
    "an-one": ("k", "alpha", "beta"),
    "an-aflt": ("k", "alpha", "beta", "gamma", "lam", "mu"),
    "nplusone": ("k", "alpha", "beta", "lam"),
    "mac-aflt": ("n", "lam", "mu", "a", "b", "q", "t"),
    "ortho": ("n", "lam", "q", "t"),
    "elliptic-selberg": ("n", "ts", "t", "p", "q"),
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="selbergkit")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", help="suite name, or 'all'")
    v.add_argument("--config", help="JSON config file mirroring flags")
    v.add_argument("--max-degree", type=int, default=None)
    v.add_argument("--max-size", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--quad-points", type=int, default=None)
    v.add_argument("--jobs", type=int, default=None)
    v.add_argument("--report", type=str, default=None,
                   help="append JSON-lines reports to this path")

    e = sub.add_parser("eval", help="evaluate a closed form")
    e.add_argument("formula", help="|".join(EVAL_READS))
    # the parsed value is None when the flag is not given; cmd_eval then
    # puts in the default from EVAL_DEFAULTS
    for name, default in EVAL_DEFAULTS.items():
        e.add_argument(f"--{name}", type=type(default), default=None,
                       help=f"default {default!r}")

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


# the verify settings, each the dest of a flag and a key a --config may set,
# with its type and least value
VERIFY_KEYS = {"max_degree": (int, 0), "max_size": (int, 0),
               "seed": (int, None), "tol": ((int, float), None),
               "quad_points": (int, 1), "jobs": (int, 1)}


def _checked(where, key, val):
    """``val`` for setting ``key``; a wrong type or a value below the
    setting's least one is a ValueError naming ``where``."""
    kind, least = VERIFY_KEYS[key]
    if isinstance(val, bool) or not isinstance(val, kind):
        want = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: expected {want}, got {val!r}")
    if least is not None and val < least:
        raise ValueError(f"{where}: {val} is below the least value {least}")
    return val


def _config_from_args(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"--config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"--config {args.config}: expected a JSON "
                             f"object, got {type(loaded).__name__}")
        for key, val in loaded.items():
            if key not in VERIFY_KEYS:
                raise ValueError(f"--config {args.config}: unknown key "
                                 f"{key!r} (known: {', '.join(VERIFY_KEYS)})")
            cfg[key] = _checked(f"--config {args.config}: {key!r}", key, val)
    for key in VERIFY_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _checked("--" + key.replace("_", "-"), key, val)
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
    try:
        for name in names:
            gen, _ = SUITES[name]
            for params in gen(cfg):
                tasks.append((name, params, cfg))
    except ValueError as exc:
        print(f"verify {args.suite}: {exc}", file=sys.stderr)
        return 2
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


# formulas of one integral of k variables, and those of a chain of n
# integrals with one k and one alpha per integral (n = the number of ks)
_SINGLE = ("selberg", "aflt")
_CHAIN = ("an-selberg", "an-one", "an-aflt", "nplusone")


def _check_sizes(f, args, ks, alphas) -> None:
    """A ValueError naming the flag when --k, --alpha or --n does not fit
    formula f."""
    if args.n < 0:
        raise ValueError(f"--n {args.n}: the rank must be at least 0")
    if any(k < 0 for k in ks):
        raise ValueError(f"--k {args.k!r}: each k must be at least 0")
    if f in _SINGLE and (len(ks), len(alphas)) != (1, 1):
        raise ValueError(f"--k {args.k!r} --alpha {args.alpha!r}: {f} "
                         "takes one k and one alpha")
    if f in _CHAIN and (not ks or len(alphas) != len(ks)):
        raise ValueError(f"--k {args.k!r} --alpha {args.alpha!r}: {f} "
                         "takes at least one k and one alpha per k")


def _closed_form(f, args, lam, mu, ks, alphas, ts):
    """The value of formula f, or None for an unknown formula."""
    from . import closedform as cf
    if f == "selberg":
        return cf.selberg_rhs(ks[0], alphas[0], args.beta, args.gamma)
    if f == "aflt":
        return cf.aflt_rhs(ks[0], lam, mu, alphas[0], args.beta, args.gamma)
    if f == "an-selberg":
        return cf.an_selberg_rhs(len(ks), ks, alphas, args.beta, args.gamma)
    if f == "an-one":
        return cf.an_one_rhs(len(ks), ks, alphas, args.beta)
    if f == "an-aflt":
        return cf.an_aflt_rhs(len(ks), ks, alphas, args.beta, args.gamma,
                              lam, mu)
    if f == "nplusone":
        lams = [lam] * (len(ks) + 1) if args.lam else [P()] * (len(ks) + 1)
        return cf.nplusone_rhs(len(ks), ks, alphas, args.beta, lams)
    if f == "mac-aflt":
        return cf.mac_aflt_rhs(args.n, lam, mu, args.a, args.b, args.q,
                               args.t)
    if f == "ortho":
        return cf.ortho_norm_rhs(args.n, lam, args.q, args.t)
    if f == "elliptic-selberg":
        if len(ts) != 6:
            raise ValueError("needs --ts with six comma-separated values; "
                             f"got {len(ts)}")
        try:
            return cf.elliptic_selberg_rhs(args.n, ts, args.t, args.p,
                                           args.q)
        except ValueError as exc:
            raise ValueError(
                f"--ts {args.ts!r} with --n {args.n} --t {args.t} "
                f"--p {args.p} --q {args.q}: {exc}") from None
    return None


def _read_flags(f, args) -> None:
    """Fill in the defaults of the eval flags not given; a ValueError names
    every flag given that formula f does not read.  An unknown formula
    counts as reading every flag; cmd_eval reports it after the parse."""
    unread = [name for name in EVAL_DEFAULTS
              if getattr(args, name) is not None
              and name not in EVAL_READS.get(f, EVAL_DEFAULTS)]
    if unread:
        given = " ".join(f"--{name}" for name in unread)
        reads = " ".join(f"--{name}" for name in EVAL_READS[f])
        raise ValueError(f"{given}: not read by {f}, which reads {reads}")
    for name, default in EVAL_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def cmd_eval(args) -> int:
    f = args.formula
    try:
        _read_flags(f, args)
        lam = _flag(args, "lam", _parse_partition)
        mu = _flag(args, "mu", _parse_partition)
        ks = _flag(args, "k", _parse_ints)
        alphas = _flag(args, "alpha", _parse_floats)
        ts = _flag(args, "ts", _parse_floats)
        _check_sizes(f, args, ks, alphas)
        val = _closed_form(f, args, lam, mu, ks, alphas, ts)
    except (ValueError, ArithmeticError) as exc:  # PoleError included
        print(f"eval {f}: {exc}", file=sys.stderr)
        return 2
    if val is None:
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
