"""The elliptic suites: torus integrals of elliptic-gamma weights times
interpolation functions against their closed forms, the Jackson sum, the
connection coefficients and the p -> 0 limit of the skew interpolation
function.

`suites` imports this module the first time one of these suites is
called.  Everything they run lives in `elliptic`, `kernels` and `coeffs`;
`closedform`, `quadrature`, `macdonald` and `symfunc` stay unloaded.
"""

from __future__ import annotations

import random

from .partitions import Bipartition, P
from .reports import Outcome
from .suites import _pt


def _elliptic_params(rng, lam_row=0, mu_row=0):
    """Sample balanced parameters keeping the R* pole ladders separated:
    |t2| < |q|^{lam_1}, |t6| < |q|^{mu_1}, p fixed by balancing."""
    for _ in range(20):
        q = 0.42 + 0.06 * rng.random()
        t1 = 0.35 + 0.1 * rng.random()
        t3 = 0.35 + 0.1 * rng.random()
        t4 = 0.3 + 0.1 * rng.random()
        t5 = 0.35 + 0.1 * rng.random()
        t2 = (0.3 + 0.1 * rng.random()) * q ** max(lam_row, 1)
        t6 = (0.35 + 0.1 * rng.random()) * q ** max(mu_row, 1)
        p = t1 * t2 * t3 * t4 * t5 * t6 / q
        if 1e-8 < p < 0.25:
            return [t1, t2, t3, t4, t5, t6], p, q
    raise RuntimeError("parameter sampling failed")


def cases_elliptic_beta(cfg):
    rng = random.Random(cfg["seed"])
    out = []
    for i in range(3):
        ts, p, q = _elliptic_params(rng)
        out.append({"case_id": f"ebeta-{i}", "ts": ts, "p": p, "q": q,
                    "t": 0.4})
    return out


def run_elliptic_beta(params, cfg):
    from .elliptic import elliptic_beta_lhs, elliptic_selberg_rhs
    lhs = elliptic_beta_lhs(params["ts"], params["t"], params["p"],
                            params["q"], npts=cfg.get("quad_points", 160))
    rhs = elliptic_selberg_rhs(1, params["ts"], params["t"], params["p"],
                               params["q"])
    return Outcome(lhs, rhs, 1e-8)


def cases_thm92(cfg):
    rng = random.Random(cfg["seed"])
    out = []
    for i, (bl, bm) in enumerate([
            ((1, ()), (0, ())), ((0, ()), (1, ())), ((1, ()), (1, ())),
            ((2, ()), (1, ()))]):
        lr, mr = bl[0], bm[0]
        ts, p, q = _elliptic_params(rng, lr, mr)
        out.append({"case_id": f"thm92-{i}", "ts": ts, "p": p, "q": q,
                    "t": 0.4, "lam": (lr,) if lr else (),
                    "mu": (mr,) if mr else ()})
    return out


def run_thm92(params, cfg):
    from .elliptic import thm92_lhs_n1, thm92_rhs_n1
    bl = Bipartition(_pt(params["lam"]), P())
    bm = Bipartition(_pt(params["mu"]), P())
    lhs = thm92_lhs_n1(bl, bm, params["ts"], params["t"], params["p"],
                       params["q"], npts=cfg.get("quad_points", 192))
    rhs = thm92_rhs_n1(bl, bm, params["ts"], params["t"], params["p"],
                       params["q"])
    return Outcome(lhs, rhs, 1e-7)


def cases_elliptic_aflt(cfg):
    rng = random.Random(cfg["seed"])
    out = []
    for i, (lr, mr) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        ts, p, q = _elliptic_params(rng, lr, mr)
        out.append({"case_id": f"eaflt-{i}", "ts": ts, "p": p, "q": q,
                    "t": 0.4, "lam": (lr,) if lr else (),
                    "mu": (mr,) if mr else ()})
    return out


def run_elliptic_aflt(params, cfg):
    from .elliptic import eaflt_lhs_n1, eaflt_rhs
    bl = Bipartition(_pt(params["lam"]), P())
    bm = Bipartition(_pt(params["mu"]), P())
    lhs = eaflt_lhs_n1(bl, bm, params["t"], params["ts"], params["p"],
                       params["q"], npts=cfg.get("quad_points", 160))
    rhs = eaflt_rhs(1, bl, bm, params["t"], params["ts"], params["p"],
                    params["q"])
    return Outcome(lhs, rhs, 1e-7)


def cases_jackson(cfg):
    rng = random.Random(cfg["seed"])
    out = []
    for i, (lam, nu) in enumerate([((1,), ()), ((2,), ()), ((2,), (1,)),
                                   ((1,), (1,)), ((3,), (1,))]):
        a = 0.5 + 0.1 * rng.random()
        b = 0.28 + 0.08 * rng.random()
        c = 0.38 + 0.08 * rng.random()
        d = 0.58 + 0.08 * rng.random()
        out.append({"case_id": f"jackson-{i}", "lam": lam, "nu": nu,
                    "a": a, "b": b, "c": c, "d": d,
                    "p": 0.1, "q": 0.3, "t": 0.4})
    return out


def run_jackson(params, cfg):
    from .elliptic import jackson_sum_check
    e = params["a"] * params["p"] * params["q"] / (
        params["b"] * params["c"] * params["d"])
    tot, rhs = jackson_sum_check(
        _pt(params["lam"]), _pt(params["nu"]), params["a"], params["b"],
        params["c"], params["d"], e, params["q"], params["t"], params["p"])
    return Outcome(tot, rhs, 1e-10)


def cases_connection(cfg):
    return [{"case_id": f"cc-{i}", "lam": lam, "lam2": lam2,
             "p": 0.2, "q": 0.3, "t": 0.4}
            for i, (lam, lam2) in enumerate([((1,), ()), ((2,), ()),
                                             ((1,), (1,)), ((2,), (1,))])]


def run_connection(params, cfg):
    from .elliptic import connection_check
    bl = Bipartition(_pt(params["lam"]), _pt(params["lam2"]))
    lhs, tot = connection_check(bl, 0.83 + 0.2j, 0.52, 0.37, 0.31,
                                params["t"], params["p"], params["q"])
    return Outcome(lhs, tot, 1e-10)


def cases_skew_limit(cfg):
    return [{"case_id": "skewlimit-(1)", "lam": (1,)}]


def run_skew_limit(params, cfg):
    from .elliptic import mac_side_limit, skew_limit_value
    lam = _pt(params["lam"])
    xs = [0.6 + 0.1j]
    c, d, a, b, q, t = 0.35, 0.55, 0.6, 0.8, 0.3, 0.4
    target = mac_side_limit(lam, xs, c, d, a, q, t)
    # the deviation falls like p^(1/4), so the values are extrapolated to
    # p = 0 as a polynomial in s = p^(1/4)
    pairs = [(p ** 0.25, skew_limit_value(lam, xs, c, d, a, b, q, t, p))
             for p in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)]
    return Outcome(pairs, target, 1e-6, "extrapolates")


PAIRS = {
    "elliptic-beta": (cases_elliptic_beta, run_elliptic_beta),
    "thm92": (cases_thm92, run_thm92),
    "elliptic-aflt": (cases_elliptic_aflt, run_elliptic_aflt),
    "jackson": (cases_jackson, run_jackson),
    "connection": (cases_connection, run_connection),
    "skew-limit": (cases_skew_limit, run_skew_limit),
}
