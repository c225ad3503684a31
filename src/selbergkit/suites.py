"""Verification suite registry.

Each suite supplies a case list (deterministic for a given seed) and a
case runner; cases are plain dicts so the harness can fan them out across
processes.  A runner returns a `reports.Outcome`: its two sides, its
tolerance and the rule that judges them.  `run_case` is the harness: it
applies ``--tol`` to every rule but `exact`, times the runner and turns
whatever it returns or raises into a report.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time

from .field import PoleError, fe, var
from .partitions import Bipartition, P, Partition, partitions_up_to
from .reports import Outcome, VerificationReport, make_report


def _pt(lam):
    return Partition(tuple(lam))


def _capped(size, cap, flag, suite):
    """``size`` as given; a size above the suite's cap is an error."""
    if size > cap:
        raise ValueError(f"{flag} {size} is above the {suite} cap of {cap}")
    return size


# Redraws of a case before its pole is left to be reported.
_REDRAWS = 20


def _redraw_off_poles(draw, sides):
    """draw() until sides(case) raises no PoleError, at most _REDRAWS
    times; the last draw is kept either way, so a pole left is reported."""
    for _ in range(_REDRAWS):
        case = draw()
        try:
            sides(case)
        except PoleError:
            continue
        break
    return case


# ---------------------------------------------------------------------------
# exact algebra suites
# ---------------------------------------------------------------------------

def cases_cauchy(cfg):
    # every coefficient in the compared window has x-degree between |mu|
    # and cap, so a larger mu would pass with nothing compared
    cap = _capped(cfg.get("max_degree", 6), 7, "--max-degree", "cauchy")
    return [{"case_id": f"cauchy-mu{mu}", "mu": mu.parts, "cap": cap}
            for mu in (P(), P(1), P(2, 1)) if mu.size <= cap]


def run_cauchy(params, cfg):
    from .identities import _embed
    from .macdonald import macdonald_P, skew_Q
    from .symfunc import LetterSeries, Ratio, expand_in_letters, h_series_of_alphabet
    from fractions import Fraction
    mu = _pt(params["mu"])
    cap = params["cap"]
    q, t = var("q"), var("t")
    letters = ("x1", "x2", "y1", "y2")
    T = 2 * cap
    lhs = LetterSeries(letters, cap=T)
    for lam in partitions_up_to(cap, 2):
        if not lam.contains(mu):
            continue
        px = expand_in_letters(macdonald_P(lam), letters[:2])
        qy = expand_in_letters(skew_Q(lam, mu), letters[2:])
        for e1, c1 in px.terms.items():
            for e2, c2 in qy.terms.items():
                key = e1 + e2
                v = c1 * c2
                prev = lhs.terms.get(key)
                lhs.terms[key] = v if prev is None else prev + v
    rhs = expand_in_letters(macdonald_P(mu), letters[:2])
    rhs = _embed(rhs, letters, 0, T)
    for i in range(2):
        for j in range(2):
            hs = h_series_of_alphabet(Ratio(fe(1), t, q), cap)
            ker = LetterSeries(letters, cap=T)
            for m in range(cap + 1):
                e = [0, 0, 0, 0]
                e[i], e[2 + j] = m, m
                ker = ker + LetterSeries(letters, {tuple(e): Fraction(1)}, T) * hs[m]
            rhs = rhs * ker
    ok = all(fe(lhs.terms.get(e, fe(0))) == fe(rhs.terms.get(e, fe(0)))
             for e in set(lhs.terms) | set(rhs.terms)
             if e[0] + e[1] <= cap and sum(e) <= 2 * cap - mu.size)
    return Outcome(ok, True, rule="exact")


def cases_skew_sum(cfg):
    size = _capped(cfg.get("max_size", 3), 4, "--max-size", "skew-sum")
    out = []
    pool = list(partitions_up_to(size))
    for limit, name in ((False, "skew"), (True, "skewlim")):
        for lam in pool:
            for mu in pool:
                for k in range(max(len(lam), 1), 4):
                    for l in range(max(k if limit else 1, len(mu)), 4):
                        out.append({"case_id": f"{name}-{lam}-{mu}-{k}-{l}",
                                    "lam": lam.parts, "mu": mu.parts,
                                    "k": k, "l": l, "limit": limit})
    return out


def run_skew_sum(params, cfg):
    from .identities import verify_skew_sum, verify_skew_sum_limit
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    check = verify_skew_sum_limit if params["limit"] else verify_skew_sum
    chk = check(lam, mu, params["k"], params["l"])
    return Outcome(chk.equal, True, rule="exact")


def cases_eval_sym(cfg):
    size = _capped(cfg.get("max_size", 3), 4, "--max-size", "eval-sym")
    out = []
    pool = list(partitions_up_to(size))
    for lam in pool:
        for mu in pool:
            n = max(len(lam), len(mu), 1)
            out.append({"case_id": f"evalsym-{lam}-{mu}-{n}",
                        "lam": lam.parts, "mu": mu.parts, "n": n,
                        "general": False, "m": n})
            m = max(len(mu), 1)
            nn = max(len(lam), 1)
            out.append({"case_id": f"gevalsym-{lam}-{mu}-{nn}-{m}",
                        "lam": lam.parts, "mu": mu.parts, "n": nn,
                        "general": True, "m": m})
    return out


def run_eval_sym(params, cfg):
    from .macdonald import (
        evaluation_symmetry_check, generalized_evaluation_symmetry_check,
    )
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    if params["general"]:
        ok = generalized_evaluation_symmetry_check(lam, mu, params["n"],
                                                   params["m"])
    else:
        ok = evaluation_symmetry_check(lam, mu, params["n"])
    return Outcome(ok, True, rule="exact")


def cases_an_cauchy(cfg):
    cap = _capped(cfg.get("max_degree", 3), 4, "--max-degree",
                  "an-cauchy")
    shapes = [(1, [2], "I"), (1, [2], "II"),
              (2, [1, 1], "I"), (2, [1, 1], "II"),
              (2, [1, 2], "I"), (2, [1, 2], "II"), (2, [1, 2], "II-pleth"),
              (2, [1], "I-inf"),
              (3, [1, 1, 2], "I"), (3, [1, 1, 2], "II")]
    out = []
    for n, ks, variant in shapes:
        out.append({"case_id": f"ancauchy-n{n}-k{'.'.join(map(str, ks))}-{variant}",
                    "n": n, "ks": ks, "variant": variant, "cap": cap,
                    "mu": ()})
    out.append({"case_id": "ancauchy-n1-k2-I-mu21", "n": 1, "ks": [2],
                "variant": "I", "cap": cap, "mu": (2, 1)})
    return out


def run_an_cauchy(params, cfg):
    from .identities import an_cauchy_check
    chk = an_cauchy_check(params["n"], params["ks"], _pt(params["mu"]),
                          cap=params["cap"], variant=params["variant"])
    return Outcome(chk.equal, True, rule="exact",
                   notes=chk.note and f"first differing monomial {chk.note}")


# ---------------------------------------------------------------------------
# bridge suite
# ---------------------------------------------------------------------------

def cases_zbifund(cfg):
    rng = random.Random(cfg.get("seed", 7))
    out = []
    for k in (1, 2):
        for lam in partitions_up_to(2, k):
            for mu in partitions_up_to(2):
                b = 0.8 + 0.3 * rng.random()
                Pv = 0.4 + 0.2 * rng.random()
                al = 0.5 + 0.3 * rng.random()
                out.append({"case_id": f"zselb-k{k}-{lam}-{mu}",
                            "k": k, "lam": lam.parts, "mu": mu.parts,
                            "b": b, "P": Pv, "alpha": al})
    return out


def run_zbifund(params, cfg):
    from .identities import verify_Z_Selb
    lhs, rhs = verify_Z_Selb(params["k"], _pt(params["lam"]),
                             _pt(params["mu"]), params["b"], params["P"],
                             params["alpha"])
    return Outcome(lhs, rhs, 1e-8)


# ---------------------------------------------------------------------------
# quadrature suites
# ---------------------------------------------------------------------------

def cases_aflt(cfg):
    out = []
    for k in (1, 2):
        for g in (0.5, 1.0, 1.5):
            for lam in (P(), P(1), P(2), P(1, 1)):
                if len(lam) > k:
                    continue
                for mu in (P(), P(1), P(2), P(1, 1)):
                    out.append({"case_id": f"aflt-k{k}-g{g}-{lam}-{mu}",
                                "k": k, "gamma": g, "lam": lam.parts,
                                "mu": mu.parts})
    return out


def run_aflt(params, cfg):
    from .closedform import aflt_rhs
    from .quadrature import aflt_lhs
    k, g = params["k"], params["gamma"]
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    lhs = aflt_lhs(k, lam, mu, 2.0, 2.0, g, npts=cfg.get("quad_points", 48))
    rhs = aflt_rhs(k, lam, mu, 2.0, 2.0, g)
    return Outcome(lhs, rhs, 1e-6)


def cases_an_selberg(cfg):
    # gamma = 1/2 sits outside the admissibility window |gamma| < 1/k_n
    # when k_n = 2, so that shape runs at gamma = 0.4
    return [
        {"case_id": "ansel-k11", "ks": [1, 1], "gamma": 0.5,
         "alphas": [1.0, 1.0], "beta": 1.0},
        {"case_id": "ansel-k12", "ks": [1, 2], "gamma": 0.4,
         "alphas": [1.1, 1.3], "beta": 1.2},
    ]


def run_an_selberg(params, cfg):
    from .closedform import an_selberg_rhs
    lhs = _chain_norm(tuple(params["ks"]), tuple(params["alphas"]),
                      params["beta"], params["gamma"], None,
                      cfg.get("quad_points", 24))
    rhs = an_selberg_rhs(2, params["ks"], params["alphas"],
                         params["beta"], params["gamma"]).real
    return Outcome(lhs, rhs, 1e-4)


def cases_an_aflt(cfg):
    out = []
    for ks, g in (([1, 1], 0.5), ([1, 2], 0.4)):
        for lam in (P(), P(1)):
            for mu in (P(), P(1)):
                out.append({"case_id": f"anaflt-k{ks[0]}{ks[1]}-{lam}-{mu}",
                            "ks": ks, "gamma": g, "lam": lam.parts,
                            "mu": mu.parts})
    return out


@functools.lru_cache(maxsize=None)
def _chain_norm(ks, alphas, beta, gamma_, companion, points, tol=1e-8):
    """The rank-2 chain integral without integrand; cached, since the
    averages of one shape all divide by it."""
    from .quadrature import QuadratureSpec, an_selberg_lhs
    spec = QuadratureSpec(points=points, tol=tol, max_refine=2)
    val, _ = an_selberg_lhs(2, list(ks), list(alphas), beta, gamma_,
                            companion=companion, spec=spec)
    return val


def _chain_ratio(ks, alphas, beta, gamma_, integrand, points, tol=1e-8,
                 companion=None):
    """The rank-2 chain average of ``integrand``: its chain integral over
    the cached `_chain_norm` of the same shape."""
    from .quadrature import QuadratureSpec, an_selberg_lhs
    spec = QuadratureSpec(points=points, tol=tol, max_refine=2)
    num, _ = an_selberg_lhs(2, list(ks), list(alphas), beta, gamma_,
                            integrand=integrand, companion=companion,
                            spec=spec)
    return num / _chain_norm(tuple(ks), tuple(alphas), beta, gamma_,
                             companion, points, tol)


def run_an_aflt(params, cfg):
    from .closedform import an_aflt_rhs
    from .quadrature import jack_pair_callback
    ks, g = params["ks"], params["gamma"]
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    alphas, beta = [1.2, 1.4], 1.3
    cb = jack_pair_callback(2, lam, mu, beta, g)
    lhs = _chain_ratio(ks, alphas, beta, g, cb, cfg.get("quad_points", 24))
    rhs = an_aflt_rhs(2, ks, alphas, beta, g, lam, mu).real
    return Outcome(lhs, rhs, 1e-4)


def cases_an_alt(cfg):
    g = 0.5
    b1 = 0.75
    return [{"case_id": f"analt-{lam}-{mu}", "ks": [1, 1], "gamma": g,
             "beta1": b1, "beta2": g + 1 - b1,
             "lam": lam.parts, "mu": mu.parts}
            for lam in (P(), P(1)) for mu in (P(), P(1))]


def run_an_alt(params, cfg):
    from .closedform import an_alt_avg_rhs
    from .quadrature import _jack_on_grid
    ks, g = params["ks"], params["gamma"]
    b1, b2 = params["beta1"], params["beta2"]
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    alphas = [1.2, 1.4]

    def cb(levels):
        return (_jack_on_grid(lam, levels[0], g, None)
                * _jack_on_grid(mu, levels[1], g, None))

    lhs = _chain_ratio(ks, alphas, None, g, cb, cfg.get("quad_points", 32),
                       companion=(b1, b2))
    rhs = an_alt_avg_rhs(2, ks, alphas, b1, b2, g, lam, mu).real
    return Outcome(lhs, rhs, 1e-4)


# ---------------------------------------------------------------------------
# gamma = 1 complex suites
# ---------------------------------------------------------------------------

def cases_complex_schur(cfg):
    rng = random.Random(cfg.get("seed", 7))
    out = []
    for i in range(50):
        k = rng.choice([1, 2])
        ell = rng.randint(k, 4)
        lam = rng.choice([p for p in partitions_up_to(3)
                          if len(p) <= max(ell - k, 0)] or [P()])
        ys = [round(0.4 + rng.random(), 3) + round(0.3 * rng.random(), 3) * 1j
              for _ in range(ell)]
        zs = [round(rng.uniform(0, 2), 3) + round(0.4 * rng.random(), 3) * 1j
              for _ in range(k)]
        out.append({"case_id": f"cschur-{i:02d}", "k": k, "ell": ell,
                    "lam": lam.parts,
                    "ys": [(y.real, y.imag) for y in ys],
                    "zs": [(z.real, z.imag) for z in zs]})
    return out


def run_complex_schur(params, cfg):
    from .complexschur import thm_schur_closed, thm_schur_residue_oracle
    ys = [complex(a, b) for a, b in params["ys"]]
    zs = [complex(a, b) for a, b in params["zs"]]
    lam = _pt(params["lam"])
    lhs = thm_schur_residue_oracle(params["k"], params["ell"], ys, zs, lam)
    rhs = thm_schur_closed(params["k"], params["ell"], ys, zs, lam)
    return Outcome(lhs, rhs, 1e-9)


def cases_beta_schur(cfg):
    rng = random.Random(cfg.get("seed", 11))
    out = []
    i = 0
    for k in (1, 2, 3):
        for lam in partitions_up_to(3):
            beta = round(0.3 + 0.5 * rng.random(), 3) \
                + round(0.4 * rng.random(), 3) * 1j
            zs = [round(rng.uniform(0.2, 1.8), 3)
                  + round(0.3 * rng.random(), 3) * 1j for _ in range(k)]
            out.append({"case_id": f"bschur-{i:02d}", "k": k,
                        "lam": lam.parts, "beta": (beta.real, beta.imag),
                        "zs": [(z.real, z.imag) for z in zs]})
            i += 1
    return out


def run_beta_schur(params, cfg):
    from .complexschur import beta_schur_exact_sum, beta_schur_rhs
    zs = [complex(a, b) for a, b in params["zs"]]
    beta = complex(*params["beta"])
    lam = _pt(params["lam"])
    lhs = beta_schur_exact_sum(params["k"], zs, beta, lam)
    rhs = beta_schur_rhs(params["k"], zs, beta, lam)
    return Outcome(lhs, rhs, 1e-9)


def cases_nplusone(cfg):
    """Cases are drawn only inside the identity's domain, as in
    `cases_recursion`: a case on which a Pochhammer denominator of either
    side vanishes is redrawn.  Each denominator factor of the ratio's
    closed form is a sum of consecutive alphas (with beta when the sum
    runs to alpha_n) plus an integer; seeds 1182 and 1185 drew an alpha of
    exactly 2 for np1-ratio-1 and np1-ratio-2."""
    rng = random.Random(cfg.get("seed", 13))
    shapes = [(1, [1]), (2, [1, 2]), (3, [1, 2, 3])]
    return [_redraw_off_poles(
                functools.partial(_draw_nplusone_case, rng, kind, i, n, ks),
                _nplusone_sides)
            for kind in ("recursion", "ratio")
            for i, (n, ks) in enumerate(shapes)]


def _draw_nplusone_case(rng, kind, i, n, ks):
    pool = list(partitions_up_to(2))
    if kind == "recursion":
        lams = [rng.choice(pool).parts for _ in range(n)]
        zs = [round(rng.uniform(0.5, 2.0), 3) + 0.2j * round(rng.random(), 3)
              for _ in range(ks[0])]
        return {"case_id": f"np1-rec-{i}", "kind": kind,
                "n": n, "ks": ks, "lams": lams,
                "alphas": [round(1.5 + 0.4 * rng.random(), 3)
                           for _ in range(n)],
                "beta": round(0.5 + 0.3 * rng.random(), 3),
                "zs": [(z.real, z.imag) for z in zs]}
    lams = [rng.choice(pool).parts for _ in range(n + 1)]
    if len(_pt(lams[0])) > ks[0]:
        lams[0] = ()
    return {"case_id": f"np1-ratio-{i}", "kind": kind,
            "n": n, "ks": ks, "lams": lams,
            "alphas": [round(1.6 + 0.4 * rng.random(), 3) for _ in range(n)],
            "beta": round(0.55 + 0.3 * rng.random(), 3)}


def _nplusone_sides(params):
    """recursion: the rank-n sector integral by the proof's recursion
    against its closed form; ratio: the closed form at the staircase over
    its normalisation against the Schur-product average."""
    from .closedform import nplusone_rhs
    from .complexschur import (
        an_one_staircase, complex_an_aflt_closed, complex_an_aflt_recursive,
        staircase_exponents,
    )
    n, ks = params["n"], params["ks"]
    alphas, beta = params["alphas"], params["beta"]
    lams = [_pt(x) for x in params["lams"]]
    if params["kind"] == "recursion":
        zs = [complex(a, b) for a, b in params["zs"]]
        return (complex_an_aflt_recursive(n, ks, zs, lams, alphas, beta),
                complex_an_aflt_closed(n, ks, zs, lams, alphas, beta))
    # z_i = lam^(1)_i + k_1 - i
    zs = [complex(v) for v in staircase_exponents(lams[0], ks[0])]
    full = complex_an_aflt_closed(n, ks, zs, lams[1:], alphas, beta)
    norm = an_one_staircase(n, ks, alphas, beta)
    return full / norm, nplusone_rhs(n, ks, alphas, beta, lams)


def run_nplusone(params, cfg):
    lhs, rhs = _nplusone_sides(params)
    return Outcome(lhs, rhs, 1e-8)


# ---------------------------------------------------------------------------
# Macdonald torus suites
# ---------------------------------------------------------------------------

def cases_mac_limit(cfg):
    out = []
    for n in (1, 2):
        for lam in (P(), P(1), P(2)):
            for mu in (P(), P(1), P(2)):
                if len(lam) > n:
                    continue
                out.append({"case_id": f"maclim-n{n}-{lam}-{mu}",
                            "n": n, "lam": lam.parts, "mu": mu.parts})
    return out


def run_mac_limit(params, cfg):
    from .closedform import mac_aflt_rhs
    from .quadrature import mac_aflt_lhs
    n = params["n"]
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    a, b, q, t = 0.45, 0.35, 0.3, 0.4
    npts = cfg.get("quad_points", 384 if n == 1 else 160)
    lhs = mac_aflt_lhs(n, lam, mu, a, b, q, t, npts=npts)
    rhs = mac_aflt_rhs(n, lam, mu, a, b, q, t)
    return Outcome(lhs, rhs, 1e-7)


def cases_ortho(cfg):
    out = []
    for n in (1, 2):
        for lam in partitions_up_to(2):
            if len(lam) > n or not lam:
                continue
            out.append({"case_id": f"ortho-n{n}-{lam}", "n": n,
                        "lam": lam.parts, "mu": lam.parts})
    out.append({"case_id": "ortho-offdiag", "n": 2, "lam": (2,),
                "mu": (1, 1)})
    return out


def run_ortho(params, cfg):
    from .closedform import ortho_norm_rhs
    from .quadrature import ortho_norm_lhs
    n = params["n"]
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    q, t = 0.3, 0.4
    lhs = ortho_norm_lhs(n, lam, mu, q, t, npts=cfg.get("quad_points", 128))
    rhs = ortho_norm_rhs(n, lam, q, t) if lam == mu else 0.0
    return Outcome(lhs, rhs, 1e-8)


# ---------------------------------------------------------------------------
# elliptic suites
# ---------------------------------------------------------------------------

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
    rng = random.Random(cfg.get("seed", 5))
    out = []
    for i in range(3):
        ts, p, q = _elliptic_params(rng)
        out.append({"case_id": f"ebeta-{i}", "ts": ts, "p": p, "q": q,
                    "t": 0.4})
    return out


def run_elliptic_beta(params, cfg):
    from .closedform import elliptic_selberg_rhs
    from .elliptic import elliptic_beta_lhs
    lhs = elliptic_beta_lhs(params["ts"], params["t"], params["p"],
                            params["q"], npts=cfg.get("quad_points", 160))
    rhs = elliptic_selberg_rhs(1, params["ts"], params["t"], params["p"],
                               params["q"])
    return Outcome(lhs, rhs, 1e-8)


def cases_thm92(cfg):
    rng = random.Random(cfg.get("seed", 5))
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
    rng = random.Random(cfg.get("seed", 5))
    out = []
    for i, (lr, mr) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        ts, p, q = _elliptic_params(rng, lr, mr)
        out.append({"case_id": f"eaflt-{i}", "ts": ts, "p": p, "q": q,
                    "t": 0.4, "lam": (lr,) if lr else (),
                    "mu": (mr,) if mr else ()})
    return out


def run_elliptic_aflt(params, cfg):
    from .closedform import eaflt_rhs
    from .elliptic import eaflt_lhs_n1
    bl = Bipartition(_pt(params["lam"]), P())
    bm = Bipartition(_pt(params["mu"]), P())
    lhs = eaflt_lhs_n1(bl, bm, params["t"], params["ts"], params["p"],
                       params["q"], npts=cfg.get("quad_points", 160))
    rhs = eaflt_rhs(1, bl, bm, params["t"], params["ts"], params["p"],
                    params["q"])
    return Outcome(lhs, rhs, 1e-7)


def cases_jackson(cfg):
    rng = random.Random(cfg.get("seed", 5))
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


# ---------------------------------------------------------------------------
# section-7 suites
# ---------------------------------------------------------------------------

def cases_recursion(cfg):
    """Cases are drawn only inside the identity's domain.  The excluded set
    is where a Pochhammer denominator of either side vanishes (the
    correction product included): each denominator factor is a sum of
    consecutive alphas, with beta when the sum runs to alpha_n, plus
    integer multiples of gamma and of 1.  The 3-decimal draws meet such a
    hyperplane in about 1 of 10,000 cases: seed 105 drew alpha_1 - gamma
    = 1.582 - 0.582 = 1 for recR-00, seed 1428 alpha_1 = 2 at gamma = 1
    for recG1-3.  A drawn case on one is redrawn, which leaves the draws
    of every case before it as they were."""
    rng = random.Random(cfg.get("seed", 17))
    draws = ([(f"recR-{i:02d}", "recR") for i in range(20)]
             + [(f"recG1-{i}", "gamma1") for i in range(6)])
    return [_redraw_off_poles(
                functools.partial(_draw_recursion_case, rng, case_id, kind),
                _recursion_sides)
            for case_id, kind in draws]


def _draw_recursion_case(rng, case_id, kind):
    """recR: the recursion in k at a drawn gamma; gamma1: the gamma = 1
    closed form, whose first partition may be one part longer."""
    general = kind == "recR"
    n = rng.choice([1, 2, 3] if general else [1, 2])
    ks = sorted(rng.randint(1, 3) for _ in range(n))
    pool = list(partitions_up_to(2))
    longest = ks[0] - 1 if general else ks[0]
    lams = [rng.choice([p for p in pool if len(p) <= longest] or [P()])]
    lams += [rng.choice(pool) for _ in range(n)]
    return {"case_id": case_id, "n": n, "ks": ks,
            "lams": [x.parts for x in lams],
            "alphas": [round(1.5 + 0.5 * rng.random(), 3) for _ in range(n)],
            "beta": round(0.6 + 0.3 * rng.random(), 3),
            "gamma": round(0.45 + 0.2 * rng.random(), 3) if general else 1.0,
            "kind": kind}


def _recursion_sides(params):
    """The two sides of a recursion case; PoleError off the identity's
    domain.  recR: R at (k, alpha, beta) against R at (k - 1, alpha_1 +
    gamma, beta + gamma) times the correction product; gamma1: R at
    gamma = 1 against its closed form."""
    from .closedform import (
        _A_rs, _div, gamma_one_rhs, gamma_pochhammer, r_function,
    )
    n, ks = params["n"], params["ks"]
    lams = [_pt(x) for x in params["lams"]]
    alphas, beta, g = params["alphas"], params["beta"], params["gamma"]
    if params["kind"] == "gamma1":
        return (r_function(n, ks, alphas, beta, 1.0, lams),
                gamma_one_rhs(n, ks, alphas, beta, lams))
    lhs = r_function(n, ks, alphas, beta, g, lams)
    shifted = r_function(n, [k - 1 for k in ks],
                         [alphas[0] + g] + alphas[1:], beta + g, g, lams)
    ks_ext = [0] + list(ks) + [1 - beta / g]
    eps = [1] * n + [-1]
    corr = 1.0 + 0.0j
    for s in range(1, n + 2):
        A1s = _A_rs(1, s, ks_ext, alphas, n, g)
        es = eps[s - 1]
        corr *= gamma_pochhammer(-es * A1s + es * ks[0] * g, g, lams[s - 1])
        corr = _div(corr, gamma_pochhammer(-es * A1s + es * (ks[0] - 1) * g,
                                           g, lams[s - 1]))
    return lhs, shifted * corr


def run_recursion(params, cfg):
    return Outcome(*_recursion_sides(params), 1e-10)


def cases_guess(cfg):
    return [{"case_id": "guess-fails-middle-(1)"}]


def run_guess(params, cfg):
    """The naive product formula fails when a middle partition is nonzero:
    the chain average must miss it by more than the tolerance."""
    from .closedform import r_function
    g = 0.5
    alphas, beta = [1.4, 1.6], 1.3
    lams = [P(), P(1), P()]

    def cb(levels):
        t1, t2 = levels
        # P_(1)[t^(2) - t^(1)] = sum t^(2) - sum t^(1)
        return sum(t2) - sum(t1)

    lhs = _chain_ratio([1, 1], alphas, beta, g, cb,
                       cfg.get("quad_points", 32), tol=1e-9)
    rhs = r_function(2, [1, 1], alphas, beta, g, lams).real
    return Outcome(lhs, rhs, 1e-2, "must_differ")


def cases_hyper(cfg):
    # gamma = 1 makes the real companion density non-integrable, so the
    # non-uniform display is reached as the gamma -> 1 limit of the 4F3
    # form, anchored by quadrature at real gamma < 1
    return [{"case_id": "hyper-3f2-n2", "kind": "3f2"},
            {"case_id": "hyper-4f3", "kind": "4f3", "gamma": 0.5},
            {"case_id": "hyper-4f3-g09", "kind": "4f3", "gamma": 0.9},
            {"case_id": "hyper-4f3-gamma1-u2pos", "kind": "4f3-g1",
             "u2": 1},
            {"case_id": "hyper-4f3-gamma1-u2zero", "kind": "4f3-g1",
             "u2": 0}]


def run_hyper(params, cfg):
    from .closedform import seven_one_rhs, seven_two_gamma_one, seven_two_rhs
    points = cfg.get("quad_points", 32)
    if params["kind"] == "3f2":
        g = 0.5
        us = [1, 1]
        mu = P(1)
        alphas = [1.7, 1.9]
        beta = 1.3
        shift = beta / g - 1

        def cb(levels):
            (x,), (y,) = levels
            # P_(u1)[t1] P_(u2)[t2 - t1] P_mu[t2 + beta/g - 1] at gamma
            p2 = _jack_row_diff(us[1], y, x, g)
            pmu = y + shift
            return x ** us[0] * p2 * pmu

        lhs = _chain_ratio([1, 1], [alphas[0] - us[0], alphas[1] - us[1]],
                           beta, g, cb, points, tol=1e-9)
        rhs = seven_one_rhs(2, alphas, beta, g, us, mu)
        return Outcome(lhs, rhs, 1e-4)
    alphas = [1.7, 1.9]
    u1, u3 = 1, 1
    if params["kind"] == "4f3-g1":
        # gamma -> 1 limit of the 4F3 closed form vs the non-uniform display
        u2 = params["u2"]
        b1 = 0.8
        eps = 1e-7
        g = 1.0 - eps
        b2 = g + 1 - b1
        lim = seven_two_rhs(alphas[0], alphas[1], b1, b2, g, u1, u2, u3)
        rhs = seven_two_gamma_one(alphas[0], alphas[1], b1, 2 - b1,
                                  u1, u2, u3)
        return Outcome(lim, rhs, 1e-4)
    g = params["gamma"]
    b1 = 0.8
    b2 = g + 1 - b1
    u2 = 1

    def cb(levels):
        (x,), (y,) = levels
        return x ** u1 * _jack_row_diff(u2, y, x, g) * y ** u3

    lhs = _chain_ratio([1, 1], alphas, None, g, cb, points, tol=1e-9,
                       companion=(b1, b2))
    rhs = seven_two_rhs(alphas[0], alphas[1], b1, b2, g, u1, u2, u3)
    return Outcome(lhs, rhs, 1e-4)


def _jack_row_diff(u, x, y, g):
    """P_(u)^{(1/gamma)}[x - y] for single letters, via the 2F1 sum."""
    from .coeffs import poch
    out = 0.0
    for k in range(u + 1):
        num = complex(poch(-g, k)) * complex(poch(-u, k))
        den = complex(poch(1 - g - u, k)) * math.factorial(k)
        out = out + x ** (u - k) * (y ** k) * num / den
    return out


# ---------------------------------------------------------------------------
# property rollup suite
# ---------------------------------------------------------------------------

def cases_properties(cfg):
    return [{"case_id": "props-padding"}, {"case_id": "props-transpose"},
            {"case_id": "props-guards"}, {"case_id": "props-chain-cover"},
            {"case_id": "props-torus-radius"}]


def run_properties(params, cfg):
    cid = params["case_id"]
    if cid == "props-padding":
        from .closedform import aflt_rhs, r_function
        v1 = aflt_rhs(2, P(2), P(1), 1.7, 2.2, 0.6, m=1)
        v2 = aflt_rhs(2, P(2), P(1), 1.7, 2.2, 0.6, m=3)
        d1 = abs(v1 - v2) / abs(v1)
        v3 = r_function(2, [1, 2], [1.9, 1.4], 0.7, 0.55,
                        [P(1), P(1), P(2)], ells=[1, 1, 2])
        v4 = r_function(2, [1, 2], [1.9, 1.4], 0.7, 0.55,
                        [P(1), P(1), P(2)], ells=[1, 2, 3])
        d2 = abs(v3 - v4) / abs(v3)
        return Outcome(complex(max(d1, d2)), complex(0.0), 1e-9)
    if cid == "props-transpose":
        from .identities import f_function
        t, a, q = var("t"), var("a"), var("q")
        ok = True
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(2):
                k = max(len(lam), 1) + 1
                l = max(len(mu), 1)
                lhs = f_function(lam, mu, k, l)
                rhs = f_function(mu, lam, l, k, t / (a * q))
                ok = ok and fe(lhs) == fe(rhs)
        return Outcome(ok, True, rule="exact")
    if cid == "props-guards":
        from .coeffs import ell_gamma, theta
        z, p, q = 0.4 + 0.2j, 0.3, 0.2
        r1 = abs(ell_gamma(z, p, q) * ell_gamma(p * q / z, p, q) - 1)
        r2 = abs(ell_gamma(p * z, p, q) - theta(z, q) * ell_gamma(z, p, q)) \
            / abs(ell_gamma(p * z, p, q))
        return Outcome(complex(max(r1, r2)), complex(0.0), 1e-9)
    if cid == "props-chain-cover":
        from .quadrature import (
            enumerate_chain, enumerate_companion_chain, region_covering_check,
        )
        rng = random.Random(cfg.get("seed", 7))
        ok = region_covering_check(enumerate_chain(2, [1, 2], 0.4),
                                   2, [1, 2], rng)
        ok = ok and region_covering_check(
            enumerate_companion_chain(2, [1, 1], 0.75, 0.5), 2, [1, 1], rng,
            companion=True)
        return Outcome(ok, True, rule="exact")
    if cid == "props-torus-radius":
        from .quadrature import mac_aflt_lhs
        a, b, q, t = 0.45, 0.35, 0.3, 0.4
        v1 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, rho=(1 + b) / 2,
                          npts=256)
        v2 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, rho=(3 + b) / 4,
                          npts=256)
        return Outcome(v1, v2, 1e-9)
    raise ValueError(cid)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "cauchy": (cases_cauchy, run_cauchy),
    "skew-sum": (cases_skew_sum, run_skew_sum),
    "eval-sym": (cases_eval_sym, run_eval_sym),
    "an-cauchy": (cases_an_cauchy, run_an_cauchy),
    "zbifund": (cases_zbifund, run_zbifund),
    "aflt": (cases_aflt, run_aflt),
    "an-selberg": (cases_an_selberg, run_an_selberg),
    "an-aflt": (cases_an_aflt, run_an_aflt),
    "an-alt": (cases_an_alt, run_an_alt),
    "complex-schur": (cases_complex_schur, run_complex_schur),
    "beta-schur": (cases_beta_schur, run_beta_schur),
    "nplusone": (cases_nplusone, run_nplusone),
    "mac-limit": (cases_mac_limit, run_mac_limit),
    "ortho": (cases_ortho, run_ortho),
    "elliptic-beta": (cases_elliptic_beta, run_elliptic_beta),
    "thm92": (cases_thm92, run_thm92),
    "elliptic-aflt": (cases_elliptic_aflt, run_elliptic_aflt),
    "jackson": (cases_jackson, run_jackson),
    "connection": (cases_connection, run_connection),
    "skew-limit": (cases_skew_limit, run_skew_limit),
    "recursion": (cases_recursion, run_recursion),
    "guess": (cases_guess, run_guess),
    "hyper": (cases_hyper, run_hyper),
    "properties": (cases_properties, run_properties),
}


def run_case(suite: str, params: dict, cfg: dict) -> VerificationReport:
    """Run one case and report it; a raised exception becomes a failed
    report, so the run goes on."""
    _, runner = SUITES[suite]
    tol = cfg.get("tol")
    started = time.perf_counter()
    try:
        out = runner(params, cfg)
        if tol is not None and out.rule != "exact":
            out = dataclasses.replace(out, tol=tol)
    except PoleError as exc:
        out = Outcome("pole", "pole", rule="raised", notes=f"pole: {exc}")
    except Exception as exc:
        out = Outcome("error", "error", rule="raised",
                      notes=f"error: {type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - started) * 1000
    return make_report(suite, params["case_id"],
                       {k: v for k, v in params.items() if k != "case_id"},
                       out, ms)
