"""The numeric suites outside the elliptic family: chain quadrature
against the Selberg, AFLT and A_n closed forms, the gamma = 1 complex
Schur identities, the Macdonald torus integrals, the section-7 recursion
and hypergeometric forms, the paper's equivalent forms and the property
rollup.

`suites` imports this module the first time one of these suites is
called.
"""

from __future__ import annotations

import functools
import random

from .field import fe, var
from .partitions import P, partitions_up_to
from .reports import Outcome
from .suites import _pt, _redraw_off_poles


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
                      cfg.get("quad_points", 16))
    rhs = an_selberg_rhs(2, params["ks"], params["alphas"],
                         params["beta"], params["gamma"]).real
    return Outcome(lhs, rhs, 1e-8)


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
    lhs = _chain_ratio(ks, alphas, beta, g, cb, cfg.get("quad_points", 16))
    rhs = an_aflt_rhs(2, ks, alphas, beta, g, lam, mu).real
    return Outcome(lhs, rhs, 1e-8)


def cases_an_alt(cfg):
    g = 0.5
    b1 = 0.75
    return [{"case_id": f"analt-{lam}-{mu}", "ks": [1, 1], "gamma": g,
             "beta1": b1, "beta2": g + 1 - b1,
             "lam": lam.parts, "mu": mu.parts}
            for lam in (P(), P(1)) for mu in (P(), P(1))]


def run_an_alt(params, cfg):
    from .closedform import an_alt_avg_rhs
    from .macdonald import jack_eval
    ks, g = params["ks"], params["gamma"]
    b1, b2 = params["beta1"], params["beta2"]
    lam, mu = _pt(params["lam"]), _pt(params["mu"])
    alphas = [1.2, 1.4]

    def cb(levels):
        return (jack_eval(lam, levels[0], g, None)
                * jack_eval(mu, levels[1], g, None))

    lhs = _chain_ratio(ks, alphas, None, g, cb, cfg.get("quad_points", 32),
                       companion=(b1, b2))
    rhs = an_alt_avg_rhs(2, ks, alphas, b1, b2, g, lam, mu).real
    return Outcome(lhs, rhs, 1e-8)


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
    from .macdonald import jack_P, plethysm_eval
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
            p2 = plethysm_eval(jack_P(P(us[1])), lambda k: y ** k - x ** k,
                               {"gamma": g})
            pmu = y + shift
            return x ** us[0] * p2 * pmu

        lhs = _chain_ratio([1, 1], [alphas[0] - us[0], alphas[1] - us[1]],
                           beta, g, cb, points, tol=1e-9)
        rhs = seven_one_rhs(2, alphas, beta, g, us, mu)
        return Outcome(lhs, rhs, 1e-8)
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
        # P_(u2)[t2 - t1] at gamma
        p2 = plethysm_eval(jack_P(P(u2)), lambda k: y ** k - x ** k,
                           {"gamma": g})
        return x ** u1 * p2 * y ** u3

    lhs = _chain_ratio([1, 1], alphas, None, g, cb, points, tol=1e-9,
                       companion=(b1, b2))
    rhs = seven_two_rhs(alphas[0], alphas[1], b1, b2, g, u1, u2, u3)
    return Outcome(lhs, rhs, 1e-8)


# ---------------------------------------------------------------------------
# equivalent forms: declared cases, case id -> function of cfg -> Outcome
# ---------------------------------------------------------------------------

def _compare(lhs, rhs, tol):
    """A table entry: two zero-argument sides, judged by rel_tol at tol, or
    compared in the field for tol "exact"."""
    if tol == "exact":
        return lambda cfg: Outcome(fe(lhs()) == fe(rhs()), True, rule="exact")
    return lambda cfg: Outcome(lhs(), rhs(), tol)


@functools.lru_cache(maxsize=None)
def _forms():
    """The paper's equivalent forms of its theorems, each against the form
    the other suites use or against a direct computation."""
    from .closedform import an_alt_norm_rhs, an_one_alt, an_one_rhs, hyper_qphi
    from .complexschur import (
        beta_contour_closed, complex_schur, split_expansion,
    )
    from .macdonald import macdonald_P, principal_spec_n, single_row_xminusy
    from .quadrature import SectorSpec, sector_integral
    from .symfunc import Difference, Letters, Ratio, plethysm
    bind = functools.partial
    t = var("t")
    table = {}
    # the gamma = 1 normalisation in the k_{n+1} := 1 - beta convention
    for n, ks in ((1, [1]), (2, [1, 2]), (3, [1, 2, 2])):
        args = (n, ks, [1.8 - 0.1 * r for r in range(n)], 0.6)
        table[f"an-one-alt-n{n}"] = _compare(
            bind(an_one_alt, *args), bind(an_one_rhs, *args), 1e-12)
    # the companion-chain normalisation's two final products
    for ks in ([1, 1], [1, 2]):
        args = (2, ks, [1.2, 1.4], 0.75, 0.75, 0.5)
        table[f"an-alt-norm-k{ks[0]}{ks[1]}"] = _compare(
            bind(an_alt_norm_rhs, *args),
            bind(an_alt_norm_rhs, *args, alt_final_product=True), 1e-12)
    # P_(r)[x - y] as a terminating 2phi1
    x_minus_y = Difference(Letters([var("x")]), Letters([var("y")]))
    x, y, q, tt = 0.8, 0.3, 0.23, 0.41
    for r in range(1, 5):
        table[f"single-row-{r}-plethysm"] = _compare(
            bind(single_row_xminusy, r, var("x"), var("y")),
            lambda r=r: plethysm(macdonald_P(P(r)), x_minus_y), "exact")
        table[f"single-row-{r}-qphi"] = _compare(
            bind(single_row_xminusy, r, x, y, q, tt),
            lambda r=r: x ** r * hyper_qphi(
                [1 / tt, q ** -r], [q ** (1 - r) / tt], q, y * q / x),
            1e-11)
    # the principal specialisation P_lam[(1 - t^n)/(1 - t)]
    for n in (2, 3):
        for lam in partitions_up_to(3):
            table[f"principal-spec-{lam}-n{n}"] = _compare(
                bind(principal_spec_n, lam, n),
                lambda lam=lam, n=n: plethysm(macdonald_P(lam),
                                              Ratio(fe(1), t ** n, t)),
                "exact")
    # the sector beta integral by quadrature on the sector border
    spec = SectorSpec(n_ray=400, n_arc=400, eps0=1e-9)
    for i, (a, b) in enumerate(((1.7, 0.4 + 0.2j), (2.2, 0.3 - 0.1j))):
        table[f"sector-beta-{i}"] = _compare(
            lambda a=a, b=b: sector_integral(
                lambda z: z ** (a - 1) * (z - 1) ** (b - 1), spec),
            bind(beta_contour_closed, a, b), 1e-8)
    # S(x; z) expanded over the m-subsets of the points
    xs = [0.9 + 0.1j, 0.45 + 0.05j, 1.3 + 0.15j]
    zs = [1.2 + 0.1j, 0.3 + 0.25j, 1.7]
    for m in range(4):
        table[f"split-expansion-m{m}"] = _compare(
            bind(split_expansion, xs, zs, m), bind(complex_schur, xs, zs),
            1e-10)
    return table


def cases_forms(cfg):
    return [{"case_id": cid} for cid in _forms()]


def run_forms(params, cfg):
    return _forms()[params["case_id"]](cfg)


# ---------------------------------------------------------------------------
# property rollup suite
# ---------------------------------------------------------------------------

def _props_padding(cfg):
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


def _props_transpose(cfg):
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


def _props_guards(cfg):
    from .coeffs import ell_gamma, theta
    z, p, q = 0.4 + 0.2j, 0.3, 0.2
    r1 = abs(ell_gamma(z, p, q) * ell_gamma(p * q / z, p, q) - 1)
    r2 = abs(ell_gamma(p * z, p, q) - theta(z, q) * ell_gamma(z, p, q)) \
        / abs(ell_gamma(p * z, p, q))
    return Outcome(complex(max(r1, r2)), complex(0.0), 1e-9)


def _props_chain_cover(cfg):
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


def _props_torus_radius(cfg):
    from .quadrature import mac_aflt_lhs
    a, b, q, t = 0.45, 0.35, 0.3, 0.4
    v1 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, rho=(1 + b) / 2, npts=256)
    v2 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, rho=(3 + b) / 4, npts=256)
    return Outcome(v1, v2, 1e-9)


_PROPERTIES = {
    "props-padding": _props_padding,
    "props-transpose": _props_transpose,
    "props-guards": _props_guards,
    "props-chain-cover": _props_chain_cover,
    "props-torus-radius": _props_torus_radius,
}


def cases_properties(cfg):
    return [{"case_id": cid} for cid in _PROPERTIES]


def run_properties(params, cfg):
    return _PROPERTIES[params["case_id"]](cfg)


PAIRS = {
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
    "recursion": (cases_recursion, run_recursion),
    "guess": (cases_guess, run_guess),
    "hyper": (cases_hyper, run_hyper),
    "forms": (cases_forms, run_forms),
    "properties": (cases_properties, run_properties),
}
