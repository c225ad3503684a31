"""The exact-algebra suites: `cauchy`, `skew-sum`, `eval-sym` and
`an-cauchy`, identities in Q(q,t) that are compared in the field.

`suites` imports this module the first time one of these suites is
called.  Their cases run in `identities`, `macdonald`, `symfunc` and
`field`; numpy and the numeric modules (`kernels`, `quadrature`,
`closedform`, `elliptic`) stay unloaded.
"""

from __future__ import annotations

from .partitions import P, partitions_up_to
from .reports import Outcome
from .suites import _capped, _pt


def cases_cauchy(cfg):
    # every coefficient in the compared window has x-degree between |mu|
    # and cap, so a larger mu would pass with nothing compared
    cap = _capped(cfg.get("max_degree", 6), 10, "--max-degree", "cauchy")
    return [{"case_id": f"cauchy-mu{mu}", "mu": mu.parts, "cap": cap}
            for mu in (P(), P(1), P(2, 1)) if mu.size <= cap]


def run_cauchy(params, cfg):
    """sum_lam P_lam(x) Q_{lam/mu}(y) = P_mu(x) prod_{i,j} (t x_i y_j; q)_inf
    / (x_i y_j; q)_inf in x = (x1, x2), y = (y1, y2): `an-cauchy`'s check
    at n = 1, variant I.  Every monomial of either side has x-degree equal
    to y-degree + |mu|, so its cap cap - |mu| on the y-degree is the
    x-degree cap."""
    mu = _pt(params["mu"])
    return run_an_cauchy({"n": 1, "ks": [2], "variant": "I", "mu": mu.parts,
                          "cap": params["cap"] - mu.size}, cfg)


def cases_skew_sum(cfg):
    size = _capped(cfg.get("max_size", 3), 6, "--max-size", "skew-sum")
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
    size = _capped(cfg.get("max_size", 3), 6, "--max-size", "eval-sym")
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
    cap = _capped(cfg.get("max_degree", 3), 8, "--max-degree",
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


PAIRS = {
    "cauchy": (cases_cauchy, run_cauchy),
    "skew-sum": (cases_skew_sum, run_skew_sum),
    "eval-sym": (cases_eval_sym, run_eval_sym),
    "an-cauchy": (cases_an_cauchy, run_an_cauchy),
}
