"""The exact-algebra suites: `cauchy`, `skew-sum`, `eval-sym` and
`an-cauchy`, identities in Q(q,t) that are compared in the field.

`suites` imports this module the first time one of these suites is
called.  Their cases run in `identities`, `macdonald`, `symfunc` and
`field`; numpy and the numeric modules (`kernels`, `quadrature`,
`closedform`, `elliptic`) stay unloaded.
"""

from __future__ import annotations

from .field import fe, var
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
    / (x_i y_j; q)_inf in x = (x1, x2), y = (y1, y2).

    Both sides are symmetric in x and in y, so they are compared only at
    x^a y^b with a and b non-increasing.  There the left side's coefficient
    is the m-coefficient of P_lam at a times that of Q_{lam/mu} =
    (b_lam / b_mu) P_{lam/mu} at b, summed over lam.  The right side is
    a LetterSeries under the unit-weight cap 2 cap, its kernels built as
    in `an-cauchy`.
    """
    from .identities import _kernel_series, _mono
    from .macdonald import _b_ratio, macdonald_P, skew_P
    from .symfunc import _scalar_eq, expand_in_letters
    mu = _pt(params["mu"])
    cap = params["cap"]
    q, t = var("q"), var("t")
    letters = ("x1", "x2", "y1", "y2")
    wcap = ((1, 1, 1, 1), 2 * cap)

    def two_part(sf):
        return [((nu.part(1), nu.part(2)), c)
                for nu, c in sf.coeffs.items() if len(nu) <= 2]

    lhs = {}
    for lam in partitions_up_to(cap, 2):
        if not lam.contains(mu):
            continue
        px = two_part(macdonald_P(lam))
        qy = two_part(skew_P(lam, mu))
        b = _b_ratio(lam, mu)
        qy = [(e, c * b) for e, c in qy]
        for e1, c1 in px:
            for e2, c2 in qy:
                key = e1 + e2
                v = c1 * c2
                prev = lhs.get(key)
                lhs[key] = v if prev is None else prev + v
    rhs = expand_in_letters(macdonald_P(mu), letters, letters[:2], wcap)
    for x in letters[:2]:
        for y in letters[2:]:
            U = _mono(letters, {x: 1, y: 1}, wcap)
            rhs = rhs * _kernel_series(t, fe(1), U, q)
    ok = all(_scalar_eq(lhs.get(e, 0), rhs.coeff(e))
             for e in set(lhs) | set(rhs.terms)
             if e[0] >= e[1] and e[2] >= e[3]
             and e[0] + e[1] <= cap and sum(e) <= 2 * cap - mu.size)
    return Outcome(ok, True, rule="exact")


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
    cap = _capped(cfg.get("max_degree", 3), 7, "--max-degree",
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
