"""Reference checks computed apart from the program.

Each check compares a selbergkit result with a value the benchmark works
out on its own: Gamma and Beta products and q-Pochhammer symbols from
mpmath, a rational function simplified by sympy, and Kostka numbers counted
from semistandard tableaux here.  A check that does not hold, or raises,
is one failed operation of its workload; it never stops the run.

`corrupt` names a check whose reference value is deliberately made wrong,
so the self-test can show that such a check is counted as failed.
"""

from __future__ import annotations

import random

import mpmath

WRONG = 1.001  # factor applied to the reference of a corrupted check


def _rel(a, b) -> float:
    return abs(complex(a) - complex(b)) / abs(complex(b))


# ---------------------------------------------------------------------------
# Kostka numbers from semistandard tableaux
# ---------------------------------------------------------------------------

def partitions(n: int, largest: int | None = None):
    """Partitions of n as tuples, parts in decreasing order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _horizontal_strips(outer: tuple, size: int):
    """Partitions nu inside `outer` with outer/nu a horizontal strip."""
    rows = len(outer)

    def rec(i, left, acc):
        if i == rows:
            if left == 0:
                yield tuple(p for p in acc if p)
            return
        lower = outer[i + 1] if i + 1 < rows else 0
        for part in range(outer[i], lower - 1, -1):
            take = outer[i] - part
            if take > left:
                break
            yield from rec(i + 1, left - take, acc + (part,))

    yield from rec(0, size, ())


def kostka(lam: tuple, mu: tuple) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    The entries equal to the largest letter form a horizontal strip, so
    K(lam, mu) sums K(nu, mu minus its last part) over those strips.
    """
    if not mu:
        return 1 if not lam else 0
    return sum(kostka(nu, mu[:-1]) for nu in _horizontal_strips(lam, mu[-1]))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _selberg_mpmath(k, alpha, beta, gamma_):
    """S_k(alpha, beta, gamma) as a product of Gamma functions."""
    g = mpmath.gamma
    out = mpmath.mpf(1)
    for j in range(k):
        out *= (g(alpha + j * gamma_) * g(beta + j * gamma_)
                * g(1 + (j + 1) * gamma_)
                / (g(alpha + beta + (k + j - 1) * gamma_) * g(1 + gamma_)))
    return complex(out)


def _selberg_checks():
    from selbergkit.closedform import selberg_rhs
    from selbergkit.partitions import P
    from selbergkit.quadrature import aflt_lhs
    for k in (1, 2):
        for gamma_ in (0.5, 1.5):
            ref = _selberg_mpmath(k, 2.0, 2.0, gamma_)
            yield (f"selberg-quadrature-k{k}-g{gamma_}",
                   lambda k=k, g=gamma_: aflt_lhs(k, P(), P(), 2.0, 2.0, g),
                   ref, 1e-10)
            yield (f"selberg-closedform-k{k}-g{gamma_}",
                   lambda k=k, g=gamma_: selberg_rhs(k, 2.0, 2.0, g),
                   ref, 1e-12)


def _gauss_jacobi_checks():
    from selbergkit.quadrature import gauss_jacobi_01
    for n, p, q in ((8, 0.0, 0.0), (16, 1.5, -0.5), (24, -0.5, 2.0),
                    (48, 1.0, 1.0)):
        yield (f"gauss-jacobi-weights-n{n}-p{p}-q{q}",
               lambda n=n, p=p, q=q: float(gauss_jacobi_01(n, p, q)[1].sum()),
               complex(mpmath.beta(p + 1, q + 1)), 1e-12)


def _macdonald_m11_check():
    import sympy
    from selbergkit.macdonald import macdonald_P
    from selbergkit.partitions import P
    q, t = sympy.symbols("q t")

    def value():
        c = macdonald_P(P(2)).coeffs[P(1, 1)]
        return sympy.sympify(str(c).replace("^", "**"),
                             locals={"q": q, "t": t})

    def holds(got, wrong):
        ref = (1 + q) * (1 - t) / (1 - q * t) * (WRONG if wrong else 1)
        return sympy.cancel(got - ref) == 0

    yield ("macdonald-P2-m11-sympy", value, holds)


def _kostka_checks(family: str):
    """m-coefficients of P at q = t (Macdonald) or gamma = 1 (Jack)."""
    from selbergkit.field import fe, var
    from selbergkit.macdonald import jack_P, macdonald_P
    from selbergkit.partitions import Partition
    build, binding = ((macdonald_P, {"q": var("t")}) if family == "macdonald"
                      else (jack_P, {"gamma": fe(1)}))

    for n in range(1, 5):
        for lam in partitions(n):
            def value(lam=lam, n=n):
                coeffs = build(Partition(lam)).coeffs
                out = {}
                for mu in partitions(n):
                    c = coeffs.get(Partition(mu))
                    c = fe(0) if c is None else c.subs(binding)
                    if not c.is_const():
                        return None
                    out[mu] = c.const_value()
                return out

            def holds(got, wrong, lam=lam, n=n):
                ref = {mu: kostka(lam, mu) + (1 if wrong else 0)
                       for mu in partitions(n)}
                return got == ref

            yield (f"kostka-{family}-{''.join(map(str, lam))}", value, holds)


def _ellgamma_checks(seed: int):
    import numpy as np
    from selbergkit import kernels
    rng = random.Random(seed)
    for i in range(4):
        p, q = rng.uniform(0.05, 0.35), rng.uniform(0.05, 0.35)
        z = complex(mpmath.rect(rng.uniform(0.7, 1.3),
                                rng.uniform(0, 2 * mpmath.pi)))
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)

        def gamma_at(x, p=p, q=q, n_p=n_p, n_q=n_q):
            return complex(kernels.ellgamma_arr(np.array([x]), p, q,
                                                n_p, n_q)[0])

        yield (f"ellgamma-reflection-{i}",
               lambda z=z, p=p, q=q, g=gamma_at: g(z) * g(p * q / z),
               1.0 + 0j, 1e-10)
        theta = complex(mpmath.qp(z, q) * mpmath.qp(q / z, q))
        yield (f"ellgamma-shift-{i}",
               lambda z=z, p=p, g=gamma_at: g(p * z) / g(z), theta, 1e-10)


def _numeric(compute, ref, tol, wrong):
    ref = ref * (WRONG if wrong else 1)
    got = compute()
    err = _rel(got, ref)
    return err <= tol, f"rel_err={err:.3e} tol={tol:.0e}"


def _exact(compute, holds, wrong):
    got = compute()
    return bool(holds(got, wrong)), f"got={got}"


def checks_for(workload: str, seed: int):
    """(name, runner) pairs; runner(wrong) returns (ok, detail)."""
    if workload == "exact-algebra":
        exact = list(_macdonald_m11_check()) + list(_kostka_checks("macdonald"))
        numeric = []
    elif workload == "quadrature-closedform":
        exact = list(_kostka_checks("jack"))
        numeric = list(_selberg_checks()) + list(_gauss_jacobi_checks())
    elif workload == "elliptic-torus":
        exact = []
        numeric = list(_ellgamma_checks(seed))
    else:
        raise ValueError(f"unknown workload {workload}")
    out = [(c[0], lambda w, c=c: _numeric(*c[1:], w)) for c in numeric]
    out += [(c[0], lambda w, c=c: _exact(*c[1:], w)) for c in exact]
    return out


def run_checks(workload: str, seed: int, corrupt: str | None = None) -> list:
    results = []
    for name, runner in checks_for(workload, seed):
        try:
            ok, detail = runner(name == corrupt)
        except Exception as exc:  # a broken check is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": ok, "detail": detail})
    if corrupt is not None and corrupt not in {r["name"] for r in results}:
        raise ValueError(f"no check named {corrupt} in {workload}")
    return results
