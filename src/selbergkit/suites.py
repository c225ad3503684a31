"""Verification suite registry and harness.

Each suite supplies a case list (deterministic for a given seed) and a
case runner; cases are plain dicts so the harness can fan them out across
processes.  A runner returns a `reports.Outcome`: its two sides, its
tolerance and the rule that judges them.  `run_case` is the harness: it
applies ``--tol`` to every rule but `exact`, times the runner and turns
whatever it returns or raises into a report.

The cases and runners live in three family modules, `suites_exact`,
`suites_elliptic` and `suites_numeric`, each with a `PAIRS` table.
`SUITES` holds one deferred (cases, runner) pair per suite, and a family
module is imported the first time one of its suites is called, so a
process that runs only the elliptic suites never compiles the exact or
numeric ones, nor the modules only they reach.
"""

from __future__ import annotations

import dataclasses
import time
from importlib import import_module

from .errors import PoleError
from .partitions import Partition
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
# registry
# ---------------------------------------------------------------------------

# suite -> the family module `suites_<family>` that defines it, in the order
# of `selbergkit list` and `verify all`
_FAMILY = {
    "cauchy": "exact",
    "skew-sum": "exact",
    "eval-sym": "exact",
    "an-cauchy": "exact",
    "zbifund": "numeric",
    "aflt": "numeric",
    "an-selberg": "numeric",
    "an-aflt": "numeric",
    "an-alt": "numeric",
    "complex-schur": "numeric",
    "beta-schur": "numeric",
    "nplusone": "numeric",
    "mac-limit": "numeric",
    "ortho": "numeric",
    "elliptic-beta": "elliptic",
    "thm92": "elliptic",
    "elliptic-aflt": "elliptic",
    "jackson": "elliptic",
    "connection": "elliptic",
    "skew-limit": "elliptic",
    "recursion": "numeric",
    "guess": "numeric",
    "hyper": "numeric",
    "forms": "numeric",
    "properties": "numeric",
}


def _deferred(suite, family):
    """The (cases, runner) pair of ``suite``: each looks up the pair in
    its family module's `PAIRS` when called, importing the module the
    first time."""
    module = f".suites_{family}"

    def cases(cfg):
        return import_module(module, __package__).PAIRS[suite][0](cfg)

    def runner(params, cfg):
        return import_module(module, __package__).PAIRS[suite][1](params, cfg)

    return cases, runner


SUITES = {suite: _deferred(suite, family) for suite, family in _FAMILY.items()}


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
