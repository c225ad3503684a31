"""Verification reports: per-case records emitted as JSON lines.

A case runner returns an `Outcome`: what it measured and the rule that
judges it.  `make_report` is the one place a rule is applied; it always
records the measured deviation, whether the case passed or not.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass
class VerificationReport:
    suite: str
    case_id: str
    params: dict
    lhs: str
    rhs: str
    abs_err: float
    rel_err: float
    passed: bool
    runtime_ms: float
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "VerificationReport":
        return cls(**json.loads(line))


RULES = ("rel_tol", "must_differ", "converges", "extrapolates", "exact",
         "raised")


@dataclass(frozen=True)
class Outcome:
    """A runner's measurement and its pass rule.

    rel_tol      lhs and rhs are numbers; pass iff the deviation <= tol.
    must_differ  as rel_tol, but pass iff the deviation > tol.
    converges    lhs is a sequence of approximations of rhs; pass iff their
                 deviations strictly decrease and the last is <= tol.
    extrapolates lhs is a sequence of (s, approximation) pairs, s falling
                 towards 0; pass iff the approximations' deviations
                 strictly decrease and the value at s = 0 of the
                 polynomial through the pairs is within tol of rhs.  That
                 value is reported as lhs.
    exact        pass iff lhs == rhs, compared exactly (a field comparison
                 already made is passed as its verdict against True).
    raised       the runner raised; lhs and rhs name what ("pole" or
                 "error") and notes hold the message.  Never passes.

    The deviation is |lhs - rhs| / |rhs|, or |lhs - rhs| for |rhs| <= 1e-30.
    """
    lhs: object
    rhs: object
    tol: float = 0.0
    rule: str = "rel_tol"
    notes: str = ""

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")


def format_value(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.15g}{v.imag:+.15g}j"
    return str(v)


def _deviation(lhs, rhs):
    lv, rv = complex(lhs), complex(rhs)
    abs_err = abs(lv - rv)
    return abs_err, abs_err / abs(rv) if abs(rv) > 1e-30 else abs_err


def _value_at_zero(pairs):
    """The value at s = 0 of the polynomial through the (s, v) pairs, by
    Neville's scheme."""
    s = [float(a) for a, _ in pairs]
    v = [complex(b) for _, b in pairs]
    for k in range(1, len(s)):
        for i in range(len(s) - k):
            v[i] = (s[i + k] * v[i] - s[i] * v[i + 1]) / (s[i + k] - s[i])
    return v[0]


def make_report(suite, case_id, params, outcome: Outcome,
                runtime_ms) -> VerificationReport:
    """Apply the outcome's rule and build the report."""
    lhs, rhs, tol, rule = outcome.lhs, outcome.rhs, outcome.tol, outcome.rule
    if rule in ("exact", "raised"):
        passed = rule == "exact" and bool(lhs == rhs)
        abs_err = rel_err = 0.0 if passed else float("nan")
        if rule == "exact":
            lhs = rhs = "equal" if passed else "unequal"
    elif rule in ("converges", "extrapolates"):
        if rule == "converges":
            vals, lhs = lhs, lhs[-1]
        else:
            vals, lhs = [v for _, v in lhs], _value_at_zero(lhs)
        devs = [_deviation(v, rhs)[1] for v in vals]
        abs_err, rel_err = _deviation(lhs, rhs)
        passed = (all(a > b for a, b in zip(devs, devs[1:]))
                  and rel_err <= tol)
    else:
        abs_err, rel_err = _deviation(lhs, rhs)
        passed = rel_err <= tol if rule == "rel_tol" else rel_err > tol
    return VerificationReport(
        suite=suite, case_id=case_id,
        params={k: format_value(v) for k, v in params.items()},
        lhs=format_value(lhs), rhs=format_value(rhs),
        abs_err=abs_err, rel_err=rel_err, passed=passed,
        runtime_ms=runtime_ms, notes=outcome.notes)
