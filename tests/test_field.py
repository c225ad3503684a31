import random
from fractions import Fraction

import pytest

from selbergkit import field
from selbergkit.field import (
    FieldElement, MPoly, PoleError, eval_complex, fe, mpoly_gcd, substitute, var,
)

q, t, a = var("q"), var("t"), var("a")


def test_inverse_pair():
    assert (q / t) * (t / q) == fe(1)


def test_factor_cancellation():
    x = (1 - q ** 2) / (1 - q)
    assert x == 1 + q


def test_rational_sum():
    assert fe(Fraction(1, 2)) + fe(Fraction(1, 3)) == fe(Fraction(5, 6))


def test_division_by_zero():
    with pytest.raises(PoleError):
        q / (q - q)


def test_substitute_simple():
    assert substitute(q + t, {"t": q}) == 2 * q
    assert substitute(1 / (1 - t), {"t": fe(0)}) == fe(1)
    assert substitute((a - t) / (1 - t), {"a": fe(1)}) == fe(1)


def test_substitute_identical_vanishing():
    with pytest.raises(PoleError):
        substitute(q / (1 - t), {"t": fe(1)})


def test_eval_complex():
    assert abs(eval_complex(1 / (1 - t), {"t": 0.5}) - 2.0) < 1e-14
    assert abs(eval_complex(q * t, {"q": 0.2, "t": 0.3}) - 0.06) < 1e-15


def test_eval_pole_flag():
    with pytest.raises(PoleError):
        eval_complex(1 / (1 - t), {"t": 1.0})


def _random_fe(rng, nvars=2, nterms=2, maxdeg=2):
    gens = [q, t, a][:nvars]
    num = fe(0)
    den = fe(0)
    for _ in range(nterms):
        mono_n = fe(rng.randint(-3, 3))
        mono_d = fe(rng.randint(-3, 3))
        for g in gens:
            mono_n = mono_n * g ** rng.randint(0, maxdeg)
            mono_d = mono_d * g ** rng.randint(0, maxdeg)
        num = num + mono_n
        den = den + mono_d
    if den.is_zero():
        den = fe(1)
    if num.is_zero():
        num = fe(rng.randint(1, 3))
    return num / den


def test_ring_axioms_fuzzed():
    rng = random.Random(20240811)
    for _ in range(1000):
        x = _random_fe(rng)
        y = _random_fe(rng)
        z = _random_fe(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_subs_then_eval_matches_eval_composition():
    rng = random.Random(99)
    for _ in range(40):
        f = _random_fe(rng, nvars=3)
        g = _random_fe(rng, nvars=2)
        try:
            composed = substitute(f, {"a": g})
        except PoleError:
            continue
        pt = {"q": 0.31 + 0.12j, "t": -0.47 + 0.08j}
        try:
            gval = eval_complex(g, pt)
            lhs = eval_complex(composed, pt)
            rhs = eval_complex(f, {**pt, "a": gval})
        except PoleError:
            continue
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gcd_basic():
    f = ((1 - q ** 2) * (1 - t ** 2)).num
    g = ((1 - q * t) * (1 - q) * (1 - t)).num
    got = mpoly_gcd(f, g)
    want = ((1 - q) * (1 - t)).num
    assert got.divide_exact(want) is not None and want.divide_exact(got) is not None


def test_canonical_text_form():
    x = (1 + q) / (1 - t)
    s = str(x)
    assert "q" in s and "t" in s and "/" in s


def test_pow_negative():
    x = (1 - q) / (1 - t)
    assert x ** -2 == ((1 - t) / (1 - q)) ** 2


def test_gcd_one_sided_variable_skips_prs(monkeypatch):
    # The Macdonald Cauchy suite meets gcds of a q,t-polynomial with a
    # q-only one, both products of binomials 1 - q^a t^b.  Taking the
    # content in t first must settle them without the PRS fallback.
    def no_prs(f, g):
        raise AssertionError("PRS fallback taken")

    monkeypatch.setattr(field, "_prs_gcd", no_prs)
    f = ((1 - q ** 3) * (1 - q) * (1 - t ** 2) * (1 - q ** 2 * t)
         * (1 - q ** 3 * t ** 2)).num
    g = ((1 - q ** 4) * (1 - q ** 3) * (1 - q)).num
    want = (q ** 4 - q ** 3 - q + 1).num
    assert mpoly_gcd(f, g) == want
    assert mpoly_gcd(g, f) == want
    f = ((1 - q ** 3) * (1 - q ** 2 * t) * (1 - q * t) * (1 - q * t ** 2)).num
    assert mpoly_gcd(f, g) == (q ** 3 - 1).num


def _no_prs(f, g):
    raise AssertionError("PRS fallback taken")


def test_gcd_monomial_only_variable_skips_prs(monkeypatch):
    # g = a^5 (q;q)_5 holds a only as a monomial factor.  Once the monomial
    # contents are split off, a is one-sided and GCDHEU settles the gcd.
    monkeypatch.setattr(field, "_prs_gcd", _no_prs)
    f = g = fe(1)
    for i in range(5):
        f = f * (1 - a * q ** i)
        g = g * a * (1 - q ** (i + 1))
    f, g = f.num, g.num
    assert (len(f.terms), len(g.terms)) == (26, 12)
    assert mpoly_gcd(f, g) == MPoly.const(1)
    _check_cofactors(f, g)
    _check_cofactors(g, f)
    # a monomial part in the gcd itself
    h, _, _ = _check_cofactors((q ** 2 * (1 - q) * (1 - a * q)).num,
                               (a ** 3 * q * (1 - q) * (1 + q)).num)
    assert h == (q * (q - 1)).num


def test_ratio_h_series_skips_prs(monkeypatch):
    from selbergkit.symfunc import Ratio, h_series_of_alphabet
    monkeypatch.setattr(field, "_prs_gcd", _no_prs)
    hs = h_series_of_alphabet(Ratio(1 / a, fe(1), q), 6)
    # h_m[(1/a - 1)/(1 - q)] = (a;q)_m / (a^m (q;q)_m)
    num = den = fe(1)
    for m in range(1, 7):
        num = num * (1 - a * q ** (m - 1))
        den = den * a * (1 - q ** m)
        assert hs[m] == num / den


def test_divide_exact_quotient():
    d = ((1 - q * t) * (1 + q ** 2 - t)).num
    quo = (Fraction(2, 3) - q * t ** 2 + 5 * q ** 3).num
    assert (d * quo).divide_exact(d) == quo
    assert (d * quo).divide_exact(quo) == d
    assert MPoly().divide_exact(d) == MPoly()


def test_divide_exact_not_exact():
    assert (1 + q ** 2).num.divide_exact((1 + q).num) is None
    assert (q * t + 1).num.divide_exact((q + t).num) is None
    assert q.num.divide_exact((q * t).num) is None
    with pytest.raises(ZeroDivisionError):
        q.num.divide_exact(MPoly())


def test_divide_exact_constant_divisor():
    f = (2 * q + 4 * t).num
    assert f.divide_exact(MPoly.const(2)) == (q + 2 * t).num
    assert f.divide_exact(MPoly.const(Fraction(2, 3))) == (3 * q + 6 * t).num
    assert f.divide_exact(MPoly.const(4)) == (Fraction(1, 2) * q + t).num


def test_add_zero_operand():
    x = (1 + q) / (1 - t)
    for y in (x + 0, 0 + x, x + fe(0), fe(0) + x):
        assert y == x
        assert (y.num, y.den) == (x.num, x.den)
    z = x - x
    assert z.is_zero() and z == fe(0)
    assert z.den == MPoly.const(1)


def test_monomial_content():
    p = (q ** 2 * t + q ** 3 * t ** 2).num
    assert p.shift_down(p.monomial_content()) == (1 + q * t).num
    assert (q * t + t).num.monomial_content() == t.num.monomial_content()
    assert (1 + q).num.monomial_content() == ()
    assert MPoly().monomial_content() == ()


def _check_cofactors(f, g):
    h, cf, cg = mpoly_gcd(f, g, cofactors=True)
    assert h == mpoly_gcd(f, g)
    assert h * cf == f and h * cg == g
    return h, cf, cg


def test_gcd_cofactors_exact():
    # contents GCDHEU splits off: monomials, integers and a sign
    f = (6 * q ** 2 * t * (1 - q) * (1 + q * t) * (2 - t)).num
    g = (-4 * q * (1 - q) * (1 + q * t) * (1 + t ** 2)).num
    h, _, _ = _check_cofactors(f, g)
    assert h == (q * (q - 1) * (1 + q * t)).num
    _check_cofactors(g, f)


def test_gcd_cofactors_fraction_input():
    f = (Fraction(2, 3) * (1 - q * t) * (1 + q) - Fraction(1, 5) * q * (1 - q * t)).num
    g = (Fraction(3, 7) * (1 - q * t) * (1 - t ** 2)).num
    assert any(isinstance(c, Fraction) for c in f.terms.values())
    h, _, _ = _check_cofactors(f, g)
    assert h == (q * t - 1).num


def test_gcd_cofactors_one_sided_variable():
    f = ((1 - q ** 3) * (1 - q ** 2 * t) * (1 - q * t) * (1 - q * t ** 2)).num
    g = ((1 - q ** 4) * (1 - q ** 3) * (1 - q)).num
    h, _, _ = _check_cofactors(f, g)
    assert h == (q ** 3 - 1).num
    _check_cofactors(g, f)
    # each operand has a variable the other lacks
    _check_cofactors(f * Fraction(1, 2), (a * (1 - q ** 3) * (1 + a)).num)


def test_gcd_cofactors_trivial_gcd_returns_inputs():
    f = (1 + q * t + t ** 2).num
    g = (Fraction(1, 2) + q).num
    h, cf, cg = mpoly_gcd(f, g, cofactors=True)
    assert h == MPoly.const(1) and cf is f and cg is g


def test_gcd_cofactors_prs_fallback(monkeypatch):
    calls = []

    def prs(f, g):
        calls.append(1)
        return real_prs(f, g)

    real_prs = field._prs_gcd
    monkeypatch.setattr(field, "_gcdheu", lambda *args, **kwargs: None)
    monkeypatch.setattr(field, "_prs_gcd", prs)
    f = (Fraction(1, 2) * (1 - q * t) * (1 + q ** 2) * (3 - t)).num
    g = (-2 * (1 - q * t) * (1 + q ** 2) * (1 + q + t)).num
    h, _, _ = _check_cofactors(f, g)
    assert h == ((q * t - 1) * (1 + q ** 2)).num
    assert calls


def test_reduced_elements_carry_no_integral_fractions(monkeypatch):
    # a Fraction with denominator 1 would push later products through Fraction
    seen = []
    reduce = FieldElement._reduce

    def checked(self):
        reduce(self)
        seen.append(1)
        for p in (self.num, self.den):
            for c in p.terms.values():
                assert not (isinstance(c, Fraction) and c.denominator == 1), self

    monkeypatch.setattr(FieldElement, "_reduce", checked)
    num = MPoly({e: Fraction(c) for e, c in (2 * q + 3).num.terms.items()})
    x = FieldElement(num, (1 + t).num)
    assert x == (2 * q + 3) / (1 + t)
    y = fe(Fraction(3, 2)) * (1 - q) / (1 - t)
    z = (y * (2 + q * t) + fe(Fraction(1, 2))) / (1 - q * t)
    assert z * (1 - q * t) == y * (2 + q * t) + fe(Fraction(1, 2))
    from selbergkit.macdonald import _hall_norm_qt, _orthogonal_family
    _orthogonal_family(3, _hall_norm_qt)
    assert len(seen) > 100
