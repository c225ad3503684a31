import math
import random
from fractions import Fraction

import pytest

from selbergkit import field
from selbergkit.field import FieldElement, MPoly, PoleError, fe, mpoly_gcd, var

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
    assert (q + t).subs({"t": q}) == 2 * q
    assert not (q + t).is_const()
    assert ((q + t) / (1 - t)).subs({"q": fe(2), "t": fe(3)}).is_const()
    assert (1 / (1 - t)).subs({"t": fe(0)}) == fe(1)
    assert ((a - t) / (1 - t)).subs({"a": fe(1)}) == fe(1)


def test_substitute_identical_vanishing():
    with pytest.raises(PoleError):
        (q / (1 - t)).subs({"t": fe(1)})


def test_eval_complex():
    assert abs((1 / (1 - t)).eval({"t": 0.5}) - 2.0) < 1e-14
    assert abs((q * t).eval({"q": 0.2, "t": 0.3}) - 0.06) < 1e-15


def test_eval_pole_flag():
    with pytest.raises(PoleError):
        (1 / (1 - t)).eval({"t": 1.0})


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
            composed = f.subs({"a": g})
        except PoleError:
            continue
        pt = {"q": 0.31 + 0.12j, "t": -0.47 + 0.08j}
        try:
            gval = g.eval(pt)
            lhs = composed.eval(pt)
            rhs = f.eval({**pt, "a": gval})
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
    assert repr(x) == f"FieldElement({s})"
    assert repr(x.num) == f"MPoly({x.num})"


def test_pow_negative():
    x = (1 - q) / (1 - t)
    assert x ** -2 == ((1 - t) / (1 - q)) ** 2


def test_gcd_of_a_one_sided_variable_operand():
    # gcds of a q,t-polynomial with a q-only one, both products of
    # binomials 1 - q^a t^b: the first operand is replaced by its content
    # in t before the PRS runs
    f = ((1 - q ** 3) * (1 - q) * (1 - t ** 2) * (1 - q ** 2 * t)
         * (1 - q ** 3 * t ** 2)).num
    g = ((1 - q ** 4) * (1 - q ** 3) * (1 - q)).num
    want = (q ** 4 - q ** 3 - q + 1).num
    assert mpoly_gcd(f, g) == want
    assert mpoly_gcd(g, f) == want
    f = ((1 - q ** 3) * (1 - q ** 2 * t) * (1 - q * t) * (1 - q * t ** 2)).num
    assert mpoly_gcd(f, g) == (q ** 3 - 1).num


def _no_prs(f, g):
    raise AssertionError("PRS gcd taken")


def test_gcd_monomial_only_variable_counts_as_one_sided():
    # g = a^5 (q;q)_5 holds a only as a monomial factor.  Once the monomial
    # contents are split off, a is one-sided, and g stands for its content
    # in a.
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


def test_gcd_is_made_primitive():
    # the operands share the integer factor 2 and differ in sign; the gcd
    # is taken primitive, with a positive leading coefficient
    u = 2 * q ** 2 * t * (t - 1)
    f, g = (-u * t * (3 * q + 2)).num, (u * (q ** 2 + 4)).num
    want = (q ** 2 * t * (t - 1)).num
    assert mpoly_gcd(f, g) == want and mpoly_gcd(g, f) == want
    _check_cofactors(f, g)


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
    for f, g in [(1 + q ** 2, 1 + q), ((q ** 40 - 1) * (1 + q * t), 1 + t),
                 (q ** 40 - 1, 2 * q - 1)]:
        assert f.num.divide_exact(g.num) is None
    with pytest.raises(ZeroDivisionError):
        q.num.divide_exact(MPoly())


def test_divide_exact_constant_divisor():
    # division is exact over Z: a quotient with a non-integer coefficient
    # is None, and rational constants divide at the FieldElement level
    f = (2 * q + 4 * t).num
    assert f.divide_exact(MPoly.const(2)) == (q + 2 * t).num
    assert f.divide_exact(MPoly.const(-2)) == (-q - 2 * t).num
    assert f.divide_exact(MPoly.const(4)) is None
    assert (1 + q).num.divide_exact((2 + 2 * q).num) is None
    x = 2 * q + 4 * t
    assert x / Fraction(2, 3) == 3 * q + 6 * t
    assert x / 4 == Fraction(1, 2) * q + t
    assert (x / 4).den == MPoly.const(2)


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
    assert _exponents((1 + q).num.monomial_content()) == ()
    assert _exponents(MPoly().monomial_content()) == ()


def _monomials(p):
    """(exponent tuple, coefficient) per term of p; the tuple is indexed by
    registration order, with trailing zeros stripped."""
    return [(field._unpack(e), c) for e, c in p.terms.items()]


def _exponents(monomial):
    """Exponent tuple of a packed monomial."""
    (e, _), = _monomials(MPoly({monomial: 1}))
    return e


def _check_cofactors(f, g):
    h, cf, cg = mpoly_gcd(f, g, cofactors=True)
    assert h == mpoly_gcd(f, g)
    assert h * cf == f and h * cg == g
    return h, cf, cg


def test_gcd_cofactors_exact():
    # contents mpoly_gcd splits off: monomials, integers and a sign
    f = (6 * q ** 2 * t * (1 - q) * (1 + q * t) * (2 - t)).num
    g = (-4 * q * (1 - q) * (1 + q * t) * (1 + t ** 2)).num
    h, _, _ = _check_cofactors(f, g)
    assert h == (q * (q - 1) * (1 + q * t)).num
    _check_cofactors(g, f)


def test_rational_constants_live_in_the_denominator():
    # an element with rational constants holds them in den, as an int
    x = Fraction(2, 3) * (1 - q * t) * (1 + q) - Fraction(1, 5) * q * (1 - q * t)
    y = Fraction(3, 7) * (1 - q * t) * (1 - t ** 2)
    assert (x.den, y.den) == (MPoly.const(15), MPoly.const(7))
    h, _, _ = _check_cofactors(x.num, y.num)
    assert h == (q * t - 1).num
    assert x / y == 7 * (10 + 7 * q) / (45 * (1 - t ** 2))


def test_gcd_with_zero_is_the_primitive_associate():
    # gcd(0, f) is f over Z: coprime int coefficients, positive lead
    f = (-6 * (1 - q * t) * (1 + q)).num
    want = ((q * t - 1) * (1 + q)).num
    for h in (mpoly_gcd(MPoly(), f), mpoly_gcd(f, MPoly())):
        assert h == want
        assert all(isinstance(c, int) for c in h.terms.values())
    h, cf, cg = mpoly_gcd(MPoly(), f, cofactors=True)
    assert h == want and cf.is_zero() and h * cg == f


def test_gcd_cofactors_one_sided_variable():
    f = ((1 - q ** 3) * (1 - q ** 2 * t) * (1 - q * t) * (1 - q * t ** 2)).num
    g = ((1 - q ** 4) * (1 - q ** 3) * (1 - q)).num
    h, _, _ = _check_cofactors(f, g)
    assert h == (q ** 3 - 1).num
    _check_cofactors(g, f)
    # each operand has a variable the other lacks, and integer content
    _check_cofactors(f * 6, (4 * a * (1 - q ** 3) * (1 + a)).num)


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
    monkeypatch.setattr(field, "_prs_gcd", prs)
    # the integer contents 3 and -2 stay in the cofactors, and the PRS
    # result's negative leading coefficient is made positive
    f = (3 * (1 - q * t) * (1 + q ** 2) * (3 - t)).num
    g = (-2 * (1 - q * t) * (1 + q ** 2) * (1 + q + t)).num
    h, cf, cg = _check_cofactors(f, g)
    assert h == ((q * t - 1) * (1 + q ** 2)).num
    assert cf == (-3 * (3 - t)).num and cg == (2 * (1 + q + t)).num
    assert calls


def test_reduced_elements_hold_int_coefficients(monkeypatch):
    seen = []
    canonical, scaled = field._canonical, field._scaled

    def checked(num, den):
        seen.append(1)
        for p in (num, den):
            assert all(type(c) is int for c in p.terms.values()), (num, den)
        return num, den

    def scaled_checked(x, n, d):
        r = scaled(x, n, d)
        checked(r.num, r.den)
        return r

    def power_checked(x, n):
        r = power(x, n)
        checked(r.num, r.den)
        return r

    # every build: the canonicaliser, and the routes by a constant factor
    # and by the exponents 0 and 1, which build their pairs without it
    power = FieldElement.__pow__
    monkeypatch.setattr(field, "_canonical",
                        lambda num, den: checked(*canonical(num, den)))
    monkeypatch.setattr(field, "_scaled", scaled_checked)
    monkeypatch.setattr(FieldElement, "__pow__", power_checked)
    # a memo hit returns an element canonicalised when it was first built;
    # bypass the memo so that every operation builds its result here
    monkeypatch.setattr(field, "_memo", field._memo.__wrapped__)
    x = FieldElement((4 * q + 6).num, (2 + 2 * t).num)
    assert x == (2 * q + 3) / (1 + t)
    assert (x.num, x.den) == ((2 * q + 3).num, (1 + t).num)
    y = fe(Fraction(3, 2)) * (1 - q) / (1 - t)
    z = (y * (2 + q * t) + fe(Fraction(1, 2))) / (1 - q * t)
    assert z * (1 - q * t) == y * (2 + q * t) + fe(Fraction(1, 2))
    from oracles import hall_norm_qt, orthogonal_family
    orthogonal_family(3, hall_norm_qt)
    assert len(seen) > 100


def _pair(x):
    """num and den of x as term lists, in dict order."""
    return list(x.num.terms.items()), list(x.den.terms.items())


def test_constant_routes_match_the_general_route(monkeypatch):
    # a rational constant skips the memo and the gcds, yet gives the pair
    # that _product and _sum give, with its terms in the same order: the
    # float suites evaluate coefficients term by term
    monkeypatch.setattr(field, "_memo", field._memo.__wrapped__)
    rng = random.Random(20261020)
    consts = [0, 1, -1, -4, 6, Fraction(3, 2), Fraction(-5, 6), Fraction(-2, 9)]
    xs = [FieldElement((4 * q + 6).num, (2 + 2 * t).num),
          FieldElement((4 * q + 6).num, (3 - 3 * q * t).num),
          FieldElement((6 - 6 * q * a).num, (4 - 4 * t ** 2).num), fe(0), fe(5)]
    for _ in range(40):
        x = _random_fe(rng, nvars=3)
        xs += [x, x * rng.choice([2, 6, Fraction(4, 9), Fraction(-3, 10)])]
    P, S = field._product, field._sum
    checked = 0
    for x in xs:
        a_, b_ = x.num, x.den
        for c in consts:
            # an int or a Fraction on the left reaches x's reflected method,
            # so x stays the left operand; a constant element does not
            k = fe(c)
            n, d = k.num, k.den
            cases = [(c * x, P(a_, b_, n, d)), (k * x, P(n, d, a_, b_)),
                     (c + x, S(a_, b_, n, d)), (k + x, S(n, d, a_, b_)),
                     (c - x, S(n, d, -a_, b_)), (k - x, S(n, d, -a_, b_))]
            for y in (c, k):
                cases += [(x * y, P(a_, b_, n, d)), (x + y, S(a_, b_, n, d)),
                          (x - y, S(a_, b_, -n, d))]
                if c:
                    cases.append((x / y, P(a_, b_, d, n)))
            if x:
                cases += [(c / x, P(n, d, b_, a_)), (k / x, P(n, d, b_, a_))]
            for got, want in cases:
                assert _pair(got) == _pair(want), (x, c)
                checked += 1
        if x:
            inverse = P(MPoly.const(1), MPoly.const(1), b_, a_)
            for m in (1, 2, 3):
                want = field._power(inverse.num, inverse.den, m)
                assert _pair(x ** -m) == _pair(want), (x, m)
    assert checked > 1000


def test_constant_operands_skip_the_polynomial_machinery(monkeypatch):
    x = (4 * q + 6) / (3 - 3 * q * t)
    u, v = q ** 2 / (1 - t), (1 + q * t) / (q * (1 - q))
    want = [(4 * q + 6) / (1 - q * t), (8 * q + 12) / (9 - 9 * q * t),
            (9 + 4 * q - 3 * q * t) / (3 - 3 * q * t),
            (-3 - 4 * q - 3 * q * t) / (3 - 3 * q * t),
            (3 - 3 * q * t) ** 2 / (4 * q + 6) ** 2,
            q * (1 + q * t) / ((1 - q) * (1 - t))]
    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    mul = counted("mul", MPoly.__mul__)
    monkeypatch.setattr(MPoly, "__mul__", mul)
    monkeypatch.setattr(MPoly, "__rmul__", mul)
    monkeypatch.setattr(field, "_memo", counted("memo", field._memo.__wrapped__))
    monkeypatch.setattr(field, "_expand", counted("expand", field._expand))
    monkeypatch.setattr(field, "_product", counted("product", field._product))
    got = [x * 3, x / Fraction(3, 2), x + 1, 1 - x]
    assert counts == {}
    got.append(x ** -2)
    assert "product" not in counts
    # gcd(q^2, q - q^2) = q is a monomial: the cofactors are shifted down,
    # and neither that gcd nor gcd(1 + qt, 1 - t) = 1 is expanded
    counts.clear()
    got.append(u * v)
    assert "expand" not in counts and counts["mul"] == 2
    assert got == want


def test_small_exponents_skip_the_memo(monkeypatch):
    # x**0, x**1 and x**-1 need no polynomial power, so they make no memo
    # lookup, yet give the pair _power gives with its terms in the same
    # order: the float suites evaluate coefficients term by term
    rng = random.Random(20261019)
    xs = [(4 * q + 6) / (3 - 3 * q * t), fe(Fraction(-5, 7)), fe(0), q,
          Fraction(2, 3) * (1 - q ** 2 * t) / (q * (1 + t) * (1 - a))]
    xs += [_random_fe(rng, nvars=3, nterms=3) for _ in range(20)]
    calls = []
    memo = field._memo

    def counted(*args):
        calls.append(args)
        return memo(*args)

    monkeypatch.setattr(field, "_memo", counted)
    got = [(x ** 0, x ** 1, x ** -1 if x else None) for x in xs]
    assert calls == []
    for x, (zero, one, inverse) in zip(xs, got):
        assert _pair(zero) == _pair(field._power(x.num, x.den, 0)), x
        assert one is x and _pair(one) == _pair(field._power(x.num, x.den, 1))
        if x:
            y = field._reciprocal(x)
            assert _pair(inverse) == _pair(field._power(y.num, y.den, 1)), x


def test_comparison_with_a_string_registers_nothing():
    before = list(field._REGISTRY), field._GUARD
    assert fe(1) != "zzz" and not fe(1) == "zzz"
    assert q != "q"
    assert (list(field._REGISTRY), field._GUARD) == before
    assert "zzz" not in field._INDEX


def test_gcd_zero_image_is_unlucky():
    # a pair that trips a gcd by integer evaluation: at t = 8 the first
    # image has the factor q - 8, and at q = 8 it is 0
    f = (2 * (q - t) * (2 * q ** 2 - 3)).num
    g = (q ** 2 * (2 * t ** 2 - 1) * (2 * q ** 2 - 3)).num
    want = (2 * q ** 2 - 3).num
    assert mpoly_gcd(f, g) == want
    assert mpoly_gcd(g, f) == want
    _check_cofactors(f, g)


def _assert_canonical(r, num, den):
    """r is the coprime canonical form of num/den."""
    assert r.num * den == num * r.den
    if r.num.is_zero():
        assert r.den == MPoly.const(1)
        return
    assert mpoly_gcd(r.num, r.den).is_const(), r
    for p in (r.num, r.den):
        assert all(isinstance(c, int) for c in p.terms.values()), r
    assert math.gcd(field._int_content(r.num), field._int_content(r.den)) == 1
    assert r.den.lead_coeff() > 0


def test_arithmetic_results_are_coprime_and_canonical():
    rng = random.Random(20261018)
    cases = []
    for _ in range(60):
        x, y, z = (_random_fe(rng) for _ in range(3))
        cases.append((x ** 3, x.num ** 3, x.den ** 3))
        # the second pair's operands are results with larger gcds
        for u, v in ((x, y), (x * y + z, y - z)):
            cases += [
                (u * v, u.num * v.num, u.den * v.den),
                (u / v, u.num * v.den, u.den * v.num),
                (u + v, u.num * v.den + v.num * u.den, u.den * v.den),
                (u - v, u.num * v.den - v.num * u.den, u.den * v.den),
            ]
    for r, num, den in cases:
        _assert_canonical(r, num, den)


def test_equality_compares_canonical_pairs(monkeypatch):
    x, w = (1 - q ** 2) / (1 - q), 1 + q
    y = FieldElement((6 - 6 * q * t).num, (4 - 4 * t ** 2).num)
    z = 3 * (1 - q * t) / (2 * (1 - t) * (1 + t))

    def no_mul(self, other):
        raise AssertionError("equality multiplied polynomials")

    monkeypatch.setattr(MPoly, "__mul__", no_mul)
    monkeypatch.setattr(MPoly, "__rmul__", no_mul)
    assert x == w and x != q
    assert y == z and (y.num, y.den) == (z.num, z.den)
    assert y != x and y != fe(Fraction(3, 2))


def test_hash_is_in_keeping_with_equality():
    # equal elements built by different routes hash equal
    assert (q * t) / t == q and hash((q * t) / t) == hash(q)
    x = (1 - q ** 2) / (1 - q)
    assert x == 1 + q and hash(x) == hash(1 + q)
    y = FieldElement((6 - 6 * q * t).num, (4 - 4 * t ** 2).num)
    assert hash(y) == hash(3 * (1 - q * t) / (2 * (1 - t) * (1 + t)))
    assert len({x, 1 + q, (1 + q) * t / t, q}) == 2
    # a constant equals its int or Fraction, so it hashes like it
    assert fe(2) == 2 and hash(fe(2)) == hash(2)
    assert hash(q / q) == hash(1) and hash(q - q) == hash(0)
    half = (2 * q) / (4 * q)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(fe(Fraction(6, 3))) == hash(2)


def _memo_operands(rng, count):
    """Operand pairs from _random_fe triples.  Next to each x stand x + 1,
    with x's denominator, and x/(1 + x), with x's numerator, so that pairs
    share three of the four operand polynomials of a product or sum."""
    pairs = []
    for _ in range(count):
        x, y, z = (_random_fe(rng) for _ in range(3))
        xs = (x, x + 1, x / (1 + x))
        ys = (y, y + 1, y / (1 + y), y - z)
        pairs += [(u, v) for u in xs for v in ys]
    return pairs


def _memo_ops(u, v):
    return (u + v, u - v, u * v, u / v, u ** 2, v ** 3)


def test_memo_hit_equals_fresh_result():
    pairs = _memo_operands(random.Random(8080), 25)
    field._memo.cache_clear()
    warm = [_memo_ops(u, v) for u, v in pairs]
    info = field._memo.cache_info()
    assert info.hits > 0 and info.currsize == field._MEMO_SIZE
    for (u, v), results in zip(pairs, warm):
        field._memo.cache_clear()
        fresh = _memo_ops(u, v)
        for r, f in zip(results, fresh):
            assert (r.num, r.den) == (f.num, f.den), (u, v)
    # results are shared between callers: neither operand may be altered
    x, y = pairs[0]
    before = (dict(x.num.terms), dict(x.den.terms))
    x * y
    x * y
    assert (x.num.terms, x.den.terms) == before


def test_mpoly_hash_is_exact_and_cached():
    p = (3 * q ** 2 * t - 2 * q + 5).num
    f = MPoly(dict(p.terms))
    assert f._hash is None
    assert f == p and hash(f) == hash(p)
    h = hash(p)
    assert p._hash == h and hash(p) == h
    assert hash(p) == hash(frozenset(p.terms.items()))
    assert p != (p + 1) and MPoly() == MPoly({0: 0})
    assert MPoly.const(3) == 3 and MPoly() == 0


def test_memo_stays_within_its_bound(monkeypatch):
    from selbergkit import cli
    sizes = []
    run_case = cli.run_case

    def sized(*args):
        rep = run_case(*args)
        sizes.append(field._memo.cache_info().currsize)
        return rep

    monkeypatch.setattr(cli, "run_case", sized)
    field._memo.cache_clear()
    assert cli.main(["verify", "skew-sum", "--max-size", "2"]) == 0
    assert len(sizes) == 202
    assert max(sizes) == field._MEMO_SIZE
    assert field._memo.cache_info().maxsize == field._MEMO_SIZE


def test_exponent_overflow_raises():
    # the total degree field bounds every exponent field: 2**15 - 1 fits,
    # and a product reaching 2**15 raises instead of carrying
    top = field._DEG_GUARD - 1
    (e, c), = _monomials(q.num ** top)
    assert c == 1 and e[field._INDEX["q"]] == top and sum(e) == top
    with pytest.raises(OverflowError):
        q.num ** (top + 1)
    with pytest.raises(OverflowError):
        (q ** 20000).num * (t ** 20000).num
    with pytest.raises(OverflowError):
        (1 + q * t) ** 20000
    assert (1 + q ** 16000) * (1 - t ** 16000) == 1 + q ** 16000 - t ** 16000 - (
        q * t) ** 16000


def test_monomial_divisibility_does_not_borrow_across_fields():
    # q^3 t and q^2 t^5: either difference borrows from a neighbouring field
    x, y = (q ** 3 * t).num, (q ** 2 * t ** 5).num
    assert x.divide_exact(y) is None and y.divide_exact(x) is None
    with pytest.raises(ValueError):
        x.shift_down(y.monomial_content())
    p = x + y
    assert p.shift_down(p.monomial_content()) == (q + t ** 4).num
    assert p.monomial_content() == (q ** 2 * t).num.monomial_content()
    assert (x * y).divide_exact(x) == y and (x * y).divide_exact(y) == x
    assert mpoly_gcd(x * (1 + q).num, y * (1 + q).num) == (q ** 2 * t * (1 + q)).num


@pytest.mark.parametrize("key", [(), (1,), -1, 1, 1 << 16, field._DEG_GUARD])
def test_constructor_rejects_what_is_no_packed_monomial(key):
    # tuple exponents, a negative key, a degree field that is not the sum
    # of the exponents, and a degree at the guard bit
    with pytest.raises(ValueError):
        MPoly({key: 1})


@pytest.mark.parametrize("build", [
    lambda: MPoly({0: Fraction(1, 2)}),
    lambda: MPoly({field._unit(0): 1.0}),
    lambda: MPoly.const(0.5),
    lambda: MPoly.const(Fraction(2, 1)),
    lambda: q.num * Fraction(1, 2),
    lambda: Fraction(1, 2) * q.num,
    lambda: q.num + Fraction(1, 2),
])
def test_mpoly_holds_only_int_coefficients(build):
    with pytest.raises(TypeError):
        build()


def test_a_fraction_enters_as_a_pair():
    half = fe(Fraction(1, 2))
    assert (half.num, half.den) == (MPoly.const(1), MPoly.const(2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert half.const_value() == Fraction(1, 2)
    assert (q / 2).den == MPoly.const(2) and str(q / 2) == "q/2"
    x = FieldElement(Fraction(-3, 4), Fraction(5, 6))
    assert (x.num, x.den) == (MPoly.const(-9), MPoly.const(10))
    y = FieldElement((2 * q).num, Fraction(4, 3))
    assert (y.num, y.den) == ((3 * q).num, MPoly.const(2))
    assert (q / 2).eval({"q": 1}) == Fraction(1, 2)
    assert (q / 2).eval({"q": 1.0}) == 0.5
    # an MPoly's value is exact when every bound value is, else complex
    n = (q * t - 3).num
    assert n.eval({"q": 2, "t": 5}) == 7 and type(n.eval({"q": 2, "t": 5})) is int
    assert n.eval({"q": Fraction(1, 2), "t": 4}) == Fraction(-1)
    assert type(n.eval({"q": 2, "t": 0.5})) is complex


def test_polynomial_built_before_a_new_variable():
    early = ((1 + q * t) ** 2 - 3 * a).num
    assert "late_w" not in field._INDEX
    w = var("late_w")
    late = ((1 + q * t) ** 2 - 3 * a).num
    assert early == late and hash(early) == hash(late)
    r = early * (1 - w).num
    assert r.divide_exact(late) == (1 - w).num
    assert r.divide_exact((1 - w).num) == early
    assert r.divide_exact((1 - w * q).num) is None
    assert mpoly_gcd(r, early * (2 + w).num) == late
    x = FieldElement(early) * w / (1 + w)
    assert x * (1 + w) / w == FieldElement(late)
    assert x.eval({"q": 1, "t": 2, "a": 3, "late_w": 1}) == 0


def _random_poly(rng, maxdeg=3, nterms=4):
    p = fe(0)
    while p.is_zero():
        for _ in range(rng.randint(1, nterms)):
            c = rng.choice([-5, -3, -2, -1, 1, 2, 4])
            p = p + (c * q ** rng.randint(0, maxdeg) * t ** rng.randint(0, maxdeg)
                     * a ** rng.randint(0, 2))
    return p.num


def _to_sympy(sympy, p):
    gens = sympy.symbols("q t a")
    index = [field._INDEX[n] for n in ("q", "t", "a")]
    expr = 0
    for e, c in _monomials(p):
        e = e + (0,) * (max(index) + 1 - len(e))
        assert sum(e) == sum(e[i] for i in index)
        term = sympy.Integer(c)
        for g, i in zip(gens, index):
            term = term * g ** e[i]
        expr = expr + term
    return sympy.Poly(expr, *gens, domain="ZZ")


# One case, named after the route its gcds take: the test once ran a
# second case through a heuristic gcd that the field no longer has.
@pytest.mark.parametrize("route", ["prs"])
def test_kernel_against_sympy_fuzzed(monkeypatch, route):
    sympy = pytest.importorskip("sympy")
    reached = []

    def prs(f, g):
        reached.append((f, g))
        return real_prs(f, g)

    real_prs = field._prs_gcd
    monkeypatch.setattr(field, "_prs_gcd", prs)
    rng = random.Random(20261118)
    for _ in range(40):
        u, v, w = (_random_poly(rng) for _ in range(3))
        f, g = u * v, u * w
        F, G, U, V = (_to_sympy(sympy, p) for p in (f, g, u, v))
        assert F == U * V
        assert f.divide_exact(u) == v and f.divide_exact(v) == u
        # division in Z[q, t, a], as divide_exact divides
        quo, rem = F.div(G, auto=False)
        got = f.divide_exact(g)
        if rem.is_zero:
            assert _to_sympy(sympy, got) == quo
        else:
            assert got is None
        h, cf, cg = mpoly_gcd(f, g, cofactors=True)
        H = _to_sympy(sympy, h)
        # sympy's gcd over ZZ keeps the integer gcd of the contents
        _, want = F.gcd(G).primitive()
        assert H in (want, -want)
        assert field._int_content(h) == 1 and h.lead_coeff() > 0
        assert all(isinstance(c, int) for c in h.terms.values())
        assert h * cf == f and h * cg == g
    # the fuzz exercises the PRS, not only the content steps before it
    assert reached


def _carried(p):
    """p's carried factorization multiplies back to p."""
    if p._fac is not None:
        assert field._expand(p._fac) == p, p


@pytest.mark.parametrize("binomial, want", [
    (1 - q * t, [1 - q * t]),
    (1 - q ** 2 * t ** 2, [1 - q * t, 1 + q * t]),
    (1 - q ** 6, [1 - q, 1 + q, 1 + q + q ** 2, 1 - q + q ** 2]),
    (1 + q ** 3, [1 + q, 1 - q + q ** 2]),
    (2 - 2 * q ** 4 * t ** 2, [1 - q ** 2 * t, 1 + q ** 2 * t]),
    (q ** 2 - t, [q ** 2 - t]),
    (2 * a + 3, [2 * a + 3]),
    (t ** 3 * (q - a ** 2), [q - a ** 2]),
    (6 * q ** 3 * t, []),
])
def test_split_finds_the_irreducible_line_factors(binomial, want):
    p = MPoly(dict(binomial.num.terms))
    fac = field._split(p)
    fs = fac[2:]
    assert field._expand(fac) == p
    # each factor is primitive with a positive leading coefficient
    assert sorted(map(str, fs)) == sorted(
        str(x.num if x.num.lead_coeff() > 0 else -x.num) for x in want)
    sympy = pytest.importorskip("sympy")
    for phi in fs:
        _, factors = _to_sympy(sympy, phi).factor_list()
        assert len(factors) == 1 and factors[0][1] == 1, phi


@pytest.mark.parametrize("poly", [4 * q ** 2 - 1, 2 * q ** 2 + 3, 1 + 2 * q + q * t,
                                  1 - q ** 65])
def test_split_leaves_what_it_cannot_prove(poly):
    # 4q^2 - 1 factors but is no cyclotomic binomial; 2q^2 + 3 is
    # irreducible, which the two-term rule cannot show at n = 2; three
    # terms are never split; n = 65 is past the cap on the line power
    p = MPoly(dict(poly.num.terms))
    assert field._factored(p) is None and p._fac is None


def test_factored_route_matches_the_gcd_route(monkeypatch):
    # every operation through carried factorizations gives the canonical
    # pair that operands with none give, whose gcds go through mpoly_gcd
    monkeypatch.setattr(field, "_memo", field._memo.__wrapped__)
    g = var("gamma")
    line = [1 - q, 1 - t, 1 - q * t, 1 - q ** 2 * t ** 2, 1 - q ** 6, q ** 2 - t,
            2 * g + 3, 1 + q ** 3, t - q * a, 2 - 2 * q * t ** 2, q, t]
    odd = 1 + 2 * q + q * t  # no line factor: a side holding it falls back
    rng = random.Random(20261019)

    def element():
        x = fe(rng.choice([1, 2, -3, Fraction(1, 2)]))
        for _ in range(rng.randint(1, 4)):
            y = rng.choice(line) ** rng.randint(1, 2)
            x = x * y if rng.random() < 0.5 else x / y
        if rng.random() < 0.3:
            x = x * odd if rng.random() < 0.5 else x / odd
        return x

    def bare(x):
        return FieldElement(MPoly(dict(x.num.terms)), MPoly(dict(x.den.terms)),
                            reduce=False)

    gcds = []
    real_gcd = field.mpoly_gcd

    def counted(*args, **kwargs):
        gcds.append(1)
        return real_gcd(*args, **kwargs)

    ops = [lambda u, v: u * v, lambda u, v: u / v, lambda u, v: u + v,
           lambda u, v: u - v, lambda u, v: u ** 3 * v ** 2]
    for _ in range(150):
        u, v = element(), element()
        op = rng.choice(ops)
        fast = op(u, v)
        monkeypatch.setattr(field, "mpoly_gcd", counted)
        slow = op(bare(u), bare(v))
        monkeypatch.setattr(field, "mpoly_gcd", real_gcd)
        assert (fast.num, fast.den) == (slow.num, slow.den), (u, v)
        for x in (u, v, fast, slow):
            _carried(x.num)
            _carried(x.den)
    assert gcds


def test_factored_denominators_need_no_gcd(monkeypatch):
    from selbergkit.coeffs import qt_poch
    from selbergkit.macdonald import principal_spec_a
    from selbergkit.partitions import P

    cases = [(P(3, 1), a), (P(2, 2, 1), t ** 3), (P(4, 2), q * a)]
    want = [(principal_spec_a(lam, b), qt_poch(b, q, t, lam)) for lam, b in cases]

    def no_gcd(*args, **kwargs):
        raise AssertionError("a gcd left the factored route")

    monkeypatch.setattr(field, "mpoly_gcd", no_gcd)
    monkeypatch.setattr(field, "_memo", field._memo.__wrapped__)
    got = [(principal_spec_a.__wrapped__(lam, b), qt_poch(b, q, t, lam))
           for lam, b in cases]
    assert got == want


def test_trial_division_is_not_cut_by_the_step_limit(monkeypatch):
    # (q^350 - 1)^2 has 3 terms and no factorization (350 is past the line
    # power cap), so the numerator is trial-divided by q - 1, whose exact
    # quotient has 700 terms; a division that gave up after a bounded number
    # of steps would leave x unreduced
    num = (q ** 350 - 1).num ** 2
    assert num.divide_exact((q - 1).num) is not None
    monkeypatch.setattr(field, "_memo", field._memo.__wrapped__)
    x = (q ** 350 - 1) ** 2 / (q - 1) ** 2
    assert x == sum(q ** i for i in range(350)) ** 2
    assert x.den == MPoly.const(1)


def test_dot_matches_the_chain_of_products_and_sums():
    # one common denominator, reduced once, gives the canonical pair of
    # the pairwise chain; a denominator with no factorization (three
    # terms) takes the chain itself
    rng = random.Random(20261020)
    binomials = [1 - q, 1 - q * t, 1 - t ** 2, 1 - a * q / t, 2 * t, fe(3)]
    for _ in range(80):
        k = rng.randint(0, 5)
        xs, ys = [], []
        for _ in range(k):
            den = fe(1)
            for _ in range(rng.randint(0, 3)):
                den = den * rng.choice(binomials)
            xs.append(_random_fe(rng, nvars=3, nterms=1) / den)
            ys.append(rng.choice([fe(0), fe(-2), q ** 2 / t, 1 + q + t,
                                  1 / (1 + q + t), (1 - q) / (1 - t) ** 2]))
        got = field.dot(xs, ys)
        chain = fe(0)
        for x, y in zip(xs, ys):
            chain = chain + x * y
        assert (got.num, got.den) == (chain.num, chain.den)
    x = (1 - q) / (1 - t)
    assert field.dot([x, x], [fe(1), fe(-1)]) == 0
    assert field.dot([], []) == 0
