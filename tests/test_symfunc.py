import math
import random
from fractions import Fraction

import pytest

from oracles import (
    expand_in_letters, m_in_p, p_in_m, p_to_m, schur_m, schur_spec,
)
from selbergkit.complexschur import complex_schur, staircase_exponents
from selbergkit.field import _unpack, fe, var
from selbergkit.partitions import P, partitions_up_to
from selbergkit.symfunc import (
    Difference, Letters, LetterSeries, Product, Ratio, Sum, SymFunc,
    _m_in_p, alternant_ratio, e_series_of_alphabet, h_series_of_alphabet,
    pk_of_alphabet, plethysm,
)

q, t, a, z = var("q"), var("t"), var("a"), var("z")


def sym(basis, lam):
    return SymFunc(basis, {P(*lam): Fraction(1)})


def letter(letters, name, wcap):
    """The letter called name, as a series over letters."""
    e = [0] * len(letters)
    e[letters.index(name)] = 1
    return LetterSeries(letters, {tuple(e): Fraction(1)}, wcap)


class TestBasisConversion:
    def test_classical_facts(self):
        # p_2 = m_2, p_11 = m_2 + 2 m_11, p_21 = m_3 + m_21, and back
        assert p_in_m(2)[P(2)] == {P(2): 1}
        assert p_in_m(2)[P(1, 1)] == {P(2): 1, P(1, 1): 2}
        assert p_in_m(3)[P(2, 1)] == {P(3): 1, P(2, 1): 1}
        assert sym("m", (1, 1)).to_basis("p").coeffs == {
            P(1, 1): Fraction(1, 2), P(2): Fraction(-1, 2)}
        # h_2 = s_2 = (p_2 + p_11) / 2
        assert schur_m(P(2)).to_basis("p").coeffs == {
            P(2): Fraction(1, 2), P(1, 1): Fraction(1, 2)}

    def test_set_partition_table_is_the_inverse_expansion(self):
        # the Moebius sum over set partitions equals the expansion of the
        # power sums in d variables inverted over Q, in values and row order
        for d in range(8):
            assert ([(lam, list(row.items())) for lam, row in _m_in_p(d).items()]
                    == [(lam, list(row.items())) for lam, row in m_in_p(d).items()])

    def test_round_trips(self):
        # m -> p by to_basis and back by the oracle, and p -> m -> p
        for lam in partitions_up_to(5):
            f = sym("m", lam.parts)
            back = p_to_m(f.to_basis("p"))
            assert back.basis == "m" and back.coeffs == f.coeffs
            g = sym("p", lam.parts)
            back = p_to_m(g).to_basis("p")
            assert back.basis == "p" and back.coeffs == g.coeffs

    def test_only_the_m_and_p_bases(self):
        for basis in ("e", "h", "s", "x"):
            with pytest.raises(ValueError, match="unknown basis"):
                SymFunc(basis, {P(1): 1})
            with pytest.raises(ValueError, match="unknown basis"):
                sym("m", (1,)).to_basis(basis)
        # the engine builds in the m-basis: p -> m is no conversion
        with pytest.raises(ValueError, match="p-basis to the m-basis"):
            sym("p", (1,)).to_basis("m")
        f = sym("p", (2,))
        assert f.to_basis("p") is f


class TestPlethysmRules:
    def test_pk_rules(self):
        x, y = var("x"), var("y")
        X, Y = Letters([x]), Letters([y])
        assert pk_of_alphabet(2, Sum(X, Y)) == x ** 2 + y ** 2
        assert pk_of_alphabet(2, Difference(X, Y)) == x ** 2 - y ** 2
        assert pk_of_alphabet(2, Product(X, Y)) == x ** 2 * y ** 2
        assert pk_of_alphabet(3, Ratio(fe(1), a, t)) == (1 - a ** 3) / (1 - t ** 3)

    def test_binomial_element(self):
        # the binomial element n is n letters 1: h_k = binom(n+k-1, k),
        # e_k = binom(n, k)
        for n in range(1, 5):
            ones = Letters([fe(1)] * n)
            hs = h_series_of_alphabet(ones, 4)
            es = e_series_of_alphabet(ones, 4)
            for k in range(5):
                assert fe(hs[k]) == math.comb(n + k - 1, k)
                assert fe(es[k]) == math.comb(n, k)

    def test_h_minus_is_e(self):
        xs = [var(f"x{i}") for i in range(3)]
        X = Letters(xs)
        negX = Difference(Letters([]), X)
        for mdeg in range(1, 4):
            lhs = h_series_of_alphabet(negX, mdeg)[mdeg]
            rhs = (-1) ** mdeg * e_series_of_alphabet(X, mdeg)[mdeg]
            assert fe(lhs) == fe(rhs)

    def test_plethysm_letters_vs_binomial_count(self):
        # at n letters all 1: p_lam = n^l(lam), m_lam counts the distinct
        # arrangements of lam padded to n, s_lam = s_lam(1^n)
        for n in range(1, 5):
            ones = Letters([fe(1)] * n)
            for lam in partitions_up_to(4):
                assert fe(plethysm(sym("p", lam.parts), ones)) == n ** len(lam)
                mults = [lam.parts.count(v) for v in set(lam.parts)]
                count = 0 if len(lam) > n else math.factorial(n) // math.prod(
                    math.factorial(m) for m in mults + [n - len(lam)])
                assert fe(plethysm(sym("m", lam.parts), ones)) == count
                assert fe(plethysm(schur_m(lam), ones)) == schur_spec(lam, n)


class TestGeneratingSeries:
    # sigma_z[A] = sum_k z^k h_k[A]: the h-series is its coefficient list

    def test_sigma_empty(self):
        assert h_series_of_alphabet(Letters([]), 4) == [Fraction(1), 0, 0, 0, 0]

    def test_sigma_multiplicative(self):
        # sigma[X + Y] = sigma[X] sigma[Y], sigma[X - Y] = sigma[X] / sigma[Y]
        x, y = var("x"), var("y")
        X, Y = Letters([x]), Letters([y])
        sx, sy = h_series_of_alphabet(X, 5), h_series_of_alphabet(Y, 5)
        plus = h_series_of_alphabet(Sum(X, Y), 5)
        minus = h_series_of_alphabet(Difference(X, Y), 5)
        for k in range(6):
            assert fe(plus[k]) == fe(sum(sx[i] * sy[k - i] for i in range(k + 1)))
            assert fe(sum(minus[i] * sy[k - i] for i in range(k + 1))) == fe(sx[k])

    def test_sigma_kernel_ratio(self):
        # sigma_1[(a-b)/(1-t)] = (b;t)_inf/(a;t)_inf as a t,a,b-series
        cap = 4
        bvar = var("b")
        hs = h_series_of_alphabet(Ratio(a, bvar, t), cap)
        total = fe(0)
        for k in range(cap + 1):
            total = total + fe(hs[k])
        # expand prod_{i>=0} (1-b t^i)/(1-a t^i) as a series mod degree cap+1
        prod_num = fe(1)
        prod_den = fe(1)
        for i in range(cap + 1):
            prod_num = prod_num * (1 - bvar * t ** i)
            prod_den = prod_den * (1 - a * t ** i)
        # check total * prod_den - prod_num == O(degree cap+1)
        diff = total * prod_den - prod_num
        poly = diff.num
        min_deg = min((sum(_unpack(e)) for e in poly.terms), default=cap + 1)
        assert min_deg > cap

    def test_ratio_product_form_matches_newton(self):
        # a Difference of two Ratios takes the Newton recursion; the Ratio
        # itself the product h_m = h_{m-1} (a - b t^{m-1}) / (1 - t^m)
        bvar = var("b")
        for A, B, T in [(fe(1), t, q), (a * q, t, q), (fe(0), fe(1), q),
                        (1 / a, fe(1), q), (q * t ** 2, t ** 3, q),
                        (a, bvar, t), (Fraction(1, 2), 3, Fraction(1, 3)),
                        (1, 0, Fraction(2)), (3, 5, Fraction(-2))]:
            prod = h_series_of_alphabet(Ratio(A, B, T), 6)
            newton = h_series_of_alphabet(
                Difference(Ratio(A, 0, T), Ratio(B, 0, T)), 6)
            assert len(prod) == len(newton) == 7
            for u, v in zip(prod, newton):
                assert type(u) is type(v)
                if isinstance(u, Fraction):
                    assert u == v
                else:
                    assert (u.num, u.den) == (v.num, v.den)

    def test_ratio_product_form_stays_exact_on_ints(self):
        hs = h_series_of_alphabet(Ratio(3, 5, -2), 5)
        assert all(isinstance(h, Fraction) for h in hs)
        assert hs == h_series_of_alphabet(Ratio(3, 5, Fraction(-2)), 5)

    def test_ratio_product_form_rejects_root_of_unity(self):
        with pytest.raises(ZeroDivisionError):
            h_series_of_alphabet(Ratio(a, fe(1), fe(1)), 2)

    def test_z2_coefficient_matches_plethysm(self):
        hs = h_series_of_alphabet(Ratio(fe(1), a, t), 4)
        direct = plethysm(schur_m(P(2)), Ratio(fe(1), a, t))  # h_2 = s_2
        assert fe(hs[2]) == fe(direct)

    def test_exp_psi_is_sigma(self):
        # sigma_z = exp(psi_z) as truncated series, psi_z = sum z^k p_k / k
        x, y = var("x"), var("y")
        A = Letters([x, y])
        cap = 5
        ps = [0] + [pk_of_alphabet(k, A) * Fraction(1, k)
                    for k in range(1, cap + 1)]
        # exp of the series via its own recursion: s' = psi' s
        exp_ps = [fe(1)]
        for k in range(1, cap + 1):
            acc = fe(0)
            for i in range(1, k + 1):
                acc = acc + fe(i) * ps[i] * exp_ps[k - i]
            exp_ps.append(acc / k)
        hs = h_series_of_alphabet(A, cap)
        assert all(fe(u) == fe(v) for u, v in zip(exp_ps, hs))


def schur_at(lam, xs):
    """s_lam(xs) as the complex Schur function at staircase exponents."""
    return complex_schur(xs, staircase_exponents(lam, len(xs)))


class TestSchur:
    def test_specializations(self):
        assert abs(schur_at(P(2), [1, 1]) - 3) < 1e-12
        assert abs(schur_at(P(2, 1), [1, 1, 1]) - 8) < 1e-12
        assert schur_spec(P(1), var("n"), 1) == var("n")
        assert schur_spec(P(2, 1), 3) == 8

    def test_spec_padding_independent(self):
        for lam in partitions_up_to(4):
            k0 = max(len(lam), 1)
            assert schur_spec(lam, 5, k0) == schur_spec(lam, 5, k0 + 2)

    def test_monomial_oracle(self):
        # the alternant against the Kostka expansion at exact points
        rng = random.Random(3)
        for lam in partitions_up_to(4):
            xs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            exact = plethysm(schur_m(lam), Letters(xs))
            if len(lam) > 3:  # no staircase of 3 exponents holds lam
                assert exact == 0
                continue
            alt = schur_at(lam, [float(x) for x in xs])
            assert abs(complex(exact) - complex(alt)) < 1e-10 * max(1, abs(exact))

    def test_coincident_points(self):
        val = schur_at(P(3, 1), [1.0, 1.0, 1.0])
        assert abs(val - complex(schur_spec(P(3, 1), 3))) < 1e-10

    def test_duality(self):
        # s_{mu'}[X] = (-1)^{|mu|} s_mu[-X] on a 3-letter alphabet
        xs = [var(f"x{i}") for i in range(3)]
        X = Letters(xs)
        negX = Difference(Letters([]), X)
        for mu in partitions_up_to(5):
            if len(mu.conjugate()) > 3:
                continue
            lhs = plethysm(schur_m(mu.conjugate()), X)
            rhs = (-1) ** mu.size * plethysm(schur_m(mu), negX)
            assert fe(lhs) == fe(rhs)

    def test_alternant_antisymmetry(self):
        xs = [0.4 + 0.1j, 0.9 - 0.2j, 1.3 + 0.05j]
        ws = [2.2 + 0.3j, 1.1, 0.4 - 0.2j]
        v1 = alternant_ratio(xs, ws)
        xs2 = [xs[1], xs[0], xs[2]]
        v2 = alternant_ratio(xs2, ws)
        assert abs(v1 - v2) < 1e-12 * abs(v1)


class TestAlphabetKeys:
    def test_equal_alphabets_hash_equal(self):
        x, y = var("x"), var("y")
        pairs = [
            (Letters([q, t]), Letters((q, t * t / t))),
            (Ratio(fe(1), a * q / t, t), Ratio(1, q * a / t, t)),
            (Sum(Letters([x]), Ratio(fe(1), a, t)),
             Sum(Letters([x * y / y]), Ratio(1, a, t))),
            (Difference(Letters([x]), Letters([y])),
             Difference(Letters([x]), Letters([y]))),
            (Product(Letters([x]), Ratio(z, 0, t)),
             Product(Letters([x]), Ratio(z, fe(0), t))),
        ]
        for u, v in pairs:
            assert u is not v and u == v and hash(u) == hash(v), u
        assert len({u for pair in pairs for u in pair}) == len(pairs)
        assert Letters([q]) != Letters([t]) and Letters([q]) != Ratio(q, 0, t)
        assert Ratio(1, a, t) != Ratio(1, t, a)

    def test_letter_series_alphabet_is_no_key_but_evaluates(self):
        letters = ("c", "d")
        unit = ((1, 1), 4)
        c_ls = letter(letters, "c", unit)
        d_ls = letter(letters, "d", unit)
        A = Product(Letters([c_ls, d_ls]), Ratio(1, q, t))
        with pytest.raises(TypeError):
            hash(A)
        with pytest.raises(TypeError):
            hash(Letters([c_ls]))
        # p_2[(c + d)(1 - q)/(1 - t)] = (c^2 + d^2)(1 - q^2)/(1 - t^2)
        val = plethysm(sym("p", (2,)), A)
        assert fe(val.coeff((2, 0))) == (1 - q ** 2) / (1 - t ** 2)
        assert fe(val.coeff((0, 2))) == (1 - q ** 2) / (1 - t ** 2)
        assert set(val.terms) == {(2, 0), (0, 2)}


class TestLetterSeries:
    def test_mul_truncation(self):
        # a total-degree cutoff is the weighted cap with every weight 1
        letters = ("x", "y")
        unit = ((1, 1), 3)
        x = letter(letters, "x", unit)
        y = letter(letters, "y", unit)
        f = (x + y) ** 5
        assert max((sum(e) for e in f.terms), default=0) <= 3
        g = (1 + x + y) ** 5
        assert g.terms == {
            (i, j): math.comb(5, i + j) * math.comb(i + j, i)
            for i in range(4) for j in range(4 - i)}

    def test_negative_power_raises(self):
        x = letter(("x",), "x", ((1,), 1))
        with pytest.raises(ValueError, match="negative power"):
            x ** -1

    @pytest.mark.parametrize("seed", range(8))
    def test_weighted_cap_is_exact_within_its_bound(self, seed):
        # under a weighted cap, products, sums, scalar multiples, powers and
        # expansions at named letters equal the uncapped ones on every
        # monomial within the bound, and hold no monomial above it after a
        # product
        rng = random.Random(seed)
        letters = ("x", "y", "z", "w")
        weights = tuple(rng.randint(0, 2) for _ in letters)
        weights = weights if any(weights) else (0, 1, 1, 1)
        wcap = (weights, rng.randint(2, 5))
        # the reference series' cap lies above every weighted degree the
        # products below reach, so it drops nothing
        full_cap = (weights, 1000)

        def wdeg(e):
            return sum(w * x for w, x in zip(weights, e))

        def draw():
            terms = {(0,) * len(letters): Fraction(rng.randint(1, 4))}
            for _ in range(6):
                e = tuple(rng.choice((0, 0, 1, 2)) for _ in letters)
                terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) \
                    * q ** rng.randint(0, 2)
            return (LetterSeries(letters, terms, wcap),
                    LetterSeries(letters, terms, full_cap))

        (A, a_), (B, b_), (C, c_) = draw(), draw(), draw()
        f = SymFunc("m", {lam: rng.randint(1, 4) * q ** rng.randint(0, 2)
                          for lam in rng.sample(list(partitions_up_to(3)), 3)})
        S = expand_in_letters(f, letters, ("y", "z"), wcap=wcap)
        s_ = expand_in_letters(f, letters, ("y", "z"), wcap=full_cap)
        pairs = [
            (A * B, a_ * b_),
            ((A * B) * C, (a_ * b_) * c_),
            ((A + B) * C, (a_ + b_) * c_),
            ((A + (-3)) * (C * t), (a_ + (-3)) * (c_ * t)),
            (A ** 3, a_ ** 3),
            (S * A, s_ * a_),
        ]
        for carried in (A + B, A + (-3), 3 + A, (-1) * A, C * t, S):
            assert carried.wcap == wcap
        dropped = False
        for capped, full in pairs:
            dropped |= any(wdeg(e) > wcap[1] for e in full.terms)
            assert capped.wcap == wcap
            assert all(wdeg(e) <= wcap[1] for e in capped.terms)
            within = [e for e in set(full.terms) | set(capped.terms)
                      if wdeg(e) <= wcap[1]]
            assert within
            for e in within:
                assert fe(capped.coeff(e)) == fe(full.coeff(e)), e
        assert dropped

    def test_different_weighted_caps_do_not_mix(self):
        letters = ("x", "y")
        u = letter(letters, "x", wcap=((1, 0), 2))
        v = letter(letters, "y", wcap=((0, 1), 2))
        w = letter(letters, "y", wcap=((1, 0), 3))
        for other in (v, w):
            with pytest.raises(ValueError, match="weighted caps differ"):
                u * other
            with pytest.raises(ValueError, match="weighted caps differ"):
                u + other

    def test_expand_symfunc(self):
        f = schur_m(P(2))
        ls = expand_in_letters(f, ("x", "y"), wcap=((1, 1), 2))
        assert ls.coeff((2, 0)) == 1 and ls.coeff((1, 1)) == 1
        # at named letters of a larger universe, the others at exponent 0
        ls = expand_in_letters(f, ("x", "y", "z"), ("z", "x"),
                               wcap=((1, 1, 1), 2))
        assert ls.terms == {(2, 0, 0): 1, (1, 0, 1): 1, (0, 0, 2): 1}

    def test_cauchy_kernel_degree6(self):
        # sum_{|lam|<=cap} s_lam[X] s_lam[Y] = prod 1/(1-x_i y_j), truncated
        cap = 6
        letters = ("x1", "x2", "y1", "y2")
        unit = ((1, 1, 1, 1), cap)
        lhs = LetterSeries(letters, {}, unit)
        for lam in partitions_up_to(cap // 2, 2):
            fx = expand_in_letters(schur_m(lam), letters, letters[:2],
                                   wcap=unit)
            fy = expand_in_letters(schur_m(lam), letters, letters[2:],
                                   wcap=unit)
            lhs = lhs + fx * fy
        rhs = LetterSeries.const(letters, Fraction(1), unit)
        for i in range(2):
            for j in range(2):
                geom = LetterSeries(letters, {}, unit)
                for k in range(cap + 1):
                    e = [0, 0, 0, 0]
                    e[i], e[2 + j] = k, k
                    geom = geom + LetterSeries(letters, {tuple(e): Fraction(1)}, unit)
                rhs = rhs * geom
        # joint degree: each lam contributes at x-degree=|lam|=y-degree, so
        # only compare monomials with x-degree <= cap/2
        for e in set(lhs.terms) | set(rhs.terms):
            if e[0] + e[1] <= cap // 2:
                assert fe(lhs.coeff(e)) == fe(rhs.coeff(e)), e
