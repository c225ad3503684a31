import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    expand_in_letters, hall_norm_gamma, hall_norm_qt, monomial_expansion,
    orthogonal_family, same_sf, schur_m,
)
from selbergkit import macdonald, suites, symfunc
from selbergkit.field import FieldElement, fe, var
from selbergkit.macdonald import (
    _skew_table, b_lambda, evaluation_symmetry_check,
    generalized_evaluation_symmetry_check,
    jack_P, jack_binomial_spec, jack_eval, macdonald_P, macdonald_Q,
    plethysm_eval, principal_spec_a, principal_spec_n, single_row_xminusy, skew_P, skew_Q,
    spectral_vector,
)
from selbergkit.partitions import (
    P, partitions_of, partitions_up_to, subpartitions,
)
from selbergkit.symfunc import Difference, Letters, Ratio, Sum, SymFunc, plethysm

q, t, g, a = var("q"), var("t"), var("gamma"), var("a")


def skew_table_all_monomials(lam):
    """Reference P_{lam/mu}: peel the coefficient of every x-monomial of
    P_lam[X + Y] (|lam| X- and l(lam) Y-variables), sorted or not, and keep
    the sorted ones at the end."""
    nx, ny = lam.size, len(lam)

    def xmap(f, n):
        out = {}
        for nu, c in f.coeffs.items():
            for exps, _ in monomial_expansion(nu, n):
                out[exps] = out.get(exps, fe(0)) + c
        return out

    buckets = {}
    for nu, c in macdonald_P(lam).coeffs.items():
        for exps, _ in monomial_expansion(nu, nx + ny):
            b = buckets.setdefault(exps[nx:], {})
            b[exps[:nx]] = b.get(exps[:nx], fe(0)) + c
    mus = list(subpartitions(lam))
    pm_y = {mu: xmap(macdonald_P(mu), ny) for mu in mus}
    out = {}
    for d in sorted({mu.size for mu in mus}, reverse=True):
        degree_mus = sorted((mu for mu in mus if mu.size == d),
                            key=lambda m: m.parts, reverse=True)
        for mu in degree_mus:
            key = mu.parts + (0,) * (ny - len(mu))
            coeff_map = dict(buckets.get(key, {}))
            for nu in degree_mus:
                w = pm_y[nu].get(key)
                if nu.parts <= mu.parts or w is None:
                    continue
                for xexp, c in xmap(out[nu], nx).items():
                    coeff_map[xexp] = coeff_map.get(xexp, fe(0)) - c * w
            coeffs = {}
            for xexp, c in coeff_map.items():
                se = tuple(sorted((x for x in xexp if x), reverse=True))
                if xexp == se + (0,) * (nx - len(se)) and not c.is_zero():
                    coeffs[P(*se)] = c
            out[mu] = SymFunc("m", coeffs)
    return out


def hall_qt(f, h):
    fp, hp = f.to_basis("p"), h.to_basis("p")
    acc = fe(0)
    for rho, c in fp.coeffs.items():
        d = hp.coeffs.get(rho)
        if d is not None:
            acc = acc + c * d * hall_norm_qt(rho)
    return acc


class TestMacdonaldP:
    def test_degree_one_and_bottom(self):
        assert same_sf(macdonald_P(P(1)), SymFunc("m", {P(1): 1}))
        assert same_sf(macdonald_P(P(1, 1)), SymFunc("m", {P(1, 1): 1}))

    def test_row_two_coefficient(self):
        got = macdonald_P(P(2)).coeffs[P(1, 1)]
        assert fe(got) == (1 - t) * (1 + q) / (1 - q * t)

    def test_matches_gram_schmidt_definition(self):
        # the defining construction is the independent oracle
        for d in range(5):
            oracle = orthogonal_family(d, hall_norm_qt)
            for lam in partitions_of(d):
                assert same_sf(macdonald_P(lam), oracle[lam])

    def test_orthogonality(self):
        ps = list(partitions_up_to(5))
        for i, lam in enumerate(ps):
            for mu in ps[i + 1:]:
                if lam.size == mu.size:
                    assert hall_qt(macdonald_P(lam), macdonald_P(mu)).is_zero()

    def test_unitriangular(self):
        for lam in partitions_up_to(5):
            f = macdonald_P(lam)
            assert fe(f.coeffs[lam]) == fe(1)
            for mu in f.coeffs:
                assert lam.dominates(mu)

    def test_qt_collapse_to_schur(self):
        for lam in partitions_up_to(5):
            mp = macdonald_P(lam)
            sm = schur_m(lam)
            for mu in set(mp.coeffs) | set(sm.coeffs):
                c = mp.coeffs.get(mu, fe(0))
                collapsed = fe(c).subs({"t": q}) if not isinstance(c, Fraction) else fe(c)
                assert collapsed == fe(sm.coeffs.get(mu, 0))

    def test_Q_scaling(self):
        lam = P(2, 1)
        assert macdonald_Q(lam).coeffs[lam] == b_lambda(lam)


class TestSkew:
    def test_skew_by_empty(self):
        for lam in partitions_up_to(4):
            assert same_sf(skew_P(lam, P()), macdonald_P(lam))

    def test_degree_zero(self):
        f = skew_P(P(1), P(1))
        assert fe(f.coeffs[P()]) == fe(1)

    def test_not_contained_vanishes(self):
        assert not skew_P(P(2), P(1, 1)).coeffs

    def test_coproduct_oracle(self):
        # P_lam[X+Y] = sum_mu P_{lam/mu}[X] P_mu[Y], checked by brute-force
        # two-alphabet expansion with 2+2 letters
        letters = ("x1", "x2", "y1", "y2")
        for lam in list(partitions_up_to(4))[1:]:
            full = expand_in_letters(macdonald_P(lam), letters)
            recomposed = {}
            for mu in subpartitions(lam):
                px = expand_in_letters(skew_P(lam, mu), letters[:2])
                py = expand_in_letters(macdonald_P(mu), letters[2:])
                for e1, c1 in px.terms.items():
                    for e2, c2 in py.terms.items():
                        key = e1 + e2
                        recomposed[key] = recomposed.get(key, fe(0)) + c1 * c2
            keys = set(full.terms) | set(recomposed)
            for k in keys:
                assert fe(full.terms.get(k, fe(0))) == fe(recomposed.get(k, fe(0)))

    def test_matches_all_monomial_peel(self):
        # the table reads only sorted monomials; peeling every monomial
        # must give the same reduced coefficients, num and den alike
        for lam in list(partitions_up_to(5))[1:]:
            want = skew_table_all_monomials(lam)
            got = _skew_table(lam)
            assert set(got) == set(want) == set(subpartitions(lam))
            for mu, f in want.items():
                assert set(got[mu].coeffs) == set(f.coeffs)
                for nu, c in f.coeffs.items():
                    d = got[mu].coeffs[nu]
                    assert isinstance(d, FieldElement)
                    assert (d.num, d.den) == (c.num, c.den), (lam, mu, nu)

    def test_skew_Q_normalisation(self):
        lam, mu = P(2, 1), P(1)
        assert same_sf(skew_Q(lam, mu),
                       skew_P(lam, mu).scale(b_lambda(lam) / b_lambda(mu)))


class TestJack:
    def test_bottom(self):
        assert same_sf(jack_P(P(1)), SymFunc("m", {P(1): 1}))

    def test_row_two_coefficient(self):
        # 2*gamma/(1+gamma); cross-checked against the q,t scalar product
        # Gram-Schmidt oracle and Eq between specialisations below
        got = jack_P(P(2)).coeffs[P(1, 1)]
        assert fe(got) == 2 * g / (g + 1)

    def test_matches_gram_schmidt_definition(self):
        for d in range(5):
            oracle = orthogonal_family(d, hall_norm_gamma)
            for lam in partitions_of(d):
                assert same_sf(jack_P(lam), oracle[lam])

    def test_gamma_one_is_schur(self):
        for lam in partitions_up_to(4):
            jp = jack_P(lam)
            sm = schur_m(lam)
            for mu in set(jp.coeffs) | set(sm.coeffs):
                c = jp.coeffs.get(mu, fe(0))
                val = fe(c).subs({"gamma": fe(1)})
                assert val == fe(sm.coeffs.get(mu, 0))

    def test_macdonald_limit_numeric(self):
        # q -> 1 limit of P_lam(q, q^gamma) at gamma = 2 approaches Jack
        lam = P(2)
        gval = 2.0
        target = fe(jack_P(lam).coeffs[P(1, 1)]).eval({"gamma": gval})
        prev_err = None
        for k in (3, 4, 5):
            qq = 1 - 10 ** -k
            tt = qq ** gval
            approx = fe(macdonald_P(lam).coeffs[P(1, 1)]).eval(
                {"q": qq, "t": tt})
            err = abs(approx - target)
            if prev_err is not None:
                assert err < prev_err / 5
            prev_err = err


class TestSpecialisations:
    def test_principal_spec_vs_plethysm(self):
        for lam in partitions_up_to(4):
            direct = plethysm(macdonald_P(lam), Ratio(fe(1), a, t))
            closed = principal_spec_a(lam, a)
            assert fe(direct) == fe(closed)

    def test_tn_spec_vs_plethysm(self):
        for lam in partitions_up_to(3):
            for n in (2, 3):
                direct = plethysm(macdonald_P(lam), Ratio(fe(1), t ** n, t))
                assert fe(direct) == fe(principal_spec_n(lam, n))

    def test_single_row_ratio(self):
        assert fe(principal_spec_a(P(1), a)) == (1 - a) / (1 - t)

    def test_jack_binomial_spec(self):
        z = var("z")
        assert fe(jack_binomial_spec(P(1), z)) == z
        # padding independence
        for lam in partitions_up_to(4):
            k0 = max(len(lam), 1)
            assert fe(jack_binomial_spec(lam, z, k=k0)) == \
                fe(jack_binomial_spec(lam, z, k=k0 + 2))

    def test_jack_binomial_vs_plethysm(self):
        # both sides are polynomials in z of degree |lam|; the binomial
        # element z = n is n letters 1, and n = 0..|lam| fixes the polynomial
        for lam in partitions_up_to(4):
            for n in range(lam.size + 1):
                direct = plethysm(jack_P(lam), Letters([fe(1)] * n))
                assert fe(direct) == fe(jack_binomial_spec(lam, n))

    def test_jack_eval_numeric(self):
        # against plethysm with exact letters then numeric gamma; the value
        # is a polynomial of degree 2 in the shift z, so its values at the
        # binomial elements z = 0, 1, 2 (0, 1, 2 letters 1) interpolate it
        val = jack_eval(P(2), [0.3, 0.7], 0.5, shift=1.25)
        x1, x2 = var("x1"), var("x2")
        at = [fe(plethysm(jack_P(P(2)), Letters([x1, x2] + [fe(1)] * n))).eval(
            {"x1": 0.3, "x2": 0.7, "gamma": 0.5}) for n in range(3)]
        z = 1.25
        ref = (at[0] * (z - 1) * (z - 2) / 2 - at[1] * z * (z - 2)
               + at[2] * z * (z - 1) / 2)
        assert abs(val - ref) < 1e-12
        # no letters: the binomial specialisation
        for lam in partitions_up_to(3):
            got = jack_eval(lam, None, 0.5, shift=1.25)
            assert abs(got - complex(jack_binomial_spec(lam, 1.25, 0.5))) \
                < 1e-12 * max(1, abs(got))

    @pytest.mark.parametrize("family, env", [
        (jack_P, {"gamma": 0.4}), (macdonald_P, {"q": 0.3, "t": 0.6}),
    ], ids=["jack", "macdonald"])
    def test_plethysm_eval_on_arrays_is_pointwise(self, family, env):
        # the quadrature sides pass power sums of whole grids of points
        rng = np.random.default_rng(9)
        real = rng.uniform(0.1, 0.9, size=(6, 2))
        for pts in (real, real * np.exp(2j * rng.uniform(0, 3, size=(6, 2)))):
            for lam in (P(2, 1), P(3)):
                vals = plethysm_eval(
                    family(lam), lambda k: np.sum(pts ** k, axis=-1) + 0.7, env)
                assert vals.shape == (6,)
                # real coefficients at real power sums stay real
                assert np.iscomplexobj(vals) == np.iscomplexobj(pts)
                for row, val in zip(pts, vals):
                    one = plethysm_eval(
                        family(lam), lambda k: sum(x ** k for x in row) + 0.7,
                        env)
                    assert abs(val - one) <= 1e-13 * abs(one)


class TestSingleRowXminusY:
    def test_trivial(self):
        x, y = var("x"), var("y")
        assert fe(single_row_xminusy(0, x, y)) == fe(1)

    def test_y_zero(self):
        x = var("x")
        assert fe(single_row_xminusy(3, x, fe(0))) == x ** 3

    def test_vs_plethysm_oracle(self):
        x, y = var("x"), var("y")
        for r in range(1, 5):
            direct = plethysm(macdonald_P(P(r)),
                              Difference(Letters([x]), Letters([y])))
            phi = single_row_xminusy(r, x, y)
            assert fe(direct) == fe(phi)


class TestEvaluationSymmetry:
    def test_identity_case(self):
        assert evaluation_symmetry_check(P(2), P(2), 2)

    def test_small_cases(self):
        assert evaluation_symmetry_check(P(1), P(2), 2)
        assert evaluation_symmetry_check(P(2, 1), P(1, 1), 3)

    def test_generalized(self):
        assert generalized_evaluation_symmetry_check(P(2, 1), P(1), 2, 2)
        assert generalized_evaluation_symmetry_check(P(1), P(2), 2, 3)


class TestPlethysmRoutes:
    """`_pleth_P` substitutes letters into the m-expansion, reads
    P_lam[(1 - b)/(1 - t)] off `principal_spec_a` and sums the branching
    rule at letters plus (1 - b)/(1 - t); each route must give what the
    p-basis plethysm gives."""

    @staticmethod
    def _same(lam, mu, A):
        f = skew_P(lam, mu) if mu else macdonald_P(lam)
        got = macdonald._pleth_P.__wrapped__(lam, mu, A)
        assert fe(got) == fe(plethysm(f, A)), (lam, mu, A)

    def test_letters(self):
        # as many letters as parts, fewer, and letters with negative powers
        alphabets = [Letters(spectral_vector(P(2, 1), 3)),
                     Letters(spectral_vector(P(1), 1)),
                     Letters([a * t ** -2 * v for v in spectral_vector(P(2), 2)]),
                     Letters([fe(2), q, 1 - t])]
        checked = 0
        for lam in partitions_up_to(4):
            for mu in subpartitions(lam):
                if mu.size <= 3:
                    for A in alphabets:
                        self._same(lam, mu, A)
                        checked += 1
        assert checked == 4 * 47  # 47 pairs mu in lam

    def test_principal(self):
        for lam in partitions_up_to(4):
            for b in (1 / a, a * q / t, t ** 2, q * t ** -3, fe(0), 2 * a):
                self._same(lam, P(), Ratio(fe(1), b, t))

    def test_branching_sum(self):
        for lam in partitions_up_to(4):
            for spec, npad in ((P(), 1), (P(1), 2), (P(2, 1), 3)):
                pref = a * t ** -npad
                X = Letters([pref * v for v in spectral_vector(spec, npad)])
                self._same(lam, P(), Sum(X, Ratio(fe(1), pref, t)))

    def test_other_alphabets_take_the_p_basis(self, monkeypatch):
        # a skew at a Ratio, a Ratio that is not (1 - b)/(1 - t) at t or
        # whose b is no Laurent monomial, and a Sum in the other order all
        # go to plethysm
        calls = []

        def counted(f, A):
            calls.append(A)
            return plethysm(f, A)

        monkeypatch.setattr(macdonald, "plethysm", counted)
        X = Letters(spectral_vector(P(1), 2))
        alphabets = [(P(2, 1), P(1), Ratio(fe(1), a, t)),
                     (P(2, 1), P(), Ratio(q, a, t)),
                     (P(2, 1), P(), Ratio(fe(1), a, q)),
                     (P(2, 1), P(), Ratio(fe(1), 2 * a, t)),
                     (P(2, 1), P(), Sum(Ratio(fe(1), a, t), X))]
        for lam, mu, A in alphabets:
            self._same(lam, mu, A)
        assert calls == [A for _, _, A in alphabets]

    def test_eval_sym_makes_no_p_basis_plethysm(self, monkeypatch):
        # a fall-back to the p basis fails here instead of only costing time
        calls = []

        def counted(f, A):
            calls.append(A)
            return plethysm(f, A)

        monkeypatch.setattr(symfunc, "plethysm", counted)
        monkeypatch.setattr(macdonald, "plethysm", counted)
        macdonald._pleth_P.cache_clear()
        gen, _ = suites.SUITES["eval-sym"]
        cases = gen({})
        assert all(suites.run_case("eval-sym", c, {}).passed for c in cases)
        assert macdonald._pleth_P.cache_info().misses > 0
        assert calls == []
