import random

import pytest

import oracles
from selbergkit import (
    cli, coeffs, field, identities, macdonald, partitions, suites, symfunc,
)
from selbergkit.coeffs import qt_poch
from selbergkit.field import fe, var
from selbergkit.identities import (
    an_cauchy_check, f_function, f_function_limit, interleaves,
    verify_skew_sum, verify_skew_sum_limit, verify_Z_Selb, zbifund,
)
from selbergkit.macdonald import (
    b_lambda, principal_spec_a, principal_spec_n, skew_Q, spectral_vector,
)
from selbergkit.partitions import (
    Bipartition, P, Partition, partitions_up_to, subpartitions,
)
from selbergkit.symfunc import Letters, Ratio, plethysm

q, t, a = var("q"), var("t"), var("a")


class TestFFunction:
    def test_empty(self):
        assert fe(f_function(P(), P(), 1, 1)) == fe(1)

    def test_single_factor(self):
        got = f_function(P(1), P(), 1, 1)
        assert fe(got) == (1 - a * q / t) / (1 - a * q)

    def test_transpose_relation(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                k = max(len(lam), 1)
                l = max(len(mu), 1)
                lhs = f_function(lam, mu, k, l)
                rhs = f_function(mu, lam, l, k, t / (a * q))
                assert fe(lhs) == fe(rhs), (lam, mu)

    def test_padding_reduction_display(self):
        # f^{k,l} via f^{l(lam),l(mu)} times two partition-factorial ratios
        for lam, mu, k, l in [(P(2), P(1), 2, 2), (P(1, 1), P(2), 3, 2),
                              (P(2, 1), P(1), 3, 3)]:
            base = fe(1) * f_function(lam, mu, len(lam), len(mu))
            corr = (fe(1) * qt_poch(a * q * t ** (len(mu) - 1), q, t, lam)
                    / (fe(1) * qt_poch(a * q * t ** (l - 1), q, t, lam)))
            corr = corr * qt_poch(t ** len(lam) / a, q, t, mu) \
                / (fe(1) * qt_poch(t ** k / a, q, t, mu))
            assert fe(f_function(lam, mu, k, l)) == fe(base * corr)

    def test_fQfQ_relation(self):
        # f^{k,inf} Q_lam[1/(1-t)] = f^{k,l} Q_lam[(1-aq t^{l-1})/(1-t)]
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(2):
                k = max(len(lam), 1)
                for l in (max(len(mu), 1), max(len(mu), 1) + 2):
                    lhs = (fe(1) * f_function(lam, mu, k, None)
                           * b_lambda(lam) * principal_spec_a(lam, fe(0)))
                    rhs = (fe(1) * f_function(lam, mu, k, l) * b_lambda(lam)
                           * principal_spec_a(lam, a * q * t ** (l - 1)))
                    assert fe(lhs) == fe(rhs), (lam, mu, l)

    def test_limit_vanishing_condition(self):
        rng = random.Random(3)
        pool = list(partitions_up_to(4, 3))
        for _ in range(60):
            lam = rng.choice(pool)
            mu = rng.choice(pool)
            k = rng.randint(max(len(lam), 1), 3)
            l = rng.randint(max(k, len(mu), 1), 4)
            val = fe(f_function_limit(lam, mu, k, l))
            assert val.is_zero() == (not interleaves(lam, mu, k, l))

    def test_limit_vs_numeric_b_to_one(self):
        from fractions import Fraction
        lam, mu, k, l = P(1), P(2, 1), 1, 2
        exact = fe(f_function_limit(lam, mu, k, l))
        qv, tv = 0.23, 0.41
        target = exact.eval({"q": qv, "t": tv})
        prev = None
        for exp in (4, 6):
            b = 1 - Fraction(1, 10 ** exp)
            # b t^{k-l} is no Laurent monomial: the defining product
            approx = oracles.f_chain(lam, mu, k, l,
                                     b * t ** (k - l)).eval({"q": qv, "t": tv})
            err = abs(approx - target)
            if prev is not None:
                assert err < prev / 10
            prev = err


def _pair_or_pole(fn, *args):
    """fn(*args) as its canonical (num, den) pair, or "pole"."""
    try:
        x = fe(fn(*args))
    except field.PoleError:
        return "pole"
    return x.num, x.den


class TestExactProducts:
    """f, its limit and extension, principal_spec_a, b_lambda and psi are
    built as one cancelled product of binomials; each must give the
    canonical pair of its chain of field operations on coeffs.qpoch."""

    def test_products_match_the_field_chain(self):
        rng = random.Random(20261024)
        pool = list(partitions_up_to(4))
        checked = 0
        for _ in range(40):
            lam, mu = rng.choice(pool), rng.choice(pool)
            k = rng.randint(max(len(lam), 1), 4)
            l = rng.randint(max(len(mu), 1), 4)
            for x in (a, t / (a * q), t ** rng.randint(0, 3)):
                for ll in (l, None):
                    assert (_pair_or_pole(f_function, lam, mu, k, ll, x)
                            == _pair_or_pole(oracles.f_chain, lam, mu, k, ll,
                                             x)), (lam, mu, k, ll, x)
                    checked += 1
            for lo in range(len(mu)):
                assert (_pair_or_pole(identities._f_ext, lam, mu, k, lo, a)
                        == _pair_or_pole(oracles.f_ext_chain, lam, mu, k, lo,
                                         a)), (lam, mu, k, lo)
                checked += 1
            kl, ll = sorted((k, l))
            if kl >= len(lam) and ll >= len(mu):
                assert (_pair_or_pole(identities._f_limit.__wrapped__, lam,
                                      mu, kl, ll)
                        == _pair_or_pole(oracles.f_limit_chain, lam, mu, kl,
                                         ll)), (lam, mu, kl, ll)
                checked += 1
        for lam in pool:
            for x in (a, t ** 2, a * q / t, t ** 3 / a, q, fe(0), fe(1)):
                assert (_pair_or_pole(principal_spec_a.__wrapped__, lam, x)
                        == _pair_or_pole(oracles.principal_spec_chain, lam,
                                         x)), (lam, x)
            assert (_pair_or_pole(macdonald.b_lambda.__wrapped__, lam)
                    == _pair_or_pole(lambda p: coeffs.hooks(p, q, t)[2], lam))
            for mu in macdonald._horizontal_strip_preds(lam, P()):
                assert (_pair_or_pole(macdonald._psi_cached.__wrapped__, lam,
                                      mu, "qt")
                        == _pair_or_pole(oracles.psi_chain, lam, mu))
            checked += 1
        assert checked > 300
        # an a that is no Laurent monomial, a number among them, has no
        # product route: a ValueError names it
        for x in (2 * a, 1 + a, a / 2, 0.3, 0.3 - 0.1j, 0.0):
            with pytest.raises(ValueError, match="^a = "):
                f_function(P(2, 1), P(1), 2, 1, x)
            with pytest.raises(ValueError, match="^a = "):
                principal_spec_a(P(2, 1), x)

    def test_products_skip_the_field_machinery(self, monkeypatch):
        # no field operation: no memo lookup and no gcd
        args = [(P(3, 1), P(2, 1), 3, 2, x) for x in (a, t / (a * q), t ** 5)]
        ext = (P(2, 1), P(2, 1, 1), 2, 1, a)
        specs = [(P(3, 2), x) for x in (a, t ** 3, a * q / t, fe(0))]

        def no(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(field, "_memo", no("_memo"))
        monkeypatch.setattr(field, "_cofactors", no("_cofactors"))
        for lam, mu, k, l, x in args:
            f_function(lam, mu, k, l, x)
            f_function(lam, mu, k, None, x)
        identities._f_ext(*ext)
        identities._f_limit.__wrapped__(P(3, 1), P(2, 1), 2, 3)
        for lam, x in specs:
            principal_spec_a.__wrapped__(lam, x)
        macdonald.b_lambda.__wrapped__(P(3, 2, 1))
        macdonald._psi_cached.__wrapped__(P(3, 2), P(2, 1), "qt")

    def test_a_factor_that_does_not_split_is_reduced(self):
        # 1 - q^70 has no carried factorization (past the line power cap):
        # it is multiplied in, and its common factor with 1 - q^5 cancels
        vq = q.laurent()
        got = field.binomial_product([(tuple(70 * v for v in vq), 1),
                                      (tuple(5 * v for v in vq), -1)])
        assert got == (1 - q ** 70) / (1 - q ** 5)
        assert got.den == 1
        with pytest.raises(field.PoleError):
            field.binomial_product([((0,) * len(vq), -1)])
        assert field.binomial_product([((0,) * len(vq), 2),
                                       (vq, -1)]).is_zero()
        assert field.binomial_product([((0,) * len(vq), 0)], vq) == q


class TestExactArguments:
    """The exact q-Pochhammer products are taken at the indeterminates q
    and t, and take a as a Laurent monomial with coefficient 1 or a = 0;
    any other a, a number among them, is a ValueError that names it (see
    TestExactProducts::test_products_match_the_field_chain)."""

    def test_a_zero(self):
        # a symbol holding a power of a = 0 is 1; a negative power is a pole
        assert (principal_spec_a(P(2, 1), 0) == principal_spec_a(P(2, 1), fe(0))
                == oracles.principal_spec_chain(P(2, 1), fe(0)))
        with pytest.raises(field.PoleError):
            macdonald._qpoch_product([((-1, 0, 1), 1, 1)], (0, 0), 0)


class TestSkewSum:
    def test_empty(self):
        chk = verify_skew_sum(P(), P(), 1, 1)
        assert chk.equal and fe(chk.lhs) == fe(1)

    def test_basic(self):
        assert verify_skew_sum(P(1), P(1), 1, 1).equal

    def test_padding_freedom(self):
        assert verify_skew_sum(P(2, 1), P(2), 2, 1).equal
        assert verify_skew_sum(P(2, 1), P(2), 2, 3).equal

    def test_limit_corollary(self):
        assert verify_skew_sum_limit(P(2), P(2, 1), 2, 3).equal
        assert verify_skew_sum_limit(P(1, 1), P(1), 2, 2).equal


def _clear_every_cache():
    for mod in (field, partitions, symfunc, coeffs, macdonald, identities):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _skew_sum_keys(cases):
    """The distinct keys a skew-sum run asks of each structural cache.

    P_lam[(1 - b)/(1 - t)] is principal_spec_a(lam, b), so each plethysm
    with nu empty also asks the principal-specialisation cache for
    (lam, b)."""
    pleth, ratio, spec, limit = set(), set(), set(), set()
    for c in cases:
        lam, mu, k, l = P(*c["lam"]), P(*c["mu"]), c["k"], c["l"]
        if c["limit"]:
            ap, aq = t ** (l - k), q * t ** (k - l - 1)
            spec |= {(mu, t ** l), (lam, q * t ** (k - 1))}
            limit.add((lam, mu, k, l))
        else:
            ap, aq = 1 / a, a * q / t
            spec |= {(mu, t ** k / a), (lam, a * q * t ** (l - 1))}
        for nu in subpartitions(mu):
            if lam.contains(nu):
                pleth |= {(mu, nu, Ratio(fe(1), ap, t)),
                          (lam, nu, Ratio(fe(1), aq, t))}
                if not nu:
                    spec |= {(mu, ap), (lam, aq)}
                ratio.add((lam, nu))
    return pleth, ratio, spec, limit


class TestStructuralCaches:
    def test_hit_equals_fresh_result(self):
        cached = [
            (macdonald._pleth_P, (P(2, 1), P(1), Ratio(fe(1), 1 / a, t))),
            (macdonald._pleth_P, (P(2, 1), P(), Letters(spectral_vector(P(1), 2)))),
            (macdonald._b_ratio, (P(2, 1), P(1))),
            (principal_spec_a, (P(2, 1), a * q / t)),
            (identities._f_limit, (P(2, 1), P(1), 2, 3)),
        ]
        for fn, args in cached:
            fn(*args)
            hits = fn.cache_info().hits
            warm = fn(*args)
            assert fn.cache_info().hits == hits + 1
            _clear_every_cache()
            fresh = fn(*args)
            assert fn.cache_info().hits == 0
            assert (warm.num, warm.den) == (fresh.num, fresh.den), fn

    def test_public_entries_read_the_caches(self):
        lam, mu = P(2, 1), P(1)
        assert f_function_limit(lam, mu, 2, 3) == identities._f_limit(lam, mu, 2, 3)
        Q = plethysm(skew_Q(lam, mu), Ratio(fe(1), a, t))
        assert macdonald._pleth_Q(lam, mu, Ratio(fe(1), a, t)) == Q
        principal_spec_a(lam, t ** 2)
        hits = principal_spec_a.cache_info().hits
        assert principal_spec_n(lam, 2) == principal_spec_a(lam, t ** 2)
        assert principal_spec_a.cache_info().hits == hits + 2
        # a number is rejected, and the cache keeps no entry for it
        size = principal_spec_a.cache_info().currsize
        with pytest.raises(ValueError, match="a = 0.3"):
            principal_spec_a(lam, 0.3)
        assert principal_spec_a.cache_info().currsize == size

    def test_one_entry_per_structural_key(self):
        _clear_every_cache()
        assert cli.main(["verify", "skew-sum", "--max-size", "2"]) == 0
        gen, _ = suites.SUITES["skew-sum"]
        keys = _skew_sum_keys(gen({"max_size": 2}))
        caches = (macdonald._pleth_P, macdonald._b_ratio,
                  macdonald.principal_spec_a, identities._f_limit)
        sizes = [fn.cache_info().currsize for fn in caches]
        assert sizes == [len(k) for k in keys]
        assert sizes == [68, 9, 70, 81]


class TestAnCauchy:
    def test_n1_reduces_to_cauchy(self):
        assert an_cauchy_check(1, [2], P(), cap=3, variant="II").equal

    def test_n1_skew(self):
        assert an_cauchy_check(1, [2], P(2, 1), cap=3, variant="I").equal

    def test_n2_variants(self):
        assert an_cauchy_check(2, [1, 1], P(), cap=3, variant="II").equal
        assert an_cauchy_check(2, [1, 2], P(), cap=3, variant="I").equal
        assert an_cauchy_check(2, [1], P(), cap=3, variant="I-inf").equal

    def test_n2_plethystic(self):
        assert an_cauchy_check(2, [1, 2], P(), cap=2, variant="II-pleth").equal

    def test_cap_zero(self):
        assert an_cauchy_check(2, [1, 2], P(), cap=0, variant="II").equal

    def test_skew_mu_with_long_tail(self):
        # exercises the padding-extended pairing factor
        assert an_cauchy_check(2, [1, 2], P(1, 1), cap=2, variant="I").equal

    def test_cauchy_runs_build_no_skew_table(self):
        # the checks read P_lam and P_{lam/mu} at the compared monomials
        # only, by branching: no skew table is built, and the only whole
        # P is P_mu of the right side's P_mu[W]
        for obj in vars(macdonald).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        mus = set()
        for suite, cfg in (("cauchy", {}), ("an-cauchy", {"max_degree": 3})):
            gen, _ = suites.SUITES[suite]
            cases = gen(cfg)
            assert all(suites.run_case(suite, c, cfg).passed for c in cases)
            mus |= {P(*c["mu"]) for c in cases if c["mu"]}
        assert mus == {P(1), P(2, 1)}
        assert macdonald._skew_table.cache_info().misses == 0
        for mu in mus:  # each is a hit: these are the P that were built
            macdonald.macdonald_P(mu)
        assert macdonald.macdonald_P.cache_info().misses == len(mus)

    def test_kernel_stops_at_its_weighted_cap(self):
        letters = ("x1", "y1")
        wcap = ((0, 1), 3)
        U = identities._mono(letters, {"x1": 1, "y1": 1}, wcap)
        ker = identities._kernel_series(t, fe(1), U, q)
        assert set(ker.terms) == {(m, m) for m in range(4)}
        # (t U; q)_inf / (U; q)_inf = 1 + (1 - t)/(1 - q) U + ...
        assert fe(ker.coeff((1, 1))) == (1 - t) / (1 - q)

    def test_kernel_of_weighted_degree_zero_raises(self):
        # a series in a monomial of weighted degree 0 would never end
        letters = ("x1", "y1")
        U = identities._mono(letters, {"x1": 1}, ((0, 1), 3))
        with pytest.raises(ValueError, match="weighted degree 0"):
            identities._kernel_series(t, fe(1), U, q)

    def test_kernel_h_series_once_per_key(self, monkeypatch):
        # the kernel factors of one identity share a few (alphabet, length)
        # pairs; each h-series is computed once
        calls = []
        series = identities.h_series_of_alphabet

        def counted(A, cap):
            calls.append((A, cap))
            return series(A, cap)

        monkeypatch.setattr(identities, "h_series_of_alphabet", counted)
        identities._kernel_h_series.cache_clear()
        gen, _ = suites.SUITES["an-cauchy"]
        for case in gen({}):
            assert suites.run_case("an-cauchy", case, {}).passed
        assert len(calls) == len(set(calls)) == 14

    def test_no_total_degree_cap_is_needed(self, monkeypatch):
        # the x letters carry weight 0, yet no monomial of either side has
        # total degree above 2 cap + |mu|: every kernel factor that holds an
        # x letter also holds a y, z, c or d letter, so its x-degree is at
        # most its weighted degree
        factors = []
        kernel = identities._kernel_series

        def recording(alpha, beta, U, q):
            factors.append(U)
            return kernel(alpha, beta, U, q)

        monkeypatch.setattr(identities, "_kernel_series", recording)
        gen, _ = suites.SUITES["an-cauchy"]
        for case in gen({}):
            factors.clear()
            mu = Partition(case["mu"])
            chk = an_cauchy_check(case["n"], case["ks"], mu, cap=case["cap"],
                                  variant=case["variant"])
            assert chk.equal, case["case_id"]
            top = 2 * case["cap"] + mu.size
            for side in (chk.lhs, chk.rhs):
                assert side.terms
                assert max(sum(e) for e in side.terms) <= top, case["case_id"]
            assert factors
            for U in factors:
                (e, _), = U.terms.items()
                held = [name for name, p in zip(U.letters, e) if p]
                xdeg = sum(name.startswith("x") for name in held)
                if xdeg:
                    assert xdeg == 1, held
                    assert any(name[0] in "yzcd" for name in held), held


def _an_cauchy_cases():
    # every default an-cauchy shape at caps 3 and 4, and the cauchy cases
    gen, _ = suites.SUITES["an-cauchy"]
    cases = [("an-cauchy", c) for cap in (3, 4)
             for c in gen({"max_degree": cap})]
    gen, _ = suites.SUITES["cauchy"]
    return cases + [("cauchy", c) for c in gen({})]


@pytest.mark.parametrize("suite, case", _an_cauchy_cases(),
                         ids=lambda x: x["case_id"] + f"-cap{x['cap']}"
                         if isinstance(x, dict) else x)
def test_right_side_is_the_plain_product_at_dominant_monomials(
        monkeypatch, suite, case):
    # the filtered product against the plain LetterSeries product of the
    # same factors: equal at every dominant monomial, and nothing else
    seen = []
    product = identities._dominant_product

    def recorded(one, factors, x_pos, y_pos):
        out = product(one, factors, x_pos, y_pos)
        seen.append((one, list(factors), list(x_pos), list(y_pos), out))
        return out

    monkeypatch.setattr(identities, "_dominant_product", recorded)
    assert suites.run_case(suite, case, {}).passed
    (one, factors, x_pos, y_pos, got), = seen
    plain = one
    for f in factors:
        plain = plain * f

    def dominant(e):
        return all(e[i] >= e[j] for chain in (x_pos, y_pos)
                   for i, j in zip(chain, chain[1:]))

    want = {e: c for e, c in plain.terms.items() if dominant(e)}
    assert want and set(got.terms) == set(want)
    for e, c in want.items():
        assert fe(got.terms[e]) == fe(c), e


class TestBridge:
    def test_zbifund_empty(self):
        val = zbifund((0.3, -0.3), Bipartition(P(), P()), (0.2, -0.2),
                      Bipartition(P(), P()), 0.5, 0.8)
        assert val == 1

    def test_zbifund_dual_path(self):
        # independent re-implementation reading arm/leg directly
        us, vs, m, b = (0.31, -0.31), (0.22, -0.22), 0.47, 0.83
        blam = Bipartition(P(1), P())
        bmu = Bipartition(P(), P())
        direct = zbifund(us, blam, vs, bmu, m, b)
        Q = b + 1 / b
        ref = 1.0
        lam = P(1)
        for i in (0, 1):
            for j in (0, 1):
                lam_i = [lam, P()][i]
                mu_j = P()
                for (r, c) in lam_i.cells():
                    E = (us[i] - vs[j] - b * mu_j.leg(r, c)
                         + (lam_i.arm(r, c) + 1) / b)
                    ref *= E - m
        assert abs(direct - ref) < 1e-14

    def test_bridge(self):
        for args in ((1, P(1), P(), 0.87, 0.45, 0.6),
                     (2, P(1), P(1), 0.91, 0.52, 0.63)):
            lhs, rhs = verify_Z_Selb(*args)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs)), (lhs, rhs)
