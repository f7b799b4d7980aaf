import json
import random
from fractions import Fraction

import mpmath
import pytest

from betadim import approximation
from betadim.approximation import (
    DEFAULT_C_GRID,
    PsiFunction,
    alpha_of,
    detect_hits,
    exactness_evidence,
    psi_exponential,
    psi_table,
    psi_tempered,
)
from betadim.errors import PrecisionExhausted, PreconditionViolated
from betadim.exact import (PRECISION_START, CertifiedReal, QuadNum, _ln2_fixed,
                           _log2_floor_fraction, compare, ln_interval, root_interval)
from betadim.numerics import GOLDEN, _orbit_walk, eval_word, expand, make_beta, orbit
from test_contract import FAMILIES
from test_numerics import lazy_sqrt2_minus_1

PHI = GOLDEN

WALKS = {
    "orbit": lambda x, b, psi, n: list(orbit(x, b, n)),
    "detect_hits": lambda x, b, psi, n: detect_hits(x, b, psi, n).hits,
    "exactness_evidence": lambda x, b, psi, n: exactness_evidence(x, b, psi, horizon=n).hits,
}


@pytest.mark.parametrize("name", WALKS)
def test_a_negative_length_is_named(name):
    # the one check of _orbit_walk, not islice's own message; 0 walks nothing
    x = Fraction(1, 3)
    for spec in ("9/5", "golden", "dec:1.8@200"):
        b = make_beta(spec)
        psi = psi_exponential(b, Fraction(1, 2))
        with pytest.raises(ValueError, match="^walk length must be >= 0, got -1$"):
            WALKS[name](x, b, psi, -1)
        assert WALKS[name](x, b, psi, 0) == [], spec


def error_two_ways(x, system, n):
    """(x - value(prefix), T^n(x) * beta**-n): must agree exactly."""
    digits = []
    last = x
    for d, t in orbit(x, system, n):
        digits.append(d)
        last = t
    direct = x - eval_word(digits, system)
    via_orbit = last * system.pow(-n)
    return direct, via_orbit


class TestAlpha:
    def test_exponential_exact(self):
        b = make_beta("2")
        psi = psi_exponential(b, 1)
        est = alpha_of(psi, 100)
        assert est.exact and est.value == 1

    def test_golden_half(self):
        psi = psi_exponential(make_beta("golden"), Fraction(1, 2))
        assert alpha_of(psi).value == Fraction(1, 2)

    def test_tempered_polynomial_factor_vanishes(self):
        psi = psi_tempered(make_beta("2"), Fraction(3, 2), p=2)
        assert alpha_of(psi).value == Fraction(3, 2)

    def test_table_example(self):
        b = make_beta("2")
        psi = psi_table(b, [Fraction(1, 2), Fraction(1, 10),
                            Fraction(1, 100), Fraction(1, 1000)])
        est = alpha_of(psi, 4)
        assert not est.exact
        assert est.horizon == 4
        assert abs(est.value - 1.0) < 1e-12  # the n=1 ratio is the minimum

    def test_psi_must_be_monotone(self):
        b = make_beta("2")
        with pytest.raises(ValueError):
            psi_table(b, [Fraction(1, 10), Fraction(1, 2)])


class TestPsiFamilies:
    def test_exponential_reads_p(self):
        b = make_beta("2")
        psi = PsiFunction(b, "exponential", alpha=1, p=Fraction(1, 2))
        assert psi == psi_tempered(b, 1, Fraction(1, 2))
        assert psi.value_exact(4) == Fraction(1, 32)
        assert psi.value_exact(9) == Fraction(1, 2 ** 9 * 3)
        assert psi.value_exact(2) is None  # 2**-1/2 is irrational
        assert psi.describe() == "n^-1/2*beta^-1n"
        assert psi_tempered(b, 1, 2).value_exact(3) == Fraction(1, 2 ** 3 * 9)

    def test_describe_strings_unchanged(self):
        b = make_beta("2")
        assert psi_exponential(b, Fraction(1, 2)).describe() == "beta^-1/2n"
        assert psi_exponential(b, 1, Fraction(7, 8)).describe() == "7/8*beta^-1n"
        assert psi_tempered(b, Fraction(3, 2), 2).describe() == "n^-2*beta^-3/2n"
        assert psi_tempered(b, 1, 0, 3).describe() == "3*beta^-1n"
        assert psi_table(b, [1, Fraction(1, 2)]).describe() == "table[2]"

    def test_fields_outside_the_family_rejected(self):
        b = make_beta("2")
        values = (Fraction(1, 2), Fraction(1, 4))
        for extra in ({"alpha": Fraction(1)}, {"c": Fraction(1, 2)}, {"p": Fraction(1)}):
            with pytest.raises(ValueError):
                PsiFunction(b, "table", table=values, **extra)
        with pytest.raises(ValueError):
            PsiFunction(b, "table")
        with pytest.raises(ValueError):
            PsiFunction(b, "tempered", alpha=Fraction(1), p=Fraction(1))
        with pytest.raises(ValueError):
            PsiFunction(b, "exponential", alpha=Fraction(1), table=(Fraction(1, 2),))

    def test_an_empty_table_is_named(self):
        b = make_beta("2")
        for make in (lambda: psi_table(b, []), lambda: PsiFunction(b, "table")):
            with pytest.raises(ValueError, match="^a table psi needs at least one value$"):
                make()

    def test_psi_is_an_immutable_value(self):
        b = make_beta("2")
        psi = psi_tempered(b, Fraction(3, 2), Fraction(1, 2), Fraction(7, 8))
        same = PsiFunction(b, "exponential", Fraction(3, 2), Fraction(7, 8), Fraction(1, 2))
        assert psi == same and hash(psi) == hash(same)
        assert psi != psi_tempered(b, Fraction(3, 2), Fraction(1, 2))
        assert psi != psi_tempered(make_beta("2"), Fraction(3, 2), Fraction(1, 2), Fraction(7, 8))
        assert len({psi, same, psi_table(b, [1, Fraction(1, 2)]),
                    psi_table(b, [1, Fraction(1, 2)])}) == 2
        for name in ("alpha", "table", "anything"):
            with pytest.raises(AttributeError):
                setattr(psi, name, Fraction(1))
        assert psi._replace(c=Fraction(1, 2)) == psi_tempered(
            b, Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError, match="non-increasing"):
            psi._replace(alpha=Fraction(-1))


class TestPsiValues:
    def test_exact_when_representable(self):
        bg = make_beta("golden")
        psi = psi_exponential(bg, Fraction(1, 2))
        v4 = psi.value_exact(4)  # phi^-2 lives in the field
        assert v4 == PHI ** -2
        assert psi.value_exact(3) is None  # phi^-1.5 does not

    def test_enclosure_brackets_true_value(self):
        import mpmath

        bg = make_beta("golden")
        psi = psi_exponential(bg, Fraction(1, 2))
        v = psi.value(5)
        lo, hi = v.enclosure(96)
        with mpmath.workdps(50):
            phi = (1 + mpmath.sqrt(5)) / 2
            true = mpmath.power(phi, mpmath.mpf(-5) / 2)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= true
            assert mpmath.mpf(hi.numerator) / hi.denominator >= true

    def test_values_match_mpmath(self):
        import mpmath

        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        c = Fraction(7, 8)
        with mpmath.workdps(800):
            bases = {"golden": [(1 + mpmath.sqrt(5)) / 2], "9/5": [mpmath.mpf(9) / 5],
                     "quad:(1+1*sqrt(13))/2": [(1 + mpmath.sqrt(13)) / 2],
                     "dec:1.8@200": None}
            for spec, betas in bases.items():
                b = make_beta(spec)
                if betas is None:  # psi at both declared ends of an interval beta
                    betas = [mp(e) for e in b.beta.enclosure(0)]
                psis = [(psi_exponential(b, a, c), a, Fraction(0))
                        for a in (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))]
                psis.append((psi_tempered(b, Fraction(3, 2), Fraction(1, 2), c),
                             Fraction(3, 2), Fraction(1, 2)))
                for psi, a, p in psis:
                    for n in (1, 7, 499, 1000):
                        if not p and (a * n).denominator == 1:
                            continue  # the exact path
                        true = [mp(c) * mpmath.power(n, -mp(p))
                                * mpmath.power(beta, -mp(a) * n) for beta in betas]
                        v = psi.value(n)
                        lo, hi = v.enclosure(128)
                        assert mp(lo) <= min(true) and max(true) <= mp(hi), (spec, a, p, n)
                        if not b.is_exact:
                            assert not v.refinable
                            continue
                        assert hi - lo <= Fraction(1, 2 ** 128), (spec, a, p, n)
                        lo2, hi2 = v.enclosure(256)
                        assert lo <= lo2 and hi2 <= hi
                        assert hi2 - lo2 <= Fraction(1, 2 ** 256), (spec, a, p, n)
                        assert mp(lo2) <= true[0] <= mp(hi2), (spec, a, p, n)

    def test_interval_beta_value_is_a_fixed_interval(self):
        # beta's declared width bounds psi's: no rung past the first can
        # decide what the first cannot
        psi = psi_exponential(make_beta("dec:1.8@200"), Fraction(3, 2))
        assert not psi.value(5).refinable
        with pytest.raises(PrecisionExhausted, match="at 128 bits"):
            compare(psi.value(5), psi.value(5))

    def test_interval_beta_value_is_no_wider_than_it_must_be(self):
        # psi(n) of an interval beta spans psi at beta's two declared ends,
        # and the fixed-point powers and the roots, taken at the w bits the
        # value is built at, widen that spread by less than 2**-w (0.72 *
        # 2**-w at worst here); containment alone would pass a slip in them
        b = make_beta("dec:1.8@200")
        w = b.declared_bits + PRECISION_START + 8
        c = Fraction(7, 8)
        psis = [(psi_exponential(b, a), a, Fraction(1), Fraction(0))
                for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2, 3))]
        psis.append((psi_tempered(b, Fraction(3, 2), Fraction(1, 2), c),
                     Fraction(3, 2), c, Fraction(1, 2)))
        with mpmath.workprec(w + 64):
            def mp(q):
                return mpmath.mpf(q.numerator) / q.denominator

            ends = [mp(e) for e in b.beta.enclosure(w)]
            for psi, a, c, p in psis:
                for n in (1, 2, 3, 7, 64, 499, 1000, 1001):
                    lo, hi = psi.value(n).enclosure(w)
                    true = [mp(c) * mpmath.power(n, -mp(p)) * mpmath.power(beta, -mp(a) * n)
                            for beta in ends]
                    assert mp(hi - lo) <= true[0] - true[1] + mpmath.ldexp(1, -w), (a, p, n)

    def test_log_value_matches_float(self):
        import math

        b = make_beta("2")
        psi = psi_exponential(b, Fraction(3, 2), c=Fraction(1, 7))
        lv = psi.log_value(11)
        assert abs(float(lv) - math.log((1 / 7) * 2 ** (-16.5))) < 1e-9

    def test_table_is_indexed_from_one_to_its_length(self):
        psi = psi_table(make_beta("2"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)))
        assert psi.value_exact(1) == Fraction(1, 2)
        assert psi.value_exact(3) == Fraction(1, 8)
        assert psi.log_value(2).terms == ((1, Fraction(1, 4)),)
        for n in (0, -1, 4):
            for read in (psi.value, psi.value_exact, psi.log_value):
                with pytest.raises(PreconditionViolated):
                    read(n)


class TestApproxError:
    # x - value(first n digits), worked by hand; both paths must give it
    def test_terminating_orbit(self):
        b = make_beta("2")
        assert error_two_ways(Fraction(5, 8), b, 3) == (0, 0)

    def test_third_in_base_two(self):
        b = make_beta("2")
        err = Fraction(1, 48)
        assert error_two_ways(Fraction(1, 3), b, 4) == (err, err)

    def test_golden_finite_expansion(self):
        b = make_beta("golden")
        assert error_two_ways(PHI - 1, b, 2) == (0, 0)

    def test_two_paths_agree_exactly(self):
        rng = random.Random(11)
        for spec in ("2", "1.8", "2.5", "golden"):
            b = make_beta(spec)
            for _ in range(25):
                x = Fraction(rng.randint(0, 996), 997)
                direct, via_orbit = error_two_ways(x, b, 17)
                assert direct == via_orbit

    def test_scaled_error_in_unit_interval(self):
        rng = random.Random(5)
        for spec in ("1.8", "golden"):
            b = make_beta(spec)
            for _ in range(20):
                x = Fraction(rng.randint(0, 88), 89)
                for _, err in orbit(x, b, 30):
                    assert err >= 0
                    assert err < 1


class TestHits:
    def test_lacunary_series_oracle(self):
        # x = sum 2^-(2^k): scaled error at n is 2^(n - next power of 2) * (1 + tail)
        b = make_beta("2")
        positions = [2, 4, 8, 16, 32]
        x = sum(Fraction(1, 2 ** p) for p in positions)

        def scaled_error(n):
            # after the last 1-digit the truncation error is exactly zero
            return sum(Fraction(2 ** n, 2 ** p) for p in positions if p > n)

        def oracle(c):
            return [n for n in range(1, 41)
                    if scaled_error(n) < Fraction(c, 2 ** n)]

        rec = detect_hits(x, b, psi_exponential(b, 1), 40)
        assert rec.hit_indices() == oracle(1)
        # At a doubling position p, T^p(x) = 2^-p * (1 + tail) with
        # 0 <= tail < 1, so psi(p) <= T^p(x) < 2 * psi(p): p is a hit of
        # 2 * beta^-n but, since hits are strict, not of beta^-n.
        # At p = 16 the only later digit is at 32 = 2p, so the tail is 0 and
        # T^16(x) = 2^16 * 2^-32 = psi(16) exactly: the tie pins strictness.
        assert scaled_error(16) == Fraction(1, 2 ** 16)
        for p in (2, 4, 8, 16):
            assert p not in rec.hit_indices()

        rec2 = detect_hits(x, b, psi_exponential(b, 1, c=2), 40)
        assert rec2.hit_indices() == oracle(2)
        assert rec2.hit_indices() == [1, 2, 4, 8, 16] + list(range(32, 41))

    def test_terminating_orbit_hits_everything(self):
        b = make_beta("2")
        psi = psi_exponential(b, Fraction(1, 2))
        rec = detect_hits(Fraction(5, 8), b, psi, 10)
        assert set(rec.hit_indices()) >= set(range(3, 11))

    def test_fast_decay_rarely_hits(self):
        # expected number of hits of beta^-2n is sum beta^-n < 1; with a
        # seeded sample most points see none (statistical check only)
        b = make_beta("2")
        psi = psi_exponential(b, 2)
        rng = random.Random(42)
        with_hits = 0
        for _ in range(60):
            x = Fraction(rng.randint(1, 10 ** 9), 10 ** 9 + 7)
            if detect_hits(x, b, psi, 40).hits:
                with_hits += 1
        assert with_hits <= 20

    def test_hit_floats_are_correctly_rounded(self):
        # T^n x = phi**(n - 200) here, far below the 2**-64 absolute width a
        # fixed enclosure would give its float; the ratio is the quotient's
        # own float, not the quotient of two rounded floats
        b = make_beta("golden")
        rec = detect_hits(b.pow(-200), b, psi_exponential(b, Fraction(1, 2)), 12)
        assert rec.hit_indices() == list(range(1, 13))
        with mpmath.workdps(80):
            phi = (1 + mpmath.sqrt(5)) / 2
            for h in rec.hits:
                err, psi = phi ** (h["n"] - 200), phi ** (-mpmath.mpf(h["n"]) / 2)
                assert h["scaled_error"] == float(err) and h["psi"] == float(psi)
                assert h["ratio"] == float(err / psi)

    def test_ratio_survives_float_underflow(self):
        # T^620 x = 2**-1380 and psi(620) = 2**-1240 both round to 0.0, yet
        # their ratio 2**-140 is a normal float, and the JSON stays standard
        b = make_beta("2")
        rec = detect_hits(Fraction(1, 2 ** 2000), b, psi_exponential(b, 2), 620)
        hit = rec.hits[-1]
        assert (hit["n"], hit["scaled_error"], hit["psi"]) == (620, 0.0, 0.0)
        assert hit["ratio"] == 2.0 ** -140
        json.loads(rec.to_json(), parse_constant=pytest.fail)

    def test_ratio_of_certified_values_is_correctly_rounded(self):
        # the lazy point's orbit and an irrational psi: both refine, so the
        # ratio is the float nearest the true quotient
        b = make_beta("golden")
        rec = detect_hits(lazy_sqrt2_minus_1(), b, psi_exponential(b, Fraction(1, 2)), 30)
        assert rec.hits
        with mpmath.workdps(200):
            phi, t, points = (1 + mpmath.sqrt(5)) / 2, mpmath.sqrt(2) - 1, [None]
            for _ in range(30):
                t = phi * t - mpmath.floor(phi * t)
                points.append(t)
            for h in rec.hits:
                n = h["n"]
                assert h["ratio"] == float(points[n] / phi ** (-mpmath.mpf(n) / 2)), n

    def test_monotone_in_psi(self):
        b = make_beta("1.8")
        small = psi_exponential(b, 2)
        big = psi_exponential(b, 1)
        x = Fraction(17, 61)
        hs = set(detect_hits(x, b, small, 30).hit_indices())
        hb = set(detect_hits(x, b, big, 30).hit_indices())
        assert hs <= hb


class TestEvidence:
    def test_terminating_point_not_exact_order(self):
        b = make_beta("2")
        psi = psi_exponential(b, 1)
        rep = exactness_evidence(Fraction(5, 8), b, psi, horizon=20)
        for c in rep.c_values:
            assert not rep.consistent(c)
            assert rep.violations[c]  # zero error beats every c*psi

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(5, 8), Fraction(1, 300 ** 5)])
    def test_an_exact_zero_error_is_below_any_psi(self, x):
        # under beta = 300, T^n x = 0 from n = 1, 2 or 5 on, and psi(n) = 7 *
        # 300**(-3n/2) is irrational at odd n and below 2**-8192, the
        # precision cap, from n = 665: a zero is a hit of psi and a violation
        # of every c*psi by sign alone, with ratio 0.0, and the other n are
        # decided as before (t < c*psi(n) iff t**2 * 300**(3n) < 49 c**2)
        b = make_beta("300")
        psi = psi_exponential(b, Fraction(3, 2), 7)
        points = [t for _, t in orbit(x, b, 1000)]

        def below(c):
            return [n for n, t in enumerate(points, 1)
                    if t == 0 or t * t * 300 ** (3 * n) < 49 * c * c]

        rec = detect_hits(x, b, psi, 1000)
        assert rec.hit_indices() == below(1)
        for h in rec.hits:
            if points[h["n"] - 1] == 0:
                assert h["scaled_error"] == h["ratio"] == 0.0, h
        rep = exactness_evidence(x, b, psi, horizon=1000)
        assert rep.hits == below(1) and rep.compared == rec.compared
        assert rep.violations == {float(c): below(c) for c in DEFAULT_C_GRID}

    def test_json_shape(self):
        import json

        b = make_beta("golden")
        psi = psi_exponential(b, Fraction(1, 2))
        rep = exactness_evidence(Fraction(2, 7), b, psi, horizon=12)
        data = json.loads(rep.to_json())
        assert data["finite_horizon_only"] is True
        assert set(data) >= {"x", "beta", "psi", "hits", "violations", "consistent"}

    def test_consistent_takes_a_constant_as_fraction_or_float(self):
        b = make_beta("2")
        x = Fraction(1, 2 ** 5) + Fraction(1, 2 ** 40)
        rep = exactness_evidence(x, b, psi_exponential(b, Fraction(1, 2)), horizon=60)
        assert rep.hits
        for c in DEFAULT_C_GRID:
            assert rep.consistent(c) == rep.consistent(float(c)) == (not rep.violations[float(c)])
        assert rep.consistent(Fraction(9, 10)) == rep.consistent(0.9)

    def test_compared_counts_the_uncleared_n(self, monkeypatch):
        # every n that reaches a certified comparison builds psi(n) once
        built = []
        value = PsiFunction.value
        monkeypatch.setattr(PsiFunction, "value",
                            lambda self, n: built.append(n) or value(self, n))
        b = make_beta("9/5")
        psi = psi_exponential(b, Fraction(3, 2))
        rep = exactness_evidence(Fraction(1, 3), b, psi, horizon=1000)
        assert rep.compared == len(built) and json.loads(rep.to_json())["compared"] == rep.compared
        assert set(rep.hits) <= set(built)
        built.clear()
        rec = detect_hits(Fraction(1, 3), b, psi, 1000)
        assert rec.compared == len(built) and json.loads(rec.to_json())["compared"] == rec.compared
        assert rec.hit_indices() == rep.hits

    def test_bad_constant_rejected(self):
        b = make_beta("2")
        psi = psi_exponential(b, 1)
        with pytest.raises(PreconditionViolated):
            exactness_evidence(Fraction(1, 3), b, psi, c_values=[Fraction(3, 2)])

    def test_constants_equal_as_floats_rejected(self):
        # the report is keyed by float(c), so these would merge their violations
        b = make_beta("golden")
        psi = psi_exponential(b, Fraction(1, 2))
        for grid in ([Fraction(1, 2), Fraction(1, 2)],
                     [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30)]):
            with pytest.raises(PreconditionViolated):
                exactness_evidence(Fraction(1, 3), b, psi, c_values=grid, horizon=30)

    def test_psi_refined_once_per_value(self, monkeypatch):
        # c*psi(n) scales psi(n)'s own enclosure, so deciding it asks psi for
        # no more bits than deciding psi(n) did; each refinement of an
        # exponential psi takes two roots.  psi is built only at the n the
        # magnitude bound cannot clear: a handful of 1000 here
        calls, built = [], []

        def counted(x, k, bits):
            calls.append(bits)
            return root_interval(x, k, bits)

        value = PsiFunction.value
        monkeypatch.setattr(approximation, "root_interval", counted)
        monkeypatch.setattr(PsiFunction, "value",
                            lambda self, n: built.append(n) or value(self, n))
        b = make_beta("9/5")
        psi = psi_exponential(b, Fraction(3, 2))
        rep = exactness_evidence(Fraction(1, 3), b, psi, horizon=1000)
        assert 0 < len(built) <= 10 and len(built) == len(set(built)) == rep.compared
        inexact = sum(psi.value_exact(n) is None for n in built)
        assert inexact
        assert len(calls) == 2 * inexact
        assert rep.hits and all(rep.violations[c] for c in rep.c_values)


def evidence_at_every_n(x, system, psi, cs, horizon):
    """exactness_evidence's hits and violations, with psi(n) and every
    c*psi(n) compared at every n up to the horizon or the table's end."""
    hits, violations = [], {float(c): [] for c in cs}
    horizon = min(horizon, psi.max_index() or horizon)
    for n, (_, err) in enumerate(orbit(x, system, horizon), start=1):
        pv = psi.value(n)
        if compare(err, pv) < 0:
            hits.append(n)
        for c in cs:
            if compare(err, pv.scaled(c)) < 0:
                violations[float(c)].append(n)
    return hits, violations


def hits_at_every_n(x, system, psi, horizon):
    """detect_hits's hits with their two floats, psi(n) compared at every n
    up to the horizon or the table's end."""
    horizon = min(horizon, psi.max_index() or horizon)
    return [(n, float(err), float(pv))
            for n, (_, err) in enumerate(orbit(x, system, horizon), start=1)
            if compare(err, (pv := psi.value(n))) < 0]


def test_a_rational_psi_at_a_non_integer_exponent_is_exact():
    # psi(1) = 4**(-1/2) = 1/2 is rational, so the tie T(1/8) = 1/2 = psi(1)
    # is decided (no hit) rather than compared through enclosures forever
    b = make_beta("4")
    psi = psi_exponential(b, Fraction(1, 2))
    assert [psi.value_exact(n) for n in (1, 2, 3)] == [Fraction(1, 2), Fraction(1, 4),
                                                       Fraction(1, 8)]
    assert psi_exponential(make_beta("9/5"), Fraction(1, 2)).value_exact(1) is None
    assert psi_tempered(b, 1, Fraction(1, 2)).value_exact(4) == Fraction(1, 512)  # 4**-4 / 2
    assert psi_tempered(b, 1, Fraction(1, 2)).value_exact(3) is None
    want = [n for n, _, _ in hits_at_every_n(Fraction(1, 8), b, psi, 5)]
    assert want == [2, 3, 4, 5]
    assert detect_hits(Fraction(1, 8), b, psi, 5).hit_indices() == want
    assert exactness_evidence(Fraction(1, 8), b, psi, horizon=5).hits == want


S13_SPEC = "quad:(1+1*sqrt(13))/2"


# (spec, point, alpha, horizon): alpha is the exponent of psi_exponential,
# or a maker of another psi.  The magnitude bound clears most n of the first
# rows; it cannot clear GOLDEN**-200 nor 2**-2000 (T^n x below psi(n) up to
# about n = 130 and 666), x = 0 (no k), a constant psi >= 1 nor a table entry
# equal to T^n x (T^2 x = 1/3 = psi(2), compare = 0: no hit)
SCREEN_CASES = [
    ("9/5", lambda: Fraction(1, 3), Fraction(3, 2), 120),
    ("golden", lambda: QuadNum(Fraction(1, 3), Fraction(1, 7), 5), Fraction(1, 2), 80),
    (S13_SPEC, lambda: QuadNum(Fraction(1, 5), Fraction(1, 9), 13), Fraction(1, 2), 80),
    ("golden", lazy_sqrt2_minus_1, Fraction(1, 2), 20),
    ("dec:1.8@200", lambda: Fraction(1, 3), Fraction(3, 2), 40),
    # violations at every n: T^n x = phi**(n - 200) < c * phi**(-n/2)
    ("golden", lambda: GOLDEN ** -200, Fraction(1, 2), 60),
    ("2", lambda: Fraction(5, 8), Fraction(1), 20),
    ("2", lambda: Fraction(1, 2 ** 2000), Fraction(2), 700),
    ("2", lambda: Fraction(0), Fraction(1), 20),
    ("dec:1.8@200", lambda: Fraction(2, 7), Fraction(1, 2), 60),
    ("2", lambda: Fraction(1, 3), lambda b: psi_table(
        b, [1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)]), 10),
    ("9/5", lambda: Fraction(1, 3),
     lambda b: psi_tempered(b, Fraction(3, 2), Fraction(1, 2), Fraction(7, 8)), 120),
    ("golden", lambda: QuadNum(Fraction(1, 3), Fraction(1, 7), 5),
     lambda b: psi_tempered(b, Fraction(1, 2), 2), 80),
    ("2", lambda: Fraction(1, 3), lambda b: psi_exponential(b, 1, c=3), 40),
    ("golden", lambda: QuadNum(Fraction(1, 3), Fraction(1, 7), 5),
     lambda b: psi_exponential(b, 0, c=Fraction(3, 2)), 40),
    ("golden", lazy_sqrt2_minus_1, lambda b: psi_exponential(b, 0, c=1), 20),
]


def case_psi(b, alpha):
    return alpha(b) if callable(alpha) else psi_exponential(b, alpha)


@pytest.mark.parametrize("spec, point, alpha, horizon", SCREEN_CASES)
def test_c_psi_compared_only_at_hits_changes_nothing(spec, point, alpha, horizon):
    b = make_beta(spec)
    psi = case_psi(b, alpha)
    cs = [Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)]
    rep = exactness_evidence(point(), b, psi, cs, horizon=horizon)
    hits, violations = evidence_at_every_n(point(), b, psi, cs, horizon)
    assert (rep.hits, rep.violations) == (hits, violations)
    assert hits and rep.compared >= len(hits)
    for v in violations.values():
        assert set(v) <= set(hits)


@pytest.mark.parametrize("spec, point, alpha, horizon", SCREEN_CASES)
def test_screened_hits_change_nothing(spec, point, alpha, horizon):
    b = make_beta(spec)
    psi = case_psi(b, alpha)
    rec = detect_hits(point(), b, psi, horizon)
    want = hits_at_every_n(point(), b, psi, horizon)
    assert [(h["n"], h["scaled_error"], h["psi"]) for h in rec.hits] == want
    assert want and rec.compared >= len(want)


def test_magnitude_bound_does_not_refine_the_lazy_point():
    # the bound reads the lower end the walk already holds
    calls = []
    x = lazy_sqrt2_minus_1()
    refine = x._refiner
    x._refiner = lambda bits: calls.append(bits) or refine(bits)
    steps, bound, _ = _orbit_walk(x, make_beta("golden"), 60)
    walked = len(calls)
    assert walked and all(bound(step) is not None for step in steps)
    assert len(calls) == walked


def test_magnitude_bounds_hold():
    # k and m bracket T^n x and psi(n) as the module docstring says, on exact,
    # quadratic, lazy and interval orbits and on every psi family
    for spec, point, alpha, horizon in SCREEN_CASES:
        b = make_beta(spec)
        psi = case_psi(b, alpha)
        horizon = min(horizon, psi.max_index() or horizon)
        steps, bound, build = _orbit_walk(point(), b, horizon)
        ceiling = psi._log2_ceiling()[0]
        for n, step in enumerate(steps, 1):
            k, t, pv = bound(step), build(step), psi.value(n)
            if k is not None:  # a lower end of T^n x is at least 2**k
                lo = t.enclosure(64)[0] if isinstance(t, CertifiedReal) else t
                assert lo >= Fraction(2) ** k, (spec, n)
            assert compare(pv, Fraction(2) ** ceiling(n)) <= 0, (spec, n)


def test_log2_ceiling_of_c_from_bit_lengths(monkeypatch):
    # ceil(log2 c) from bit lengths against -floor(log2(1/c)) by Fraction
    # powers, on every c = N/M with N, M <= 299.  alpha = 0 leaves m = ceil(log2 c),
    # whatever lam is, so the power of beta that bounds it is stubbed to keep
    # the grid fast
    monkeypatch.setattr(approximation, "pow_fixed", lambda b, k, bits, up: (1, 0))
    b = make_beta("9/5")
    for c in {Fraction(N, M) for N in range(1, 300) for M in range(1, 300)}:
        psi = PsiFunction(b, "exponential", c=c)
        assert psi._log2_ceiling()[0](1) == -_log2_floor_fraction(1 / c), c


def fresh_log2_ceiling(spec, alpha):
    """n -> m for c = 1 with lam taken by the ln route, the independent
    oracle: ln of the low end of beta's enclosure to 2**-32 over the upper
    bound on ln 2."""
    lnb = ln_interval(make_beta(spec).beta.enclosure(32)[0], 32)[0]
    lam = max(0, (lnb.numerator << 72) // (lnb.denominator * _ln2_fixed(40)[1]))
    return lambda n: -(alpha.numerator * lam * n // (alpha.denominator << 32))


def test_log2_ceiling_matches_the_ln_route():
    # the fixed-point power gives the ln route's lam on these bases
    for spec in ("9/5", "golden", S13_SPEC, "dec:1.8@200"):
        b = make_beta(spec)
        for alpha in (Fraction(1, 2), Fraction(3, 2)):
            ceiling = psi_exponential(b, alpha)._log2_ceiling()[0]
            want = fresh_log2_ceiling(spec, alpha)
            assert [ceiling(n) for n in range(1, 2001)] == [want(n) for n in range(1, 2001)], spec


# floor(2**(k/2**32) * 2**64)/2**64 for k = 3221225473: 2**32 * log2 of it lies
# just below k, so a power rounded up in _log2_ceiling gives lam = k, one too many
NEAR_LAM = "31023601934376901945/18446744073709551616"


def test_lam_is_a_lower_bound_on_log2_beta():
    # lam = -m(2**32) for alpha = c = 1.  On every exact and interval family
    # of the contract matrix, and on NEAR_LAM, it is at least the ln route's,
    # and 2**lam <= lo**(2**32), lo the low end of beta's enclosure to 2**-32
    # (equal on 2)
    for spec in [*FAMILIES.values(), NEAR_LAM]:
        b = make_beta(spec)
        lam = -psi_exponential(b, 1)._log2_ceiling()[0](2 ** 32)
        assert lam >= -fresh_log2_ceiling(spec, Fraction(1))(2 ** 32), spec
        lo = b.beta.enclosure(32)[0]
        with mpmath.workprec(256):
            assert mpmath.ldexp(1, lam) <= mpmath.power(
                mpmath.mpf(lo.numerator) / lo.denominator, 2 ** 32), spec


# to_json of the first and third rows of SCREEN_CASES, byte for byte: a stored
# report must stay comparable with a new one
JSON_ROWS = {
    0: ('{"beta": "9/5", "compared": 2, "hits": [{"n": 2, "psi": 0.17146776406035666, '
        '"ratio": 0.46656, "scaled_error": 0.08}], "horizon": 120, "psi": "beta^-3/2n", '
        '"x": "1/3"}',
        '{"beta": "9/5", "compared": 2, "consistent": {"0.9": false, "0.99": false}, '
        '"finite_horizon_only": true, "hits": [2], "horizon": 120, "psi": "beta^-3/2n", '
        '"violations": {"0.9": [2], "0.99": [2]}, "x": "1/3"}'),
    2: ('{"beta": "quad:(1+1*sqrt(13))/2", "compared": 5, "hits": [{"n": 1, '
        '"psi": 0.6589829632931833, "ratio": 0.5813287676613714, '
        '"scaled_error": 0.383085753961065}, {"n": 3, "psi": 0.2861689834195988, '
        '"ratio": 0.10978759085453267, "scaled_error": 0.03141780326692845}, {"n": 4, '
        '"psi": 0.18858048469644503, "ratio": 0.38364601761734346, '
        '"scaled_error": 0.07234815195413952}, {"n": 8, "psi": 0.03556259920834614, '
        '"ratio": 0.9669921912253756, "scaled_error": 0.03438875573414844}], '
        '"horizon": 80, "psi": "beta^-1/2n", "x": "QuadNum(1/5 + 1/9*sqrt(13))"}',
        '{"beta": "quad:(1+1*sqrt(13))/2", "compared": 5, "consistent": {"0.9": false, '
        '"0.99": false}, "finite_horizon_only": true, "hits": [1, 3, 4, 8], "horizon": 80, '
        '"psi": "beta^-1/2n", "violations": {"0.9": [1, 3, 4], "0.99": [1, 3, 4, 8]}, '
        '"x": "QuadNum(1/5 + 1/9*sqrt(13))"}'),
}


@pytest.mark.parametrize("row", sorted(JSON_ROWS))
def test_report_json_is_unchanged(row):
    spec, point, alpha, horizon = SCREEN_CASES[row]
    b = make_beta(spec)
    psi = case_psi(b, alpha)
    hits_json, evidence_json = JSON_ROWS[row]
    assert detect_hits(point(), b, psi, horizon).to_json() == hits_json
    assert exactness_evidence(point(), b, psi, horizon=horizon).to_json() == evidence_json


# The zero-run scan (module docstring) against the magnitude test taken at
# every n, and against the least that the digits let it compare: the exact
# rows of the contract matrix and two bases with digits above 255, on
# points whose expansion goes on and on points whose expansion ends (5/8 in
# base 2, 1/3 in base 300, beta**-5: T^n x = 0 from there on).  A point
# whose expansion has ended by digit 65 stops at horizon 65: each later n
# is a comparison of 0 with psi(n), which per_step_screen makes by
# enclosures, and psi(n) falls below 2**-8192 at the longer horizons
SCAN_SPECS = [spec for spec in FAMILIES.values() if make_beta(spec).is_exact] + ["257/2", "300"]
SCAN_HORIZONS = (0, 1, 2, 63, 64, 65, 1000)
SCAN_CS = (Fraction(1, 2), Fraction(9, 10))


def scan_points(b):
    """(x, the longest horizon for x) on base b."""
    points = [Fraction(1, 3), Fraction(5, 8), Fraction(2, 7), b.pow(-5)]
    if isinstance(b.beta_exact, QuadNum):
        points.append(QuadNum(Fraction(1, 5), Fraction(1, 9), b.beta_exact.d))
    return [(x, 65 if [t for _, t in orbit(x, b, 65)][-1] == 0 else 1000) for x in points]


def scan_psis(b):
    return [psi_exponential(b, Fraction(1, 7), Fraction(1, 3)), psi_exponential(b, Fraction(1, 2)),
            psi_exponential(b, Fraction(3, 2), 7),
            psi_tempered(b, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))]


def per_step_screen(x, system, psi, cs, horizon):
    """(hits, violations, compared) of exactness_evidence with the magnitude
    test taken at every n <= horizon, no n dropped before it."""
    steps, bound, point = _orbit_walk(x, system, horizon)
    ceiling = psi._log2_ceiling()[0]
    hits, violations, compared = [], {float(c): [] for c in cs}, 0
    for n, step in enumerate(steps, start=1):
        k = bound(step)
        if k is None or k < ceiling(n):
            compared += 1
            err, pv = point(step), psi.value(n)
            if compare(err, pv) < 0:
                hits.append(n)
                for c in cs:
                    if compare(err, pv.scaled(c)) < 0:
                        violations[float(c)].append(n)
    return hits, violations, compared


def zero_run(digits, n):
    """The zeros after digit n up to the next nonzero digit, or None when
    they reach the end of the digits (an open run)."""
    return next((z for z, d in enumerate(digits[n:]) if d), None)


def least_compared(x, system, psi, horizon):
    """The n <= horizon that the magnitude test does not clear and whose
    zero run, read from ``expand``'s digits, is at least Z(n) long or open:
    no screen by the digit rule may clear them."""
    steps, bound, _ = _orbit_walk(x, system, horizon)
    ceiling, least = psi._log2_ceiling()
    digits = expand(x, system, horizon) if horizon else ()
    count = 0
    for n, step in enumerate(steps, start=1):
        k, z = bound(step), zero_run(digits, n)
        count += (k is None or k < ceiling(n)) and (z is None or z >= least(n))
    return count


def check_scan(spec, horizons):
    # hits and violations are those of the per-step test, and compared lies
    # between the least the digit rule allows and the per-step count
    b = make_beta(spec)
    for x, last in scan_points(b):
        for psi in scan_psis(b):
            for horizon in (h for h in horizons if h <= last):
                hits, violations, most = per_step_screen(x, b, psi, SCAN_CS, horizon)
                rep = exactness_evidence(x, b, psi, SCAN_CS, horizon=horizon)
                rec = detect_hits(x, b, psi, horizon)
                case = (spec, x, psi.describe(), horizon)
                assert (rep.hits, rep.violations) == (hits, violations), case
                assert least_compared(x, b, psi, horizon) <= rep.compared <= most, case
                assert (rec.hit_indices(), rec.compared) == (hits, rep.compared), case


@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_the_zero_run_scan_changes_no_report(spec):
    check_scan(spec, SCAN_HORIZONS)


@pytest.mark.parametrize("lookahead", [1, 3, 7])
def test_the_zero_run_scan_reads_any_lookahead(monkeypatch, lookahead):
    # shorter segments and windows: runs cut at a window's end stay proposed
    monkeypatch.setattr(approximation, "_LOOKAHEAD", lookahead)
    for spec in SCAN_SPECS:
        check_scan(spec, (2, 9, 65, 300))


def test_the_scan_holds_a_window_of_the_walk_not_all_of_it():
    # a 9/5 walk's unreduced pair grows log2(9) bits a step.  Holding at most
    # 128 steps, the tracemalloc peak grows with the size of a step alone,
    # about 3.6x from h = 1000 to h = 4000; a walk held whole grows about 12x
    import tracemalloc

    b = make_beta("9/5")
    psi = psi_exponential(b, Fraction(3, 2))
    detect_hits(Fraction(1, 3), b, psi, 50)
    peaks = []
    for horizon in (1000, 4000):
        tracemalloc.start()
        try:
            detect_hits(Fraction(1, 3), b, psi, horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 6 * peaks[0], peaks


def test_a_zero_run_shorter_than_z_clears_n():
    # z < Z(n) gives T^n x >= beta**-(z+1) >= beta**(e - floor(alpha*n)) >=
    # psi(n): on every exponential and tempered row, exact, quadratic, lazy
    # and interval walks alike, each n so cleared is no hit
    for spec, point, alpha, horizon in SCREEN_CASES:
        b = make_beta(spec)
        psi = case_psi(b, alpha)
        least = psi._log2_ceiling()[1]
        if psi.family == "table":
            assert least is None
            continue
        walk = list(orbit(point(), b, horizon))
        digits = [d for d, _ in walk]
        cleared = [n for n in range(1, horizon + 1)
                   if (z := zero_run(digits, n)) is not None and z < least(n)]
        for n in cleared:
            assert compare(walk[n - 1][1], psi.value(n)) >= 0, (spec, n)
        if psi.alpha and (spec.startswith("dec:") or point is lazy_sqrt2_minus_1):
            assert cleared, spec


def test_beta_to_the_e_is_at_least_c():
    # e, read as -Z(n) for alpha = 0, against exact powers of beta: beta**e
    # >= c, and e is at most one above the least k with beta**k >=
    # 2**ceil(log2 c), lam being rounded down
    for spec in ("9/5", "golden", S13_SPEC):
        b = make_beta(spec)
        least_k = {}
        for c in {Fraction(N, M) for N in range(1, 61) for M in range(1, 61)}:
            e = -PsiFunction(b, "exponential", c=c)._log2_ceiling()[1](1)
            assert compare(b.pow(e), c) >= 0, (spec, c)
            top = -_log2_floor_fraction(1 / c)
            if top not in least_k:
                least_k[top] = next(k for k in range(64) if compare(b.pow(k), Fraction(2) ** top) >= 0)
            assert e <= least_k[top] + 1, (spec, c)


# 1 + 2**-40 < 2**(2**-32): lam = 0, so a psi with c > 1 has no Z
LAM_ZERO = "1099511627777/1099511627776"


def test_a_base_with_lam_zero_takes_the_per_step_test_alone():
    b = make_beta(LAM_ZERO)
    assert psi_exponential(b, 1)._log2_ceiling()[0](2 ** 32) == 0  # -lam
    assert psi_exponential(b, 1)._log2_ceiling()[1] is not None  # c <= 1: e = 0
    for c in (Fraction(3, 2), 2):
        psi = psi_exponential(b, 1, c)
        assert psi._log2_ceiling()[1] is None
        for x in (Fraction(1, 3), 1 - Fraction(1, 2 ** 41)):
            rec = detect_hits(x, b, psi, 30)
            want = hits_at_every_n(x, b, psi, 30)
            assert [(h["n"], h["scaled_error"], h["psi"]) for h in rec.hits] == want, (c, x)
            assert want and rec.compared == per_step_screen(x, b, psi, (), 30)[2], (c, x)


def test_certified_walks_are_screened(monkeypatch):
    # the digit rule clears most n of a lazy point and of an interval beta
    # before their per-step bound is taken
    calls = []

    def counted(*args):
        steps, bound, point = _orbit_walk(*args)
        return steps, lambda step: calls.append(step) or bound(step), point

    monkeypatch.setattr(approximation, "_orbit_walk", counted)
    for spec, x, alpha, horizon in (("golden", lazy_sqrt2_minus_1, Fraction(1, 2), 60),
                                    ("dec:1.8@200", lambda: Fraction(1, 3), Fraction(3, 2), 200)):
        b = make_beta(spec)
        psi = psi_exponential(b, alpha)
        del calls[:]
        rec = detect_hits(x(), b, psi, horizon)
        assert rec.hits and len(calls) < horizon, (spec, len(calls))
        assert rec.hit_indices() == [n for n, _, _ in hits_at_every_n(x(), b, psi, horizon)], spec
