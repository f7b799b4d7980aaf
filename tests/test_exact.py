import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadim.errors import PrecisionExhausted
from betadim.exact import (
    PRECISION_START,
    CertifiedReal,
    LogValue,
    QuadNum,
    compare,
    inv_pow_fixed,
    iroot,
    ln_interval,
    pow_interval,
    root_interval,
)

PHI = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)


class TestQuadNum:
    def test_golden_ratio_identities(self):
        assert PHI * PHI == PHI + 1
        assert 1 / PHI == PHI - 1
        assert PHI ** 2 - PHI - 1 == 0
        assert PHI ** -2 == 1 - (PHI - 1)

    def test_floor_and_sign(self):
        assert math.floor(PHI) == 1
        assert math.floor(PHI ** 3) == 4  # phi^3 = 2phi + 1 ~ 4.236
        assert math.floor(1 - PHI) == -1  # negative sqrt coefficient
        assert math.floor(-PHI) == -2
        assert (PHI - 2).sign() == -1
        assert (PHI - 1).sign() == 1
        assert QuadNum(Fraction(3, 2)).sign() == 1

    @given(st.sampled_from([5, 13]),
           st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 64),
           st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 64))
    @settings(max_examples=200)
    def test_floor_is_exact(self, d, a, a_den, b, b_den):
        x = QuadNum(Fraction(a, a_den), Fraction(b, b_den), d)
        f = math.floor(x)
        assert f <= x < f + 1  # exact QuadNum comparisons

    def test_mixed_arithmetic_with_rationals(self):
        x = PHI + Fraction(1, 3)
        assert x - Fraction(1, 3) == PHI
        assert (PHI * 2) / 2 == PHI
        assert 2 - PHI == -(PHI - 2)

    def test_mixed_radicands_rejected(self):
        r2 = QuadNum(0, 1, 2)
        with pytest.raises(ValueError):
            _ = PHI + r2

    def test_enclosure_contains_value(self):
        lo, hi = PHI.enclosure(100)
        assert hi - lo <= Fraction(1, 2 ** 100)
        # check against 60-digit mpmath value
        with mpmath.workdps(60):
            val = (1 + mpmath.sqrt(5)) / 2
            assert mpmath.mpf(lo.numerator) / lo.denominator <= val
            assert mpmath.mpf(hi.numerator) / hi.denominator >= val

    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
    @settings(max_examples=100)
    def test_field_axioms_sample(self, a1, b1, a2, b2):
        x = QuadNum(a1, b1, 5)
        y = QuadNum(a2, b2, 5)
        assert (x + y) - y == x
        assert x * y == y * x
        if y != 0:
            assert (x / y) * y == x

    def test_ordering_matches_floats(self):
        rng = random.Random(7)
        for _ in range(200):
            x = QuadNum(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)), 5)
            y = QuadNum(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)), 5)
            fx = float(x.a) + float(x.b) * math.sqrt(5)
            fy = float(y.a) + float(y.b) * math.sqrt(5)
            if abs(fx - fy) > 1e-9:
                assert (x < y) == (fx < fy)


class TestIntegerRoots:
    @given(st.integers(min_value=0, max_value=10 ** 30),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=200)
    def test_iroot_floor_property(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    def test_root_interval_brackets(self):
        for x in (Fraction(2), Fraction(10, 7), Fraction(1, 3), Fraction(98, 5)):
            for k in (2, 3, 5):
                lo, hi = root_interval(x, k, 80)
                assert lo ** k <= x <= hi ** k
                assert hi - lo <= Fraction(1, 2 ** 80)

    def test_pow_interval_rational_exponent(self):
        lo, hi = pow_interval(Fraction(2), Fraction(-3, 2), 64)
        with mpmath.workdps(40):
            val = mpmath.power(2, mpmath.mpf(-3) / 2)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= val
            assert mpmath.mpf(hi.numerator) / hi.denominator >= val

    def test_inv_pow_fixed_rounds_outward(self):
        # b**-k over 2**P, checked in exact rational arithmetic: the two
        # rounding directions bracket it and lie at most k + 2 units apart.
        # The last two bases keep b**-k near 1, so a flipped inner rounding
        # moves the result by more units than the final rounding absorbs:
        # the first of them rounds from b on, the second is exact at P = 64
        # and rounds from its first square on
        for b in (Fraction(9, 5), *PHI.enclosure(200), 1 + Fraction(1, 2 ** 40),
                  1 + Fraction(1, 3 * 2 ** 40), 1 + Fraction(2 ** 57 + 1, 2 ** 68)):
            for k in (1, 2, 3, 64, 1001):
                for P in (64, 1200):
                    lo = inv_pow_fixed(b, k, P, up=False)
                    hi = inv_pow_fixed(b, k, P, up=True)
                    assert lo <= b ** -k * 2 ** P <= hi, (b, k, P)
                    assert hi - lo <= k + 2, (b, k, P)
        # 1 + m/2**30 has an exact square at the 68 bits used for P = 64 and
        # a cube that rounds, so only the multiplication by b rounds here
        for m in range(1, 400, 2):
            b = 1 + Fraction(m, 2 ** 30)
            lo, hi = inv_pow_fixed(b, 3, 64, up=False), inv_pow_fixed(b, 3, 64, up=True)
            assert lo <= b ** -3 * 2 ** 64 <= hi <= lo + 5, m


class TestLn:
    def test_ln_known_values(self):
        for x in (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(10, 7),
                  Fraction(1), Fraction(1000000), Fraction(1, 977)):
            lo, hi = ln_interval(x, 96)
            assert hi - lo <= Fraction(1, 2 ** 90)
            with mpmath.workdps(60):
                val = mpmath.ln(mpmath.mpf(x.numerator) / x.denominator)
                assert mpmath.mpf(lo.numerator) / lo.denominator <= val
                assert mpmath.mpf(hi.numerator) / hi.denominator >= val

    @given(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6))
    @settings(max_examples=100)
    def test_ln_product_rule(self, x):
        if x <= 0:
            return
        lo1, hi1 = ln_interval(x, 80)
        lo2, hi2 = ln_interval(x * x, 80)
        # ln(x^2) = 2 ln(x) up to interval slack
        assert lo2 <= 2 * hi1 and hi2 >= 2 * lo1

    def test_ln_quadnum(self):
        lo, hi = ln_interval(PHI, 80)
        with mpmath.workdps(40):
            val = mpmath.ln((1 + mpmath.sqrt(5)) / 2)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= val
            assert mpmath.mpf(hi.numerator) / hi.denominator >= val

    def test_logvalue_sign_with_huge_coefficients(self):
        # 10^11 * ln(golden) vs (10^11 * log2(golden)) * ln 2: tiny but sure gap
        n = 10 ** 11
        v = LogValue.of(PHI, n) - LogValue.of(Fraction(2), int(n * 0.69424191363))
        assert v.sign() == 1

    def test_logvalue_exact_zero(self):
        v = LogValue.of(Fraction(8), 1) - LogValue.of(Fraction(2), 3)
        with pytest.raises(PrecisionExhausted, match="log-linear sign undecided at 8192 bits"):
            v.sign()  # genuinely zero: certified sign must refuse, not guess


class TestCertifiedReal:
    def test_exact_floor(self):
        assert CertifiedReal.from_exact(Fraction(7, 2)).floor() == 3
        assert CertifiedReal.from_exact(PHI).floor() == 1

    def test_interval_floor_decides(self):
        x = CertifiedReal.from_interval(Fraction(199, 100), Fraction(1999, 1000))
        assert x.floor() == 1

    def test_interval_floor_exhausts(self):
        x = CertifiedReal.from_interval(Fraction(999, 1000), Fraction(1001, 1000))
        with pytest.raises(PrecisionExhausted, match="floor undecided at 128 bits") as info:
            x.floor()  # a fixed interval cannot refine: one rung only
        err = info.value
        assert (err.site, err.bits, err.width_log2) == ("floor", 128, None)

    def test_product_mixes_exact_and_interval(self):
        a = CertifiedReal.from_exact(Fraction(1, 3))
        b = CertifiedReal.from_interval(Fraction(1, 4), Fraction(26, 100))
        p = a * b
        assert not p.refinable  # a fixed side gives a fixed product
        lo, hi = p.enclosure(64)
        assert lo <= Fraction(1, 12) and hi >= Fraction(13, 150)
        square = CertifiedReal.from_exact(PHI) * CertifiedReal.from_exact(PHI)
        assert square.exact == PHI + 1  # one field: exact
        root6 = (CertifiedReal.from_exact(QuadNum(0, 1, 2))
                 * CertifiedReal.from_exact(QuadNum(0, 1, 3)))
        assert root6.exact is None and root6.refinable  # mixed radicands
        lo, hi = root6.enclosure(64)
        assert Fraction(2449, 1000) < lo <= hi < Fraction(2450, 1000)

    def test_compare_mixes_exact_and_interval(self):
        b = CertifiedReal.from_interval(Fraction(1, 4), Fraction(26, 100))
        assert compare(Fraction(1, 3), b) == 1
        assert compare(b, Fraction(27, 100)) == -1
        # b touches 1/4, and the exact side counts as refinable: every rung runs
        with pytest.raises(PrecisionExhausted, match="comparison undecided at 8192 bits") as info:
            compare(b, Fraction(1, 4))
        assert (info.value.site, info.value.bits) == ("comparison", 8192)

    def test_scaled_keeps_the_kind_and_the_bits(self):
        c = Fraction(9, 10)
        assert CertifiedReal.from_exact(PHI).scaled(c).exact == PHI * c
        fixed = CertifiedReal.from_interval(Fraction(1, 4), Fraction(26, 100)).scaled(c)
        assert not fixed.refinable
        assert fixed.enclosure(PRECISION_START) == (Fraction(9, 40), Fraction(117, 500))
        asked = []

        def refiner(bits):
            asked.append(bits)
            return Fraction(1, 3) - Fraction(1, 2 ** bits), Fraction(1, 3)

        scaled = CertifiedReal.from_refiner(refiner).scaled(c)
        lo, hi = scaled.enclosure(64)
        assert asked == [64] and (lo, hi) == (c * (Fraction(1, 3) - Fraction(1, 2 ** 64)),
                                              Fraction(3, 10))
        for bad in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                scaled.scaled(bad)

    def test_cmp_certified(self):
        a = CertifiedReal.from_exact(PHI)          # 1.618...
        b = CertifiedReal.from_exact(Fraction(13, 8))  # 1.625
        assert a.cmp(b) == -1
        assert b.cmp(a) == 1
        assert a.cmp(PHI) == 0
        # mixed radicands have no exact difference: enclosures decide
        assert compare(QuadNum(0, 1, 2), QuadNum(0, 1, 3)) == -1

    def test_refinable_comparison(self):
        # sqrt(2) as a refinable enclosure vs exact 1.41421356...
        def refiner(bits):
            s = math.isqrt(2 << (2 * bits))
            return Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)

        r = CertifiedReal.from_refiner(refiner)
        assert r.cmp(Fraction(141421356, 100000000)) == 1
        assert r.cmp(Fraction(141421357, 100000000)) == -1
