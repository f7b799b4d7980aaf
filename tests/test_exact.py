import copy
import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadim.approximation import (AlphaEstimate, EvidenceReport, HitRecord, PsiFunction,
                                   detect_hits)
from betadim.cylinders import CensusRecord
from betadim.errors import PrecisionExhausted
from betadim.exact import (
    PRECISION_START,
    CertifiedReal,
    LogValue,
    QuadNum,
    compare,
    iroot,
    ln_interval,
    _log2_floor_fraction,
    pow_fixed,
    pow_interval,
    rational_power,
    root_interval,
)
from betadim.numerics import make_beta

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

    def test_square_radicand_rejected(self):
        for a, b, d in ((1, 1, 4), (0, 1, 9), (Fraction(1, 2), 3, 1), (1, 1, 0), (1, 1, -3)):
            with pytest.raises(ValueError, match="radicand"):
                QuadNum(a, b, d)
        assert QuadNum(2, 0, 4) == 2  # no root term: a rational, whatever d is

    def test_values_inside_a_checked_field_skip_the_square_test(self, monkeypatch):
        # sums, products, inverses and orbit points of a field whose radicand
        # was checked once are built without another isqrt, and a base checks
        # its radicand once (golden, a built constant, never)
        from betadim import exact
        from betadim.numerics import make_beta, orbit
        x = QuadNum(Fraction(1, 5), Fraction(1, 9), 13)
        calls = []
        is_square = exact._is_square
        monkeypatch.setattr(exact, "_is_square", lambda n: calls.append(n) or is_square(n))
        make_beta("golden")
        assert calls == []
        b = make_beta("quad:(1+1*sqrt(13))/2")
        assert len(calls) <= 1
        calls.clear()
        points = [p for _, p in orbit(x, b, 300)]
        tails = [b.tail_sup(s) for s in range(300)]
        y = (x + 1) * x - x / 3 - (-x).inverse()
        assert calls == []
        assert all(p.d == 13 and 0 <= p < 1 for p in points)
        assert all(0 < p <= 1 for p in tails)
        assert y * x == x ** 3 + Fraction(2, 3) * x ** 2 + 1
        QuadNum(2, 1, 13)  # the public constructor still checks
        assert calls == [13]

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


def assert_reduced(z: QuadNum) -> None:
    assert z.D > 0 and math.gcd(z.X, z.Y, z.D) == 1, (z.X, z.Y, z.D)
    assert (z.d == 0) == (z.Y == 0), (z.Y, z.d)
    # the stored coordinates are integers; only the ``_ab`` slot keeps Fractions
    assert all(type(v) is int for v in (z.X, z.Y, z.D, z.d)), (z.X, z.Y, z.D, z.d)


def seeded_values(d: int, seed: int, count: int = 40) -> list[QuadNum]:
    """Values of Q(sqrt(d)), rationals among them, with shared factors."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = Fraction(rng.randint(-60, 60) * rng.choice((1, 6, 35)), rng.randint(1, 90))
        b = Fraction(rng.choice((0, rng.randint(-60, 60))), rng.randint(1, 90))
        out.append(QuadNum(a, b, d))
    return out


class TestOneFormat:
    """A QuadNum is its reduced integer triple (X, Y, D) and radicand d."""

    @pytest.mark.parametrize("d", [5, 13])
    def test_every_result_is_reduced(self, d):
        xs = seeded_values(d, d)
        for x, y in zip(xs, xs[1:] + xs[:1]):
            assert_reduced(x)
            results = [x + y, x - y, x * y, -x, x ** 3, x ** 0, x + 1, 2 - x,
                       Fraction(1, 3) * x, x - x, x * QuadNum(x.a, -x.b, d)]
            if x != 0:
                results += [x.inverse(), y / x, 1 / x, x ** -2]
            for z in results:
                assert_reduced(z)

    @pytest.mark.parametrize("spec, x", [
        ("golden", QuadNum(Fraction(1, 3), Fraction(1, 7), 5)),
        ("quad:(1+1*sqrt(13))/2", QuadNum(Fraction(1, 5), Fraction(1, 9), 13)),
        ("quad:(1+1*sqrt(13))/2", Fraction(2, 7)),
    ])
    def test_orbit_points_are_reduced(self, spec, x):
        from betadim.numerics import make_beta, orbit
        b = make_beta(spec)
        for _, p in orbit(x, b, 200):
            assert_reduced(p)
        for s in range(1, 50):  # p_0 is the Fraction 1
            assert_reduced(b.tail_sup(s))

    @pytest.mark.parametrize("d", [5, 13])
    def test_equal_values_share_triple_and_hash(self, d):
        xs = seeded_values(d, d + 1)
        for x, y, z in zip(xs, xs[1:], xs[2:]):
            pairs = [((x + y) * z, x * z + y * z), (x ** 3, x * x * x),
                     (x - y, -(y - x)), (QuadNum(x.a, x.b, x.d), x)]
            if y != 0 and x != 0:
                pairs += [(x / y, x * y.inverse()), ((x * y).inverse(), x.inverse() / y)]
            for u, v in pairs:
                assert (u.X, u.Y, u.D, u.d) == (v.X, v.Y, v.D, v.d)
                assert u == v and hash(u) == hash(v)

    def test_a_rational_hashes_as_its_fraction(self):
        assert hash(QuadNum(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert hash(PHI - PHI + Fraction(-7, 3)) == hash(Fraction(-7, 3))
        assert hash(QuadNum(5)) == hash(5)
        assert QuadNum(Fraction(1, 2)) in {Fraction(1, 2)}

    def test_a_and_b_read_back_the_rationals(self):
        x = QuadNum(Fraction(6, 4), Fraction(-10, 6), 13)
        assert (x.a, x.b, x.d) == (Fraction(3, 2), Fraction(-5, 3), 13)
        assert (x.X, x.Y, x.D) == (9, -10, 6)
        assert (PHI.X, PHI.Y, PHI.D, PHI.d) == (1, 1, 2, 5)

    def test_read_coordinates_are_kept_and_change_nothing_else(self):
        import copy
        import pickle
        # make() is a fresh number whose coordinates were never read; hashing
        # and printing read them, so those come after the pickle checks
        for make in (lambda: QuadNum(Fraction(6, 4), Fraction(-10, 6), 13),
                     lambda: QuadNum(Fraction(-7, 3)), lambda: PHI ** 5):
            read = make()
            first = (read.a, read.b)
            assert (read.a, read.b) == first and read.a is first[0] and read.b is first[1]
            assert first == (make().a, make().b)
            for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.dumps(read, proto) == pickle.dumps(make(), proto)
                assert pickle.loads(pickle.dumps(read, proto)) == make()
            for twin in (copy.copy(read), copy.deepcopy(read)):
                assert pickle.dumps(twin) == pickle.dumps(make())
                assert (twin.X, twin.Y, twin.D, twin.d) == (read.X, read.Y, read.D, read.d)
            assert read == make() and hash(read) == hash(make()) and repr(read) == repr(make())

    def test_mixed_radicands_raise_in_every_operation(self):
        import operator
        r13 = QuadNum(1, 1, 13)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.eq, operator.lt):
            with pytest.raises(ValueError, match="mixed radicands"):
                op(PHI, r13)


class TestIntegerRoots:
    @given(st.integers(min_value=0, max_value=10 ** 30),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=200)
    def test_iroot_floor_property(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(-6, 6), st.integers(1, 6),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=200)
    def test_rational_power_is_found_where_it_is_rational(self, r, s, k, m, u, v):
        # (r/s)**m to the power k/m is (r/s)**k, whatever k/m reduces to; the
        # denominator v**m + 1 lies strictly between v**m and (v + 1)**m, so
        # it is no m-th power for m > 1; an integer power is always rational
        assert rational_power(Fraction(r, s) ** m, Fraction(k, m)) == Fraction(r, s) ** k
        if m > 1:
            assert rational_power(Fraction(1, v ** m + 1), Fraction(1, m)) is None
        assert rational_power(Fraction(u, v), Fraction(k)) == Fraction(u, v) ** k

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

    def test_pow_fixed_rounds_outward(self):
        # b**k as m*2**e, checked in exact rational arithmetic: the two
        # rounding directions bracket it and lie at most 4(k + 2) units of
        # 2**-P * b**k apart (3.85(k + 2) at worst here).  The last three
        # bases keep b**k near 1: 1 + 2**-40 is exact at both widths and
        # rounds from its first square on, the other two round from b on at
        # P = 64.  Flipping the direction of the cuts fails the bracket or
        # the bound on every base, and that of b on all but 1 + 2**-40
        def value(b, k, P, up):
            m, e = pow_fixed(b, k, P, up)
            return m * Fraction(2) ** e

        for b in (Fraction(9, 5), *PHI.enclosure(200), 1 + Fraction(1, 2 ** 40),
                  1 + Fraction(1, 3 * 2 ** 40), 1 + Fraction(2 ** 57 + 1, 2 ** 68)):
            for k in (0, 1, 2, 3, 64, 1001):
                for P in (64, 1200):
                    lo, hi = value(b, k, P, False), value(b, k, P, True)
                    assert lo <= b ** k <= hi, (b, k, P)
                    assert hi - lo <= 4 * (k + 2) * b ** k / 2 ** P, (b, k, P)
        # 1 + m/2**30 is exact at 64 bits and has an exact square there but a
        # cube that rounds, so only the multiplication by b rounds here: the
        # two directions are one unit apart
        for m in range(1, 400, 2):
            b = 1 + Fraction(m, 2 ** 30)
            (mlo, elo), (mhi, ehi) = pow_fixed(b, 3, 64, False), pow_fixed(b, 3, 64, True)
            assert mlo * Fraction(2) ** elo < b ** 3 < mhi * Fraction(2) ** ehi, m
            assert (mhi, ehi) == (mlo + 1, elo), m
        # a power of 2 comes out exact, which lets the growth-bound check
        # decide beta = 2 with no exact fallback
        for k in (0, 1, 2, 63, 64, 65, 1001, 2 ** 32):
            for P in (64, 1200):
                for up in (False, True):
                    m, e = pow_fixed(Fraction(2), k, P, up)
                    assert m == 1 << m.bit_length() - 1 and e + m.bit_length() - 1 == k


class TestLn:
    def test_log2_floor_near_powers_of_two(self):
        # 2**e <= x < 2**(e + 1), next to powers of 2, where the bit lengths
        # of the numerator and the denominator leave e0 or e0 - 1
        for a in range(71):
            for b in range(71):
                for t in (-1, 0, 1):
                    for u in (-1, 0, 1):
                        if 2 ** a + t > 0 and 2 ** b + u > 0:
                            x = Fraction(2 ** a + t, 2 ** b + u)
                            e = _log2_floor_fraction(x)
                            assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1), x

    @given(st.fractions(min_value=Fraction(1, 2 ** 200), max_value=2 ** 200))
    @settings(max_examples=300)
    def test_log2_floor_of_any_fraction(self, x):
        if x > 0:
            e = _log2_floor_fraction(x)
            assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1)

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


# ---------------------------------------------------------------------------
# mpmath oracles for the integer-coordinate paths
# ---------------------------------------------------------------------------

#: decimal digits of the oracle: above the bits of every coordinate below,
#: so no cancellation reaches its rounding
ORACLE_DPS = 1500
S13 = QuadNum(Fraction(1, 2), Fraction(1, 2), 13)
S2 = QuadNum(1, 1, 2)


def mp_value(x):
    """x as an mpmath number at the working precision."""
    if isinstance(x, QuadNum):
        return (mpmath.mpf(x.a.numerator) / x.a.denominator
                + mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(x.d))
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def mp_sign(x, y) -> int:
    """Sign of x - y by mpmath.  Equal values have equal reduced a, b and d,
    so they evaluate identically and give exactly 0."""
    diff = mp_value(x) - mp_value(y)
    if diff == 0:
        return 0
    assert abs(diff) > mpmath.mpf(10) ** (50 - ORACLE_DPS)  # far above the rounding
    return 1 if diff > 0 else -1


def _seeded_values(seed: int) -> list:
    """Fractions and QuadNums of one field each, with zero, negatives and
    the heavily cancelling inverse powers of (1+sqrt(13))/2 and 1+sqrt(2)."""
    rng = random.Random(seed)
    out = [Fraction(0), Fraction(-3, 7), Fraction(5, 2), QuadNum(0), QuadNum(Fraction(-1, 3))]
    for base in (S13, S2):
        for k in sorted(rng.sample(range(401), 12)) + [400]:
            p = base ** -k
            out += [p, -p, _below(p, k)]
    for d in (13, 2):
        for _ in range(10):
            out.append(QuadNum(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)),
                               Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)),
                               d))
    for _ in range(10):
        out.append(Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9)))
    return out


def _below(p: QuadNum, k: int) -> Fraction:
    """A dyadic below p = base**-k and within 2**-(2k + 60) of it: their
    difference cancels every leading digit of p."""
    return p.enclosure(2 * k + 60)[0]


def _field(x) -> int:
    return x.d if isinstance(x, QuadNum) else 0


class TestIntegerCoordinateOracles:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_compare_and_sign_match_mpmath(self, seed):
        values = _seeded_values(seed)
        rng = random.Random(seed)
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(300)]
        pairs += [(v, v) for v in values]  # equal values, one object
        for base in (S13, S2):  # values that agree on their leading digits
            for k in (1, 57, 200, 399, 400):
                p = base ** -k
                pairs += [(p, _below(p, k)), (_below(p, k), p), (-p, -_below(p, k)),
                          (p, base ** -(k + 1)), (p, p + Fraction(1, 2 ** (3 * k + 80)))]
        # equal values built two ways: a rational QuadNum and its Fraction,
        # a product divided back
        pairs += [(QuadNum(Fraction(-3, 7)), Fraction(-3, 7)), (Fraction(0), QuadNum(0)),
                  ((S13 ** -300 * S13) / S13, S13 ** -300), (S2 ** 7 * S2 ** -7, 1)]
        with mpmath.workdps(ORACLE_DPS):
            for x, y in pairs:
                f, g = _field(x), _field(y)
                if f and g and f != g:
                    continue  # mixed radicands: their own test below
                want = mp_sign(x, y)
                assert compare(x, y) == want, (x, y)
                assert compare(CertifiedReal.from_exact(x), y) == want, (x, y)
                if isinstance(x, QuadNum):
                    assert (x < y, x == y, x > y) == (want < 0, want == 0, want > 0), (x, y)
                    diff = x - y
                    assert (diff.sign() if isinstance(diff, QuadNum) else
                            (diff > 0) - (diff < 0)) == want, (x, y)
            for x in values:
                if isinstance(x, QuadNum):
                    assert x.sign() == mp_sign(x, QuadNum(0)), x

    @pytest.mark.parametrize("seed", [1, 2])
    def test_enclosure_contains_its_value_within_the_width(self, seed):
        with mpmath.workdps(ORACLE_DPS):
            for x in _seeded_values(seed):
                if not isinstance(x, QuadNum):
                    continue
                v = mp_value(x)
                for bits in (0, 1, 64, 128, 1000):
                    lo, hi = x.enclosure(bits)
                    assert hi - lo <= Fraction(1, 2 ** bits)
                    assert mp_value(lo) <= v <= mp_value(hi), (x, bits)
                    if not x.is_rational:
                        assert lo < hi  # an irrational value is never an end

    def test_mixed_radicands_compare_but_do_not_order(self):
        a, b = S13 ** -40, S2 ** -40
        with mpmath.workdps(ORACLE_DPS):
            want = 1 if mp_value(a) > mp_value(b) else -1
        assert compare(a, b) == want and compare(b, a) == -want
        for op in (lambda: a == b, lambda: a < b, lambda: a >= b):
            with pytest.raises(ValueError, match="mixed radicands"):
                op()


class TestFloat:
    def test_quadnum_float_is_correctly_rounded(self):
        values = [v for v in _seeded_values(4) if isinstance(v, QuadNum)]
        values += [PHI ** -200, PHI ** 200, -(S13 ** -400), PHI - 1]
        with mpmath.workdps(ORACLE_DPS):
            for x in values:
                assert float(x) == float(mp_value(x)), x

    def test_refinable_float_is_correctly_rounded(self):
        # 2**-200 * sqrt(2) known only through enclosures of absolute width
        # 2**-bits: the old 64-bit midpoint read it as noise around 0
        def refiner(bits):
            s = math.isqrt(2 << (2 * bits))
            return Fraction(s, 1 << (bits + 200)), Fraction(s + 1, 1 << (bits + 200))

        r = CertifiedReal.from_refiner(refiner)
        with mpmath.workdps(60):
            assert float(r) == float(mpmath.sqrt(2) * mpmath.mpf(2) ** -200)
        assert float(CertifiedReal.from_exact(PHI ** -150)) == float(PHI ** -150)

    def test_refinable_float_on_a_rounding_tie(self):
        # 1 + 2**-53 lies halfway between two floats, so no enclosure of it
        # has both ends round alike: the capped ladder gives a neighbour
        tie = 1 + Fraction(1, 2 ** 53)
        r = CertifiedReal.from_refiner(
            lambda bits: (tie - Fraction(1, 2 ** bits), tie + Fraction(1, 2 ** bits)))
        assert float(r) in (1.0, 1.0 + 2.0 ** -52)

    def test_fixed_interval_float_is_its_midpoint(self):
        fixed = CertifiedReal.from_interval(Fraction(1, 4), Fraction(26, 100))
        assert float(fixed) == float(Fraction(51, 200))


# ---------------------------------------------------------------------------
# Records: the interface the typing.NamedTuple records had, field for field
# ---------------------------------------------------------------------------


def _record_rows():
    """(class, fields, defaults, field values, repr) of each record, the
    fields, defaults and repr as typing.NamedTuple gave them."""
    half, zero, one = Fraction(1, 2), Fraction(0), Fraction(1)
    psi_fields = ("system", "family", "alpha", "c", "p", "table")
    hit_fields = ("x_text", "beta_spec", "psi_text", "horizon", "hits", "compared")
    evidence_fields = ("x_text", "beta_spec", "psi_text", "horizon", "c_values", "hits",
                       "violations", "compared")
    return [
        (CensusRecord, ("beta_spec", "order", "count_admissible", "count_full", "max_gap"), {},
         ("golden", 3, 5, 3, 1),
         "CensusRecord(beta_spec='golden', order=3, count_admissible=5, count_full=3, max_gap=1)"),
        (PsiFunction, psi_fields, {"alpha": zero, "c": one, "p": zero, "table": ()},
         (make_beta("golden"), "exponential", one, half, zero, ()),
         "PsiFunction(system=BetaSystem('golden'), family='exponential', alpha=Fraction(1, 1), "
         "c=Fraction(1, 2), p=Fraction(0, 1), table=())"),
        (AlphaEstimate, ("value", "exact", "horizon"), {}, (half, True, 64),
         "AlphaEstimate(value=Fraction(1, 2), exact=True, horizon=64)"),
        (HitRecord, hit_fields, {"compared": 0},
         ("1/3", "golden", "beta^-1n", 10, [{"n": 1, "psi": 0.5}], 2),
         "HitRecord(x_text='1/3', beta_spec='golden', psi_text='beta^-1n', horizon=10, "
         "hits=[{'n': 1, 'psi': 0.5}], compared=2)"),
        (EvidenceReport, evidence_fields, {"compared": 0},
         ("1/3", "golden", "beta^-1n", 10, [0.9], [1], {0.9: []}, 1),
         "EvidenceReport(x_text='1/3', beta_spec='golden', psi_text='beta^-1n', horizon=10, "
         "c_values=[0.9], hits=[1], violations={0.9: []}, compared=1)"),
    ]


def _hash(t: tuple):
    """hash(t), or None for a tuple holding a list, which has none."""
    try:
        return hash(t)
    except TypeError:
        return None


_RECORDS = _record_rows()


@pytest.mark.parametrize("cls, fields, defaults, values, text", _RECORDS,
                         ids=[row[0].__name__ for row in _RECORDS])
def test_record_keeps_the_named_tuple_interface(cls, fields, defaults, values, text):
    assert cls._fields == cls.__match_args__ == fields
    assert cls._field_defaults == defaults
    r = cls(*values)
    assert type(r) is cls and repr(r) == text
    assert [getattr(r, k) for k in fields] == list(values)
    assert r == values and r != values[:-1] and _hash(r) == _hash(values)
    assert cls(**dict(zip(fields, values))) == r
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == r
    required = len(fields) - len(defaults)
    assert cls(*values[:required]) == values[:required] + tuple(defaults.values())
    for args, kwargs in ((values[:required - 1], {}), (values, {fields[0]: values[0]}),
                         (values, {"unknown": 0}), (values + (0,), {})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    made = cls._make(iter(values))
    assert type(made) is cls and made == r
    with pytest.raises(TypeError):
        cls._make(values[:required - 1])
    assert r._asdict() == dict(zip(fields, values)) and type(r._asdict()) is dict
    again = r._replace(**{fields[0]: values[0]})
    assert type(again) is cls and again == r and again is not r
    with pytest.raises(ValueError):
        r._replace(unknown=0)
    for k in fields:
        with pytest.raises(AttributeError):
            setattr(r, k, values[0])
    with pytest.raises(AttributeError):
        r.unknown = 0
    match r:
        case cls(first, second):
            assert (first, second) == values[:2]
    shallow = copy.copy(r)
    assert type(shallow) is cls and shallow == r and repr(shallow) == text
    for twin in [copy.deepcopy(r)] + [pickle.loads(pickle.dumps(r, proto))
                                      for proto in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(twin) is cls and repr(twin) == text
        if cls is PsiFunction:  # its system is rebuilt, and systems compare by identity
            assert twin.system is not r.system
            report = detect_hits(Fraction(1, 1000), r.system, r, 40)
            assert report.hits and detect_hits(Fraction(1, 1000), twin.system, twin, 40) == report
        else:
            assert twin == r
