import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadim.errors import InvalidBeta, PrecisionExhausted, PreconditionViolated
from betadim.exact import CertifiedReal, QuadNum
from betadim.numerics import (
    GOLDEN,
    eval_word,
    eval_word_certified,
    expand,
    make_beta,
    orbit,
    parse_beta_spec,
    t_beta_step,
)

PHI = GOLDEN
INV_PHI = PHI - 1          # 1/phi
INV_PHI2 = 2 - PHI         # 1/phi^2

# the length m of a finite expansion of 1, or None when it is infinite
EXPANSION_LENGTHS = {
    "2": 1, "3": 1,
    "golden": 2, "quad:(1+1*sqrt(2))/1": 2, "quad:(2+1*sqrt(7))/1": 2,
    "quad:(1+1*sqrt(3))/1": 2, "quad:(3+1*sqrt(13))/2": 2,
    "9/5": None, "5/2": None,
    # Pisot, with an infinite eventually periodic expansion
    "quad:(3+1*sqrt(5))/2": None, "quad:(2+1*sqrt(2))/1": None,
    "quad:(5+1*sqrt(17))/2": None,
    # not Pisot
    "quad:(1+1*sqrt(13))/2": None, "quad:(0+1*sqrt(5))/1": None,
    "quad:(1+1*sqrt(7))/1": None, "quad:(1+1*sqrt(17))/2": None,
    # not algebraic integers: norm 7/4, trace 2/3
    "quad:(3+1*sqrt(2))/2": None, "quad:(1+1*sqrt(10))/3": None,
}


def walk_expansion_of_one(beta, steps):
    """Independent oracle: the exact orbit of 1 walked for at most ``steps``
    digits, with no repeat detection.  Returns (digits, m), m the length of
    the expansion when it ends within ``steps`` digits, else None."""
    digits, x = [], Fraction(1)
    for _ in range(steps):
        y = beta * x
        d = math.floor(y)
        digits.append(d)
        x = y - d
        if x == 0:
            return digits, len(digits)
    return digits, None


class TestParseAndMake:
    def test_integer_base(self):
        b = make_beta("2")
        assert b.alphabet_max == 1
        assert b.star.period == 1
        assert b.star.prefix(5) == (1, 1, 1, 1, 1)

    def test_golden(self):
        b = make_beta("golden")
        assert b.beta_exact == PHI
        assert b.alphabet_max == 1
        assert b.star.period == 2  # 1 = .11
        assert b.star.prefix(6) == (1, 0, 1, 0, 1, 0)

    def test_period_is_finite_length(self):
        blocks = {"2": (1,), "3": (2,), "golden": (1, 0),
                  "quad:(1+1*sqrt(2))/1": (2, 0),
                  "quad:(2+1*sqrt(7))/1": (4, 2)}
        for spec, block in blocks.items():
            b = make_beta(spec)
            assert b.star.period == len(block)
            assert b.star.prefix(3 * len(block)) == block * 3, spec
        assert make_beta("1.8").star.period is None

    def test_quad_spec_matches_golden(self):
        assert parse_beta_spec("quad:(1+1*sqrt(5))/2")[0] == PHI
        assert parse_beta_spec("quad:(3+0*sqrt(2))/2")[0] == Fraction(3, 2)

    def test_plain_decimal_is_exact_rational(self):
        b = make_beta("1.8")
        assert b.beta_exact == Fraction(9, 5)
        assert b.alphabet_max == 1

    def test_star_digits_of_nine_fifths_oracle(self):
        # greedy digits of 1 recomputed with 80-digit floats as an oracle
        b = make_beta("1.8")
        assert b.star.period is None
        with mpmath.workdps(80):
            x = mpmath.mpf(1)
            beta = mpmath.mpf(9) / 5
            for i in range(1, 40):
                x = beta * x
                d = int(mpmath.floor(x))
                assert b.star.digit(i) == d
                x -= d

    def test_star_series_sums_to_one(self):
        # partial sums increase to 1, deficit below beta**-N
        for spec in ("1.8", "2.5", "golden", "3"):
            b = make_beta(spec)
            prev = Fraction(0)
            for n in (5, 10, 25, 50):
                s = b.star_prefix_value(n)
                assert prev < s if isinstance(s, Fraction) else (s - prev).sign() > 0
                deficit = 1 - s
                assert (deficit > 0) and (deficit <= b.pow(-n))
                prev = s
            if spec == "1.8":
                assert float(1 - b.star_prefix_value(60)) < 1e-12

    def test_invalid_betas(self):
        with pytest.raises(InvalidBeta):
            make_beta("1")
        with pytest.raises(InvalidBeta):
            make_beta("0.9")
        with pytest.raises(InvalidBeta):
            make_beta("next tuesday")

    def test_declared_precision_interval(self):
        b = make_beta("dec:1.8@64")
        assert not b.is_exact
        assert b.alphabet_max == 1
        with pytest.raises(PrecisionExhausted):
            make_beta("dec:2.0@16")  # alphabet undecidable at the boundary


class TestStep:
    def test_dyadic(self):
        b = make_beta("2")
        d, nxt = t_beta_step(Fraction(3, 4), b)
        assert d == 1 and nxt == Fraction(1, 2)

    def test_golden_exact_orbit(self):
        b = make_beta("golden")
        d, nxt = t_beta_step(INV_PHI2, b)
        assert d == 0
        assert nxt == INV_PHI
        d2, nxt2 = t_beta_step(nxt, b)
        assert d2 == 1
        assert nxt2 == 0

    def test_interval_straddle_exhausts(self):
        b = make_beta("2")
        x = CertifiedReal.from_interval(Fraction(49999, 100000),
                                        Fraction(50001, 100000))
        with pytest.raises(PrecisionExhausted):
            t_beta_step(x, b)

    def test_preconditions(self):
        b = make_beta("2")
        with pytest.raises(PreconditionViolated):
            t_beta_step(Fraction(3, 2), b)
        with pytest.raises(PreconditionViolated):
            t_beta_step(Fraction(-1, 2), b)


class TestExpandEval:
    def test_expand_dyadic(self):
        b = make_beta("2")
        assert expand(Fraction(5, 8), b, 3) == (1, 0, 1)
        assert expand(Fraction(0), b, 5) == (0, 0, 0, 0, 0)

    def test_expand_golden(self):
        b = make_beta("golden")
        assert expand(INV_PHI, b, 3) == (1, 0, 0)

    def test_eval_word_examples(self):
        b2 = make_beta("2")
        assert eval_word((1, 1, 0), b2) == Fraction(3, 4)
        assert eval_word((), b2) == 0
        bg = make_beta("golden")
        assert eval_word((1, 0), bg) == INV_PHI

    def test_eval_word_golden_fast_path_matches_generic(self):
        bg = make_beta("golden")
        binv = PHI.inverse()
        for word in [(1, 0, 0, 1, 0), (0, 0, 1), (1, 0, 1, 0, 1, 0, 0, 1),
                     tuple(expand(Fraction(13, 77), bg, 12))]:
            acc = QuadNum(0)
            for d in reversed(word):
                acc = (acc + d) * binv
            assert eval_word(word, bg) == acc

    def test_eval_word_certified(self):
        b = make_beta("dec:1.8@96")
        v = eval_word_certified((1, 0, 1), b)
        lo, hi = v.enclosure(64)
        exact = eval_word((1, 0, 1), make_beta("1.8"))
        assert lo <= exact <= hi

    @given(st.integers(min_value=1, max_value=997), st.integers(min_value=2, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_truncation_error_bound(self, num, n):
        # 0 <= x - value(first n digits) < beta**-n, exactly, in four bases
        for spec in ("2", "1.8", "2.5", "golden"):
            b = make_beta(spec)
            x = Fraction(num, 998)
            w = expand(x, b, n)
            err = x - eval_word(w, b)
            assert err >= 0
            assert err < b.pow(-n)

    @given(st.integers(min_value=1, max_value=996), st.integers(min_value=2, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_orbit_identity(self, num, n):
        # x - value(prefix) == T^n(x) * beta**-n, two computation paths
        for spec in ("2", "2.5", "golden"):
            b = make_beta(spec)
            x = Fraction(num, 997)
            digits = []
            last = None
            for d, t in orbit(x, b, n):
                digits.append(d)
                last = t
            assert x - eval_word(digits, b) == last * b.pow(-n)

    def test_reexpanding_left_endpoint_reproduces_word(self):
        for spec in ("2", "1.8", "golden"):
            b = make_beta(spec)
            x = Fraction(5, 17)
            w = expand(x, b, 10)
            assert expand(eval_word(w, b), b, 10) == w

    def test_interval_beta_expansion_matches_exact(self):
        bi = make_beta("dec:1.8@128")
        be = make_beta("1.8")
        x = Fraction(1, 3)
        assert expand(x, bi, 30) == expand(x, be, 30)


class TestExpansionOfOne:
    def test_classification_on_fresh_systems(self):
        # the length m is decided at construction: read it before any digit
        for spec, m in EXPANSION_LENGTHS.items():
            assert make_beta(spec).star.period == m, spec

    def test_classification_matches_long_exact_walk(self):
        for spec, m in EXPANSION_LENGTHS.items():
            b = make_beta(spec)
            digits, walked_m = walk_expansion_of_one(b.beta_exact, 3000)
            assert walked_m == m, spec
            if m is not None:  # quasi-greedy: lower the last digit, repeat
                digits = (digits[:-1] + [digits[-1] - 1]) * (300 // m + 1)
            assert b.star.prefix(300) == tuple(digits[:300]), spec

    def test_fullness_reads_no_digit_of_an_exact_beta(self):
        b = make_beta("golden")
        stored = len(b.star._digits)
        assert b.is_full_state(2)
        assert not b.is_full_state(3)
        assert b.is_full_state(10 ** 6)
        assert not make_beta("9/5").is_full_state(10 ** 6)
        assert len(b.star._digits) == stored

    def test_interval_beta_is_never_walked(self):
        b = make_beta("dec:1.8@200")
        assert b.star.period is None
        assert len(b.star._digits) == 1
        with pytest.raises(PrecisionExhausted):
            b.is_full_state(300)
