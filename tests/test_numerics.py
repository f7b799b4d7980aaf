import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betadim import numerics
from betadim.approximation import detect_hits, psi_exponential
from betadim.errors import InvalidBeta, PrecisionExhausted, PreconditionViolated
from betadim.exact import CertifiedReal, QuadNum, _floor_root, compare, coords
from betadim.numerics import (
    GOLDEN,
    BetaSystem,
    _exact_steps,
    eval_word,
    expand,
    make_beta,
    orbit,
    parse_beta_spec,
)
from betadim.words import count_admissible
from test_imports import SPECS

PHI = GOLDEN
INV_PHI = PHI - 1          # 1/phi
INV_PHI2 = 2 - PHI         # 1/phi^2
SQRT2_MINUS_1 = QuadNum(-1, 1, 2)

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


def star_partial_sum(system, n):
    """sum_(i <= n) t_i * beta**-i from the stored digits and the powers."""
    return sum((system.star.digit(i) * system.pow(-i) for i in range(1, n + 1)), Fraction(0))


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
        # partial sums increase to 1, deficit below beta**-N; the deficit
        # scaled by beta**N is the stored orbit point
        for spec in ("1.8", "2.5", "golden", "3"):
            b = make_beta(spec)
            prev = Fraction(0)
            for n in (5, 10, 25, 50):
                s = star_partial_sum(b, n)
                assert prev < s if isinstance(s, Fraction) else (s - prev).sign() > 0
                deficit = 1 - s
                assert (deficit > 0) and (deficit <= b.pow(-n))
                assert b.tail_sup(n) == b.pow(n) * (1 - s)
                prev = s
            if spec == "1.8":
                assert float(1 - star_partial_sum(b, 60)) < 1e-12

    def test_square_radicand_is_rational(self):
        # radicands 0, 1 and 4 fold into the rational part
        for spec, rational in (("quad:(1+1*sqrt(4))/2", "3/2"), ("quad:(3+5*sqrt(0))/2", "3/2"),
                               ("quad:(2+1*sqrt(1))/2", "3/2"), ("quad:(1+1*sqrt(1))/1", "2"),
                               ("quad:(1+4*sqrt(4))/4", "9/4")):
            b, want = make_beta(spec), make_beta(rational)
            assert type(b.beta_exact) is Fraction and b.beta_exact == want.beta_exact, spec
            assert b.star.prefix(20) == want.star.prefix(20), spec
            assert b.star.period == want.star.period, spec

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


# the spec grammar as the two regular expressions it was once parsed by,
# kept as the reference that parse_beta_spec's str methods must agree with
QUAD_RE = re.compile(r"^quad:\((-?\d+)\+(-?\d+)\*sqrt\((\d+)\)\)/(-?\d+)$")
DEC_RE = re.compile(r"^dec:(\d+(?:\.\d+)?)@(\d+)$")


def regex_parse_beta_spec(spec: str):
    """parse_beta_spec as it read the quad and dec forms by QUAD_RE and DEC_RE."""
    spec = spec.strip()
    if spec == "golden":
        return GOLDEN, None
    m = QUAD_RE.match(spec)
    if m:
        a, b, d, c = (int(g) for g in m.groups())
        if c == 0:
            raise InvalidBeta("zero denominator in quadratic spec")
        r = math.isqrt(d)
        if r * r == d or b == 0:
            return Fraction(a + b * r, c), None
        return QuadNum(Fraction(a, c), Fraction(b, c), d), None
    m = DEC_RE.match(spec)
    if m:
        center, eps = Fraction(m.group(1)), Fraction(1, 2 ** int(m.group(2)))
        return None, (center - eps, center + eps)
    try:
        return Fraction(spec), None
    except (ValueError, ZeroDivisionError):
        raise InvalidBeta(f"cannot parse beta spec {spec!r}") from None


def parse_outcome(parse, spec: str):
    """What parse gives for spec: each value with its type, or the error
    raised, by type and message."""
    try:
        return [(type(v), v) for v in parse(spec)]
    except Exception as e:  # compared, not handled: any error must match too
        return type(e), str(e)


GRAMMAR_SEEDS = ("quad:(1+1*sqrt(5))/2", "quad:(-3+2*sqrt(13))/-4", "quad:(2+1*sqrt(4))/3",
                 "dec:1.8@64", "dec:12@7", "9/5", "golden")
# signs, Unicode decimal digits (Arabic-Indic one and five), a superscript two
# (a digit that is not decimal), spaces, underscores and the separators
GRAMMAR_NOISE = (*"0123456789-+*/().@:_ \t\n", "١", "٥", "²", "))/", ")/",
                 "*sqrt(", "quad:(", "dec:")


class TestPickling:
    @pytest.mark.parametrize("spec", SPECS)
    def test_a_system_pickles_and_copies_as_its_spec(self, spec):
        # the copy is built anew from the spec, with its own locks and caches
        b = make_beta(spec)
        psi = psi_exponential(b, Fraction(1, 2))
        report = detect_hits(Fraction(1, 1000), b, psi, 40)
        assert report.hits
        pickled = [pickle.loads(pickle.dumps(b, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [copy.copy(b), copy.deepcopy(b)] + pickled:
            assert type(twin) is BetaSystem and twin is not b and repr(twin) == repr(b)
            assert twin.star.prefix(40) == b.star.prefix(40)
            assert twin._pow_lock is not b._pow_lock and twin.star._lock is not b.star._lock
            assert detect_hits(Fraction(1, 1000), twin, psi._replace(system=twin), 40) == report


class TestSpecGrammar:
    def test_edge_cases_match_the_regex_grammar(self):
        cases = [
            "quad:(-1+1*sqrt(5))/2", "quad:(1+-1*sqrt(5))/2", "quad:(1+1*sqrt(-5))/2",
            "quad:(1+1*sqrt(5))/-2", "quad:(+1+1*sqrt(5))/2", "quad:(1++1*sqrt(5))/2",
            "quad:(--1+1*sqrt(5))/2", "quad:(١+١*sqrt(٥))/2",
            "quad:(1+1*sqrt(5²))/2", "quad:(²+1*sqrt(5))/2", "quad:(1+-²*sqrt(5))/2",
            "quad:(1+1*sqrt(5))/²", "quad:(1+1*sqrt(5))/-²", "quad:(1 +1*sqrt(5))/2",
            "quad:(1+1*sqrt( 5))/2",
            " quad:(1+1*sqrt(5))/2\n", "quad:(1_0+1*sqrt(5))/2", "quad:(1+1*sqrt(5))/1_0",
            "quad:(+1*sqrt(5))/2", "quad:(1+*sqrt(5))/2", "quad:(1+1*sqrt())/2",
            "quad:(1+1*sqrt(5))/", "quad:(1+1*sqrt(5))/2)/3", "quad:(1+1*sqrt(5))/)/2",
            "quad:(1+1*sqrt(5)))/2", "quad:(1+1*sqrt(5))/0", "quad:(1+1*sqrt(5))/-0",
            "quad:(1+1sqrt(5))/2", "quad:1+1*sqrt(5))/2", "Quad:(1+1*sqrt(5))/2",
            "dec:1.8@64", "dec:١.٨@٦٤", "dec:.8@64", "dec:1.@64", "dec:1.8@",
            "dec:1.8@-3", "dec:1.8.1@64", "dec:1_8@64", "dec: 1.8@64", "dec:1.8@6 4",
            "dec:-1.8@64", "dec:1.8@64@3", "dec:@64", "dec:1.8@²", "dec:1.²@64", "dec:²@64",
            "dec:18", "dec 1.8@64",
            "1.8\n", "1_8/5", "golden ", "", "quad:", "dec:",
        ]
        for spec in cases:
            assert parse_outcome(parse_beta_spec, spec) == parse_outcome(
                regex_parse_beta_spec, spec), repr(spec)

    @given(st.sampled_from(GRAMMAR_SEEDS),
           st.lists(st.tuples(st.sampled_from("ird"), st.integers(0, 40), st.integers(1, 3),
                              st.sampled_from(GRAMMAR_NOISE)), max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_mutated_specs_match_the_regex_grammar(self, seed, edits):
        # insert a piece, replace a character by one, or double a short
        # substring (a doubled "))/"), up to four times
        spec = seed
        for op, i, k, piece in edits:
            i %= len(spec) + 1
            spec = (spec[:i] + piece + spec[i:] if op == "i" else
                    spec[:i] + piece + spec[i + 1:] if op == "r" else
                    spec[:i + k] + spec[i:])
        # a long run of digits after "@" would ask for 2**bits with a huge bits
        assume(all(len(run) <= 5 for run in re.findall(r"\d+", spec)))
        assert parse_outcome(parse_beta_spec, spec) == parse_outcome(
            regex_parse_beta_spec, spec)


class TestPowers:
    def test_powers_from_neighbours_equal_square_and_multiply(self):
        # pow steps from a cached neighbour when it can; the values must be
        # the exact powers, in the same reduced form, in any order of calls
        rng = random.Random(3)
        for spec in ("9/5", "golden", "quad:(3+1*sqrt(5))/2"):
            b = make_beta(spec)
            beta = b.beta_exact
            ks = list(range(-60, 61))
            rng.shuffle(ks)
            for k in ks:
                v, want = b.pow(k), beta ** k
                assert v == want and type(v) is type(want), (spec, k)
                if isinstance(v, QuadNum):
                    assert (v.X, v.Y, v.D, v.d) == (want.X, want.Y, want.D, want.d), (spec, k)
            assert all(b.pow(k) == beta ** k for k in ks), spec


class TestStep:
    def test_dyadic(self):
        b = make_beta("2")
        d, nxt = next(orbit(Fraction(3, 4), b, 1))
        assert d == 1 and nxt == Fraction(1, 2)

    def test_golden_exact_orbit(self):
        b = make_beta("golden")
        d, nxt = next(orbit(INV_PHI2, b, 1))
        assert d == 0
        assert nxt == INV_PHI
        d2, nxt2 = next(orbit(nxt, b, 1))
        assert d2 == 1
        assert nxt2 == 0

    def test_interval_straddle_exhausts(self):
        b = make_beta("2")
        x = CertifiedReal.from_interval(Fraction(49999, 100000),
                                        Fraction(50001, 100000))
        with pytest.raises(PrecisionExhausted):
            next(orbit(x, b, 1))

    def test_preconditions(self):
        b = make_beta("2")
        with pytest.raises(PreconditionViolated):
            next(orbit(Fraction(3, 2), b, 1))
        with pytest.raises(PreconditionViolated):
            next(orbit(Fraction(-1, 2), b, 1))


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
        for x in (Fraction(1, 3), SQRT2_MINUS_1):
            assert expand(x, bi, 30) == expand(x, be, 30)


def lazy_sqrt2_minus_1():
    """sqrt(2) - 1 known only through refinable rational enclosures."""
    def refiner(bits):
        s = math.isqrt(2 << (2 * bits))
        return Fraction(s, 1 << bits) - 1, Fraction(s + 1, 1 << bits) - 1
    return CertifiedReal.from_refiner(refiner)


def mpmath_orbit(x, beta, n):
    """Oracle: digits and points of x under beta at 0.7n + 200 digits."""
    digits, points = [], []
    with mpmath.workdps(int(0.7 * n) + 200):
        x, beta = x(), beta()
        for _ in range(n):
            y = beta * x
            d = int(mpmath.floor(y))
            digits.append(d)
            x = y - d
            points.append(x)
    return digits, points


MP_BETAS = {
    "golden": lambda: (1 + mpmath.sqrt(5)) / 2,
    "9/5": lambda: mpmath.mpf(9) / 5,
    "quad:(1+1*sqrt(13))/2": lambda: (1 + mpmath.sqrt(13)) / 2,
}


class TestCertifiedOrbit:
    def test_lazy_orbit_matches_mpmath(self):
        for spec, beta in MP_BETAS.items():
            digits, points = mpmath_orbit(lambda: mpmath.sqrt(2) - 1, beta, 1000)
            got = list(orbit(lazy_sqrt2_minus_1(), make_beta(spec), 1000))
            assert [d for d, _ in got] == digits, spec
            with mpmath.workdps(900):
                for i, ((_, t), want) in enumerate(zip(got, points), 1):
                    lo, hi = t.enclosure(0)
                    assert (mpmath.mpf(lo.numerator) / lo.denominator <= want
                            <= mpmath.mpf(hi.numerator) / hi.denominator), (spec, i)

    def test_lazy_orbit_needs_no_recursion(self):
        # each point re-walks from x, so no chain of closures nests
        code = ("import sys\n"
                "sys.path.insert(0, 'tests')\n"
                "from test_numerics import lazy_sqrt2_minus_1\n"
                "from betadim.numerics import expand, make_beta\n"
                "sys.setrecursionlimit(120)\n"
                "print(len(expand(lazy_sqrt2_minus_1(), make_beta('golden'), 1000)))\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1000"

    def test_points_refine_past_the_walk(self):
        b = make_beta("golden")
        points = [t for _, t in orbit(lazy_sqrt2_minus_1(), b, 5)]
        _, want = mpmath_orbit(lambda: mpmath.sqrt(2) - 1, MP_BETAS["golden"], 5)
        with mpmath.workdps(300):
            r = Fraction(int(mpmath.floor(mpmath.ldexp(want[4], 320))), 2 ** 320)
        assert compare(points[4], r) == 1
        assert compare(points[4], r + Fraction(1, 2 ** 320)) == -1

    def test_beta_times_point_floors_to_the_next_digit(self):
        # floor(beta * T^n x) is digit n + 1: a refinable product for the lazy
        # point under golden, a fixed one under the interval beta
        for x, spec, n in ((lazy_sqrt2_minus_1(), "golden", 40),
                           (Fraction(1, 3), "dec:1.8@200", 200)):
            b = make_beta(spec)
            points = [x] + [t for _, t in orbit(x, b, n - 1)]
            assert [(b.beta * t).floor() for t in points] == list(expand(x, b, n)), spec

    def test_interval_beta_orbit_stays_narrow(self):
        x = Fraction(1, 3)
        points = [t for _, t in orbit(x, make_beta("dec:1.8@200"), 150)]
        for (_, want), t in zip(orbit(x, make_beta("1.8"), 150), points):
            lo, hi = t.enclosure(0)
            assert lo <= want <= hi  # 9/5 lies in the declared interval
        lo, hi = points[149].enclosure(0)
        assert max(lo.denominator, hi.denominator).bit_length() <= 600  # < 2**600
        assert hi - lo < Fraction(1, 2 ** 72)

    def test_interval_beta_decides_what_it_can(self):
        b, exact = make_beta("dec:1.8@200"), make_beta("1.8")
        assert b.star.prefix(232) == exact.star.prefix(232)
        with pytest.raises(PrecisionExhausted) as info:
            b.star.digit(233)
        assert (info.value.site, info.value.bits) == ("digit of 1", 128 + 200)
        x = Fraction(1, 3)
        assert expand(x, b, 235) == expand(x, exact, 235)
        # the error names the undecided digit, the bits walked (128 + 236
        # guard bits + 200 declared) and the width reached
        with pytest.raises(PrecisionExhausted,
                           match=r"digit 236 undecided at 564 bits: .* width below 2\^") as info:
            expand(x, b, 236)
        # the same context as attributes: the site, the bits B and the width
        err = info.value
        assert (err.site, err.bits) == ("orbit digit", 564)
        assert str(err).endswith(f"width below 2^{err.width_log2}")

    def test_ended_interval_walk_stays_ended(self):
        # the digits of 1 come from a generator, which a raise would finish:
        # every read past the last decided digit fails alike, and none of the
        # digits before it is lost
        b = make_beta("dec:1.8@200")
        for i in (233, 233, 300):
            with pytest.raises(PrecisionExhausted,
                               match=r"^digit 233 of 1 undecided at 328 bits$") as info:
                b.star.digit(i)
            assert (info.value.site, info.value.bits) == ("digit of 1", 328)
        assert b.star.prefix(232) == make_beta("1.8").star.prefix(232)


def reference_orbit(x, beta, n):
    """The QuadNum/Fraction loop the integer coordinates replace."""
    out = []
    for _ in range(n):
        y = beta * x
        d = math.floor(y)
        x = y - d
        out.append((d, x))
    return out


# the quadratic bases, each with one point of its field; 9/5 takes a point of Q(sqrt(5))
QUAD_STEP_BETAS = {
    "golden": 5, "quad:(1+1*sqrt(13))/2": 13, "quad:(1+1*sqrt(2))/1": 2,
    "quad:(2+1*sqrt(7))/1": 7, "quad:(3+1*sqrt(2))/2": 2, "quad:(3+1*sqrt(5))/2": 5, "9/5": 5,
}


# the rows whose omega-coordinates grow along the walk
GROWING = ["quad:(1+1*sqrt(13))/2", "quad:(3+1*sqrt(2))/2", "9/5"]

# algebraic-integer bases, Pisot or not, with their radicands
INTEGRAL_BETAS = {
    "golden": 5, "quad:(3+1*sqrt(5))/2": 5, "quad:(1+1*sqrt(2))/1": 2, "quad:(2+1*sqrt(7))/1": 7,
    "quad:(1+1*sqrt(13))/2": 13, "quad:(2+1*sqrt(8))/2": 8, "quad:(3+1*sqrt(45))/6": 45,
    "quad:(5+-1*sqrt(5))/2": 5,
}

# (L, p) of star.repeat for each Pisot base of EXPANSION_LENGTHS
PISOT_REPEATS = {
    "golden": (2, 2), "quad:(1+1*sqrt(2))/1": (2, 2), "quad:(2+1*sqrt(7))/1": (2, 2),
    "quad:(1+1*sqrt(3))/1": (2, 2), "quad:(3+1*sqrt(13))/2": (2, 2),
    "quad:(3+1*sqrt(5))/2": (2, 1), "quad:(2+1*sqrt(2))/1": (2, 1),
    "quad:(5+1*sqrt(17))/2": (2, 1),
}

# star.prefix(6) of each Pisot base of EXPANSION_LENGTHS
PISOT_PREFIXES = {
    "golden": (1, 0, 1, 0, 1, 0), "quad:(1+1*sqrt(2))/1": (2, 0, 2, 0, 2, 0),
    "quad:(2+1*sqrt(7))/1": (4, 2, 4, 2, 4, 2), "quad:(1+1*sqrt(3))/1": (2, 1, 2, 1, 2, 1),
    "quad:(3+1*sqrt(13))/2": (3, 0, 3, 0, 3, 0), "quad:(3+1*sqrt(5))/2": (2, 1, 1, 1, 1, 1),
    "quad:(2+1*sqrt(2))/1": (3, 1, 1, 1, 1, 1), "quad:(5+1*sqrt(17))/2": (4, 2, 2, 2, 2, 2),
}


def omega_convergents(omega, least):
    """The first two convergents p/q of omega's continued fraction with q >
    ``least``, by exact floors: q*omega - p takes either sign."""
    p0, q0, p1, q1, y, out = 1, 0, math.floor(omega), 1, omega, []
    while len(out) < 2:
        y = 1 / (y - math.floor(y))
        a = math.floor(y)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > least:
            out.append((p1, q1))
    return out


def seeded_points(rng, d, k):
    """k rational and k quadratic points of Q(sqrt(d)) in [0, 1)."""
    points = [Fraction(rng.randrange(1000), 1000) for _ in range(k)]
    while len(points) < 2 * k:
        x = QuadNum(Fraction(rng.randrange(-500, 500), 997), Fraction(rng.randrange(1, 300), 991), d)
        if 0 <= x < 1:
            points.append(x)
    return points


class TestExactOrbit:
    def test_integer_step_matches_the_field_loop(self):
        rng = random.Random(12)
        for spec, d in QUAD_STEP_BETAS.items():
            b = make_beta(spec)
            for x in seeded_points(rng, d, 3):
                want = reference_orbit(x, b.beta_exact, 300)
                got = list(orbit(x, b, 300))
                assert got == want, (spec, x)
                assert [type(t) for _, t in got] == [type(t) for _, t in want], (spec, x)
                assert expand(x, b, 300) == tuple(d for d, _ in want), (spec, x)

    def test_rational_point_keeps_fractions(self):
        b = make_beta("9/5")
        got = list(orbit(Fraction(1, 3), b, 300))
        assert got == reference_orbit(Fraction(1, 3), b.beta_exact, 300)
        assert all(type(t) is Fraction for _, t in got)

    def test_rational_walk_at_depth(self):
        # the integer pair (X, D) is never reduced: each yielded point must
        # still be the reduced Fraction of the field loop, also past a point
        # that reaches 0 (5/8 under 2, 2/21 under 21/2)
        rng = random.Random(21)
        for spec in ("2", "3", "9/5", "7/3", "10.5"):
            b = make_beta(spec)
            points = [Fraction(0), Fraction(5, 8), Fraction(2, 21)]
            points += [Fraction(rng.randrange(q), q)
                       for q in (rng.randint(2, 10 ** 6) for _ in range(3))]
            for x in points:
                want = reference_orbit(x, b.beta_exact, 1000)
                got = list(orbit(x, b, 1000))
                assert got == want, (spec, x)
                assert all(type(t) is Fraction and math.gcd(t.numerator, t.denominator) == 1
                           for _, t in got), (spec, x)
                assert expand(x, b, 1000) == tuple(d for d, _ in want), (spec, x)

    def test_digits_match_mpmath(self):
        points = {"golden": QuadNum(Fraction(1, 3), Fraction(1, 7), 5),
                  "9/5": QuadNum(Fraction(1, 3), Fraction(1, 7), 5),
                  "quad:(1+1*sqrt(13))/2": QuadNum(Fraction(1, 5), Fraction(1, 9), 13)}
        for spec, beta in MP_BETAS.items():
            x = points[spec]

            def mp_x(a=x.a, b=x.b, d=x.d):  # evaluated inside mpmath_orbit's precision
                return (mpmath.mpf(a.numerator) / a.denominator
                        + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d))

            for point, mp_point in ((Fraction(1, 3), lambda: mpmath.mpf(1) / 3), (x, mp_x)):
                digits, _ = mpmath_orbit(mp_point, beta, 300)
                assert list(expand(point, make_beta(spec), 300)) == digits, (spec, point)

    def test_growing_coordinates_at_depth(self):
        # b grows about 0.38 bits a step on (1+sqrt(13))/2, about 1.3 on
        # (3+sqrt(2))/2 and 3.2 on 9/5 with a point of Q(sqrt(5)): past 64
        # bits each digit is read in fixed point, and W is taken again as b grows
        rng = random.Random(29)
        for spec in GROWING:
            b = make_beta(spec)
            for x in seeded_points(rng, QUAD_STEP_BETAS[spec], 1):
                want = reference_orbit(x, b.beta_exact, 2000)
                assert list(orbit(x, b, 2000)) == want, (spec, x)
                assert expand(x, b, 2000) == tuple(d for d, _ in want), (spec, x)

    def test_a_digit_the_fixed_point_floor_cannot_prove(self, monkeypatch):
        # x = (1 + y)/beta with y = q*omega - p, p/q a convergent of omega with
        # q > 2**200: beta*x = 1 + y lies within 2**-200 of the integer 1, far
        # inside the |b| >= q by which F may miss, so the exact floor decides
        # the first digit.  An ordinary walk past 64 bits never needs it
        calls = []

        def counted(y, r):
            calls.append(y)
            return _floor_root(y, r)

        monkeypatch.setattr(numerics, "_floor_root", counted)
        for spec, r in (("golden", 5), ("quad:(1+1*sqrt(13))/2", 13)):
            b = make_beta(spec)
            beta, omega = b.beta_exact, QuadNum(Fraction(1, 2), Fraction(1, 2), r)
            for p, q in omega_convergents(omega, 2 ** 200):
                x = (1 + q * omega - p) / beta
                assert -Fraction(1, 2 ** 200) < beta * x - 1 < Fraction(1, 2 ** 200)
                assert 0 <= x < 1
                del calls[:]
                want = reference_orbit(x, beta, 400)
                assert list(orbit(x, b, 400)) == want, (spec, p, q)
                assert calls, (spec, p, q)
                assert expand(x, b, 400) == tuple(d for d, _ in want), (spec, p, q)
            del calls[:]
            list(orbit(QuadNum(Fraction(1, 5), Fraction(1, 9), r), b, 1000))
            assert calls == [], spec

    def test_omega_denominator_stays_fixed(self):
        # an algebraic-integer beta walks on omega = +-beta: D is that of the
        # first step all the way, so no step divides by a gcd, also where the
        # radicand has a square factor or beta's sqrt(r) a negative coefficient
        rng = random.Random(30)
        for spec, r in INTEGRAL_BETAS.items():
            b = make_beta(spec)
            for x in seeded_points(rng, r, 2):
                Ds = {D for _, _, _, D in islice(_exact_steps(x, b.beta_exact)[0], 2000)}
                assert len(Ds) == 1, (spec, x)
                assert list(orbit(x, b, 300)) == reference_orbit(x, b.beta_exact, 300), (spec, x)

    def test_omega_denominator_grows_by_the_reduced_denominator(self):
        # (3+sqrt(2))/2 = (3 + omega)/2 is no algebraic integer: its D is x's
        # times 2**i at step i, never a larger factor, and the reduced QuadNum
        # denominator keeps pace, shedding at most the common factor of x's X
        # and Y
        b = make_beta("quad:(3+1*sqrt(2))/2")
        for x in seeded_points(random.Random(31), 2, 2):
            X, Y, D0 = coords(x)
            steps = zip(_exact_steps(x, b.beta_exact)[0], reference_orbit(x, b.beta_exact, 2000))
            for i, ((_, _, _, D), (_, t)) in enumerate(steps, start=1):
                assert D == D0 << i, (x, i)
                gap = D.bit_length() - coords(t)[2].bit_length()
                assert 0 <= gap <= 2 + math.gcd(X, Y).bit_length(), (x, i)

    def test_omega_is_the_least_integral_multiple_of_beta(self):
        # (2+sqrt(8))/4 = (1+sqrt(2))/2 walks on omega = 2*beta in both
        # spellings, so D grows by 2 a step, not by the 4 of sqrt(8)'s own
        # generator: identical digits and D = 3*2**i for x = 1/3
        walks = [list(islice(_exact_steps(Fraction(1, 3), make_beta(spec).beta_exact)[0],
                             2000))
                 for spec in ("quad:(2+1*sqrt(8))/4", "quad:(1+1*sqrt(2))/2")]
        assert [d for d, *_ in walks[0]] == [d for d, *_ in walks[1]]
        assert [D.bit_length() for *_, D in walks[0]] == [D.bit_length() for *_, D in walks[1]]
        assert all(D == 3 << i for i, (*_, D) in enumerate(walks[0], start=1))
        b = make_beta("quad:(2+1*sqrt(8))/4")
        assert list(orbit(Fraction(1, 3), b, 300)) == reference_orbit(Fraction(1, 3), b.beta_exact, 300)

    def test_pisot_repeats(self):
        # the walk of 1 keys its points by omega-coordinates, with D = 1; a
        # radicand with a square factor (sqrt(8), sqrt(12), sqrt(45)) walks on
        # omega = beta too, and gives the repeat of its squarefree twin
        for spec, repeat in PISOT_REPEATS.items():
            b = make_beta(spec)
            assert (b.star.repeat, b.star.prefix(6)) == (repeat, PISOT_PREFIXES[spec]), spec
        for spec, twin in (("quad:(2+1*sqrt(8))/2", "quad:(1+1*sqrt(2))/1"),
                           ("quad:(4+1*sqrt(12))/2", "quad:(2+1*sqrt(3))/1"),
                           ("quad:(3+1*sqrt(45))/6", "golden")):
            b, t = make_beta(spec), make_beta(twin)
            assert (b.star.repeat, b.star.prefix(50)) == (t.star.repeat, t.star.prefix(50)), spec

    def test_point_of_another_field_raises(self):
        for spec, x in (("golden", QuadNum(Fraction(1, 5), Fraction(1, 9), 13)),
                        ("quad:(1+1*sqrt(2))/1", QuadNum(Fraction(1, 3), Fraction(1, 7), 5))):
            b = make_beta(spec)
            with pytest.raises(ValueError, match="mixed radicands"):
                next(orbit(x, b, 5))
            with pytest.raises(ValueError, match="mixed radicands"):
                expand(x, b, 5)


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


# the quasi-greedy orbit of 1 is stored for these exact bases
ORBIT_BETAS = ["golden", "1.8", "2.5", "2", "9/5", "10.5", "7/3", "quad:(3+1*sqrt(5))/2",
               "quad:(1+1*sqrt(2))/1", "quad:(2+1*sqrt(7))/1", "quad:(1+1*sqrt(13))/2",
               "quad:(3+1*sqrt(2))/2"]


class TestOrbitOfOne:
    def test_points_are_scaled_series_deficits(self):
        # p_s = beta**s * (1 - sum_(i <= s) t_i beta**-i), in (0, 1], and 1
        # exactly at full states
        for spec in ORBIT_BETAS:
            b = make_beta(spec)
            for s in range(61):
                p = b.tail_sup(s)
                assert p == b.pow(s) * (1 - star_partial_sum(b, s)), (spec, s)
                assert 0 < p <= 1, (spec, s)
                assert (p == 1) == b.is_full_state(s), (spec, s)

    def test_store_matches_the_field_loop(self):
        # digits, period and points against the loop on the field's own arithmetic
        for spec in ORBIT_BETAS:
            b = make_beta(spec)
            digits, m = walk_expansion_of_one(b.beta_exact, 200)
            if m is not None:
                digits = (digits[:-1] + [digits[-1] - 1]) * (60 // m + 1)
            assert (b.star.period, b.star.prefix(60)) == (m, tuple(digits[:60])), spec
            p = Fraction(1)
            for s in range(1, 61):
                p = b.beta_exact * p - b.star.digit(s)
                assert b.tail_sup(s) == p and type(b.tail_sup(s)) is type(p), (spec, s)

    def test_tail_sup_reads_the_store(self, monkeypatch):
        powers = []
        pow_ = BetaSystem.pow

        def counted(self, k):
            powers.append(k)
            return pow_(self, k)

        monkeypatch.setattr(BetaSystem, "pow", counted)
        for spec in ORBIT_BETAS:
            b = make_beta(spec)
            tails = [b.tail_sup(s) for s in range(40)]
            assert all(b.tail_sup(s) is t for s, t in enumerate(tails)), spec
            assert not b._pow_cache, spec
        assert powers == []

    def test_prefix_reads_what_digit_reads(self):
        # one bulk read, sliced from the store or, for a Parry beta, from the
        # repeat rule: same digits as digit by digit, and no digit stored past t_L
        for spec in ORBIT_BETAS + ["3", "dec:1.8@200"]:
            bulk, single = make_beta(spec), make_beta(spec)
            for n in (0, 1, 2, 5, 13, 40, 41, 120, 7, 3, -5):
                assert bulk.star.prefix(n) == tuple(
                    single.star.digit(i) for i in range(1, n + 1)), (spec, n)
            assert len(bulk.star._digits) == len(single.star._digits), spec
        dec = make_beta("dec:1.8@200")
        with pytest.raises(PrecisionExhausted, match="undecided"):
            dec.star.prefix(2000)
        assert dec.star.prefix(5) == make_beta("1.8").star.prefix(5)

    def test_interval_beta_has_no_points(self):
        b = make_beta("dec:1.8@200")
        for s in (0, 1, 50):
            with pytest.raises(PrecisionExhausted):
                b.tail_sup(s)

    def test_digit_only_caller_stores_no_points(self):
        b = make_beta("9/5")
        count_admissible(1000, b)
        assert b.star._points == [1]
