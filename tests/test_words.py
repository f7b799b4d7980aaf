import gc
import itertools
import random
import re
import struct
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_imports import SPECS

from betadim import words
from betadim.cylinders import full_census, iter_cylinders
from betadim.errors import CapExceeded, PrecisionExhausted
from betadim.numerics import expand, make_beta
from betadim.words import (
    ENUM_CAP,
    _CODES,
    _SHORT,
    ParryAutomaton,
    _assert_renyi,
    _coefficients,
    _dfs,
    _TAIL,
    _pack,
    _unpack,
    _walk,
    check_cap,
    count_admissible,
    enumerate_admissible,
    is_admissible,
    renyi_bounds,
    words_with_states,
)

BETAS = ["golden", "1.8", "2.5", "2"]
S13 = "quad:(1+1*sqrt(13))/2"
DEC = "dec:1.8@200"
PHI2 = "quad:(3+1*sqrt(5))/2"
B31 = "31/3"
# bases whose quasi-greedy digits repeat, with the (L, p) of system.star.repeat:
# t_i = t_(i-p) for every i > L; golden squared has t = 2 1 1 1 ..., so L > p
REPEATING = {"2": (1, 1), "3": (1, 1), "golden": (2, 2), PHI2: (2, 1),
             "quad:(1+1*sqrt(2))/1": (2, 2), "quad:(2+1*sqrt(7))/1": (2, 2)}


def brute_admissible(word, system):
    """Independent oracle: every suffix at or below the quasi-greedy prefix
    of its length (plain tuple comparison, no automaton)."""
    n = len(word)
    for k in range(n):
        suffix = tuple(word[k:])
        prefix = system.star.prefix(n - k)
        if suffix > prefix:
            return False
    return True


def kmp_tables(system, n):
    """Quasi-greedy digits t[1..n+1] (t[0] unused) and their prefix
    function: fail[i] is the longest proper border of t1...ti, i <= n."""
    t = (0,) + system.star.prefix(n + 1)
    fail = [0, 0]
    for i in range(2, n + 1):
        k = fail[i - 1]
        while k and t[i] != t[k + 1]:
            k = fail[k]
        fail.append(k + 1 if t[i] == t[k + 1] else k)
    return t, fail


def kmp_step(t, fail, state, digit):
    """Independent follower step: fall back through the prefix-function
    chain until the digit extends a border, without assuming that every
    smaller digit resets to state 0."""
    if digit > t[state + 1]:
        return None
    while True:
        if digit == t[state + 1]:
            return state + 1
        if state == 0:
            return 0
        state = fail[state]


def automaton_dp_count(n, system):
    """Independent counter: dynamic programming over the fail-chain
    automaton's states, one digit at a time."""
    t, fail = kmp_tables(system, n)
    counts = {0: 1}
    for _ in range(n):
        nxt = {}
        for s, c in counts.items():
            for d in range(t[s + 1] + 1):
                u = kmp_step(t, fail, s, d)
                nxt[u] = nxt.get(u, 0) + c
        counts = nxt
    return sum(counts.values())


def fib(n):
    """F(n), F(1) = F(2) = 1, by fast doubling: F(2k) = F(k)(2F(k+1) - F(k))
    and F(2k+1) = F(k)**2 + F(k+1)**2."""
    a, b = 0, 1  # F(k), F(k + 1), k the leading bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


# polynomial coefficients for the packed halving: small ones and ones past
# 2**64, of either sign
COEFFICIENT = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))


def schoolbook(a, b):
    """Coefficients of a(z) * b(z), one product per pair of coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def recurrence_term(p, q, n):
    """x_n of the plain recurrence of p(z)/q(z), q[0] = 1:
    x_r = p_r - sum_{1 <= i <= r} q_i x_{r-i}, with p_r = 0 past p and
    q_i = 0 past q."""
    x = []
    for r in range(n + 1):
        x.append((p[r] if r < len(p) else 0)
                 - sum(q[i] * x[r - i] for i in range(1, min(r, len(q) - 1) + 1)))
    return x[n]


def folded(t):
    """The terms past the constant 1 of (1 - z)(1 - T(z)), T(z) = sum t_i z^i,
    cut at degree len(t): -1 - t_1, then t_(k-1) - t_k."""
    return [-1 - t[0]] + [a - b for a, b in zip(t, t[1:])]


def count_no_consecutive_ones(n):
    """Binary words of length n with no '11' substring (independent DP)."""
    end0, end1 = 1, 1
    for _ in range(n - 1):
        end0, end1 = end0 + end1, end0
    return end0 + end1


class TestAdmissibility:
    def test_golden_examples(self):
        b = make_beta("golden")
        assert not is_admissible((1, 1), b)
        assert is_admissible((1, 0, 1), b)
        assert is_admissible((1, 0, 0), b)

    def test_integer_base_all_admissible(self):
        b = make_beta("2")
        for w in itertools.product((0, 1), repeat=6):
            assert is_admissible(w, b)

    def test_against_brute_oracle_exhaustive(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in range(1, 7):
                for w in itertools.product(range(b.alphabet_max + 1), repeat=n):
                    assert is_admissible(w, b) == brute_admissible(w, b), (spec, w)

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_against_brute_oracle_random(self, w):
        for spec in ("2.5", "golden"):
            b = make_beta(spec)
            if max(w) > b.alphabet_max:
                assert not is_admissible(w, b)
            else:
                assert is_admissible(w, b) == brute_admissible(w, b)

    def test_expansions_are_admissible(self):
        for spec in BETAS:
            b = make_beta(spec)
            for num in range(1, 40):
                w = expand(Fraction(num, 41), b, 12)
                assert is_admissible(w, b)


class TestEnumerate:
    def test_examples(self):
        bg = make_beta("golden")
        assert list(enumerate_admissible(2, bg)) == [(0, 0), (0, 1), (1, 0)]
        b2 = make_beta("2")
        assert list(enumerate_admissible(3, b2)) == [
            tuple(w) for w in itertools.product((0, 1), repeat=3)]
        b25 = make_beta("2.5")
        assert list(enumerate_admissible(1, b25)) == [(0,), (1,), (2,)]

    def test_sorted_no_duplicates_and_filter_equivalence(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in (1, 3, 5):
                got = list(enumerate_admissible(n, b))
                assert got == sorted(set(got))
                brute = [w for w in itertools.product(range(b.alphabet_max + 1), repeat=n)
                         if brute_admissible(w, b)]
                assert got == brute

    def test_prefix_closure(self):
        for spec in ("golden", "2.5"):
            b = make_beta(spec)
            shorter = set(enumerate_admissible(4, b))
            for w in enumerate_admissible(5, b):
                assert w[:4] in shorter

    def test_matches_dense_expansion_sample(self):
        for spec in ("golden", "2.5"):
            b = make_beta(spec)
            n = 3
            seen = {expand(Fraction(k, 503), b, n) for k in range(503)}
            assert seen == set(enumerate_admissible(n, b))

    def test_cap(self):
        # the fixed cap is 10**8; base 2 bounds order 26 by 2**27 words
        b = make_beta("2")
        with pytest.raises(CapExceeded, match="enumeration at order 26"):
            enumerate_admissible(26, b)
        with pytest.raises(CapExceeded, match="cylinder sweep at order 26"):
            next(iter_cylinders(26, b))
        # interval beta: the bound takes the upper endpoint in the numerator
        # (about 1.72e8 words here), not the lower one (about 2.14e7)
        with pytest.raises(CapExceeded):
            enumerate_admissible(29, make_beta("dec:1.8@4"))

    def test_cap_verdict_is_the_whole_power_of_the_upper_end(self):
        # the upward fixed-point power of hi gives the verdict of the whole
        # exact power, hi**(n+1) > cap*(lo-1), on every base here
        for spec in ("2", "9/5", "golden", S13, DEC):
            b = make_beta(spec)
            lo, hi = b.beta.enclosure(64)
            for n in range(1, 301):
                try:
                    check_cap(b, n, "test")
                    over = False
                except CapExceeded:
                    over = True
                assert over == (hi ** (n + 1) > ENUM_CAP * (lo - 1)), (spec, n)

    def test_cap_near_beta_one_takes_no_exact_power(self):
        # no exact power of hi, of millions of digits here, is built: each
        # verdict is one 64-bit power, tens of microseconds where the exact
        # powers took seconds to minutes.  1.00001**1000001 > 2.2e4 > 1e8 *
        # 1e-5 = 1e3, and 1.000001**3000001 < 20.1 < 1e8 * 1e-6 = 100
        for spec, n, over in (("1.00001", 10 ** 6, True), ("1.000001", 3 * 10 ** 6, False)):
            b = make_beta(spec)
            start = time.perf_counter()
            try:
                check_cap(b, n, "test")
                refused = False
            except CapExceeded:
                refused = True
            assert time.perf_counter() - start < 1, spec
            assert refused == over, spec

    def test_cap_far_past_it(self):
        for spec in ("2", "golden", S13, DEC):
            with pytest.raises(CapExceeded, match=(
                    rf"^enumeration at order 100000 may exceed cap {ENUM_CAP} "
                    rf"for beta '{re.escape(spec)}'$")):
                enumerate_admissible(10 ** 5, make_beta(spec))


class TestCount:
    def test_golden_is_fibonacci(self):
        b = make_beta("golden")
        for n in range(1, 21):
            assert count_admissible(n, b) == fib(n + 2)
            assert count_admissible(n, b) == count_no_consecutive_ones(n)

    def test_no11_counter_against_brute_force(self):
        for n in range(1, 13):
            brute = sum(1 for w in itertools.product((0, 1), repeat=n)
                        if "11" not in "".join(map(str, w)))
            assert count_no_consecutive_ones(n) == brute

    def test_examples(self):
        assert count_admissible(3, make_beta("golden")) == 5
        assert count_admissible(5, make_beta("golden")) == 13
        assert count_admissible(4, make_beta("2")) == 16

    def test_count_matches_enumeration(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in (1, 2, 4, 6):
                assert count_admissible(n, b) == len(list(enumerate_admissible(n, b)))

    def test_recursion_matches_automaton_dp(self):
        # every n <= 60 steps through both halves of each parity, down to n = 1;
        # 31/3 has digits of 1 up to 10, so even the first step's slots are
        # wider than a byte
        for spec in BETAS + [S13, DEC, B31]:
            b = make_beta(spec)
            for n in range(1, 61):
                assert count_admissible(n, b) == automaton_dp_count(n, b), (spec, n)
        for spec in BETAS + [S13, B31]:
            b = make_beta(spec)
            assert count_admissible(300, b) == automaton_dp_count(300, b), spec
        # the benchmark's bases with no repeat, at its count order
        for spec in ("9/5", "5/2", S13):
            b = make_beta(spec)
            assert count_admissible(1000, b) == automaton_dp_count(1000, b), spec
        # the expansion of 1 in DEC is decided to 232 digits only
        b = make_beta(DEC)
        assert count_admissible(200, b) == automaton_dp_count(200, b)
        with pytest.raises(PrecisionExhausted):
            count_admissible(300, b)
        assert len(b.star._digits) == 233  # digits 1..232 stay stored

    def test_repeat_recurrence_matches_automaton_dp(self):
        for spec, repeat in REPEATING.items():
            b = make_beta(spec)
            assert b.star.repeat == repeat, spec
            for n in list(range(1, 41)) + [300]:
                assert count_admissible(n, b) == automaton_dp_count(n, b), (spec, n)

    def test_repeat_recurrence_closed_forms(self):
        cases = [("2", 1000, 2 ** 1000), ("3", 1000, 3 ** 1000), ("golden", 1000, fib(1002)),
                 (PHI2, 1000, fib(2002)), ("golden", 20000, fib(20002)),
                 ("golden", 10 ** 5, fib(10 ** 5 + 2)), ("2", 10 ** 5, 2 ** 10 ** 5),
                 ("golden", 10 ** 6, fib(10 ** 6 + 2))]
        for spec, n, want in cases:
            b = make_beta(spec)
            assert count_admissible(n, b) == want, (spec, n)
            # only t_1..t_L are read: the digit store stays at its build size
            assert len(b.star._digits) == b.star.repeat[0] + 1, spec

    def test_closed_form_numerators_are_the_recurrence(self):
        # one row of each class: integer, simple Parry of period 1 and 2,
        # non-simple Parry, non-Parry rational, non-Pisot quadratic, interval
        orders = list(range(1, 65)) + [1000]
        for spec in ("2", "3", "golden", "quad:(1+1*sqrt(2))/1", "quad:(2+1*sqrt(7))/1",
                     PHI2, "9/5", "5/2", "10.5", S13, "quad:(3+1*sqrt(2))/2", DEC):
            b = make_beta(spec)
            top = 200 if spec == DEC else orders[-1]
            # x_r = E_r + sum_{i<=r} t_i x_{r-i}, E_r = 1 for the counts and
            # [state r is full] for the full counts, term by term
            t = (0,) + b.star.prefix(top)
            digits = [(i, d) for i, d in enumerate(t) if d]
            counts, fulls = [1], [1]
            for r in range(1, top + 1):
                counts.append(1 + sum(d * counts[r - i] for i, d in digits if i <= r))
                fulls.append(b.is_full_state(r) + sum(d * fulls[r - i] for i, d in digits
                                                      if i <= r))
            for n in orders[:-1] + [top]:
                assert count_admissible(n, b) == counts[n], (spec, n)
                record = full_census(n, b)
                assert (record.count_admissible, record.count_full) == (counts[n], fulls[n]), \
                    (spec, n)
        # the interval row decides digits 1..232 of 1, and no count reads past them
        for read in (count_admissible, full_census):
            b = make_beta(DEC)
            read(232, b)
            with pytest.raises(PrecisionExhausted, match="digit 233 of 1"):
                read(233, b)

    def test_deep_count_keeps_no_order_n_list(self):
        # the numerators of a repeating beta are closed forms of degree at
        # most p, so the peak follows the count's own bits (125 kB for
        # 2**10**6), not an order-n list of 1s (24 MB at 10**6)
        import tracemalloc

        n = 10 ** 6
        for spec, want in (("2", 2 ** n), ("golden", fib(n + 2))):
            b = make_beta(spec)
            tracemalloc.start()
            try:
                count = count_admissible(n, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert count == want, spec
            assert peak < 4 * 2 ** 20, (spec, peak)

    def test_no_repeat_without_a_pisot_beta(self):
        for spec in ("1.8", "2.5", "9/5", S13, "quad:(3+1*sqrt(2))/2", DEC, B31):
            assert make_beta(spec).star.repeat is None, spec

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COEFFICIENT, min_size=1, max_size=12),
           st.one_of(st.lists(st.just(0), min_size=1, max_size=4),
                     st.lists(COEFFICIENT, min_size=1, max_size=12)),
           st.integers(1, 26))
    @example([0], [0], 1)
    @example([-1], [1], 3)
    @example([2 ** 64 + 1, -2 ** 64], [-2 ** 64, 2 ** 64 - 1, 3], 2)  # k below both lengths
    @example([-(2 ** 200)], [2 ** 200 - 1], 1)
    # products at the slot's bound: -147 needs the sign bit of a second byte,
    # and 300 * 255**2 the length's share of the slot
    @example([7] * 3, [-7] * 3, 5)
    @example([255] * 300, [-255] * 300, 599)
    @example([1000] * 2, [-1000] * 2, 3)  # narrowest width 3, rounded up to 4
    def test_pack_unpack_round_trips_at_the_slot_bounds(self, a, b, k):
        # the narrowest byte slots that hold a, b and their product strictly
        # inside 2**(8w - 1), as the halving step needs of its four products,
        # and the machine width they round up to: the two conversion paths
        c = schoolbook(a, b)
        narrow = max(map(abs, a + b + c)).bit_length() // 8 + 1
        for w in {narrow, min((m for m in _CODES if m >= narrow), default=narrow)}:
            h = 1 << 8 * w - 1
            formats = []  # struct.pack is called at a machine width only

            def spy(fmt, *c):
                formats.append(fmt)
                return struct.pack(fmt, *c)

            for x in (a, b, c, [-h] + c + [h - 1]):
                formats.clear()
                # the value itself, which a round trip alone would not pin:
                # a slip of byte order or sign could still invert
                assert _pack(x, w, spy) == sum(v << 8 * w * i for i, v in enumerate(x))
                assert formats == ([f"<{len(x)}{_CODES[w]}"] if w in _CODES else [])
            pack = struct.pack
            assert _unpack(_pack(a, w, pack) * _pack(b, w, pack), w, k) == (c + [0] * k)[:k]
            assert _unpack(_pack([-h] + c + [h - 1], w, pack), w, len(c) + 2) == [-h] + c + [h - 1]
            # a coefficient past the slot raises, never wraps into the next
            # one: struct refuses it at a machine width, to_bytes past it
            for bad in (h, -h - 1):
                with pytest.raises(struct.error if w in _CODES else OverflowError):
                    _pack(c + [bad] + c, w, pack)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(COEFFICIENT, min_size=1, max_size=12), min_size=1, max_size=2),
           st.lists(COEFFICIENT, min_size=1, max_size=40),
           st.integers(1, 80))
    # n's parity at each step from the last bit up: odd, even, odd, ...;
    # even, odd, even, ...; odd at every step; even at every step but the last
    @example([[1] * 86, [0, 1, 1]], [-1, -1], 0b1010101)
    @example([[1] * 107, [0, 1, 1]], [-1, -1], 0b1101010)
    @example([[2 ** 70, -3], [1]], [-1, 0, 2 ** 66, -5], 2 ** 6 - 1)
    @example([[2 ** 70, -3], [1]], [-1, 0, 2 ** 66, -5], 2 ** 6)
    # q longer than n + 1, its tail past z**n unread
    @example([[1, -(2 ** 65)], [-1] * 30], [2 ** 80] * 40, 21)
    # q at the list kernel's bound and one past it, with n odd and even: the
    # packed steps run while q is longer than the bound, the list steps after
    @example([[1, -2], [5]], ([2, -1, 3] * _SHORT)[:_SHORT - 1], 23)
    @example([[1, -2], [5]], ([2, -1, 3] * _SHORT)[:_SHORT - 1], 22)
    @example([[1, -2], [5]], ([2, -1, 3] * _SHORT)[:_SHORT], 23)
    @example([[1, -2], [5]], ([2, -1, 3] * _SHORT)[:_SHORT], 22)
    # a long q, (1 - z)(1 - T(z)) for 0/1 digits t, over the short numerators
    # [1] and 1 - z of a beta with no repeat
    @example([[1], [1, -1]], folded([1, 0, 1, 1, 0, 0, 1, 0] * 5), 40)
    @example([[1], [1, -1]], folded([1, 0, 1, 1, 0, 0, 1, 0] * 5), 39)
    def test_coefficients_are_the_recurrence_term(self, ps, tail, n):
        q = [1] + tail
        assert _coefficients(ps, q, n) == [recurrence_term(p, q, n) for p in ps]

    def test_growth_bound_check(self, monkeypatch):
        # the fixed-point enclosure decides real counts; the exact bounds are
        # read only when it cannot, such as at the tie 3**n = beta**n once
        # 3**n has more than 64 bits to round
        exact = []
        monkeypatch.setattr(words, "renyi_bounds",
                            lambda n, s: exact.append((s.spec, n)) or renyi_bounds(n, s))
        golden, two, three = make_beta("golden"), make_beta("2"), make_beta("3")
        for n in (1, 2, 3, 20, 41, 1000, 20000):
            count = fib(n + 2)
            _assert_renyi(count, n, golden)
            _assert_renyi(2 ** n, n, two)  # powers of 2 round exactly
            assert exact == [], n
            _assert_renyi(3 ** n, n, three)
            assert exact == ([("3", n)] if 3 ** n >> 64 else []), n
            # 2 * F(n+2) stays below phi**(n+2), the upper bound, as 2 < sqrt(5)
            for bad, b in ((3 * count, golden), (count // 2, golden), (2 ** n - 1, two),
                           (2 ** (n + 1) + 1, two), (3 ** n - 1, three)):
                with pytest.raises(AssertionError, match="violates growth bounds"):
                    _assert_renyi(bad, n, b)
            exact.clear()
        # the upper bound 3**(n+1)/2 lies half a unit above an integer: the
        # fixed-point power of beta**(n+1) that may prove it must round down,
        # or the next integer up would pass unchecked
        for n in (41, 1000, 20000):
            _assert_renyi(3 ** (n + 1) // 2, n, three)
            with pytest.raises(AssertionError, match="violates growth bounds"):
                _assert_renyi(3 ** (n + 1) // 2 + 1, n, three)

    def test_growth_check_keeps_no_power(self):
        # the exact tie fallback of base 3 (3**n > 2**64) takes beta**n once,
        # outside the system's power cache
        three = make_beta("3")
        for n in (1000, 20000):
            assert count_admissible(n, three) == 3 ** n
            assert three._pow_cache == {}, n

    def test_renyi_bounds_explicit(self):
        b = make_beta("golden")
        lower, upper = renyi_bounds(3, b)
        count = count_admissible(3, b)
        assert lower <= count <= upper
        # phi^3 ~ 4.236 <= 5 <= phi^4 / (phi - 1) ~ 11.09
        assert 4 < float(lower) < 4.5
        assert 11 < float(upper) < 11.2


def walk_step(system, t, state, digit):
    """The follower step of ``_walk``: walk t1...ts to reach state s, then
    read the digit; None when the word dies."""
    states = _walk(t[1:state + 1] + (digit,), system, [])
    return None if states is None else states[-1]


class TestAutomaton:
    def test_reset_rule_matches_fail_chain(self):
        cases = [(spec, 400) for spec in
                 ("golden", "1.8", "2.5", "2", "9/5", "10.5", S13)]
        # the expansion of 1 in DEC is decided to 232 digits only
        cases.append((DEC, 200))
        for spec, n in cases:
            b = make_beta(spec)
            t, fail = kmp_tables(b, n)
            trans, maxd = ParryAutomaton(b).transition_table(n)
            for s in range(n + 1):
                assert maxd[s] == t[s + 1]
                # every digit up to t_{s+1} + 1, the smallest one that dies
                for d in range(t[s + 1] + 2):
                    assert walk_step(b, t, s, d) == kmp_step(t, fail, s, d), (spec, s, d)
                assert trans[s] == [kmp_step(t, fail, s, d)
                                    for d in range(t[s + 1] + 1)], (spec, s)

    def test_transition_table_is_the_step_table(self):
        # the reference: the table built cell by cell from the step of _walk
        cases = [(spec, 60) for spec in BETAS + ["9/5", S13, PHI2]] + [(DEC, 200)]
        for spec, n in cases:
            b = make_beta(spec)
            t, _ = kmp_tables(b, n)
            maxd = [t[s + 1] for s in range(n + 1)]
            trans = [[walk_step(b, t, s, d) for d in range(maxd[s] + 1)] for s in range(n + 1)]
            assert ParryAutomaton(b).transition_table(n) == (trans, maxd), spec

    def test_walk_is_the_step_walk(self):
        # the one walk on a local list against the fail-chain step, one call
        # a digit, on every word over the alphabet plus one, admissible or not
        for spec in BETAS + ["9/5", S13, PHI2]:
            b = make_beta(spec)
            t, fail = kmp_tables(b, 6)
            for n in range(1, 7):
                for w in itertools.product(range(b.alphabet_max + 2), repeat=n):
                    states = [0]
                    for d in w:
                        states.append(kmp_step(t, fail, states[-1], d))
                        if states[-1] is None:
                            states = None
                            break
                    assert _walk(w, b, []) == states, (spec, w)

    def test_walk_rejects_a_negative_digit(self):
        b = make_beta("golden")
        for w in ((-1,), (0, -1, 0), (1, 0, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                is_admissible(w, b)


class TestWordsWithStates:
    def test_state_is_longest_quasi_greedy_suffix_match(self):
        for spec in BETAS + [S13]:
            b = make_beta(spec)
            for n in range(1, 9):
                for w, state in words_with_states(b, n):
                    best = max(length for length in range(n + 1)
                               if w[n - length:] == b.star.prefix(length))
                    assert state == best, (spec, w)

    def test_stream_is_the_sorted_enumeration(self):
        for spec in BETAS + [S13, PHI2]:
            b = make_beta(spec)
            for n in range(1, 9):
                assert [w for w, _ in _dfs(b, n)] == list(enumerate_admissible(n, b))

    def test_stream_resumes_at_any_word(self):
        # resumed at w, the stream yields w, then the tail of the stream
        # from the first word
        for spec in ("2", "golden", "9/5", "5/2", S13, DEC):
            b = make_beta(spec)
            for n in range(1, 9):
                stream = list(_dfs(b, n))
                for k, (w, state) in enumerate(stream):
                    resumed = list(_dfs(b, n, w))
                    assert resumed[0] == (w, state), (spec, w)
                    assert resumed[1:] == stream[k + 1:], (spec, w)


def brute_stream(system, n, start=None):
    """Independent stream of the admissible length-n words from ``start`` (or
    0...0) on: every digit tuple over 0..alphabet_max in lexicographic order,
    an odometer, kept with its final state where ``_walk`` admits it.  Past
    a tuple whose shortest dead prefix is w[:k] the odometer skips to the
    next prefix of length k, as no extension of a dead prefix lives."""
    top = system.alphabet_max
    w = list(start or (0,) * n)
    while True:
        states = _walk(w, system, [])
        if states is not None:
            yield tuple(w), states[-1]
        else:
            k = next(k for k in range(1, n + 1) if _walk(w[:k], system, []) is None)
            w[k:] = [top] * (n - k)
        i = n - 1
        while i >= 0 and w[i] == top:
            w[i] = 0
            i -= 1
        if i < 0:
            return
        w[i] += 1


def random_word(system, n, rng):
    """An admissible length-n word, each digit drawn among those that keep
    the word admissible (``_walk``)."""
    w = []
    for _ in range(n):
        w.append(rng.choice([d for d in range(system.alphabet_max + 1)
                             if _walk(w + [d], system, []) is not None]))
    return tuple(w)


class TestReplayedBlocks:
    """``_dfs`` steps each word down to depth n - _TAIL and replays the rest
    from the block recorded for the state there.  The orders run from below
    _TAIL to the first ones whose blocks replay (n = _TAIL + 1 where t1 >= 2,
    _TAIL + 2 for golden) and past them."""

    ORDERS = range(1, _TAIL + 4)
    # digit tuples a whole brute-force stream may walk: 11**5, so 10.5 and
    # 31/3 (digits 0..10) compare whole streams up to order _TAIL + 1 and
    # fewer resumed windows past it
    BUDGET = 11 ** 5

    @pytest.mark.parametrize("spec", SPECS + ("3", "10.5", "31/3"))
    def test_stream_and_resumed_streams_are_the_brute_force_ones(self, spec):
        b = make_beta(spec)
        rng = random.Random(spec)
        # a window from any start steps through the rest of its block, then
        # records one whole block and reaches the next
        window = 2 * count_admissible(_TAIL, b) + 1
        for n in self.ORDERS:
            m = max(n - _TAIL, 0)
            # t1...tj 0...0 reaches state j at depth j; a random word lies
            # anywhere in a block
            starts = [b.star.prefix(j) + (0,) * (n - j) for j in {0, m, n}]
            walked = (b.alphabet_max + 1) ** n <= self.BUDGET
            for _ in range(6 if walked else 2):
                starts.append(random_word(b, n, rng))
            if walked:
                whole = list(brute_stream(b, n))
                assert list(_dfs(b, n)) == whole, (spec, n)
                assert list(words_with_states(b, n)) == whole, (spec, n)
                at = {w: k for k, (w, _) in enumerate(whole)}
            for w in starts:
                want = (whole[at[w]:at[w] + window] if walked
                        else list(itertools.islice(brute_stream(b, n, w), window)))
                assert list(itertools.islice(_dfs(b, n, w), window)) == want, (spec, n, w)

    @pytest.mark.parametrize("spec", ("2", "golden", "9/5", "5/2"))
    def test_streamed_words_are_counted(self, spec):
        # every order up to 20 whose stream stays within 2**20 words: all of
        # them but 5/2 past order 14
        b = make_beta(spec)
        for n in range(1, 21):
            count = count_admissible(n, b)
            if count > 2 ** 20:
                break
            assert sum(1 for _ in _dfs(b, n)) == count, (spec, n)
        assert spec == "5/2" or n == 20

    def test_records_belong_to_one_stream(self):
        # a stream abandoned inside a block leaves nothing that a fresh
        # stream, or itself resumed, reads
        for spec in ("golden", "9/5", "5/2", S13):
            b = make_beta(spec)
            n = _TAIL + 3
            whole = list(brute_stream(b, n))
            m = n - _TAIL
            second = next(k for k, (w, _) in enumerate(whole) if w[:m] != whole[0][0][:m])
            for k in (1, second + 1):  # inside the first block, then the second
                cut = _dfs(b, n)
                assert list(itertools.islice(cut, k)) == whole[:k], spec
                assert list(_dfs(b, n)) == whole, spec
                assert list(_dfs(b, n, whole[k][0])) == whole[k:], spec
                assert list(cut) == whole[k:], spec
                cut = _dfs(b, n)
                next(cut)
                cut.close()
                assert list(_dfs(b, n)) == whole, spec

    @pytest.mark.parametrize("spec, n, read", [
        ("9/5", 12, 13), (DEC, 12, 13), ("5/2", 8, 9), ("golden", 12, 3)])
    def test_digits_of_1_read_are_those_of_the_per_digit_stream(self, spec, n, read):
        # a replayed block reads no digit of 1: the store holds what the
        # stream stepping every digit read
        b = make_beta(spec)
        list(words_with_states(b, n))
        assert len(b.star._digits) == read


class TestAutomatonPerSystem:
    def test_systems_are_not_kept_alive(self):
        refs = []
        for _ in range(200):
            b = make_beta("golden")
            count_admissible(5, b)
            refs.append(weakref.ref(b))
        del b
        gc.collect()
        assert [r for r in refs if r() is not None] == []

    def test_digit_store_shared_across_threads(self):
        n, workers = 300, 8
        fresh = make_beta("1.8")
        expected = (ParryAutomaton(fresh).transition_table(n), fresh.star.prefix(n),
                    [fresh.tail_sup(s) for s in range(n + 1)])
        b = make_beta("1.8")
        results = [None] * workers
        start = threading.Barrier(workers)

        def work(i):
            start.wait(timeout=60)
            results[i] = (ParryAutomaton(b).transition_table(n), b.star.prefix(n),
                          [b.tail_sup(s) for s in range(n + 1)])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * workers

    def test_failed_extension_leaves_store_usable(self):
        fresh = make_beta(DEC)
        expected = (count_admissible(200, fresh), fresh.star.prefix(200))
        b = make_beta(DEC)
        with pytest.raises(PrecisionExhausted):
            count_admissible(300, b)
        assert (count_admissible(200, b), b.star.prefix(200)) == expected
        with pytest.raises(PrecisionExhausted):
            count_admissible(300, b)
