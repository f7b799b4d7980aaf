import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from betadim.errors import (InvariantFailure, NotAdmissible, PrecisionExhausted,
                            PreconditionViolated)
from betadim.exact import CertifiedReal, QuadNum, compare
from betadim.numerics import GOLDEN, BetaSystem, eval_word, expand, make_beta, word_evaluator
from betadim import cylinders
from betadim.cylinders import (
    CensusRecord,
    CylinderInterval,
    cylinder,
    find_full_in_interval,
    full_census,
    is_full,
    iter_cylinders,
    length_by_partition,
    successor,
)
from betadim.words import (count_admissible, enumerate_admissible, is_admissible,
                           words_with_states)

PHI = GOLDEN
BETAS = ["golden", "1.8", "2.5", "2"]
S13 = "quad:(1+1*sqrt(13))/2"
DEC = "dec:1.8@200"
# golden squared: a quadratic of the golden field taken by the generic kernel
PHI2 = "quad:(3+1*sqrt(5))/2"
SWEEP_BETAS = BETAS + ["9/5", PHI2]
# the exact bases of test_numerics.ORBIT_BETAS
ORBIT_BETAS = ["golden", "1.8", "2.5", "2", "9/5", "10.5", "7/3", PHI2,
               "quad:(1+1*sqrt(2))/1", "quad:(2+1*sqrt(7))/1", S13, "quad:(3+1*sqrt(2))/2"]
# bases whose quasi-greedy digits repeat (system.star.repeat is not None)
REPEATING = ["2", "3", "golden", PHI2, "quad:(1+1*sqrt(2))/1", "quad:(2+1*sqrt(7))/1"]


def extension_full_oracle(word, system, depth=4):
    """Independent fullness oracle: every admissible continuation of length
    <= depth keeps the concatenation admissible."""
    for m in range(1, depth + 1):
        for u in enumerate_admissible(m, system):
            if not is_admissible(tuple(word) + u, system):
                return False
    return True


def fullness_two_ways(word, system):
    """(follower-route fullness, exact-length fullness); must agree."""
    fast = is_full(word, system)
    exact = length_by_partition(word, system) == system.pow(-len(word))
    return fast, exact


def reference_census(n, system):
    """Enumeration oracle: (count, count_full, max_gap) from one pass over
    the order-n words and their final automaton states."""
    count = count_full = gap = max_gap = 0
    for _, state in words_with_states(system, n):
        count += 1
        if system.is_full_state(state):
            count_full += 1
            gap = 0
        else:
            gap += 1
            max_gap = max(max_gap, gap)
    return count, count_full, max_gap


def fail_chain_census(n, system):
    """Independent (count, count_full) at order n: dynamic programming over
    the final states of the fail-chain follower automaton (the prefix
    function of t, no reset rule).  A state is full iff it is 0 or a
    multiple of the least period of t, found here from 4n digits of t
    (none for a t that is not purely periodic)."""
    t = (0,) + system.star.prefix(4 * n)
    period = next((m for m in range(1, n + 1)
                   if all(t[i] == t[i - m] for i in range(m + 1, 4 * n + 1))), None)
    fail = [0, 0]
    for i in range(2, n + 1):
        k = fail[i - 1]
        while k and t[i] != t[k + 1]:
            k = fail[k]
        fail.append(k + 1 if t[i] == t[k + 1] else k)

    def step(state, digit):
        while digit != t[state + 1]:
            if state == 0:
                return 0
            state = fail[state]
        return state + 1

    counts = {0: 1}
    for _ in range(n):
        nxt = {}
        for s, c in counts.items():
            for d in range(t[s + 1] + 1):
                u = step(s, d)
                nxt[u] = nxt.get(u, 0) + c
        counts = nxt
    full = sum(c for s, c in counts.items() if s == 0 or (period and s % period == 0))
    return sum(counts.values()), full


def convolution_census(n, system):
    """[(c_r, f_r, g_r)] for r = 0..n by the Renyi-Parry sums taken in full,
    c_r = 1 + sum_{i<=r} t_i c_{r-i} and f_r = [state r full] + sum t_i f_{r-i},
    with g_r the longest trailing non-full run at orders 1..r."""
    t = (0,) + system.star.prefix(n)
    c, f, trail, rows = [1], [1], [0], [(1, 1, 0)]
    last = gap = 0
    for r in range(1, n + 1):
        last = r if t[r] else last
        full = system.is_full_state(r)
        c.append(1 + sum(t[i] * c[r - i] for i in range(1, r + 1)))
        f.append(full + sum(t[i] * f[r - i] for i in range(1, r + 1)))
        trail.append(0 if full else trail[r - last] + 1)
        gap = max(gap, trail[r])
        rows.append((c[r], f[r], gap))
    return rows


def cylinder_table(n, system):
    """(word, left, length, full) of every order-n cylinder, with no
    cylinders code: all digit tuples kept by the Parry criterion (each
    suffix at or below the quasi-greedy prefix of its length), left ends as
    sums of digit powers, lengths as gaps to the next left end (to 1 after
    the last), full exactly when the length is beta**-n."""
    t = system.star.prefix(n)
    words = [w for w in itertools.product(range(system.alphabet_max + 1), repeat=n)
             if all(w[k:] <= t[:n - k] for k in range(n))]
    lefts = [sum((d * system.pow(-i) for i, d in enumerate(w, 1)), Fraction(0))
             for w in words]
    rights = lefts[1:] + [Fraction(1)]
    return [(w, left, right - left, right - left == system.pow(-n))
            for w, left, right in zip(words, lefts, rights)]


def reference_find(lo, hi, n, system, strict):
    """The leftmost full order-n cylinder inside (lo, hi), by stepping
    ``successor`` from the expansion of lo and taking each cylinder whole."""
    w = expand(lo, system, n)
    while w is not None:
        c = cylinder(w, system)
        if c.left >= hi:
            return None
        if c.is_full and (c.left > lo and c.left + c.length < hi if strict
                          else c.left >= lo and c.left + c.length <= hi):
            return w
        w = successor(w, system)
    return None


def seeded_interval(rng, need):
    """0 <= lo < hi <= 1 on the 2**-20 grid with hi - lo > need."""
    grid = 1 << 20
    while True:
        width = rng.randint(int(float(need) * grid) + 1, grid)
        lo = rng.randint(0, grid - width)
        lo, hi = Fraction(lo, grid), Fraction(lo + width, grid)
        if compare(need, hi - lo) < 0:
            return lo, hi


class TestCylinderBasics:
    def test_golden_order2_partition(self):
        b = make_beta("golden")
        c00 = cylinder((0, 0), b)
        c01 = cylinder((0, 1), b)
        c10 = cylinder((1, 0), b)
        assert c00.left == 0 and c00.length == PHI ** -2 and c00.is_full
        assert c01.left == PHI ** -2 and c01.length == PHI ** -3
        assert not c01.is_full
        # the periodic quasi-greedy block makes (1, 0) a maximal-length word
        assert c10.left == PHI - 1 and c10.length == PHI ** -2 and c10.is_full
        assert c10.left + c10.length == 1

    def test_dyadic(self):
        b = make_beta("2")
        c = cylinder((1, 0, 1), b)
        assert c.left == Fraction(5, 8)
        assert c.length == Fraction(1, 8)
        assert c.is_full

    def test_the_empty_word_is_the_unit_interval(self):
        # the order-0 stream holds the empty word alone: [0, 1), full, on
        # every exact beta, (1+sqrt(13))/2 included, whose field order 0
        # never compares with golden's
        for spec in ("2", "golden", S13):
            b = make_beta(spec)
            c = cylinder((), b)
            assert c == CylinderInterval((), Fraction(0), b.pow(0) * b.tail_sup(0), True), spec
            assert (c.left, c.length, c.is_full) == (0, 1, True), spec
            assert hash(c) == hash(CylinderInterval((), 0, 1, True)), spec
        with pytest.raises(PrecisionExhausted):
            cylinder((), make_beta(DEC))

    def test_not_admissible_raises(self):
        b = make_beta("golden")
        for call in (cylinder, is_full, successor):
            with pytest.raises(NotAdmissible, match="for beta 'golden'"):
                call((1, 1), b)

    def test_negative_digit_raises_value_error(self):
        b = make_beta("golden")
        for call in (cylinder, is_full, successor):
            with pytest.raises(ValueError, match="non-negative") as err:
                call((0, -1, 0), b)
            assert type(err.value) is ValueError, call


class TestSuccessorAndPartition:
    def test_successor_golden(self):
        b = make_beta("golden")
        assert successor((0, 0), b) == (0, 1)
        assert successor((0, 1), b) == (1, 0)
        assert successor((1, 0), b) is None

    def test_empty_word(self):
        b = make_beta("golden")
        assert successor((), b) is None
        assert length_by_partition((), b) == 1

    def test_successor_reads_digits_of_1_lazily(self):
        # dec:1.8@200 decides only the first 232 digits of 1; the follower
        # states of these words stay far below that, so no step reads past it
        b = make_beta(DEC)
        assert successor((0,) * 300, b) == (0,) * 299 + (1,)
        for w in ((1, 0) * 150, (1, 0, 0) * 100):
            nxt = successor(w, b)
            j = next(i for i in range(300) if nxt[i] != w[i])
            assert nxt[j] > w[j] and not any(nxt[j + 1:]) and is_admissible(nxt, b), w

    def test_partition_sums_to_one_exactly(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in (1, 2, 3, 5):
                total = sum(c.length for c in iter_cylinders(n, b))
                assert total == 1, (spec, n)

    def test_tiling_left_to_right(self):
        for spec in ("golden", "2.5"):
            b = make_beta(spec)
            prev_right = Fraction(0)
            for c in iter_cylinders(4, b):
                assert c.left == prev_right
                prev_right = c.left + c.length
            assert prev_right == 1

    def test_fast_length_equals_partition_length(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in (1, 2, 4):
                for w in enumerate_admissible(n, b):
                    assert cylinder(w, b).length == length_by_partition(w, b), (spec, w)


class TestSweep:
    def test_every_cylinder_matches_the_single_word_route(self):
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in range(1, 9):
                for c in iter_cylinders(n, b):
                    # tuple equality: word, left, length and is_full
                    assert c == cylinder(c.word, b), (spec, c.word)

    def test_tail_sup_runs_at_most_once_per_state(self, monkeypatch):
        calls = []
        tail_sup = BetaSystem.tail_sup

        def counted(self, state):
            calls.append(state)
            return tail_sup(self, state)

        monkeypatch.setattr(BetaSystem, "tail_sup", counted)
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in (1, 4, 8):
                calls.clear()
                swept = sum(1 for _ in iter_cylinders(n, b))
                assert swept == count_admissible(n, b)
                assert len(calls) <= n + 1 and len(set(calls)) == len(calls), (spec, n)

    def test_a_length_is_lifted_when_the_stream_steps_past_its_state(self, monkeypatch):
        # a reader that stops at a record lifts nothing for its state: cylinder
        # reads one record and lifts nothing; a full sweep steps past every
        # state it reaches and lifts each once, then 1 for its end check
        lifts = []

        def counted(system, n):
            fold, finish, lift, add = word_evaluator(system, n)
            return fold, finish, lambda v: lifts.append(v) or lift(v), add

        monkeypatch.setattr(cylinders, "word_evaluator", counted)
        for spec in ("2", "golden", "9/5"):
            b = make_beta(spec)
            for n in (1, 4, 8):
                lifts.clear()
                cylinder(expand(Fraction(1, 3), b, n), b)
                assert not lifts, (spec, n)
            lifts.clear()
            assert sum(1 for _ in iter_cylinders(8, b)) == count_admissible(8, b)
            states = {state for _, state in words_with_states(b, 8)}
            assert len(lifts) == len(states) + 1 == 10, (spec, len(lifts))

    def test_sweep_checks_that_the_last_cylinder_ends_at_one(self, monkeypatch):
        # the last word t1...tn ends in state n: a wrong tail_sup there moves
        # the last right end off 1, which only the exhausted sweep can see
        tail_sup = BetaSystem.tail_sup
        n = 6

        def corrupted(self, state):
            value = tail_sup(self, state)
            return value + self.pow(-2) if state == n else value

        monkeypatch.setattr(BetaSystem, "tail_sup", corrupted)
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            sweep = iter_cylinders(n, b)
            assert sum(1 for _ in itertools.islice(sweep, count_admissible(n, b))) \
                == count_admissible(n, b)
            with pytest.raises(InvariantFailure, match="not 1"):
                next(sweep)

    def test_kernel_matches_the_sum_of_digit_powers(self):
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            powers = [b.beta_exact ** -i for i in range(1, 9)]
            for n in range(1, 9):
                fold, finish, lift, add = word_evaluator(b, n)
                for w in enumerate_admissible(n, b):
                    want = sum(d * p for d, p in zip(w, powers))
                    assert finish(fold(w)) == want, (spec, w)
                    assert lift(want) == fold(w), (spec, w)  # finish's inverse
                assert eval_word(w, b) == want, (spec, w)

    def test_a_length_lifts_to_coordinates_that_finish_to_it(self):
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in range(1, 11):
                fold, finish, lift, add = word_evaluator(b, n)
                for s in range(n + 1):
                    length = b.pow(-n) * b.tail_sup(s)
                    assert finish(lift(length)) == length, (spec, n, s)

    def test_sweep_checks_the_last_left_end_against_its_digits(self, monkeypatch):
        # a Horner fold that is off by beta**-n on every non-empty word: the
        # lengths still sum to 1, so only the digits of t1...tn can see it
        def corrupted(system, n):
            fold, finish, lift, add = word_evaluator(system, n)

            def off(word):
                return add(fold(word), fold((0,) * (len(word) - 1) + (1,))) if word else fold(word)

            return off, finish, lift, add

        monkeypatch.setattr(cylinders, "word_evaluator", corrupted)
        n = 6
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            sweep = iter_cylinders(n, b)
            assert sum(1 for _ in itertools.islice(sweep, count_admissible(n, b))) \
                == count_admissible(n, b)
            with pytest.raises(InvariantFailure, match="digits' value"):
                next(sweep)


class TestLeftEndsBuiltOnRead:
    """A swept record keeps its left end as the sweep carries it, in the
    Horner kernel's coordinates, and builds the value only when ``left`` is read."""

    def test_left_ends_read_after_the_sweep_equal_the_word_values(self):
        # read only once the whole sweep is collected: a record that shared
        # the sweep's running value would read a later word's left end
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in range(1, 11):
                for c in list(iter_cylinders(n, b)):
                    assert c.left == eval_word(c.word, b), (spec, c.word)

    def test_records_are_immutable(self):
        b = make_beta("golden")
        for c in (next(iter_cylinders(5, b)), cylinder((1, 0, 0), b)):
            for name in ("word", "left", "length", "is_full"):
                with pytest.raises(AttributeError):
                    setattr(c, name, getattr(c, name))
            with pytest.raises(AttributeError):
                c.extra = 1

    def test_a_swept_record_hashes_as_the_single_word_record(self):
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in range(1, 11):
                for c in iter_cylinders(n, b):
                    single = cylinder(c.word, b)
                    assert hash(c) == hash(single) and not c != single, (spec, c.word)

    def test_a_sweep_that_reads_no_left_end_builds_none(self, monkeypatch):
        # the tiling check on the last cylinder compares kernel coordinates
        built = []

        def counted(system, n):
            fold, finish, lift, add = word_evaluator(system, n)
            return fold, lambda acc: built.append(n) or finish(acc), lift, add

        monkeypatch.setattr(cylinders, "word_evaluator", counted)
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in range(1, 11):
                built.clear()
                read = [(c.word, c.length, c.is_full) for c in iter_cylinders(n, b)]
                assert len(read) == count_admissible(n, b)
                assert not built, (spec, n, len(built))

    def test_copies_and_repr_show_the_built_left_end(self):
        b = make_beta("9/5")
        for c in iter_cylinders(4, b):
            single = cylinder(c.word, b)
            for twin in (copy.copy(c), pickle.loads(pickle.dumps(c))):
                assert twin == c and type(twin) is CylinderInterval, c.word
            assert repr(c) == repr(single) == (
                f"CylinderInterval(word={c.word!r}, left={c.left!r}, "
                f"length={c.length!r}, is_full={c.is_full!r})")


class TestFullness:
    def test_two_routes_agree_everywhere(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in (1, 2, 3, 5):
                for w in enumerate_admissible(n, b):
                    fast, exact = fullness_two_ways(w, b)
                    assert fast == exact, (spec, w)

    def test_against_extension_oracle(self):
        for spec in ("golden", "2.5", "1.8"):
            b = make_beta(spec)
            for w in enumerate_admissible(3, b):
                assert is_full(w, b) == extension_full_oracle(w, b), (spec, w)

    def test_spec_cases(self):
        bg = make_beta("golden")
        assert is_full((1, 0, 0), bg)          # one, then the zero run + 1
        assert is_full((1, 0), bg)             # periodic block: maximal length
        assert not is_full((0, 1), bg)
        b2 = make_beta("2")
        for w in itertools.product((0, 1), repeat=5):
            assert is_full(w, b2)

    def test_full_multiplicativity(self):
        # length(w . u) == length(w) * length(u) whenever w is full
        for spec in ("golden", "2.5"):
            b = make_beta(spec)
            fulls = [w for w in enumerate_admissible(3, b) if is_full(w, b)]
            for w in fulls[:4]:
                for u in enumerate_admissible(2, b):
                    combined = w + u
                    assert is_admissible(combined, b)
                    assert cylinder(combined, b).length == \
                        cylinder(w, b).length * cylinder(u, b).length

    def test_zero_words_are_full(self):
        for spec in BETAS:
            b = make_beta(spec)
            assert is_full((0,) * 4, b)

    def test_fullness_decided_on_fresh_system(self):
        # the finite expansion 1 = .11 of golden is known before any digit
        # is read: F(6) = 13 order-6 words are full
        b = make_beta("golden")
        assert full_census(6, b).count_full == 13
        assert sum(c.is_full for c in iter_cylinders(6, b)) == 13

    def test_undecided_expansion_is_not_read_as_non_full(self):
        # the expansion of 1 in dec:1.8@200 is decided to 232 digits only
        b = make_beta(DEC)
        assert not b.is_full_state(200)
        with pytest.raises(PrecisionExhausted):
            b.is_full_state(300)
        with pytest.raises(PrecisionExhausted):
            full_census(300, b)


class TestCensus:
    def test_dyadic(self):
        rec = full_census(4, make_beta("2"))
        assert rec == CensusRecord("2", 4, 16, 16, 0)

    def test_golden_order2(self):
        rec = full_census(2, make_beta("golden"))
        assert rec.count_admissible == 3
        assert rec.count_full == 2          # (0,0) and (1,0)
        assert rec.max_gap == 1

    def test_gap_bound_grid(self):
        for spec in BETAS:
            b = make_beta(spec)
            for n in range(1, 7):
                rec = full_census(n, b)
                assert rec.max_gap <= n

    def test_golden_order6(self):
        rec = full_census(6, make_beta("golden"))
        assert rec.max_gap <= 6
        assert rec.count_admissible == 21  # fib(8)

    def test_fold_matches_enumeration(self):
        for spec in BETAS + [S13, DEC]:
            b = make_beta(spec)
            for n in range(1, 13):
                rec = full_census(n, b)
                got = (rec.count_admissible, rec.count_full, rec.max_gap)
                assert got == reference_census(n, b), (spec, n)

    def test_gap_bound_at_order_400(self):
        # Bugeaud-Wang: non-full runs at order n are at most n, checked
        # where enumeration (about beta**400 words) never could
        for spec in ("2", "golden", "9/5", "5/2", S13, "10.5"):
            b = make_beta(spec)
            rec = full_census(400, b)
            assert rec.max_gap <= 400, spec
            assert rec.count_admissible == count_admissible(400, b), spec

    def test_a_parry_census_stores_only_the_head_of_1(self):
        # past t_L the digits of 1 are read from the repeat (L, p), never stored
        for spec in ("2", "golden", PHI2):
            b = make_beta(spec)
            full_census(1000, b)
            L, _ = b.star.repeat
            assert len(b.star._digits) <= L + 1, spec

    def test_count_full_against_the_fail_chain_dp(self):
        for spec in REPEATING + ["9/5", "5/2", S13]:
            b = make_beta(spec)
            rec = full_census(300, b)
            assert (rec.count_admissible, rec.count_full) == fail_chain_census(300, b), spec
        # digits of 1 up to 10: the halving's first slots are wider than a byte
        b = make_beta("31/3")
        for n in range(1, 41):
            rec = full_census(n, b)
            assert (rec.count_admissible, rec.count_full) == fail_chain_census(n, b), n

    def test_fail_chain_dp_against_enumeration(self):
        for spec in REPEATING + ["9/5"]:
            b = make_beta(spec)
            for n in (1, 2, 5, 8):
                count, full, _ = reference_census(n, b)
                assert fail_chain_census(n, b) == (count, full), (spec, n)

    def test_counts_equal_the_full_sums(self):
        for spec in ORBIT_BETAS:
            b = make_beta(spec)
            rows = convolution_census(1000, b)
            for n in (1, 2, 3, 7, 50, 301, 400):
                assert full_census(n, b) == CensusRecord(spec, n, *rows[n]), (spec, n)
            for n in (1, 2, 3, 7, 50, 301, 1000):
                assert count_admissible(n, b) == rows[n][0], (spec, n)
        # the expansion of 1 in DEC is decided to 232 digits only
        b = make_beta(DEC)
        rows = convolution_census(200, b)
        for n in (1, 2, 3, 7, 50, 200):
            assert full_census(n, b) == CensusRecord(DEC, n, *rows[n]), n
            assert count_admissible(n, b) == rows[n][0], n
        for call in (full_census, count_admissible):
            with pytest.raises(PrecisionExhausted):
                call(300, b)
            assert len(b.star._digits) == 233  # digits 1..232 stay stored


class TestFindFull:
    def test_dyadic_example(self):
        b = make_beta("2")
        w = find_full_in_interval(Fraction(3, 10), Fraction(9, 10), 4, b)
        assert w == (0, 1, 0, 1)
        assert eval_word(w, b) == Fraction(5, 16)

    def test_golden_whole_interval(self):
        b = make_beta("golden")
        # n = 2 fails the size precondition ((n+1) * phi**-2 > 1); n = 3 is
        # the smallest order with a guaranteed full cylinder in (0, 1)
        with pytest.raises(PreconditionViolated):
            find_full_in_interval(Fraction(0), Fraction(1), 2, b)
        assert find_full_in_interval(Fraction(0), Fraction(1), 3, b) == (0, 0, 0)

    def test_too_small_interval(self):
        b = make_beta("2")
        with pytest.raises(PreconditionViolated):
            find_full_in_interval(Fraction(1, 10), Fraction(2, 10), 4, b)

    def test_certified_ends_rejected(self):
        b = make_beta("2")
        end = CertifiedReal.from_interval(Fraction(89, 100), Fraction(9, 10))
        for lo, hi in ((Fraction(3, 10), end), (CertifiedReal.from_exact(Fraction(3, 10)),
                                                 Fraction(9, 10))):
            with pytest.raises(PreconditionViolated, match="interval ends must be exact"):
                find_full_in_interval(lo, hi, 4, b)

    def test_strict_containment(self):
        b = make_beta("2")
        w = find_full_in_interval(Fraction(5, 16), Fraction(9, 10), 4, b,
                                  strict=True)
        left = eval_word(w, b)
        assert left > Fraction(5, 16)
        assert left + Fraction(1, 16) < Fraction(9, 10)

    def test_result_is_full_and_inside(self):
        for spec, orders in (("golden", (5, 6)), ("2.5", (3, 4))):
            b = make_beta(spec)
            lo, hi = Fraction(1, 7), Fraction(6, 7)
            for n in orders:
                w = find_full_in_interval(lo, hi, n, b)
                assert is_full(w, b)
                c = cylinder(w, b)
                assert c.left >= lo and c.left + c.length <= hi

    def test_leftmost_full_cylinder(self):
        rng = random.Random(1)
        for spec in ("golden", "2", "2.5", "9/5", PHI2):
            b = make_beta(spec)
            for n in range(3, 8):
                table = cylinder_table(n, b)
                for _ in range(20):
                    lo, hi = seeded_interval(rng, (n + 1) * b.pow(-n))
                    for strict in (False, True):
                        inside = [w for w, left, length, full in table if full and (
                            left > lo and left + length < hi if strict
                            else left >= lo and left + length <= hi)]
                        got = find_full_in_interval(lo, hi, n, b, strict)
                        assert got == inside[0], (spec, n, lo, hi, strict)

    def test_leftmost_full_cylinder_at_depth(self):
        # deep orders: the first word's left end is its Horner value, and
        # each step adds the length of the cylinder it steps past
        rng = random.Random(5)
        for spec in ("2", "9/5", "2.5", "golden", PHI2):
            b = make_beta(spec)
            for n in (60, 150):
                cases = [seeded_interval(rng, (n + 1) * b.pow(-n)) for _ in range(6)]
                for _ in range(4):
                    # lo just below the right end of an order-m cylinder: the
                    # first word fails and the next one grows digit m or above
                    m = rng.randint(n // 4, 3 * n // 4)
                    x, _ = seeded_interval(rng, 0)
                    c = cylinder(expand(x, b, m), b)
                    lo = c.left + c.length - b.pow(-n - 3)
                    cases.append((lo, lo + Fraction(rng.randint(1, 1 << 10), 1 << 20)))
                for lo, hi in cases:
                    for strict in (False, True):
                        want = reference_find(lo, hi, n, b, strict)
                        if want is None:
                            with pytest.raises(InvariantFailure):
                                find_full_in_interval(lo, hi, n, b, strict)
                        else:
                            assert find_full_in_interval(lo, hi, n, b, strict) == want, \
                                (spec, n, lo, hi, strict)

    def test_tail_sup_runs_at_most_once_per_state(self, monkeypatch):
        # the search lifts the length of each state it reaches once, not once
        # for every word it steps past.  It steps past its first word and a
        # run of non-full words, whose states are distinct; with no state
        # full it steps past every word up to hi, many of each state
        calls = []
        tail_sup = BetaSystem.tail_sup

        def counted(self, state):
            calls.append(state)
            return tail_sup(self, state)

        monkeypatch.setattr(BetaSystem, "tail_sup", counted)
        rng = random.Random(7)
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in (4, 8, 60):
                for _ in range(10):
                    lo, hi = seeded_interval(rng, (n + 1) * b.pow(-n))
                    calls.clear()
                    assert is_full(find_full_in_interval(lo, hi, n, b), b)
                    assert len(calls) <= n + 1 and len(set(calls)) == len(calls), (spec, n)
        monkeypatch.setattr(BetaSystem, "is_full_state", lambda self, state: False)
        for spec in SWEEP_BETAS:
            b = make_beta(spec)
            for n in (4, 8):
                calls.clear()
                with pytest.raises(InvariantFailure, match="no full"):
                    find_full_in_interval(Fraction(0), Fraction(1), n, b)
                assert len(calls) <= n + 1 and len(set(calls)) == len(calls), (spec, n)

    def test_quadnum_end_of_another_field(self):
        # lo in Q(sqrt 2) or Q(sqrt 3) against a base of the golden field:
        # no exact walk holds both, so lo is expanded from its enclosures;
        # the brute-force table compares through ``compare``
        for spec in ("golden", PHI2, "2", "9/5"):
            b = make_beta(spec)
            n = 12 if spec == "golden" else 8
            table = cylinder_table(n, b)
            for lo, hi in ((QuadNum(0, Fraction(1, 4), 2), Fraction(1, 2)),
                           (QuadNum(Fraction(1, 2), Fraction(-1, 4), 3), Fraction(3, 4))):
                for strict in (False, True):
                    need = 1 if strict else 0
                    want = next(w for w, left, length, full in table if full and compare(
                        left, lo) >= need and compare(left + length, hi) <= -need)
                    assert find_full_in_interval(lo, hi, n, b, strict) == want, (spec, lo)
        assert find_full_in_interval(QuadNum(0, Fraction(1, 4), 2), Fraction(1, 2), 12,
                                     make_beta("golden")) == (0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0)

    def test_quadnum_endpoints(self):
        b = make_beta("golden")
        w = find_full_in_interval(PHI ** -3, 1 - PHI ** -4, 5, b, strict=True)
        c = cylinder(w, b)
        assert c.left > PHI ** -3
        assert c.left + b.pow(-5) < 1 - PHI ** -4
