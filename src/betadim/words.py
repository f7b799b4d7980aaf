"""Admissible digit words: the Parry criterion, enumeration and counting.

Write t1 t2 ... for the quasi-greedy expansion of 1.  A word is admissible
iff each of its suffixes is lexicographically at or below the prefix of
t of the same length (Parry 1960).  Two views of that set are used.

* The follower automaton, whose state after reading a word w is the length
  of the longest suffix of w equal to a prefix of t.  A word is admissible
  iff the walk never dies; the classical domination property (shifts of t
  never exceed it) makes the longest match the only constraint that needs
  checking.  From state s a digit d dies above t_{s+1}, moves to s+1 on
  equality and resets to 0 below it: by domination every border k of
  t1...ts has t_{s+1} <= t_k, so a smaller digit extends none.  One walk,
  ``_walk``, steps by this rule through single words (``is_admissible``,
  ``_states``).  One DFS, ``_dfs``, steps by the same rule through the
  words of one length in lexicographic order, from the first word or
  resumed at any admissible word: ``words_with_states``, the cylinder
  sweep, ``successor`` and the full-cylinder search all read it.
  ``ParryAutomaton`` only lays the rule out as dense tables.
* The Renyi-Parry recursion.  In lexicographic order the admissible words
  of length r are, for i = 1..r, t_i copies of the block of all admissible
  words of length r-i (each copy behind one prefix t1...t_{i-1}d, d < t_i),
  followed by the single word t1...tr.  So the counts obey
  c_r = 1 + sum_{i<=r} t_i c_{r-i} with c_0 = 1 (``count_admissible``),
  and no word is ever enumerated.  ``cylinders.full_census`` folds the
  same decomposition together with fullness.

Both sums are one helper, ``_renyi``.  For a Parry beta the digits repeat:
``system.star.repeat`` = (L, p) records t_i = t_(i-p) for every i > L when
the system is built.  Splitting the sum S_r = sum_{i<=r} t_i x_{r-i} at
i = L and shifting its tail by p gives, for r > L,

    S_r = S_{r-p} + sum_{i<=L} t_i x_{r-i} - sum_{j<=L-p} t_j x_{r-p-j},

so each order costs O(L) big-integer operations, not one per nonzero
t_i with i <= r, and only t_1..t_L are read.  A beta with no known repeat
(a non-integer rational, a non-Pisot quadratic, an interval beta) takes
the whole sum: O(n * #{i <= n : t_i > 0}) for order n.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import CapExceeded, NotAdmissible
from .numerics import BetaSystem, Word

#: The one enumeration cap: the most admissible words a sweep may stream.
ENUM_CAP = 10 ** 8

class ParryAutomaton:
    """Follower automaton of the admissible words of one base, as dense
    tables.  The rule itself, the counter with reset of the module
    docstring, is stepped by ``_walk`` and ``_dfs``; this class only lays
    it out, reading the digits from the system's store ``system.star``.
    """

    def __init__(self, system: BetaSystem):
        self.system = system

    def transition_table(self, n: int) -> tuple[list[list[int]], list[int]]:
        """Dense tables (trans[state][digit], max_digit[state]) for states
        0..n, max_digit[s] = t_{s+1}, the largest digit readable from s;
        trans rows only cover digits 0..max_digit[state]."""
        maxd = [self.system.star.digit(s + 1) for s in range(n + 1)]
        return [[0] * t + [s + 1] for s, t in enumerate(maxd)], maxd


def is_admissible(word: Sequence[int], system: BetaSystem) -> bool:
    """Parry criterion: every suffix stays lexicographically at or below
    the quasi-greedy prefix of its own length."""
    return _walk(word, system, []) is not None


def _walk(word: Sequence[int], system: BetaSystem, top: list[int]) -> list[int] | None:
    """[s_0, ..., s_n], s_i the follower state after the first i digits of
    word, or None when it is not admissible; a negative digit raises
    ValueError.  top[s] = t_{s+1} is read from ``system.star`` when a digit
    is first read from state s and appended to ``top``, which ``_dfs`` keeps."""
    digit, states, s = system.star.digit, [0], 0
    for d in word:
        if s == len(top):
            top.append(digit(s + 1))
        t = top[s]
        if not 0 <= d <= t:
            if d < 0:
                raise ValueError("digits are non-negative")
            return None
        s = s + 1 if d == t else 0
        states.append(s)
    return states


def _states(word: Sequence[int], system: BetaSystem) -> list[int]:
    """states[i], the follower state after the first i digits of word;
    NotAdmissible, naming the base, when the walk dies."""
    states = _walk(word, system, [])
    if states is None:
        raise NotAdmissible(f"word {tuple(word)} is not admissible for beta "
                            f"{system.spec!r}")
    return states


def check_cap(system: BetaSystem, n: int, what: str) -> None:
    """The one cap policy: raise CapExceeded unless beta**(n+1)/(beta-1), an
    upper bound on the number of admissible order-n words, is within the
    fixed ``ENUM_CAP``.  Every beta, exact or interval, takes it at the worst
    ends [lo, hi] of its enclosure to 2**-64, as hi**(n+1) > cap * (lo - 1):
    no gcd, and lo <= 1 puts beta - 1 below 2**-64, past any cap anyway.
    The exponent doubles from 32 up to n + 1, stopping once past it (hi > 1 if lo > 1)."""
    lo, hi = system.beta.enclosure(64)
    cap, k = ENUM_CAP * (lo - 1), min(n + 1, 32)
    while hi ** k <= cap:
        if k > n:
            return
        k = min(2 * k, n + 1)
    raise CapExceeded(
        f"{what} at order {n} may exceed cap {ENUM_CAP} for beta {system.spec!r}")


def _dfs(system: BetaSystem, n: int, start: Sequence[int] | None = None
         ) -> Iterator[tuple[Word, int, int]]:
    """The one DFS over the admissible length-n words, in lexicographic order:
    (word, final state, j), j the first position that changed, zeros after it.

    Given ``start``, an admissible length-n word, the stream resumes there:
    it yields ``start`` with j = n, then every later word.  A negative digit
    raises ValueError and an inadmissible word NotAdmissible, naming the
    base.  The steps follow the counter with reset of the module docstring,
    as ``_walk``'s do, with t_{s+1} read from ``system.star`` when a digit
    is first read from state s, so a digit of 1 that no step needs is never decided."""
    if n < 1:
        raise ValueError("order must be >= 1")
    digit = system.star.digit
    top: list[int] = []  # top[s] = t_{s+1}, the largest digit from state s
    digits = [-1] * (n + 1)
    states = [0] * (n + 1)
    i = j = 1
    if start is not None:
        states = _walk(start, system, top) or _states(start, system)  # NotAdmissible
        digits[1:], i = start, n
        yield tuple(start), states[n], n
        j = n
    while i >= 1:
        d = digits[i] + 1
        s = states[i - 1]
        try:
            t = top[s]
        except IndexError:  # the first digit read from state s
            top.append(digit(s + 1))
            t = top[s]
        if d > t:
            digits[i] = -1
            i = j = i - 1  # the next digit to grow is at i or above
            continue
        digits[i] = d
        states[i] = s + 1 if d == t else 0
        if i == n:
            yield tuple(digits[1:]), states[n], j
            j = n
        else:
            i += 1


def words_with_states(system: BetaSystem, n: int) -> Iterator[tuple[Word, int]]:
    """All admissible length-n words, in lexicographic order, and their final state."""
    return map(itemgetter(0, 1), _dfs(system, n))


def enumerate_admissible(n: int, system: BetaSystem) -> Iterator[Word]:
    """Stream the set of admissible length-n words, sorted, no duplicates.
    Raises CapExceeded at once past the fixed ``ENUM_CAP`` (``check_cap``)."""
    check_cap(system, n, "enumeration")
    return (w for w, _ in words_with_states(system, n))


def count_admissible(n: int, system: BetaSystem) -> int:
    """Number of admissible words of length n.

    Computed by the Renyi-Parry recursion c_r = 1 + sum_{i<=r} t_i c_{r-i},
    c_0 = 1, over the quasi-greedy digits t_i (``_renyi``, see the module
    docstring), with no enumeration and no automaton walk: O(n * L) integer
    operations when ``system.star.repeat`` is (L, p), else
    O(n * #{i <= n : t_i > 0}).  Certified against the classical bounds
    beta**n <= count <= beta**(n+1)/(beta-1) when beta is exact.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    total = _renyi(system, n, lambda r: 1)[n]
    _assert_renyi(total, n, system)
    return total


def _renyi(system: BetaSystem, n: int, extra: Callable[[int], int]) -> list[int]:
    """[x_0, ..., x_n] with x_0 = 1 and x_r = extra(r) + S_r, where
    S_r = sum_{i<=r} t_i x_{r-i}.  extra(0) must be 1: then S_{r-p} is
    x_{r-p} - extra(r-p) at every r > L and no list of the S_r is kept.

    Past t_L the repeat identity of the module docstring gives each order
    from the order p below it.  Without a repeat the whole sum is taken
    over the nonzero t_i, read one by one (an interval beta raises
    PrecisionExhausted at the first digit of 1 it cannot decide).
    """
    star, x = system.star, [1]
    repeat = star.repeat
    head = n if repeat is None else min(n, repeat[0])
    steps: list[tuple[int, int]] = []  # (i, t_i) for the nonzero t_i, i <= head
    for r in range(1, head + 1):
        t = star.digit(r)
        if t:
            steps.append((r, t))
        x.append(extra(r) + sum(t * x[r - i] for i, t in steps))
    if head < n:
        L, p = repeat
        pre = [(j, t) for j, t in steps if j <= L - p]
        for r in range(head + 1, n + 1):
            x.append(extra(r) + x[r - p] - extra(r - p)
                     + sum(t * x[r - i] for i, t in steps)
                     - sum(t * x[r - p - j] for j, t in pre))
    return x


def _assert_renyi(count: int, n: int, system: BetaSystem) -> None:
    if not system.is_exact:
        return
    lower, upper = renyi_bounds(n, system)
    if not (lower <= count and count <= upper):
        raise AssertionError(
            f"count {count} violates growth bounds for beta {system.spec!r}, n={n}")


def renyi_bounds(n: int, system: BetaSystem):
    """The exact pair (beta**n, beta**(n+1)/(beta-1))."""
    return system.pow(n), system.pow(n + 1) / (system.beta_exact - 1)
