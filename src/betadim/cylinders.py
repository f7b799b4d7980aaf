"""Exact geometry of order-n cylinders.

A cylinder is the set of points whose expansion starts with a fixed
admissible word; it is a half-open interval.  Its length admits two
independent computations that must agree:

* partition route: left endpoint of the lexicographic successor minus the
  own left endpoint (the last word's right endpoint is 1);
* follower route: beta**-n times ``tail_sup``(s), the point p_s of the
  quasi-greedy orbit of 1 at the final automaton state s; p_s = 1, so the
  length is beta**-n, exactly on full words.

The follower route is the fast path; the partition route is the
definitional one and is kept as a cross-check.  On the fast path a
cylinder's length and fullness depend only on its final automaton
state, so a sweep of order n computes them at most n+1 times.  Left
endpoints are Horner values of the digits, never sums of lengths, so the
two routes stay independent.  The sweep, ``successor`` and the search for
a full cylinder read one stream of words, ``words._dfs``, the last two
resumed at a given word, and the sweep and search carry prefix values
down it (``_carry``), about beta/(beta-1) digits a word.  A swept record
keeps the value carried and builds its left end only when ``left`` is
read, as ``numerics._orbit_walk`` builds points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import InvariantFailure, PreconditionViolated
from .exact import Exact, QuadNum, compare
from .numerics import BetaSystem, Word, eval_word, expand, word_evaluator
from .words import _dfs, _renyi, _states, check_cap


class CylinderInterval(tuple):
    """Half-open interval [left, left + length) of one admissible word,
    immutable, equal and hashed by (word, left, length, is_full).  It stores
    (word, acc, j, length, is_full, finish).  In a sweep acc is the Horner
    value carried for the word's first j digits, and ``left`` = finish(acc, j)
    is built when read, as ``_orbit_walk`` builds points; else acc is ``left``."""

    __slots__ = ()
    word, length, is_full = (property(itemgetter(i)) for i in (0, 3, 4))
    left = property(lambda self: self[1] if self[5] is None else self[5](self[1], self[2]))

    def __new__(cls, word: Sequence[int], left: Exact, length: Exact, is_full: bool):
        return tuple.__new__(cls, (tuple(word), left, 0, length, is_full, None))

    def _values(self) -> tuple[Word, Exact, Exact, bool]:
        return self[0], self.left, self[3], self[4]

    def __eq__(self, other):
        return isinstance(other, CylinderInterval) and self._values() == other._values()

    __ne__ = object.__ne__  # not tuple's, which compares the stored items
    __getnewargs__ = _values  # pickle and copy rebuild the record with ``left`` built

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "CylinderInterval(word=%r, left=%r, length=%r, is_full=%r)" % self._values()


def cylinder(word: Sequence[int], system: BetaSystem) -> CylinderInterval:
    """Exact cylinder of an admissible word (follower-route length); an
    interval beta raises PrecisionExhausted."""
    state = _states(word, system)[-1]
    length = system.pow(-len(word)) * system.tail_sup(state)
    return CylinderInterval(word, eval_word(word, system), length, system.is_full_state(state))


def is_full(word: Sequence[int], system: BetaSystem) -> bool:
    """Maximal-length test via the follower state; equivalent to: every
    admissible continuation keeps the word admissible."""
    return system.is_full_state(_states(word, system)[-1])


def _carry(stack: list, word: Sequence[int], j: int, extend) -> object:
    """The carried value of word[:j], j the first changed position, folded
    in one call from the longest prefix kept on ``stack`` as (k, value); it
    is the word's own value when the digits after j are zero."""
    while stack[-1][0] >= j:
        stack.pop()
    k, acc = stack[-1]
    acc = extend(acc, word[k:j], k + 1)
    stack.append((j, acc))
    return acc


def successor(word: Sequence[int], system: BetaSystem) -> Word | None:
    """Next admissible word of the same length, or None at the end: the
    second word of ``words._dfs`` resumed at ``word``."""
    later = islice(_dfs(system, len(word), word), 1, None) if word else ()
    return next((w for w, _, _ in later), None)


def length_by_partition(word: Sequence[int], system: BetaSystem) -> Exact:
    """Definitional length: distance to the next left endpoint; an
    interval beta raises PrecisionExhausted."""
    nxt = successor(word, system)
    if nxt is None:
        return 1 - eval_word(word, system)
    return eval_word(nxt, system) - eval_word(word, system)


class CensusRecord(NamedTuple):
    beta_spec: str
    order: int
    count_admissible: int
    count_full: int
    max_gap: int


def full_census(n: int, system: BetaSystem) -> CensusRecord:
    """Counts and the maximal run of consecutive non-full cylinders.

    Folded over the Renyi-Parry decomposition of the words module, with no
    enumeration.  Write t1 t2 ... for the quasi-greedy digits of 1: the
    order-r words are, in lexicographic order, t_i blocks of all order-(r-i)
    words behind the prefixes t1...t_{i-1}d, d < t_i, for i = 1..r, then
    the single word t1...tr, which ends in automaton state r.  A prefix
    t1...t_{i-1}d with d < t_i is full, and a full word u followed by a
    word v is full exactly when v is (Fan-Wang, Nonlinearity 2012), so each
    block repeats the census of order r-i.  Hence

        c_r = 1 + sum t_i c_{r-i},   f_r = [t1...tr full] + sum t_i f_{r-i}.

    Every block opens with the full word 0...0, so a non-full run lies
    inside one block or trails the last block into t1...tr; with j the
    last i such that t_i > 0, that trailing run is 0 when t1...tr is full
    and trail_{r-j} + 1 otherwise.  The first block is the whole order r-1
    (t1 >= 1), so the longest run at order n is the longest trailing run
    at orders 1..n.  Both sums are one call of ``words._renyi``, which
    reads c_n and f_n alone as the n-th coefficients of their series by
    Bostan-Mori halving of the denominator 1 - T(z) they share: about
    log2(n) steps of four half-size packed integer products per numerator
    and denominator pair, two of them the denominator's squares, which the
    pairs share, so six a step, of O(n log n) bits; and only t_1..t_L when
    t_i = t_(i-p) for every i > L (``system.star.repeat``).
    The trailing-run fold is O(n) steps.

    The full cylinders recur with gaps at most n (Bugeaud-Wang, J. Fractal
    Geom. 2014): among any n+1 consecutive order-n cylinders at least one
    is full; a longer run raises InvariantFailure.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    full = [int(system.is_full_state(r)) for r in range(n + 1)]  # r = 0: the empty word
    trails, last = [0], 0  # last: the last i <= r with t_i > 0
    for r in range(1, n + 1):
        if system.star.digit(r):
            last = r
        trails.append(0 if full[r] else trails[r - last] + 1)
    max_gap = max(trails)
    if max_gap > n:
        raise InvariantFailure(
            f"non-full run {max_gap} exceeds order {n} for beta {system.spec!r}")
    return CensusRecord(system.spec, n, *_renyi(system, n, [1] * (n + 1), full), max_gap)


def iter_cylinders(n: int, system: BetaSystem) -> Iterator[CylinderInterval]:
    """Every order-n cylinder, in lexicographic order of its word.

    Raises CapExceeded, before any cylinder, past ``words.ENUM_CAP``, and
    PrecisionExhausted for an interval beta.
    The length beta**-n * tail_sup(state) and the fullness of a cylinder
    depend only on the final follower state of its word, one of 0..n, so
    the n+1 pairs are computed once per sweep.  Left endpoints are prefix
    Horner values carried down ``words._dfs`` (``_carry``), built when read.
    The cylinders tile [0, 1) (Parry 1960): the last left end, from the
    digits, plus its length, from ``tail_sup``, must be 1, else InvariantFailure."""
    check_cap(system, n, "cylinder sweep")
    pm = system.pow(-n)
    start, extend, finish = word_evaluator(system)
    shapes = [(pm * system.tail_sup(s), system.is_full_state(s)) for s in range(n + 1)]
    stack, new = [(0, start)], tuple.__new__
    for w, state, j in _dfs(system, n):
        length, full = shapes[state]
        c = new(CylinderInterval, (w, _carry(stack, w, j, extend), j, length, full, finish))
        yield c
    if c.left + c.length != 1:  # c: the last word t_1...t_n
        raise InvariantFailure(
            f"order-{n} cylinders end at {c.left + c.length}, not 1, for beta {system.spec!r}")


def find_full_in_interval(lo, hi, n: int, system: BetaSystem,
                          strict: bool = False) -> Word:
    """Leftmost full order-n cylinder inside the interval (lo, hi).

    With ``strict`` the cylinder's closed hull must lie strictly inside;
    otherwise endpoint contact is allowed.  The ends must be exact (int,
    Fraction or QuadNum): the search adds and subtracts them.  Requires
    (n+1) * beta**-n < hi - lo, which guarantees existence in the
    non-strict case.  An interval beta raises PrecisionExhausted.

    The search resumes the sweep's DFS (``words._dfs``) at the expansion
    of lo and folds left ends as ``iter_cylinders`` does (``_carry``): the
    first word is folded whole, and a later word that grows digit j has
    zeros after it, so its left end is the value of its first j digits.
    """
    if not all(isinstance(end, (int, Fraction, QuadNum)) for end in (lo, hi)):
        raise PreconditionViolated("interval ends must be exact")
    pm = system.pow(-n)
    if compare((n + 1) * pm, hi - lo) >= 0:
        raise PreconditionViolated(
            f"interval too small for a guaranteed full cylinder of order {n}")

    # first cylinder whose left endpoint can satisfy the containment
    lo_clamped = lo if compare(lo, 0) > 0 else Fraction(0)
    if compare(lo_clamped, 1) >= 0:
        raise PreconditionViolated("interval lies outside [0, 1)")

    need = 1 if strict else 0
    start, extend, finish = word_evaluator(system)
    stack = [(0, start)]
    for w, state, j in _dfs(system, n, expand(lo_clamped, system, n)):
        left = finish(_carry(stack, w, j, extend), j)
        if compare(left, hi) >= 0:
            break
        if (compare(left, lo) >= need
                and compare(left + pm, hi) <= -need
                and system.is_full_state(state)):
            return w
    raise InvariantFailure(
        f"no full order-{n} cylinder found inside the interval")
