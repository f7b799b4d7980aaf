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
definitional one and is kept as a cross-check.  Every cylinder record
comes from one stream, ``_sweep``: the words of ``words._dfs``, from the
first or resumed at a word, each with the length and fullness of its
final automaton state, computed once per state.  The DFS replays each
word's last digits from a block recorded per follower state, stored only
once stepped through whole, so a sweep steps few digits a word and a
reader that stops early pays only for recording the blocks it reads.  The
cylinders tile [0, 1) in lexicographic order (Parry 1960), so the stream
adds each length to the left end before, one add in the coordinates of
the order-n Horner kernel, built as a value only when read.
``iter_cylinders``, ``cylinder`` and ``find_full_in_interval`` read it;
``length_by_partition`` reads the Horner values of ``successor``'s words
alone and stays independent.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import islice

from .errors import InvariantFailure, PreconditionViolated
from .exact import CertifiedReal, Exact, QuadNum, Record, _tuplegetter, compare
from .numerics import BetaSystem, Word, expand, word_evaluator
from .words import _dfs, _renyi, _states, check_cap


class CylinderInterval(tuple):
    """Half-open interval [left, left + length) of one admissible word,
    immutable, equal and hashed by (word, left, length, is_full).  It stores
    (word, acc, length, is_full, finish).  From ``_sweep`` acc is the left end
    in the coordinates of the order-n Horner kernel, and ``left`` = finish(acc)
    is built when read, as ``_orbit_walk`` builds points; else acc is ``left``."""

    __slots__ = ()
    word, length, is_full = (_tuplegetter(i, None) for i in (0, 2, 3))
    left = property(lambda self: self[1] if self[4] is None else self[4](self[1]))

    def __new__(cls, word: Sequence[int], left: Exact, length: Exact, is_full: bool):
        return tuple.__new__(cls, (tuple(word), left, length, is_full, None))

    def _values(self) -> tuple[Word, Exact, Exact, bool]:
        return self[0], self.left, self[2], self[3]

    def __eq__(self, other):
        return isinstance(other, CylinderInterval) and self._values() == other._values()

    __ne__ = object.__ne__  # not tuple's, which compares the stored items
    __getnewargs__ = _values  # pickle and copy rebuild the record with ``left`` built

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "CylinderInterval(word=%r, left=%r, length=%r, is_full=%r)" % self._values()


def cylinder(word: Sequence[int], system: BetaSystem) -> CylinderInterval:
    """Exact cylinder of an admissible word, the first record of ``_sweep``
    resumed at it (follower-route length); the empty word gives [0, 1),
    full.  An interval beta raises PrecisionExhausted."""
    return next(_sweep(system, len(word), word))


def is_full(word: Sequence[int], system: BetaSystem) -> bool:
    """Maximal-length test via the follower state; equivalent to: every
    admissible continuation keeps the word admissible."""
    return system.is_full_state(_states(word, system)[-1])


def successor(word: Sequence[int], system: BetaSystem) -> Word | None:
    """Next admissible word of the same length, or None at the end: the
    second word of ``words._dfs`` resumed at ``word``."""
    later = islice(_dfs(system, len(word), word), 1, None)
    return next((w for w, _ in later), None)


def length_by_partition(word: Sequence[int], system: BetaSystem) -> Exact:
    """Definitional length: distance to the next left endpoint; an
    interval beta raises PrecisionExhausted.  Both left ends are Horner
    values of one kernel at the word's order."""
    nxt = successor(word, system)
    fold, finish, _, _ = word_evaluator(system, len(word))
    return (1 if nxt is None else finish(fold(nxt))) - finish(fold(word))


class CensusRecord(Record):
    __slots__ = ()
    beta_spec: str
    order: int
    count_admissible: int
    count_full: int
    max_gap: int


def full_census(n: int, system: BetaSystem) -> CensusRecord:
    """Counts and the maximal run of consecutive non-full cylinders.

    Folded, with no enumeration, over the Renyi-Parry decomposition of the
    words module: in lexicographic order, t_i blocks of all order-(r-i) words
    behind t1...t_{i-1}d, d < t_i, for i = 1..r, then t1...tr, in state r.  A prefix
    t1...t_{i-1}d with d < t_i is full, and a full word u followed by a
    word v is full exactly when v is (Fan-Wang, Nonlinearity 2012), so each
    block repeats the census of order r-i.  Hence

        c_r = 1 + sum t_i c_{r-i},   f_r = [t1...tr full] + sum t_i f_{r-i}.

    Every block opens with the full word 0...0, so a non-full run lies
    inside one block or trails the last block into t1...tr; with j the
    last i such that t_i > 0, that trailing run is 0 when t1...tr is full
    and trail_{r-j} + 1 otherwise.  The first block is the whole order r-1
    (t1 >= 1), so the longest run at order n is the longest trailing run
    at orders 1..n.  Both sums are one call of ``words._renyi``, which reads
    c_n and f_n alone as the n-th coefficients of two series sharing one
    denominator (the ``words`` module docstring).  The trailing-run fold is
    O(n) steps.

    The full cylinders recur with gaps at most n (Bugeaud-Wang, J. Fractal
    Geom. 2014): among any n+1 consecutive order-n cylinders at least one
    is full; a longer run raises InvariantFailure.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    full = [int(system.is_full_state(r)) for r in range(n + 1)]  # r = 0: the empty word
    trails, last = [0], 0  # last: the last i <= r with t_i > 0
    for r, t in enumerate(system.star.prefix(n), 1):
        if t:
            last = r
        trails.append(0 if full[r] else trails[r - last] + 1)
    max_gap = max(trails)
    if max_gap > n:
        raise InvariantFailure(
            f"non-full run {max_gap} exceeds order {n} for beta {system.spec!r}")
    return CensusRecord(system.spec, n, *_renyi(system, n, [1] * (n + 1), full), max_gap)


def _sweep(system: BetaSystem, n: int,
           start: Sequence[int] | None = None) -> Iterator[CylinderInterval]:
    """The one stream of cylinder records (module docstring): the order-n
    cylinders in lexicographic order of their words, from the first or from
    ``start``, the first left end its word's Horner value.  A state's length
    beta**-n * tail_sup(state) and fullness are computed when it is first
    reached, and the length lifted to the kernel's coordinates when the
    stream first steps past it, so a reader that stops at a record lifts
    nothing for its state.  A stream that runs out ends at t_1...t_n, which
    must start at its Horner value and end at 1, else InvariantFailure."""
    fold, finish, lift, add = word_evaluator(system, n)
    pm, shapes, steps = system.pow(-n), [None] * (n + 1), [None] * (n + 1)
    acc, new = fold(start or ()), tuple.__new__

    def reach(state: int) -> tuple:  # (length, is_full), once a state
        shapes[state] = shape = (pm * system.tail_sup(state), system.is_full_state(state))
        return shape

    def step_past(state: int):  # the lifted length, once a state; a length > 0 lifts true
        steps[state] = step = lift(shapes[state][0])
        return step

    for w, state in _dfs(system, n, start):
        length, full = shapes[state] or reach(state)
        c = new(CylinderInterval, (w, acc, length, full, finish))
        yield c
        acc = add(acc, steps[state] or step_past(state))
    if fold(c.word) != c[1]:  # c: the last word t_1...t_n
        raise InvariantFailure(f"the last order-{n} left end {c.left} is not its digits' "
                               f"value {finish(fold(c.word))}, for beta {system.spec!r}")
    if acc != lift(1):
        raise InvariantFailure(
            f"order-{n} cylinders end at {c.left + c.length}, not 1, for beta {system.spec!r}")


def iter_cylinders(n: int, system: BetaSystem) -> Iterator[CylinderInterval]:
    """Every order-n cylinder, in lexicographic order of its word: all of
    ``_sweep``.  CapExceeded comes at once past ``words.ENUM_CAP``, and
    PrecisionExhausted for an interval beta."""
    check_cap(system, n, "cylinder sweep")
    return _sweep(system, n)


def find_full_in_interval(lo, hi, n: int, system: BetaSystem,
                          strict: bool = False) -> Word:
    """Leftmost full order-n cylinder inside the interval (lo, hi).

    With ``strict`` the cylinder's closed hull must lie strictly inside;
    otherwise endpoint contact is allowed.  The ends must be exact (int,
    Fraction or QuadNum), the search adds and subtracts them, and lie in one
    field, beta's or another; lo in another quadratic field than beta's is
    expanded from its enclosures.  Requires (n+1) * beta**-n < hi - lo,
    which guarantees existence in the non-strict case.  An interval beta
    raises PrecisionExhausted.

    The search reads the stream of ``_sweep`` resumed at the expansion of
    lo: that word's left end by Horner, each later one by adding the length
    of the cylinder stepped past, lifted once per state.
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

    field = getattr(system.beta_exact, "d", 0)  # beta's radicand, 0 for a rational beta
    if isinstance(lo_clamped, QuadNum) and field and lo_clamped.d not in (0, field):
        # lo lies in another quadratic field: its exact walk would mix
        # radicands, and no digit of it ties, so its enclosures decide them
        lo_clamped = CertifiedReal.from_refiner(lo_clamped.enclosure)
    need = 1 if strict else 0
    for c in _sweep(system, n, expand(lo_clamped, system, n)):
        left = c.left
        if compare(left, hi) >= 0:
            break
        if c.is_full and compare(left, lo) >= need and compare(left + pm, hi) <= -need:
            return c.word
    raise InvariantFailure(
        f"no full order-{n} cylinder found inside the interval")
