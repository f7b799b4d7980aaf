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
  sweep, ``successor`` and the full-cylinder search all read it.  The
  continuations of a word depend on its state alone, so the DFS steps each
  word's last ``_TAIL`` digits only the first time a prefix in that state
  is stepped through, records that block of suffixes once it is complete
  (a block cut short by the reader would be wrong to replay) and replays
  it behind every later prefix in the same state.
  ``ParryAutomaton`` only lays the rule out as dense tables.
* The Renyi-Parry recursion.  In lexicographic order the admissible words
  of length r are, for i = 1..r, t_i copies of the block of all admissible
  words of length r-i (each copy behind one prefix t1...t_{i-1}d, d < t_i),
  followed by the single word t1...tr.  So the counts obey
  c_r = 1 + sum_{i<=r} t_i c_{r-i} with c_0 = 1 (``count_admissible``),
  and no word is ever enumerated.  ``cylinders.full_census`` folds the
  same decomposition together with fullness.

Both sums are one helper, ``_renyi``, which returns the order-n terms only.
With T(z) = sum t_i z^i and E(z) the generating series of the 1s (or of
the fullness flags), the recursion says x_n = [z^n] E(z)/(1 - T(z)), and
the n-th coefficient of P/Q is taken by Bostan-Mori halving (Bostan and
Mori, "A simple and fast algorithm for computing the N-th term of a
linearly recurrent sequence", SOSA 2021): multiply P and Q by Q(-z), keep
the half of P(z)Q(-z) of n's parity and the even half of Q(z)Q(-z), read
both at z^2 and halve n, about log2(n) steps.  Cutting P and Q at degree n
keeps the coefficient exact.  A step packs the even and odd halves of P
and Q once into byte slots (``_pack``) and takes four half-size products.
A slot holds its coefficient in two's complement, so the offset that makes
every slot non-negative comes on and off the whole integer as one XOR and
one subtraction; a slot of at most 8 bytes is widened to 1, 2, 4 or 8, whose
slots ``array`` writes and ``memoryview`` reads in C.
For a Parry beta the digits repeat: ``system.star.repeat`` = (L, p)
records t_i = t_(i-p) for every i > L when the system is built, so
D(z) = T(z)(1 - z^p) has degree L and

    x_n = [z^n] E(z)(1 - z^p) / (1 - z^p - D(z)),

a denominator of degree L, and only t_1..t_L are read.  A beta with no
known repeat (a non-integer rational, a non-Pisot quadratic, an interval
beta) takes 1 - T(z) cut at degree n.  Either way order n costs about
log2(n) such steps on O(n log n) bits.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from operator import sub

from .errors import CapExceeded, NotAdmissible
from .exact import pow_fixed
from .numerics import BetaSystem, Word

#: The one enumeration cap: the most admissible words a sweep may stream.
ENUM_CAP = 10 ** 8

#: The number of last digits of each word that ``_dfs`` replays from its
#: follower state's recorded block rather than steps.
_TAIL = 4

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
        maxd = list(self.system.star.prefix(n + 1))
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
    ends [lo, hi] of its enclosure to 2**-64, as m*2**e <= cap * (lo - 1) on
    integers, m*2**e >= hi**(n+1) the upward ``pow_fixed`` to 64 bits: lo <= 1
    puts beta - 1 below 2**-64, past any cap anyway.  m*2**e is hi**(n+1)
    times a factor in [1, exp(5(n+1)*2**-64)] (hi > 1), so the verdict is
    that of hi**(n+1) > cap * (lo - 1) but where hi**(n+1) lies within that
    factor below the cap."""
    lo, hi = system.beta.enclosure(64)
    m, e = pow_fixed(hi, n + 1, 64, True)
    if not _at_most(m * lo.denominator, e, ENUM_CAP * (lo.numerator - lo.denominator)):
        raise CapExceeded(
            f"{what} at order {n} may exceed cap {ENUM_CAP} for beta {system.spec!r}")


def _dfs(system: BetaSystem, n: int, start: Sequence[int] | None = None
         ) -> Iterator[tuple[Word, int]]:
    """The one DFS over the admissible length-n words, in lexicographic order:
    (word, final state).

    Given ``start``, an admissible length-n word (n = 0 too), the stream
    resumes there: it yields ``start``, then every later word.  A negative
    digit raises ValueError and an inadmissible word NotAdmissible, naming
    the base.  The steps follow the counter with reset of the module
    docstring, as ``_walk``'s do, with t_{s+1} read from ``system.star`` when
    a digit is first read from state s, so a digit of 1 that no step needs is
    never decided.

    The last ``_TAIL`` digits are replayed, not stepped.  The words below a
    prefix of depth m = n - _TAIL depend on the prefix only through its state
    s, so the first pass that steps through the whole block below a prefix
    in state s records the block's (suffix, final state) pairs, and every
    later prefix in state s yields prefix + suffix from the record.  A block
    is stored only once its pass is complete: the block that a resumed
    stream starts inside is never stored, and the records belong to this one
    stream, so a reader that stops early pays for the recording alone.  A
    replayed block reads no digit of 1: its recorded pass read every one it
    needs, so the digits read are those of the per-digit DFS.  A sweep that
    reads each record's length and fullness took 8.5 ms in place of 16.6 on
    2 at order 14, 11.9 in place of 19.1 on golden at 20, 25.6 in place of
    45.5 on 9/5 at 18 and 13.7 in place of 24.1 on 5/2 at 11 (medians of 15
    calls interleaved with the per-digit DFS in one process, Python 3.11).
    """
    if n < 1 and start is None:
        raise ValueError("order must be >= 1")
    digit = system.star.digit
    top: list[int] = []  # top[s] = t_{s+1}, the largest digit from state s
    digits = [-1] * (n + 1)
    states = [0] * (n + 1)
    m = max(n - _TAIL, 0)  # the depth of the prefixes whose blocks replay; 0: none
    blocks: dict[int, list[tuple[Word, int]]] = {}  # state at depth m -> its block
    block = None  # the block being recorded below digits[1:m+1]
    i, low, high = 1, 0, m or n  # steps run at depths low < i <= high
    if start is not None:
        states = _walk(start, system, top) or _states(start, system)  # NotAdmissible
        digits[1:], i = start, n
        yield tuple(start), states[n]
        if m:
            low, high = m, n  # the rest of start's block, stepped and not recorded
    while True:
        while i > low:
            d = digits[i] + 1
            s = states[i - 1]
            try:
                t = top[s]
            except IndexError:  # the first digit read from state s
                top.append(digit(s + 1))
                t = top[s]
            if d > t:
                digits[i] = -1
                i -= 1
                continue
            digits[i] = d
            states[i] = s = s + 1 if d == t else 0
            if i < high:
                i += 1
            elif high == n:
                word = tuple(digits[1:])
                yield word, s
                if block is not None:
                    block.append((word[m:], s))
            elif (known := blocks.get(s)) is not None:  # a depth-m prefix, its block recorded
                prefix = tuple(digits[1:i + 1])
                for suffix, final in known:
                    yield prefix + suffix, final
            else:  # the first depth-m prefix in state s: step its block
                block, low, high, i = [], m, n, m + 1
        if not low:
            return
        if block is not None:
            blocks[states[m]] = block
            block = None
        low, high = 0, m


def words_with_states(system: BetaSystem, n: int) -> Iterator[tuple[Word, int]]:
    """All admissible length-n words, in lexicographic order, and their final state."""
    return _dfs(system, n)


def enumerate_admissible(n: int, system: BetaSystem) -> Iterator[Word]:
    """Stream the set of admissible length-n words, sorted, no duplicates.
    Raises CapExceeded at once past the fixed ``ENUM_CAP`` (``check_cap``)."""
    check_cap(system, n, "enumeration")
    return (w for w, _ in words_with_states(system, n))


def count_admissible(n: int, system: BetaSystem) -> int:
    """Number of admissible words of length n.

    The Renyi-Parry count c_n = 1 + sum_{i<=n} t_i c_{n-i}, c_0 = 1, over
    the quasi-greedy digits t_i, taken as the n-th coefficient of
    1/((1 - z)(1 - T(z))) by Bostan-Mori halving (``_renyi``, see the module
    docstring), with no enumeration, no automaton walk and no c_r for r < n.
    Checked against the bounds beta**n <= count <= beta**(n+1)/(beta-1)
    when beta is exact.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    (total,) = _renyi(system, n, [1] * (n + 1))
    _assert_renyi(total, n, system)
    return total


def _renyi(system: BetaSystem, n: int, *extras: list[int]) -> list[int]:
    """x_n = [z^n] E(z)/(1 - T(z)) for each E(z) = sum extra[r] z^r (r <= n),
    T(z) = sum t_i z^i: the n-th term of x_r = extra[r] + sum_{i<=r} t_i x_{r-i}.
    The series share their denominator, so it is halved once for all.

    The denominator is that of the module docstring, its digits read in one
    ``star.prefix`` call (an interval beta raises PrecisionExhausted at the
    first digit of 1 it cannot decide).
    """
    star, repeat = system.star, system.star.repeat
    if repeat is None:
        den = [1] + [-t for t in star.prefix(n)]
        nums = list(extras)
    else:
        L, p = repeat
        t = [0] * (p + 1) + list(star.prefix(L))  # t[p + i] = t_i
        den = [1] + [t[j] - t[p + j] for j in range(1, L + 1)]  # 1 - z^p - D(z)
        den[p] -= 1
        nums = []
        for extra in extras:
            num = extra[:p] + list(map(sub, extra[p:], extra))  # E(z)(1 - z^p)
            del num[max(1, len(bytes(map(bool, num)).rstrip(b"\0"))):]  # drop trailing zeros
            nums.append(num)
    return _coefficients(nums, den, n)


#: The machine integer widths, in bytes, with their ``array``/``memoryview``
#: typecodes.  Their native byte order puts slot 0 first only on a
#: little-endian machine, so elsewhere every width takes the per-slot path.
_CODES = ({memoryview(bytes(8)).cast(c).itemsize: c for c in "bhiq"}
          if sys.byteorder == "little" else {})


def _coefficients(ps: list[list[int]], q: list[int], n: int) -> list[int]:
    """[z^n] p(z)/q(z) for each p, integer polynomials, p non-empty, q[0] = 1,
    len(q) >= 2 (Bostan and Mori, SOSA 2021).  With p = p_e(z^2) + z p_o(z^2)
    and q alike, n halves, q becomes q_e**2 - y q_o**2 and p becomes p_e q_e
    - y p_o q_o (n even) or p_o q_e - p_e q_o (n odd), cut at the new n: four
    products of halves packed in w-byte slots that fit them, y a slot's shift.
    A width of at most 8 bytes is rounded up to the next machine width (1, 2,
    4 or 8), whose slots ``_pack`` and ``_unpack`` convert in C."""
    from array import array  # once a call: at import it would slow every cold start
    while n:
        half, odd = n >> 1, n & 1
        bq = max(max(q), -min(q)).bit_length()
        bp = max(max(max(p), -min(p)) for p in ps).bit_length()
        w = (max(2 * bq, bp + bq) + len(q).bit_length()) // 8 + 1
        if w <= 8:
            w = 1 << (w - 1).bit_length()  # 1, 2, 4 or 8 bytes, a machine width
        qe, qo = _pack(q[::2], w, array), _pack(q[1::2], w, array)
        ps = [_unpack(_pack(p[1::2], w, array) * qe - _pack(p[::2], w, array) * qo if odd
                      else _pack(p[::2], w, array) * qe
                      - (_pack(p[1::2], w, array) * qo << 8 * w),
                      w, min(half, (len(p) + len(q) - 2 - odd) >> 1) + 1) for p in ps]
        q = _unpack(qe * qe - (qo * qo << 8 * w), w, min(half, len(q) - 1) + 1)
        n = half
    return [p[0] for p in ps]


def _pack(c: list[int], w: int, array) -> int:
    """sum c[i] * 2**(8*w*i), every c[i] in [-h, h), h = 2**(8w - 1).

    Each c[i] fills a w-byte slot in two's complement.  XOR with the
    repeated-h integer H = sum h * 2**(8*w*i) flips each slot's top bit,
    which turns every slot into c[i] + h, so subtracting H leaves the sum.
    At a machine width (``_CODES``) the slots are written by ``array``, the
    type passed in by ``_coefficients`` so that importing this module does
    not load it; a wider slot is written by its own ``to_bytes``.  A c[i] outside [-h, h) raises OverflowError either way."""
    code = _CODES.get(w)
    raw = (array(code, c).tobytes() if code
           else b"".join([x.to_bytes(w, "little", signed=True) for x in c]))
    rep = _repeated_h(w, len(c))
    return (int.from_bytes(raw, "little") ^ rep) - rep


def _unpack(x: int, w: int, k: int) -> list[int]:
    """The first k coefficients c_i of x = sum c_i * 2**(8*w*i), every c_i,
    those past k too, in [-h, h), h = 2**(8w - 1): ``_pack``'s inverse.
    Adding H (see ``_pack``) lifts each slot to c_i + h in [0, 2**(8w)) with
    no carry, the mask keeps k slots and XOR with H gives back their two's
    complement, read by ``memoryview`` at a machine width and slot by slot
    past it."""
    rep = _repeated_h(w, k)
    raw = (((x + rep) & (1 << 8 * w * k) - 1) ^ rep).to_bytes(w * k, "little")
    code = _CODES.get(w)
    if code:
        return memoryview(raw).cast(code).tolist()
    return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, w * k, w)]


def _repeated_h(w: int, k: int) -> int:
    """sum h * 2**(8*w*i) over i < k, h = 2**(8w - 1): the top bit of k slots."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * k, "little")


def _assert_renyi(count: int, n: int, system: BetaSystem) -> None:
    """Raise AssertionError unless beta**n <= count <= beta**(n+1)/(beta-1),
    when beta is exact.  Fixed point decides first: on the ends lo <= beta
    <= hi of beta's enclosure to 2**-64, ``pow_fixed`` gives m*2**e >= hi**n
    and m'*2**e' <= lo**(n+1), so m*2**e <= count proves the lower bound and
    count*(hi - 1) <= m'*2**e' the upper one.  A power of 2 comes out exact,
    so beta = 2 decides here; what fixed point leaves undecided, such as the
    tie count = beta**n of a larger integer beta, is compared with the exact
    ``renyi_bounds``."""
    if not system.is_exact:
        return
    lo, hi = system.beta.enclosure(64)
    m, e = pow_fixed(hi, n, 64, True)
    m1, e1 = pow_fixed(lo, n + 1, 64, False)
    if _at_most(m, e, count) and _at_most(
            count * (hi.numerator - hi.denominator), -e1, m1 * hi.denominator):
        return
    lower, upper = renyi_bounds(n, system)
    if not (lower <= count and count <= upper):
        raise AssertionError(
            f"count of {count.bit_length()} bits violates growth bounds for beta "
            f"{system.spec!r}, n={n}")


def _at_most(a: int, s: int, b: int) -> bool:
    """a * 2**s <= b, with no division."""
    return a << s <= b if s >= 0 else a <= b << -s


def renyi_bounds(n: int, system: BetaSystem):
    """The exact pair (beta**n, beta**(n+1)/(beta-1)), from one power of
    beta taken outside the system's power cache, which keeps none of it."""
    beta = system.require_exact("growth bounds")
    power = beta ** n
    return power, power * beta / (beta - 1)
