"""Base systems for beta-expansions with certified arithmetic.

A ``BetaSystem`` packages a base beta > 1 together with the machinery the
rest of the package rests on: the digit alphabet, the quasi-greedy (always
infinite) expansion of 1, and one cache of exact powers.

Beta specifications (the ``make_beta`` grammar), read after ``str.strip``;
a, b, c, D, <bits> and each side of a point in <digits> are runs of Unicode
decimal digits (``str.isdecimal``, ``\\d`` of ``re``), a minus allowed on a, b, c:

* ``"2"`` or ``"9/5"`` or ``"1.8"``  -- exact rationals, read by ``Fraction``
* ``"golden"``                        -- (1 + sqrt(5)) / 2, exact
* ``"quad:(a+b*sqrt(D))/c"``          -- exact quadratic irrational
* ``"dec:<digits>@<bits>"``           -- a real known only to +-2**-bits
  around the given decimal; floor decisions may exhaust precision.

Each system has one power cache and one digit store, ``system.star``,
which holds the quasi-greedy digits of 1 and, on demand, the points of
its orbit.  Which cylinders are full depends on one fact about beta:
whether its expansion of 1 ends, and at what length m (Parry 1960).  That
fact is decided exactly when the system is built, never by probing digits:

* a rational beta has a finite expansion of 1 iff it is an integer
  (then m = 1): a finite expansion makes beta a root of a monic integer
  polynomial, and a rational algebraic integer is an integer;
* a quadratic beta can have one only if it is a Pisot number, since every
  quadratic Parry number is Pisot (Frougny-Solomyak 1992).  For a Pisot
  beta the orbit of 1 is eventually periodic (Schmidt, Bull. LMS 1980), so
  its exact walk (``_exact_steps``) is read, with the points seen so far,
  until it reaches 0 (giving m) or repeats a point (an infinite expansion);
* an interval beta has no finite expansion that can be certified: its
  digits are decided as they are read, on the interval walk below.

Exact orbits of a quadratic beta, or of a quadratic point, in
Q(sqrt(r)) walk T^i x = (a + b*omega)/D on integers, omega an algebraic
integer with omega**2 = T*omega + N (``_quad_steps``, ``_omega``): for an
irrational beta the least integral multiple +-c*beta, c dividing beta's
denominator, and for a rational beta (1 + sqrt(r))/2 for r = 1 (mod 4)
and sqrt(r) otherwise.  beta = (A + B*omega)/C, over the gcd taken once,
multiplies (a, b) by one fixed 2x2 integer matrix and D by C, with no gcd
a step: C = c for an irrational beta, so D never changes for an algebraic
integer beta, Pisot or not, and else grows by C a step, as in the
rational walk below.  The digit is floor((a + b*omega)/D) from one integer square root
while b is short, and past 64 bits from a fixed-point omega to at least
40 bits more than b, which falls back to the exact floor where it cannot
prove the digit.
A rational point under a rational beta = P/C walks the pair (X, D) of
T^i x = X/D with no gcd: u = P*X, d = u // (C*D), X = u - d*C*D, D = C*D
(``_rational_steps``).  ``_orbit_walk`` is the one walk of every point:
it builds a point only when asked for one, and bounds each T^i x below by
a power of two from the integers of its step (``orbit`` builds every
point; ``expand`` none; ``approximation`` only those that its digits and
the bound cannot clear).

Orbits of points known through enclosures (a lazy real, or any point
under an interval beta), and 1 under an interval beta, walk the two ends
of one enclosure (``_interval_steps``): T is increasing on each cylinder
(Parry 1960) and beta*x increasing in beta for x >= 0, so ends that share
a digit enclose every point between them and the images of the ends
enclose its image.  ``orbit`` states the precision rule; no
``CertifiedReal`` arithmetic is built.

All operations are pure.  The digit store and the power cache grow
under locks, and the automaton of the ``words`` module holds no state, so
systems are safe to share across threads.  A system pickles and copies as
its spec: the copy is built anew, with its own locks and empty caches.
"""

from __future__ import annotations

import math
from _thread import allocate_lock  # threading.Lock, with no threading module loaded
from collections.abc import Callable, Iterable, Iterator, Sequence  # loaded by decimal
from fractions import Fraction
from itertools import islice
from operator import add

from .errors import InvalidBeta, PrecisionExhausted, PreconditionViolated
from .exact import (PRECISION_START, CertifiedReal, Exact, QuadNum, _floor_root, _sign, compare,
                    coords, decide, exact_enclosure, radicand)

Word = tuple[int, ...]
Real = int | Fraction | QuadNum | CertifiedReal

GOLDEN = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
_in_field = QuadNum._in_field


def parse_beta_spec(spec: str) -> tuple[Exact | None, tuple[Fraction, Fraction] | None]:
    """Parse a beta specification into an exact value or a fixed interval."""
    spec = spec.strip()
    if spec == "golden":
        return GOLDEN, None
    if spec.startswith("quad:("):
        a, _, rest = spec[6:].partition("+")
        b, _, rest = rest.partition("*sqrt(")
        d, _, c = rest.partition("))/")
        if d.isdecimal() and all(g.removeprefix("-").isdecimal() for g in (a, b, c)):
            a, b, d, c = int(a), int(b), int(d), int(c)
            if c == 0:
                raise InvalidBeta("zero denominator in quadratic spec")
            r = math.isqrt(d)
            if r * r == d or b == 0:  # a square radicand, or none: a rational beta
                return Fraction(a + b * r, c), None
            return QuadNum(Fraction(a, c), Fraction(b, c), d), None
    if spec.startswith("dec:"):
        center, _, bits = spec[4:].partition("@")
        whole, dot, frac = center.partition(".")
        if whole.isdecimal() and (not dot or frac.isdecimal()) and bits.isdecimal():
            center, eps = Fraction(center), Fraction(1, 2 ** int(bits))
            return None, (center - eps, center + eps)
    try:
        return Fraction(spec), None
    except (ValueError, ZeroDivisionError):
        raise InvalidBeta(f"cannot parse beta spec {spec!r}") from None


def _is_pisot(beta: Exact) -> bool:
    """Whether beta is a Pisot number: an algebraic integer whose other
    conjugates lie inside the unit disc.  An integer is; a non-integer
    rational is not an algebraic integer; (P + Q*sqrt(d))/C is iff its trace
    2P/C and norm (P**2 - Q**2 d)/C**2 are integers and its conjugate
    lies in (-1, 1): -C < P - Q*sqrt(d) < C, two signs (``exact._sign``)."""
    if isinstance(beta, Fraction):
        return beta.denominator == 1
    (P, Q, C), d = coords(beta), beta.d
    return _integral(P, Q, C, d) and _sign(P + C, -Q, d) > 0 > _sign(P - C, -Q, d)


def _integral(P: int, Q: int, C: int, r: int) -> bool:
    """Whether (P + Q*sqrt(r))/C, r nonsquare, is an algebraic integer: its
    trace 2P/C and norm (P*P - Q*Q*r)/C**2 are integers."""
    return 2 * P % C == 0 and (P * P - Q * Q * r) % (C * C) == 0


class StarExpansion:
    """The quasi-greedy expansion t1 t2 ... of 1: the system's one digit store.

    Equal to the expansion of 1 when that is infinite; when the expansion
    of 1 ends at length m, it is the block of those m digits with the last
    one lowered by 1, repeated forever.  ``period`` is that m, or None when
    the expansion of 1 is infinite (or, for an interval beta, not known to
    be finite); it is read off ``repeat``, which is (m, m) then.  The block
    of length m has no shorter period: if it were u**k with k >= 2, the
    shift by |u| of the expansion of 1 would exceed it, against Parry's condition.

    ``repeat``, the store's one stored fact, is the pair (L, p) with t_i =
    t_(i-p) for every i > L, decided when the system is built, on the walk
    of 1 that ``_exact_steps`` gives a Pisot beta: L = p = m for a finite expansion,
    and otherwise the walk stops at T^L(1) = T^(L-p)(1), so the digits
    after t_L repeat those after t_(L-p) (L > p: the expansion of 1 is
    never purely periodic).  It is None for every other beta, whose digits
    are read as far as they are asked for, from one walk of 1: the
    exact walk, or the interval walk of orbits, which ends at the first
    digit that an interval beta cannot decide.  Past t_L a digit is read
    from t_1..t_L by that rule and never stored, so a Pisot beta's store
    keeps L digits however deep it is read (``prefix`` too).

    An exact beta's store also holds, once asked for, the quasi-greedy
    orbit points p_0 = 1, p_s = beta * p_(s-1) - t_s = beta**s * (1 -
    sum_(i <= s) t_i * beta**-i), in (0, 1] and 1 exactly at full states.
    The digits are read off the exact walk of the module docstring, the
    points are built in the field from the digits: at most n + 1 are
    asked for in an order-n sweep, each once.  The walks stay apart: a
    point of a non-Pisot beta has O(s) bits, so a digit-only caller
    (``count_admissible(1000)``) would store O(n**2) bits.  Both lists only
    grow, under one lock, so a stored value is read without locking; a
    failed extension (an interval beta out of precision) keeps every digit
    stored before it, and every later read past them fails the same way.
    """

    def __init__(self, system: "BetaSystem"):
        self._digits: list[int] = [0]  # 1-indexed; index 0 unused
        self._points: list[Exact] = [Fraction(1)] if system.is_exact else []  # p_0, ...
        self._lock = allocate_lock()
        self.repeat: tuple[int, int] | None = None  # (L, p): t_i = t_(i-p) for i > L
        beta = self._beta = system.beta_exact
        if beta is None:  # 1 is exact, so beta's width outgrows rounding: no guard bits
            self._bits = PRECISION_START + system.declared_bits
            self._steps = _interval_steps(Fraction(1), system, self._bits)
            return
        self._steps = _exact_steps(Fraction(1), beta)[0]  # t_k, T^k(1) from k = 1
        if not _is_pisot(beta):
            return
        # Pisot: the orbit of 1 reaches 0 or repeats a point (Schmidt 1980).  T^k(1)
        # is keyed by its step's integers after the digit, unique as D stays 1 (a
        # Pisot beta is an algebraic integer); T^k(1) < 1, so 1 needs no key
        digits, seen = self._digits, {}
        for step in self._steps:
            digits.append(step[0])
            L, key = len(digits) - 1, step[1:]
            if not any(key[:-1]):  # T^L(1) = 0: the expansion of 1 has length L
                self.repeat = L, L
                digits[-1] -= 1
                return
            if key in seen:
                self.repeat = L, L - seen[key]
                return
            seen[key] = L

    @property
    def period(self) -> int | None:
        """m when ``repeat`` is (m, m), a finite expansion of 1; else None."""
        repeat = self.repeat
        return repeat[0] if repeat is not None and repeat[0] == repeat[1] else None

    def digit(self, i: int) -> int:
        digits = self._digits
        if 0 < i < len(digits):
            return digits[i]
        if i > 0 and self.repeat is not None:  # i > L: t_i = t_(i-p), from t_1..t_L
            L, p = self.repeat
            return digits[L - (L - i) % p]
        if i < 1:
            raise ValueError("digit index starts at 1")
        with self._lock:
            while len(digits) <= i:
                step = next(self._steps, None)
                if step is None:  # only an interval walk ends, and stays ended
                    raise PrecisionExhausted(
                        f"digit {len(digits)} of 1 undecided at {self._bits} bits",
                        site="digit of 1", bits=self._bits)
                digits.append(step[0])
        return digits[i]

    def prefix(self, n: int) -> Word:
        """t_1..t_n in one read: the store extended once and sliced, or past
        t_L of a repeat (L, p) the last p stored digits repeated."""
        digits, repeat = self._digits, self.repeat
        if n >= len(digits):
            if repeat:
                L, p = repeat
                return tuple(digits[1:] + digits[L - p + 1:] * ((n - L) // p + 1))[:n]
            self.digit(n)
        with self._lock:
            return tuple(digits[1:max(n, 0) + 1])

    def point(self, s: int) -> Exact:
        """p_s, s >= 0, stored once; PrecisionExhausted for an interval beta."""
        points = self._points
        if 0 <= s < len(points):
            return points[s]
        if not points:
            raise PrecisionExhausted("orbit points of 1 need an exactly specified beta")
        self.digit(s)  # extend the digits first: under the lock, digit() only reads
        with self._lock:
            beta = self._beta
            while len(points) <= s:
                points.append(beta * points[-1] - self.digit(len(points)))
        return points[s]


class BetaSystem:
    """A base beta > 1 with exact or declared-precision arithmetic."""

    def __init__(self, spec: str):
        self.spec = spec
        exact, interval = parse_beta_spec(spec)
        self.beta_exact: Exact | None = exact
        self.declared_bits = 0  # of an interval beta's enclosure; 0 when exact
        if exact is not None:
            if not exact > 1:
                raise InvalidBeta(f"beta must exceed 1, got spec {spec!r}")
            self.beta = CertifiedReal.from_exact(exact)
            ceil_b = -math.floor(-exact)
        else:
            lo, hi = interval
            if hi <= 1:
                raise InvalidBeta(f"beta must exceed 1, got spec {spec!r}")
            if lo <= 1:
                raise PrecisionExhausted(
                    "declared precision cannot separate beta from 1")
            self.beta = CertifiedReal.from_interval(lo, hi)
            ceil_b = math.ceil(lo)
            if ceil_b != math.ceil(hi):
                raise PrecisionExhausted(
                    "declared precision straddles an integer boundary")
            self.declared_bits = (hi - lo).denominator.bit_length()
        self.alphabet_max = ceil_b - 1
        self._pow_cache: dict[int, Exact] = {}
        self._pow_lock = allocate_lock()
        self.star = StarExpansion(self)

    # -- basic properties --------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.beta_exact is not None

    def __repr__(self):
        return f"BetaSystem({self.spec!r})"

    def __reduce__(self):  # pickles and copies rebuild from the spec, with new locks and caches
        return BetaSystem, (self.spec,)

    def require_exact(self, what: str) -> Exact:
        if self.beta_exact is None:
            raise PrecisionExhausted(
                f"{what} requires an exactly specified beta, not {self.spec!r}")
        return self.beta_exact

    # -- exact powers --------------------------------------------------------

    def pow(self, k: int) -> Exact:
        """Exact beta**k (k may be negative), cached and read without the
        lock; a new k is beta**(k-1) * beta for k > 0 or beta**(k+1) / beta
        for k < 0 when that is cached, else square-and-multiply."""
        v = self._pow_cache.get(k)
        if v is not None:
            return v
        b = self.require_exact("beta power")
        with self._pow_lock:
            near = self._pow_cache.get(k - 1 if k > 0 else k + 1)
            if near is None:
                v = b ** k if isinstance(b, QuadNum) else Fraction(b) ** k
            else:
                v = near * b if k > 0 else near / b
            self._pow_cache[k] = v
        return v

    # -- the orbit of 1 ------------------------------------------------------

    def tail_sup(self, state: int) -> Exact:
        """Supremum of continuation values after a maximal quasi-greedy match
        of length s = ``state``: the orbit point p_s = beta**s * (1 - sum_(i <= s)
        t_i * beta**-i), read from ``star.point``; 1 exactly on full states."""
        return self.star.point(state)

    def is_full_state(self, state: int) -> bool:
        """Whether the shifted quasi-greedy sequence equals itself at this
        offset (continuation supremum 1): state 0, or a multiple of the
        length m of a finite expansion of 1 (``star.period``).

        m is decided when the system is built, so an exact beta reads no
        digit here.  An interval beta has no finite expansion of 1 it can
        certify: its state s >= 1 is non-full once the first s digits of 1
        are decided, and raises PrecisionExhausted while they cannot be.
        """
        if state == 0:
            return True
        if not self.is_exact:
            self.star.digit(state)
        m = self.star.period
        return m is not None and state % m == 0


# ---------------------------------------------------------------------------
# The expansion map
# ---------------------------------------------------------------------------


def _dyadic(lo: Fraction, hi: Fraction, bits: int) -> tuple[int, int]:
    """[lo, hi] rounded outward to numerators over 2**bits."""
    return ((lo.numerator << bits) // lo.denominator,
            -((-hi.numerator << bits) // hi.denominator))


def _ends(x: Real, bits: int) -> tuple[int, int]:
    """An enclosure of x as numerators over 2**bits."""
    return _dyadic(*(x.enclosure(bits) if isinstance(x, CertifiedReal)
                     else exact_enclosure(x, bits)), bits)


def _interval_steps(x: Real, system: BetaSystem, bits: int) -> Iterator[tuple[int, int, int]]:
    """(digit, lo, hi) of T^i x, i = 1, 2, ..., T^i x in [lo, hi] / 2**bits,
    ending at the first undecided digit.  With x in [lo, hi], lo >= 0, and
    beta in [blo, bhi], all over 2**bits: while floor(blo*lo) = floor(bhi*hi)
    = d, every point of the box has digit d and T x lies in [blo*lo - d,
    bhi*hi - d] (T is increasing on a cylinder, beta*x increasing in beta),
    rounded outward to multiples of 2**-bits."""
    lo, hi = _ends(x, bits)
    blo, bhi = _dyadic(*system.beta.enclosure(bits), bits)
    two = 2 * bits
    while True:
        ylo, yhi = blo * lo, bhi * hi
        d = ylo >> two
        if d != yhi >> two:
            return
        lo, hi = (ylo - (d << two)) >> bits, -((-yhi + (d << two)) >> bits)
        yield d, lo, hi


def _divisors(n: int) -> Iterator[int]:
    """The divisors of n >= 1 in ascending order, lazily, by trial division
    up to sqrt(n)."""
    small = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            yield d
    yield from (n // d for d in reversed(small) if d * d != n)


def _omega(beta: Exact, r: int) -> tuple[int, int, int, int, int]:
    """(p, q, f, T, N) with q > 0: the algebraic integer omega = (p +
    q*sqrt(r))/f of the walk in Q(sqrt(r)), omega**2 = T*omega + N.  For
    an irrational beta = (P + Q*sqrt(r))/C, omega = +-c*beta = +-(P +
    Q*sqrt(r))/f, f = C/c, with c the least divisor of C that makes it an
    algebraic integer (``_integral``; c = C always does), so that D grows
    by c a step, and stays fixed for an algebraic-integer beta, whatever
    the radicand: omega**2 = t*omega - n, trace t = 2P/f and norm n = (P*P
    - Q*Q*r)/f**2.  A rational beta walking a quadratic point takes (1 +
    sqrt(r))/2 for r = 1 (mod 4) and sqrt(r) otherwise."""
    P, Q, C = coords(beta)
    if Q:
        f = C if _integral(P, Q, C, r) else next(  # c = 1: an algebraic integer
            C // c for c in _divisors(C) if _integral(P, Q, C // c, r))
        s = 1 if Q > 0 else -1  # -w when Q < 0, w = c*beta: (-w)**2 = -t*(-w) - n
        return s * P, s * Q, f, s * 2 * P // f, (Q * Q * r - P * P) // (f * f)
    return (1, 1, 2, 1, (r - 1) // 4) if r % 4 == 1 else (0, 1, 1, 0, r)


def _omega_coords(z: Exact, p: int, q: int, f: int) -> tuple[int, int, int]:
    """(a, b, D) with z = (a + b*omega)/D, omega = (p + q*sqrt(r))/f, over
    their gcd: q*(X + Y*sqrt(r)) = (q*X - p*Y) + f*Y*omega."""
    X, Y, D = coords(z)
    a, b, D = q * X - p * Y, f * Y, q * D
    h = math.gcd(a, b, D)
    return a // h, b // h, D // h


#: bit length of b from which ``_quad_steps`` reads its digit in fixed
#: point, and the fewest bits by which that point's k exceeds b's
_FIXED_FROM, _GUARD = 64, 40


def _quad_steps(x: Exact, beta: Exact, r: int, omega: tuple) -> Iterator[tuple[int, int, int, int]]:
    """(digit, a, b, D) of T^i x = (a + b*omega)/D, i = 1, 2, ..., on the
    omega-coordinates of the module docstring, with no gcd; the caller takes
    r = radicand(beta, x) and omega = ``_omega(beta, r)`` once.

    beta = (A + B*omega)/C, its coordinates over their gcd, maps (a, b) to
    (u, b') by one 2x2 integer matrix and D to D' = C*D.  The digit d =
    floor((u + b'*omega)/D') is (u + (p*b' + floor(q*b'*sqrt(r))) // f) // D',
    with floor(q*b'*sqrt(r)) = isqrt(r*q*q*b'*b') (b' >= 0) while b' is
    shorter than ``_FIXED_FROM`` bits.  Past that it is read from W =
    floor(omega * 2**k), k at least ``_GUARD`` bits longer than b' and W
    taken again only when b' outgrows it: F = u*2**k + b'*W lies within
    |b'| of (u + b'*omega)*2**k, so d = floor(F/(D'*2**k)) is the digit
    when rem = F - d*D'*2**k has |b'| <= rem < D'*2**k - |b'|; otherwise the
    exact ``_floor_root`` decides it.  The step is (d, u - d*D', b', D')."""
    p, q, f, T, N = omega
    A, B, C = _omega_coords(beta, p, q, f)
    a, b, D = _omega_coords(x, p, q, f)
    NB, AT, rqq, isqrt = N * B, A + T * B, r * q * q, math.isqrt
    k = W = 0
    while True:
        u, b, D = A * a + NB * b, B * a + AT * b, C * D  # omega**2 = T*omega + N
        n = b.bit_length()
        if n < _FIXED_FROM:
            # exact._floor_root, inlined: a call a step slows the golden walk by about a third
            s = isqrt(rqq * b * b)
            d = (u + (p * b + (s if b >= 0 else -s - 1)) // f) // D
        else:
            if k < n + _GUARD:
                k = n + _GUARD + (n >> 3)
                W = ((p << k) + isqrt(rqq << 2 * k)) // f
            F = (u << k) + b * W
            d = (F >> k) // D
            rem = F - (d * D << k)
            m = -b if b < 0 else b
            if not m <= rem < (D << k) - m:
                d = (u + (p * b + _floor_root(q * b, r)) // f) // D
        a = u - d * D
        yield d, a, b, D


def _rational_steps(x: Fraction, beta: Fraction) -> Iterator[tuple[int, int, int]]:
    """(digit, X, D) of T^i x = X/D, i = 1, 2, ..., for x and beta = P/C
    rational: the integer pair of the module docstring, with no gcd."""
    P, C = beta.numerator, beta.denominator
    X, D = x.numerator, x.denominator
    while True:
        u, D = P * X, C * D
        d = u // D
        X = u - d * D
        yield d, X, D


def _exact_steps(x: Exact, beta: Exact) -> tuple[Iterator[tuple], Callable, Callable]:
    """The exact walk of x under beta, each step led by its digit, the map
    from a step to its magnitude bound and the map from a step to its point
    T^i x (``_orbit_walk``): ``_quad_steps`` when either is quadratic (a
    ``QuadNum``), else ``_rational_steps``.  The one place where the two
    walks are chosen."""
    if isinstance(beta, QuadNum) or isinstance(x, QuadNum):
        r = radicand(beta, x)
        omega = p, q, f, _, _ = _omega(beta, r)

        def quad_bound(step: tuple) -> int | None:
            _, a, b, D = step  # low/(D*2**32) <= T^i x
            low = (((f * a + p * b) << 32) + _floor_root(q * b << 32, r)) // f
            return low.bit_length() - D.bit_length() - 33 if low > 0 else None

        def quad_point(step: tuple) -> QuadNum:
            _, a, b, D = step  # (a + b*omega)/D = (f*a + p*b + q*b*sqrt(r))/(f*D)
            return _in_field(f * a + p * b, q * b, f * D, r)

        return _quad_steps(x, beta, r, omega), quad_bound, quad_point
    return (_rational_steps(x, beta),
            lambda step: step[1].bit_length() - step[2].bit_length() - 1 if step[1] else None,
            lambda step: Fraction(step[1], step[2]))


def _unit_point(x: Real) -> Real:
    """x, checked to lie in [0, 1), with an exact core unwrapped."""
    if compare(x, 0) < 0 or compare(x, 1) >= 0:
        raise PreconditionViolated("point must lie in [0, 1)")
    if isinstance(x, CertifiedReal) and x.exact is not None:
        return x.exact
    return x


def _orbit_walk(x: Real, system: BetaSystem,
                n: int) -> tuple[Iterable[tuple], Callable[[tuple], int | None],
                                 Callable[[tuple], Real]]:
    """The walk of ``orbit`` with no point built: (steps, bound, point).

    Each of the n steps is a tuple led by digit_i, a decided digit of x.  ``bound(step)`` is an
    integer k with T^i x >= 2**k, or None when the step holds no such k (T^i
    x may be 0), from integers the step already holds: for an unreduced
    rational pair (X, D), X >= 2**(bitlen(X) - 1) and D < 2**bitlen(D) give
    k = bitlen(X) - bitlen(D) - 1; a quadratic triple (a, b, D) of
    omega-coordinates takes the same bound from low = floor((a +
    b*omega)*2**32) over D*2**32, one integer square root; a
    certified step, from the lower end of the enclosure it holds, never
    refined for the bound.  ``point(step)`` builds T^i x as ``orbit`` yields
    it.  The one place where the exact and the certified walks are chosen.
    """
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    x = _unit_point(x)
    if not system.is_exact or isinstance(x, CertifiedReal):
        return _certified_walk(x, system, n)
    steps, bound, point = _exact_steps(x, system.beta_exact)
    return islice(steps, n), bound, point


def orbit(x: Real, system: BetaSystem, n: int) -> Iterator[tuple[int, Real]]:
    """Yield (digit_i, T^i x) for i = 1..n.

    An exact point under an exact beta is walked exactly, on the integer
    coordinates of the module docstring: each yielded point is the reduced
    ``QuadNum`` of the walk's omega-coordinates (a, b, D) when beta or x is
    quadratic (D fixed for an algebraic-integer beta, each digit read by an
    isqrt floor or, past 64 bits, a fixed-point one; a point of another
    quadratic field than beta raises ``ValueError("mixed radicands")``), and
    else the reduced ``Fraction`` of its pair (X, D).

    Any other point walks the ends of one enclosure of x (``_interval_steps``)
    at 2**-B, B from the ladder ``decide``: the rung, plus n *
    bitlen(ceil(beta) - 1) guard bits (a step widens by beta < 2**bitlen),
    plus an interval beta's declared bits.  T^i x comes as a
    ``CertifiedReal`` with rational ends; when x and beta can refine, it
    refines by walking i digits again from a finer enclosure of x, nested in
    the first, never through T^(i-1) x.  An undecided walk raises
    ``PrecisionExhausted`` naming the first undecided digit, the bits B of
    the last walk and the enclosure width reached, which it also carries as
    ``site``, ``bits`` and ``width_log2``.
    """
    steps, _, point = _orbit_walk(x, system, n)
    for step in steps:
        yield step[0], point(step)


def _certified_walk(x: Real, system: BetaSystem,
                    n: int) -> tuple[list, Callable, Callable]:
    """``_orbit_walk`` of a point in [0, 1) that is not walked exactly: each
    step is (digit_i, lo, hi, i), T^i x in [lo, hi] / 2**B."""
    guard = system.alphabet_max.bit_length()
    refinable = system.is_exact and x.refinable
    extra = n * guard + system.declared_bits
    last: list[tuple[int, list]] = []  # the latest walk, for the error below

    def walk_at(rung: int) -> tuple[int, list]:
        last[:] = [(rung + extra, list(islice(_interval_steps(x, system, rung + extra), n)))]
        return last[0]

    try:
        B, walk = decide(walk_at, lambda w: w if len(w[1]) == n else None, refinable,
                         "orbit digit")
    except PrecisionExhausted:
        B, walk = last[0]
        lo, hi = walk[-1][1:] if walk else _ends(x, B)
        width = (hi - lo).bit_length() - B
        raise PrecisionExhausted(
            f"orbit digit {len(walk) + 1} undecided at {B} bits: T^{len(walk)} x "
            f"has enclosure width below 2^{width}",
            site="orbit digit", bits=B, width_log2=width) from None

    def point(step: tuple) -> CertifiedReal:
        _, lo, hi, i = step

        def refiner(bits: int) -> tuple[Fraction, Fraction]:
            fine = max(bits + i * guard, B)  # nested in the first walk
            *_, (_, lo, hi) = islice(_interval_steps(x, system, fine), i)
            return Fraction(lo, 1 << fine), Fraction(hi, 1 << fine)

        return CertifiedReal(None, refiner if refinable else None, Fraction(lo, 1 << B),
                             Fraction(hi, 1 << B), B - (hi - lo).bit_length())

    return ([(d, lo, hi, i) for i, (d, lo, hi) in enumerate(walk, start=1)],
            lambda step: step[1].bit_length() - 1 - B if step[1] > 0 else None, point)


def expand(x: Real, system: BetaSystem, n: int) -> Word:
    """First n digits of the greedy expansion of x in base beta.

    The digits of ``orbit``'s walk, with no point value built: no
    ``Fraction``, ``QuadNum`` nor ``CertifiedReal``."""
    if n < 1:
        raise ValueError("need at least one digit")
    return tuple(step[0] for step in _orbit_walk(x, system, n)[0])


def word_evaluator(system: BetaSystem, n: int) -> tuple[Callable, Callable, Callable, Callable]:
    """The Horner kernel of this base at order n, chosen once, on carried
    values: (fold, finish, lift, add).  ``fold(word)`` carries a word's
    value, ``finish(acc)`` is the exact value of one carried, ``lift(v)``
    its inverse and ``add`` the sum of two.  A rational p/q carries the
    value times p**n, an integer on order-n words and lengths; golden
    phi**n times it as (a, b), a + b*phi in Z[phi]; others, and n = 0, the
    value.  Powers of beta are read from ``system.pow``, phi**-n once."""
    b = system.require_exact("word evaluation")
    if isinstance(b, Fraction):
        p, q = b.numerator, b.denominator
        pn = p ** n

        def rational(word: Sequence[int]) -> int:
            acc, qi = 0, 1
            for d in word:
                qi *= q
                acc *= p
                if d:
                    acc += d * qi
            return acc

        def rational_lift(v: Exact) -> int | Fraction:  # a Fraction off the integers
            x = v * pn
            return x.numerator if x.denominator == 1 else x

        return rational, lambda acc: Fraction(acc, pn), rational_lift, add
    if n and b == GOLDEN:  # n = 0: the empty word alone, valued 0 with no field compared
        X, Y, D = coords(system.pow(-n))  # phi**-n = (X + Y*sqrt(5))/D

        def golden(word: Sequence[int]) -> tuple[int, int]:
            a = b = 0  # phi * (a + b*phi) + d = (b + d) + (a + b)*phi
            for d in word:
                a, b = b + d, a + b
            return a, b

        def golden_finish(acc: tuple[int, int]) -> Exact:
            a, bb = acc  # times phi**-n
            u = 2 * a + bb
            return _in_field(u * X + 5 * bb * Y, u * Y + bb * X, 2 * D, 5)

        def golden_lift(v: Exact) -> tuple[int, int]:
            x, y, e = coords(system.pow(n) * v)  # (x - y)/e + (2y/e)*phi
            if (x - y) % e or 2 * y % e:
                raise ValueError(f"phi**{n} * {v!r} is not in Z[phi]")
            return (x - y) // e, 2 * y // e

        return golden, golden_finish, golden_lift, lambda x, y: (x[0] + y[0], x[1] + y[1])

    def quadratic(word: Sequence[int]) -> Exact:
        return sum((d * system.pow(-k) for k, d in enumerate(word, 1) if d),
                   _in_field(0, 0, 1, 0))

    return quadratic, lambda acc: acc, lambda v: v, add


def eval_word(word: Sequence[int], system: BetaSystem) -> Exact:
    """Exact value sum(word[i] * beta**-(i+1)), 0 for the empty word; the
    order-n truncation of any point whose expansion starts with this word.
    Evaluating many words of one order, take ``word_evaluator`` once instead."""
    fold, finish, _, _ = word_evaluator(system, len(word))
    return finish(fold(word))


def make_beta(spec: str) -> BetaSystem:
    """Build a BetaSystem from a specification string."""
    return BetaSystem(spec)
