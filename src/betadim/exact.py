"""Exact and certified real arithmetic.

Four layers live here:

* ``QuadNum`` -- exact elements a + b*sqrt(d) of a real quadratic field,
  stored as their reduced integer coordinates (below), on which every
  operation, comparison, floor and enclosure is done.  Rationals are the
  b == 0 case; the golden ratio is QuadNum(1/2, 1/2, 5), stored (1, 1, 2).
* ``CertifiedReal`` -- a real number known either exactly (Fraction or
  QuadNum core) or through a rational interval enclosure that may or may
  not be refinable.  Floor decisions are made only when both endpoints
  agree.  It only multiplies and scales: orbits walk the ends of one
  enclosure (``numerics.orbit``) and wrap each point once, so no
  certified decision needs a sum, difference or quotient.
* ``decide`` -- the one precision ladder.  Every certified decision (the
  floor of a ``CertifiedReal``, ``compare`` between exact and certified
  reals, the sign of a ``LogValue``, the digits of a walked orbit) tests
  enclosures at doubling precision up to a hard cap and then raises
  ``PrecisionExhausted``.
* enclosure utilities -- integer k-th roots, rational b-th root
  enclosures, directed fixed-point powers of an end of beta's enclosure
  (``pow_fixed``: the growth-bound check, an interval beta's psi values
  and psi's magnitude ceiling), and rigorously bounded natural
  logarithms.  ``pow_interval`` raises a rational to a rational power
  exactly before its root; it now serves only the factor n**-p of a
  tempered speed, never an end of an enclosure of beta.  All enclosure
  widths are honest upper bounds, never float estimates.

Integer coordinates.  A number of Q(sqrt(r)) has one reduced triple
(X, Y, D), D > 0 and gcd(X, Y, D) = 1, with value (X + Y*sqrt(r))/D; a
rational is (numerator, 0, denominator).  It is what a ``QuadNum``
stores (``coords`` reads it), so a field operation is integer products
and one gcd, the inverse being D*(X - Y*sqrt(r)) over the norm
X**2 - Y**2*r, and decisions on exact values need no ``Fraction``:

* floor: for Y != 0, Y*sqrt(r) is irrational, so (X + Y*sqrt(r))/D lies
  strictly between (X + s)/D and (X + s + 1)/D, s = floor(Y*sqrt(r)), and
  no integer falls between those two; so the floor is (X + s) // D.
  floor(Y*sqrt(r)) is isqrt(r*Y**2) for Y >= 0 and -isqrt(r*Y**2) - 1 for
  Y < 0 (``_floor_root``).  The same s, taken for Y*2**bits, gives an
  enclosure of width 1/(D*2**bits) from one integer square root.
* order: two values of one field differ by (A + B*sqrt(r))/(D1*D2), with
  A = X1*D2 - X2*D1 and B = Y1*D2 - Y2*D1.  Its sign is that of A or B
  when they agree or one is 0, and else costs one test of A**2 against
  B**2*r, never equal for a nonsquare r (``_sign``).
* the orbit walk of ``numerics`` reads its floors as above, but on a
  point's coordinates over a basis (1, omega), omega an algebraic integer
  (its module docstring), where an algebraic-integer beta keeps D fixed
  with no gcd a step.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PrecisionExhausted

try:  # namedtuple's own read-only field accessor, in C
    from _collections import _tuplegetter
except ImportError:  # as ``collections.namedtuple`` falls back
    from operator import itemgetter

    def _tuplegetter(index: int, doc: str | None) -> property:
        return property(itemgetter(index), doc=doc)

TYPE_CHECKING = False  # typing is loaded by type checkers only, never on import
if TYPE_CHECKING:
    from typing import Callable, TypeVar
    E, A = TypeVar("E"), TypeVar("A")

#: Precision ladder defaults (bits of enclosure width).
PRECISION_START = 128
PRECISION_CAP = 8192


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _floor_root(y: int, r: int) -> int:
    """floor(y*sqrt(r)) for an integer y and a nonsquare r >= 2, or any
    r >= 0 when y >= 0.  For y < 0, y*sqrt(r) = -sqrt(r*y*y) is irrational,
    so its floor is one below -isqrt(r*y*y)."""
    s = math.isqrt(r * y * y)
    return s if y >= 0 else -s - 1


def _sign(A: int, B: int, r: int) -> int:
    """Exact sign of A + B*sqrt(r) for integers A, B and a nonsquare r (any
    r when B == 0): with opposite signs A*A == B*B*r is impossible."""
    sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if A * A > B * B * r else sb


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if k < 1:
        raise ValueError("iroot needs k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class QuadNum:
    """Exact number a + b*sqrt(d) with rational a, b and nonsquare d >= 2,
    stored as its reduced triple (X, Y, D) (module docstring), d = 0
    exactly when Y = 0; ``a`` and ``b`` are read back from it once, and kept.

    Arithmetic stays inside one quadratic field; mixing two different
    nonzero radicands raises.  Rationals (b == 0) mix with everything.
    """

    __slots__ = ("X", "Y", "D", "d", "_ab")  # _ab: (a, b), filled when first read

    def __new__(cls, a=0, b=0, d: int = 0):
        a, b = Fraction(a), Fraction(b)
        if b and (d < 2 or _is_square(d)):
            raise ValueError("radicand must be a nonsquare integer >= 2")
        D = math.lcm(a.denominator, b.denominator)
        return cls._in_field(a.numerator * (D // a.denominator),
                             b.numerator * (D // b.denominator), D, d)

    @classmethod
    def _in_field(cls, X: int, Y: int, D: int, d: int) -> "QuadNum":
        """(X + Y*sqrt(d))/D reduced, for integers X, Y, D != 0 and the
        radicand d of a value already built (0 for Q): the constructor
        without its ``_is_square`` check, for results in a checked field."""
        g = math.gcd(X, Y, D)
        if D < 0:
            g = -g
        z = object.__new__(cls)
        z.X, z.Y, z.D, z.d = X // g, Y // g, D // g, (d if Y else 0)
        return z

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadNum | None":
        """x as a QuadNum, or None when x is not an exact number."""
        if isinstance(x, QuadNum):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadNum._in_field(x.numerator, 0, x.denominator, 0)
        return None

    def _fractions(self) -> tuple[Fraction, Fraction]:
        if not hasattr(self, "_ab"):
            self._ab = Fraction(self.X, self.D), Fraction(self.Y, self.D)
        return self._ab

    a = property(lambda self: self._fractions()[0])
    b = property(lambda self: self._fractions()[1])

    def __getstate__(self):  # the stored triple alone: pickles and copies leave _ab out
        return None, {"X": self.X, "Y": self.Y, "D": self.D, "d": self.d}

    @property
    def is_rational(self) -> bool:
        return not self.Y

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r, D1, D2 = radicand(self, o), self.D, o.D
        return QuadNum._in_field(self.X * D2 + o.X * D1, self.Y * D2 + o.Y * D1, D1 * D2, r)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum._in_field(-self.X, -self.Y, self.D, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r, D1, D2 = radicand(self, o), self.D, o.D
        return QuadNum._in_field(self.X * D2 - o.X * D1, self.Y * D2 - o.Y * D1, D1 * D2, r)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r, X1, Y1, X2, Y2 = radicand(self, o), self.X, self.Y, o.X, o.Y
        return QuadNum._in_field(X1 * X2 + Y1 * Y2 * r, X1 * Y2 + Y1 * X2, self.D * o.D, r)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        X, Y, D = self.X, self.Y, self.D
        norm = X * X - Y * Y * self.d
        if norm == 0:
            raise ZeroDivisionError("QuadNum division by zero")
        return QuadNum._in_field(D * X, -D * Y, norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadNum._in_field(1, 0, 1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- exact order -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of X + Y*sqrt(d), the sign of the value (D > 0)."""
        return _sign(self.X, self.Y, self.d)

    def _cmp(self, other) -> int:
        if not isinstance(other, (int, Fraction, QuadNum)):
            raise TypeError(f"cannot compare QuadNum with {type(other)!r}")
        return _cmp_exact(self, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadNum)):
            return _cmp_exact(self, other) == 0
        return NotImplemented

    def __hash__(self):
        """A rational hashes as its ``Fraction``; the reduced triple is
        unique, so equal values hash alike."""
        if self.is_rational:
            return hash(self.a)
        return hash((self.X, self.Y, self.D, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- floor and enclosure ---------------------------------------------

    def __floor__(self) -> int:
        """Exact floor (X + floor(Y*sqrt(d))) // D of the module docstring."""
        return (self.X + _floor_root(self.Y, self.d)) // self.D

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, width <= 2**-bits: with
        t = floor(Y*sqrt(d)*2**bits), [X*2**bits + t, X*2**bits + t + 1] over
        D*2**bits, of width 1/(D*2**bits)."""
        X, Y, D = self.X, self.Y, self.D
        if not Y:
            return Fraction(X, D), Fraction(X, D)
        low = (X << bits) + _floor_root(Y << bits, self.d)
        return Fraction(low, D << bits), Fraction(low + 1, D << bits)

    def __float__(self) -> float:
        return _nearest_float(self.enclosure)

    def __repr__(self):
        if self.is_rational:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*sqrt({self.d}))"


def coords(z: Exact) -> tuple[int, int, int]:
    """The reduced triple (X, Y, D), D > 0, of z = (X + Y*sqrt(r))/D: the
    stored fields of a ``QuadNum``, (numerator, 0, denominator) of a
    rational.  No prime divides all three, so the triple is unique."""
    if isinstance(z, QuadNum):
        return z.X, z.Y, z.D
    return z.numerator, 0, z.denominator


def radicand(x: Exact, y: Exact) -> int:
    """The r of the one field Q(sqrt(r)) holding x and y, 0 for Q; raises
    ``ValueError("mixed radicands")`` when no one field holds both."""
    r = x.d if isinstance(x, QuadNum) else 0
    s = y.d if isinstance(y, QuadNum) else 0
    if r and s and r != s:
        raise ValueError("mixed radicands")
    return r or s


def _cmp_exact(x: Exact, y: Exact) -> int:
    """Sign of x - y for two exact values of one field, on integer
    coordinates (module docstring); ValueError on mixed radicands."""
    r = radicand(x, y)
    X1, Y1, D1 = coords(x)
    X2, Y2, D2 = coords(y)
    return _sign(X1 * D2 - X2 * D1, Y1 * D2 - Y2 * D1, r)


def exact_enclosure(x: Exact, bits: int) -> tuple[Fraction, Fraction]:
    if isinstance(x, QuadNum):
        return x.enclosure(bits)
    f = Fraction(x)
    return f, f


# ---------------------------------------------------------------------------
# The precision ladder
# ---------------------------------------------------------------------------

Exact = int | Fraction | QuadNum
Interval = tuple[Fraction, Fraction]
_ZERO: Interval = (Fraction(0), Fraction(0))


def decide(enclose: Callable[[int], E], test: Callable[[E], A | None],
           refinable: bool, what: str) -> A:
    """Run ``test`` on ``enclose(bits)`` for bits = PRECISION_START, doubling
    up to PRECISION_CAP, and return its first answer other than None.

    Without ``refinable`` the enclosure cannot tighten, so one rung is all
    there is.  An undecided ladder raises ``PrecisionExhausted`` naming the
    decision and the bits reached, in its message and as ``site`` and
    ``bits``; nothing here guesses.  Its ``width_log2`` is None: the
    enclosures are the caller's own type, and a caller that knows their
    width re-raises with it (``numerics.orbit``).
    """
    bits = PRECISION_START
    while True:
        answer = test(enclose(bits))
        if answer is not None:
            return answer
        if not refinable or bits >= PRECISION_CAP:
            raise PrecisionExhausted(f"{what} undecided at {bits} bits", site=what,
                                     bits=bits)
        bits *= 2


def _order(pair: tuple[Interval, Interval]) -> int | None:
    """-1 or 1 when the two enclosures are apart, 0 when both are one same
    point, None while they overlap otherwise.  Endpoints are only compared:
    a difference of huge exact endpoints would cost a gcd."""
    (alo, ahi), (blo, bhi) = pair
    if ahi < blo:
        return -1
    if alo > bhi:
        return 1
    return 0 if alo == ahi == blo == bhi else None


def _nearest_float(enclose: Callable[[int], Interval]) -> float:
    """The float nearest a value that ``enclose`` refines: the ladder climbs
    until both ends round to one float, which rounding, being monotone, then
    gives the value too.  A value within 2**-PRECISION_CAP of a rounding
    tie gives the float of the midpoint of its last enclosure."""
    def agree(enc: Interval) -> float | None:
        f = float(enc[0])
        return f if f == float(enc[1]) else None

    try:
        return decide(enclose, agree, True, "float")
    except PrecisionExhausted:
        lo, hi = enclose(PRECISION_CAP)
        return float((lo + hi) / 2)


def _floor_if_agree(enc: Interval) -> int | None:
    lo, hi = enc
    f = lo.numerator // lo.denominator
    return f if f == hi.numerator // hi.denominator else None


# ---------------------------------------------------------------------------
# Certified reals
# ---------------------------------------------------------------------------

class CertifiedReal:
    """A real known exactly or through a (possibly refinable) enclosure.

    Invariants: lo <= hi always; refinement never widens the cached
    interval; floor/comparison decisions are made only from certified
    enclosures or exact cores.  ``scaled`` gives c * psi(n); the product
    serves the ``perfbench`` replay of floor(beta * T^n x).
    """

    __slots__ = ("exact", "_refiner", "_lo", "_hi", "_bits")

    def __init__(self, exact: Exact | None, refiner: Callable[[int], Interval] | None,
                 lo: Fraction | None = None, hi: Fraction | None = None,
                 bits: int = 0):
        self.exact = exact
        self._refiner = refiner
        self._lo = lo
        self._hi = hi
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_exact(cls, value: Exact) -> "CertifiedReal":
        if isinstance(value, int):
            value = Fraction(value)
        if isinstance(value, QuadNum) and value.is_rational:
            value = value.a
        return cls(value, None)

    @classmethod
    def from_interval(cls, lo, hi) -> "CertifiedReal":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return cls(None, None, lo, hi, bits=0)

    @classmethod
    def from_refiner(cls, refiner: Callable[[int], Interval]) -> "CertifiedReal":
        return cls(None, refiner)

    # -- enclosure ---------------------------------------------------------

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return exact_enclosure(self.exact, bits)
        if self._refiner is not None and (self._lo is None or bits > self._bits):
            lo, hi = self._refiner(bits)
            if self._lo is not None:
                lo, hi = max(lo, self._lo), min(hi, self._hi)
            self._lo, self._hi, self._bits = lo, hi, bits
        if self._lo is None:
            raise ValueError("interval real with no enclosure")
        return self._lo, self._hi

    @property
    def refinable(self) -> bool:
        return self.exact is not None or self._refiner is not None

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _wrap(x) -> "CertifiedReal":
        if isinstance(x, CertifiedReal):
            return x
        return CertifiedReal.from_exact(x)

    def __mul__(self, other):
        """Exact for two exact values of one field; else a product of
        enclosures, refined at bits + 2, or fixed at PRECISION_CAP when a
        side cannot refine."""
        a, b = self, self._wrap(other)
        if a.exact is not None and b.exact is not None:
            try:
                return CertifiedReal.from_exact(a.exact * b.exact)
            except ValueError:
                pass  # mixed radicands: fall through to enclosures

        def enclose(bits: int) -> tuple[Fraction, Fraction]:
            (alo, ahi), (blo, bhi) = a.enclosure(bits), b.enclosure(bits)
            ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return min(ends), max(ends)

        if a.refinable and b.refinable:
            return CertifiedReal.from_refiner(lambda bits: enclose(bits + 2))
        return CertifiedReal.from_interval(*enclose(PRECISION_CAP))

    __rmul__ = __mul__

    def scaled(self, c: Fraction) -> "CertifiedReal":
        """c * self for a rational 0 < c <= 1, refined at the same bits as
        self: each enclosure of self scales to one of c * self that is no
        wider, so a refinable value stays refinable, a fixed one fixed, and
        self is refined no further than a decision on c * self needs."""
        if not 0 < c <= 1:
            raise ValueError("scale must lie in (0, 1]")
        if self.exact is not None:
            return CertifiedReal.from_exact(self.exact * c)
        if self._refiner is None:
            return CertifiedReal.from_interval(self._lo * c, self._hi * c)
        inner = self

        def refiner(bits):
            lo, hi = inner.enclosure(bits)
            return lo * c, hi * c

        return CertifiedReal.from_refiner(refiner)

    # -- decisions -----------------------------------------------------------

    def floor(self) -> int:
        """Certified floor; raises PrecisionExhausted on persistent ties."""
        if self.exact is not None:
            return math.floor(self.exact)
        return decide(self.enclosure, _floor_if_agree, self.refinable, "floor")

    def cmp(self, other) -> int:
        """Certified three-way comparison; 0 only for provable equality."""
        return compare(self, other)

    def __float__(self):
        """Correctly rounded when exact or refinable; a fixed interval
        gives its midpoint."""
        if self.exact is not None:
            return float(self.exact)
        if self._refiner is not None:
            return _nearest_float(self.enclosure)
        return float((self._lo + self._hi) / 2)

    def __repr__(self):
        if self.exact is not None:
            return f"CertifiedReal({self.exact!r})"
        if self._lo is not None:
            return f"CertifiedReal([{float(self._lo)}, {float(self._hi)}])"
        return "CertifiedReal(<lazy>)"


def compare(a, b) -> int:
    """Certified three-way comparison of exact or certified reals; 0 only
    for provable equality.

    Two exact values of one field (same or rational radicands) compare on
    integer coordinates, with no ``Fraction`` difference, ``QuadNum`` or
    ``CertifiedReal`` built; anything else, mixed radicands included,
    compares enclosures.
    """
    ea = a.exact if isinstance(a, CertifiedReal) else a
    eb = b.exact if isinstance(b, CertifiedReal) else b
    if ea is not None and eb is not None:
        try:
            return _cmp_exact(ea, eb)
        except ValueError:
            pass  # mixed radicands: fall through to enclosures
    ca, cb = CertifiedReal._wrap(a), CertifiedReal._wrap(b)
    return decide(lambda bits: (ca.enclosure(bits), cb.enclosure(bits)), _order,
                  ca.refinable or cb.refinable, "comparison")


# ---------------------------------------------------------------------------
# Root and logarithm enclosures
# ---------------------------------------------------------------------------


def root_interval(x: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**(1/k) for rational x > 0, width <= 2**-bits."""
    if x <= 0:
        raise ValueError("root of non-positive number")
    prec = bits + 2
    scaled = (x.numerator << (k * prec)) // x.denominator
    r = iroot(scaled, k)
    return Fraction(r, 1 << prec), Fraction(r + 2, 1 << prec)


def pow_interval(x: Fraction, e: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**e for rational x > 0 and rational exponent e."""
    if e.denominator == 1:
        v = x ** e.numerator
        return v, v
    base = x ** e.numerator  # exact rational
    return root_interval(base, e.denominator, bits)


def rational_power(x: Fraction, e: Fraction) -> Fraction | None:
    """x**e for rational x > 0 and e when it is rational, else None.  With
    x = N/M and e = k/m in lowest terms, x**e is rational iff N and M are
    perfect m-th powers: (N/M)**k = q**m with N, M coprime and k prime to m
    makes m divide the multiplicity of every prime in N and M."""
    N, M, m = x.numerator, x.denominator, e.denominator
    r, s = iroot(N, m), iroot(M, m)
    return Fraction(r, s) ** e.numerator if r ** m == N and s ** m == M else None


def pow_fixed(b: Fraction, k: int, bits: int, up: bool) -> tuple[int, int]:
    """(m, e) with m*2**e >= b**k when ``up``, else m*2**e <= b**k, for
    rational b > 0 and integer k >= 0, with no exact power of b.

    b is rounded to a multiple of 2**-bits, and b**k is raised left to
    right: each square, times that b where k's bit is set, is cut to
    ``bits`` bits, each rounding in the one direction.  A cut leaves m >=
    2**(bits - 1), so it moves the value by a factor within 1 +- 2**(1 -
    bits), and the rounding of b by one within 1 +- 2**-bits/b, which the
    power multiplies by k.  The cut at level j of the binary expansion of k
    (j = 0 at its leading bit) is raised with the value to 2**r <= k/2**j,
    r the squarings left, so m*2**e is b**k times a factor within
    (1 +- 2**-bits/b)**k * (1 +- 2**(1 - bits))**(2k).  A power of 2 comes
    out exact.
    """
    num = b.numerator << bits
    x = -(-num // b.denominator) if up else num // b.denominator
    m, e = 1, 0
    for bit in bin(k)[2:]:
        m, e = m * m, 2 * e
        if bit == "1":
            m, e = m * x, e - bits
        s = m.bit_length() - bits
        if s > 0:
            m, e = -(-m >> s) if up else m >> s, e + s
    return m, e


_LN2_CACHE: dict[int, tuple[int, int]] = {}


def _ln2_fixed(w: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] with ln 2 * 2**w in [lo, hi]."""
    if w in _LN2_CACHE:
        return _LN2_CACHE[w]
    total = 0
    kmax = w + 2
    for k in range(1, kmax + 1):
        total += (1 << w) // (k << k)
    lo = total
    hi = total + kmax + 2  # floor losses + series tail
    _LN2_CACHE[w] = (lo, hi)
    return lo, hi


def _ln_mantissa_fixed(mn: int, w: int) -> tuple[int, int]:
    """Bounds on ln(mn / 2**w) * 2**w for 2**w <= mn < 2**(w+1).

    atanh series at z = (m-1)/(m+1) in [0, 1/3), two-sided integer interval
    arithmetic throughout: floors for lower bounds, ceilings for upper.
    """
    one = 1 << w
    num = mn - one
    if num == 0:
        return 0, 2
    den = mn + one
    z_lo = (num << w) // den
    z_hi = z_lo + 1
    z2_lo = (z_lo * z_lo) >> w
    z2_hi = (z_hi * z_hi + one - 1) >> w
    p_lo, p_hi = z_lo, z_hi
    s_lo, s_hi = z_lo, z_hi
    i = 1
    while True:
        p_lo = (p_lo * z2_lo) >> w
        p_hi = (p_hi * z2_hi + one - 1) >> w
        k = 2 * i + 1
        if p_hi < k:
            # remaining terms sum below p_hi * 9/8 ulps; pad generously
            s_hi += 2 * p_hi + 2
            break
        s_lo += p_lo // k
        s_hi += p_hi // k + 1
        i += 1
    return 2 * s_lo, 2 * s_hi


def _log2_floor_fraction(x: Fraction) -> int:
    """Largest e with 2**e <= x, for rational x = N/M > 0.  With e0 =
    bitlen(N) - bitlen(M), 2**(e0 - 1) < x < 2**(e0 + 1), so e is e0 or
    e0 - 1."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e - 1 if Fraction(2) ** e > x else e


def ln_interval(x, bits: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure of ln(x) for x rational, QuadNum, or CertifiedReal."""
    if isinstance(x, (CertifiedReal, QuadNum)):
        lo, hi = x.enclosure(bits + 4)
        if lo <= 0:
            raise ValueError("log of non-positive value")
        return ln_interval(lo, bits + 2)[0], ln_interval(hi, bits + 2)[1]
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive value")
    e = _log2_floor_fraction(x)
    w = bits + 24 + abs(e).bit_length()
    m = x / Fraction(2) ** e  # in [1, 2)
    mn = (m.numerator << w) // m.denominator  # 1 ulp low
    mlo_lo, mlo_hi = _ln_mantissa_fixed(mn, w)
    # mantissa rounding: m in [mn/2^w, (mn+1)/2^w]; ln slope <= 1 on [1,2]
    mlo_hi += 2
    l2lo, l2hi = _ln2_fixed(w)
    if e >= 0:
        lo = Fraction(e * l2lo + mlo_lo, 1 << w)
        hi = Fraction(e * l2hi + mlo_hi, 1 << w)
    else:
        lo = Fraction(e * l2hi + mlo_lo, 1 << w)
        hi = Fraction(e * l2lo + mlo_hi, 1 << w)
    return lo, hi


class LogValue:
    """Exact linear combination sum(coef * ln(base)) with certified enclosure.

    Coefficients are Fractions (often huge integers); bases are exact
    positive numbers.  Enclosures account for coefficient magnitude so the
    requested bits survive the scaling.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple((Fraction(c), b) for c, b in terms if c != 0)

    @classmethod
    def of(cls, base, coef=1) -> "LogValue":
        return cls([(Fraction(coef), base)])

    def __add__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.terms + other.terms)

    def __neg__(self) -> "LogValue":
        return LogValue([(-c, b) for c, b in self.terms])

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = Fraction(0)
        hi = Fraction(0)
        for coef, base in self.terms:
            mag = abs(coef.numerator).bit_length() + coef.denominator.bit_length()
            blo, bhi = ln_interval(base, bits + mag + 4)
            if coef >= 0:
                lo += coef * blo
                hi += coef * bhi
            else:
                lo += coef * bhi
                hi += coef * blo
        return lo, hi

    def sign(self) -> int:
        """Certified sign; raises PrecisionExhausted on persistent ties."""
        return decide(lambda bits: (self.enclosure(bits), _ZERO), _order, True,
                      "log-linear sign")

    def __float__(self) -> float:
        lo, hi = self.enclosure(64)
        return float((lo + hi) / 2)


class Record(tuple):
    """A tuple with the interface of ``typing.NamedTuple`` and no typing object:
    a subclass annotates its fields in order, a value there being a default,
    declares ``__slots__ = ()`` and pickles by the name its class binds."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # through __new__: its checks run

    def __init_subclass__(cls):
        if names := tuple(cls.__dict__.get("__annotations__", ())):  # else the base's fields
            cls._fields = cls.__match_args__ = names
            cls._field_defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
            for i, k in enumerate(names):
                setattr(cls, k, _tuplegetter(i, None))

    def __new__(cls, *args, **kwargs):
        names = cls._fields
        if kwargs or len(args) != len(names):  # not every field given, in order
            given = dict(zip(names, args))
            values = {**cls._field_defaults, **given, **kwargs}
            if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(names):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}, each once")
            args = map(values.get, names)
        return tuple.__new__(cls, args)

    def _replace(self, **kwargs):
        if extra := [k for k in kwargs if k not in self._fields]:
            raise ValueError(f"Got unexpected field names: {extra!r}")
        return self._make(map(kwargs.get, self._fields, self))

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self):  # pickle and copy rebuild the record through __new__
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('%s=%r'.__mod__, zip(self._fields, self)))})"
