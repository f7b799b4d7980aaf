"""Approximation speeds and convergent errors.

The scaled error of the order-n truncation is the orbit point itself:
beta**n * (x - value(first n digits)) = T^n(x).  Hits of a speed function
psi are the n with T^n(x) < psi(n); a point approximable to order psi but
to no better order c*psi (0 < c < 1) shows hits of psi and no hits of any
c*psi.  Desk-scale runs can only certify finite-horizon evidence of that,
and every report says so explicitly.

Hits and evidence first clear n before psi(n) is built, in two stages,
on integers only.  The digits settle almost every n: with z zeros after
digit n and a nonzero digit after them, T^n x = sum_j d_(n+j) beta**-j >=
beta**-(z+1) (Parry 1960).  An exponential or tempered psi(n) <=
c*beta**(-alpha*n), as n**-p <= 1, so with beta**e >= c (``_log2_ceiling``)
a run with z + 1 <= Z(n) = floor(alpha*n) - e gives T^n x >= beta**(e -
floor(alpha*n)) >= psi(n) > c'*psi(n) for every c' in (0, 1): n is
neither a hit nor a violation.  The zero-run scan proposes the other n,
whose zero run is at least Z(n) long or still open where the digits read
end, from the digits in C (``bytes.find`` for Z zeros, then for the next
nonzero digit).  Z is non-decreasing in n, so one segment of n takes the
Z of its first n; the walk is read in segments of 1, 2, 4, ..., 64 steps,
then 64, each with 64 steps read ahead, so at most 128 steps are held
whatever the horizon.  Every walk is scanned, certified ones too: their
digits are decided digits of x, for every beta of an interval.  A table
psi has no such Z, and proposes every n.

Each proposed n then takes the magnitude test: the walk gives an integer
k with T^n x >= 2**k (``numerics._orbit_walk``), and psi an integer m with
psi(n) <= 2**m.  If k >= m, n is cleared as above, and only the n neither
stage clears reach a certified comparison (counted as ``compared`` in each
report).  An exact T^n x = 0 among them (an ended expansion) is below
psi(n) and every c*psi(n) by sign alone, as psi > 0 and c > 0: it builds
no enclosure of psi(n), which can lie below 2**-PRECISION_CAP, and its
ratio is 0.0.

Speeds and reports are immutable ``exact.Record`` tuples; ``to_json`` loads
json on first use, so importing this module loads neither it nor dataclasses.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .errors import PreconditionViolated
from .exact import (PRECISION_CAP, PRECISION_START, CertifiedReal, Exact, LogValue, Record,
                    compare, decide, exact_enclosure, pow_fixed, pow_interval, rational_power,
                    root_interval)
from .numerics import BetaSystem, Real, _orbit_walk


# ---------------------------------------------------------------------------
# Speed functions
# ---------------------------------------------------------------------------


class PsiFunction(Record):
    """An immutable, non-increasing approximation speed tied to one base.

    Families:
      exponential  psi(n) = c * n**(-p) * beta**(-alpha*n); p = 0 is the
                   plain exponential speed, p > 0 a tempered one
      table        explicit positive values psi(1), psi(2), ...
    """

    __slots__ = ()
    system: BetaSystem
    family: str
    alpha: Fraction = Fraction(0)
    c: Fraction = Fraction(1)
    p: Fraction = Fraction(0)
    table: tuple[Fraction, ...] = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in ("exponential", "table"):
            raise ValueError(f"unknown psi family {self.family!r}")
        if self.family == "table":
            if not self.table:
                raise ValueError("a table psi needs at least one value")
            if (self.alpha, self.c, self.p) != (0, 1, 0):
                raise ValueError("a table psi takes its values only, no alpha, c or p")
            if any(v <= 0 for v in self.table):
                raise ValueError("psi must be positive")
            if any(a < b for a, b in zip(self.table, self.table[1:])):
                raise ValueError("psi must be non-increasing")
        else:
            if self.c <= 0:
                raise ValueError("psi must be positive")
            if self.alpha < 0 or self.p < 0:
                raise ValueError("psi must be non-increasing")
            if self.table:
                raise ValueError("an exponential psi takes no table")
        return self

    def describe(self) -> str:
        if self.family == "table":
            return f"table[{len(self.table)}]"
        parts = []
        if self.c != 1:
            parts.append(f"{self.c}*")
        if self.p:
            parts.append(f"n^-{self.p}*")
        parts.append(f"beta^-{self.alpha}n")
        return "".join(parts)

    def max_index(self) -> int | None:
        return len(self.table) if self.family == "table" else None

    def _check_index(self, n: int) -> None:
        """psi is indexed from 1, a table up to its length."""
        if n < 1:
            raise PreconditionViolated("psi is indexed from 1")
        if self.family == "table" and n > len(self.table):
            raise PreconditionViolated(f"table psi has no index {n}")

    def value_exact(self, n: int) -> Exact | None:
        """psi(n) exactly where it is found exact, else None: a table entry,
        or c * beta**(-alpha*n) * n**-p where both powers are, beta**(-alpha*n)
        at an integer alpha*n (``system.pow``) or, for a rational beta, where
        it is rational (``rational_power``), as n**-p.  A quadratic beta at a
        non-integer alpha*n gives None even where its power lies in the field
        (phi**2 at alpha = 1/2)."""
        self._check_index(n)
        if self.family == "table":
            return self.table[n - 1]
        e, beta = self.alpha * n, self.system.beta_exact
        if e.denominator == 1 and beta is not None:
            v = self.system.pow(-e.numerator)
        else:
            v = rational_power(beta, -e) if isinstance(beta, Fraction) else None
            if v is None:
                return None
        if self.c != 1:
            v = self.c * v
        if not self.p:
            return v
        t = rational_power(Fraction(n), -self.p)
        return None if t is None else v * t

    def value(self, n: int) -> CertifiedReal:
        """psi(n) as a certified real: exact when ``value_exact`` is, else
        built from beta**(-k/m), where alpha*n = k/m in lowest terms, as the
        m-th root of an enclosure of beta**-k.

        With w = bits + 8 and mag = k*bitlen(ceil(beta)) + 1, an integer
        bound with beta**-k > 2**-mag, an enclosure of beta**-k to
        2**-(w + mag) gives beta**(-k/m) to 2**-w through ``root_interval``
        on its ends, since the slope of the root is at most 1/x there.  An
        exact beta takes beta**-k exactly from the system's one power cache
        (``system.pow``), so the value refines.  An interval beta takes
        bhi**-k from below and blo**-k from above as 1/(m*2**e), m*2**e the
        ``pow_fixed`` of its declared ends to P = w + mag + bitlen(k) + 4
        bits, rounded up and down.  There each cut moves a power by a factor
        within 1 +- 2**(1 - P), and the first rounding of an end (> 1) by one
        within 1 +- 2**-P, which the power multiplies by k; all of them stay
        within 1 +- 6k*2**-P < 1 +- 2**-(w + mag + 1), so the two ends
        move by at most 2**-(w + mag) together.  It is done once, at the
        declared bits + PRECISION_START: no rung can make the value narrower
        than beta's declared width lets it be, so it is a fixed interval, and
        a comparison it cannot decide fails at the first rung.  No end of an
        enclosure of beta is raised to a power exactly; only the factor
        n**-p comes from ``pow_interval``.
        """
        exact = self.value_exact(n)
        if exact is not None:
            return CertifiedReal.from_exact(exact)
        system, c, p = self.system, self.c, self.p
        e = self.alpha * n
        k, m = e.numerator, e.denominator
        mag = k * (system.alphabet_max + 1).bit_length() + 1

        def psi(w: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
            """psi(n) to about 2**-w from lo <= beta**-k <= hi, hi - lo <= 2**-(w + mag)."""
            lo, hi = root_interval(lo, m, w)[0], root_interval(hi, m, w)[1]
            if c != 1:
                lo, hi = lo * c, hi * c
            if p:
                plo, phi = pow_interval(Fraction(n), -p, w)
                lo, hi = lo * plo, hi * phi
            return lo, hi

        if system.is_exact:
            power = system.pow(-k)
            return CertifiedReal.from_refiner(
                lambda bits: psi(bits + 8, *exact_enclosure(power, bits + 8 + mag)))
        w = system.declared_bits + PRECISION_START + 8
        blo, bhi = system.beta.enclosure(w)
        P = w + mag + k.bit_length() + 4
        (mlo, elo), (mhi, ehi) = pow_fixed(bhi, k, P, True), pow_fixed(blo, k, P, False)
        return CertifiedReal.from_interval(*psi(
            w, Fraction(2) ** -elo / mlo, Fraction(2) ** -ehi / mhi))

    def _log2_ceiling(self) -> tuple[Callable[[int], int], Callable[[int], int] | None]:
        """(ceiling, least) on integers only: n -> an integer m with psi(n)
        <= 2**m, and n -> the zero-run threshold Z(n) of the module
        docstring, or None when psi has none.

        A table entry N/M < 2**(bitlen(N) - bitlen(M) + 1).  An exponential
        psi(n) <= c * beta**(-alpha*n), as n**-p <= 1, and with lam*2**-32 <=
        log2 beta that is <= 2**(top - floor(alpha*n*lam*2**-32)), top =
        ceil(log2 c).  lam takes no logarithm: it is pe + bitlen(pm) - 1 for
        pm*2**pe, the ``pow_fixed`` of lo**(2**32) rounded down, lo the low end
        of beta's enclosure to 2**-32 (an interval beta's declared one), so
        2**lam <= lo**(2**32) <= beta**(2**32), for an interval beta too.
        Its 64-bit roundings move that power by a factor within 1 - 2**-29,
        so lam is floor(2**32*log2 lo) or one below.  Z(n) = floor(alpha*n)
        - e with e = ceil(top*2**32/lam) for top > 0, so e*log2 beta >=
        e*lam*2**-32 >= top and beta**e >= c, and e = 0 for c <= 1.  A table,
        and lam = 0 with c > 1, has no Z."""
        if self.family == "table":
            table = self.table
            return lambda n: (table[n - 1].numerator.bit_length()
                              - table[n - 1].denominator.bit_length() + 1), None
        N, M = self.c.numerator, self.c.denominator  # ceil(log2 c): c <= 2**k iff N <= M*2**k
        k = N.bit_length() - M.bit_length()
        top = k + (N > M << k if k >= 0 else N << -k > M)
        F = 32  # lam to 2**-30 or so: alpha*n*lam loses under a bit below n = 2**29
        pm, pe = pow_fixed(self.system.beta.enclosure(F)[0], 1 << F, 64, False)
        lam = max(0, pe + pm.bit_length() - 1)
        an, ad = self.alpha.numerator, self.alpha.denominator
        a, den = an * lam, ad << F
        e = 0 if top <= 0 else -((-top << F) // lam) if lam else None  # ceil(top*2**F/lam)
        return (lambda n: top - a * n // den,
                None if e is None else lambda n: an * n // ad - e)

    def log_value(self, n: int) -> LogValue:
        """ln psi(n) as an exact log-linear combination (for huge n)."""
        self._check_index(n)
        if self.family == "table":
            return LogValue.of(self.table[n - 1])
        beta = self.system.require_exact("symbolic psi logarithm")
        terms = [(-self.alpha * n, beta)]
        if self.c != 1:
            terms.append((Fraction(1), self.c))
        if self.p and n > 1:
            terms.append((-self.p, Fraction(n)))
        return LogValue(terms)


def psi_exponential(system: BetaSystem, alpha, c=1) -> PsiFunction:
    return PsiFunction(system, "exponential", alpha=Fraction(alpha), c=Fraction(c))


def psi_tempered(system: BetaSystem, alpha, p, c=1) -> PsiFunction:
    return PsiFunction(system, "exponential", alpha=Fraction(alpha), p=Fraction(p), c=Fraction(c))


def psi_table(system: BetaSystem, values: Sequence) -> PsiFunction:
    return PsiFunction(system, "table", table=tuple(Fraction(v) for v in values))


class AlphaEstimate(Record):
    __slots__ = ()
    value: Fraction | float
    exact: bool
    horizon: int

    def __float__(self):
        return float(self.value)


def alpha_of(psi: PsiFunction, horizon: int = 64) -> AlphaEstimate:
    """Decay exponent liminf -log_beta psi(n) / n.

    Exact for the parametric families (the constant and polynomial factors
    vanish in the limit); for tables, the minimum over the horizon with the
    horizon reported.
    """
    if horizon < 1:
        raise PreconditionViolated("horizon must be >= 1")
    if psi.family == "exponential":
        return AlphaEstimate(psi.alpha, True, horizon)
    beta = float(psi.system.beta)
    n_max = min(horizon, len(psi.table))
    best = min(-math.log(float(psi.table[n - 1]), beta) / n
               for n in range(1, n_max + 1))
    return AlphaEstimate(best, False, n_max)


# ---------------------------------------------------------------------------
# Errors and hits
# ---------------------------------------------------------------------------


class HitRecord(Record):
    """Indices n <= horizon where the truncation beats psi(n)/beta^n;
    ``compared`` counts the n that neither the zero-run scan nor the
    magnitude test cleared (module docstring).  An immutable
    ``exact.Record``, built once; ``to_json`` loads json on first use."""

    __slots__ = ()
    x_text: str
    beta_spec: str
    psi_text: str
    horizon: int
    hits: list[dict]
    compared: int = 0

    def hit_indices(self) -> list[int]:
        return [h["n"] for h in self.hits]

    def to_json(self) -> str:
        import json
        return json.dumps({
            "x": self.x_text, "beta": self.beta_spec, "psi": self.psi_text,
            "horizon": self.horizon, "hits": self.hits, "compared": self.compared,
        }, sort_keys=True)


#: steps of the walk read past each segment of the zero-run scan, and the
#: longest segment
_LOOKAHEAD = 64


def _long_zero_runs(flags: bytearray, seg: int, least: int) -> Iterator[int]:
    """The j < seg whose run of zero flags from j + 1 is at least ``least``
    > 0 long or reaches the end of the flags (an open run).  A run from p
    to the next nonzero flag at e serves the j from p - 1 to e - least - 1;
    ``find`` meets each run at least ``least`` long at its start, and every
    run after the last nonzero flag (``rfind``) is open."""
    zeros, start = bytes(least), 0
    while (pos := flags.find(zeros, start, seg + least)) >= 0:
        end = flags.find(b"\1", pos + least)
        if end < 0:
            yield from range(max(pos - 1, 0), seg)
            return
        yield from range(max(pos - 1, 0), min(end - least, seg))
        start = end + 1
    yield from range(max(flags.rfind(b"\1"), 0), seg)


def _scan(steps: Iterable[tuple], least: Callable[[int], int]) -> Iterator[tuple[int, tuple]]:
    """(n, step) for each n of the walk whose zero run after digit n is at
    least least(n0) long, n0 the first n of its segment, or open where the
    digits read end (module docstring): segments of 1, 2, 4, ... steps up
    to _LOOKAHEAD, each read with _LOOKAHEAD steps after it."""
    steps, window, flags, n0, size = iter(steps), [], bytearray(), 1, 1
    while True:
        new = list(islice(steps, size + _LOOKAHEAD - len(window)))
        window += new
        flags.extend(map(bool, map(itemgetter(0), new)))
        if not window:
            return
        seg, z = min(size, len(window)), least(n0)
        for j in range(seg) if z <= 0 else _long_zero_runs(flags, seg, z):
            yield n0 + j, window[j]
        del window[:seg], flags[:seg]
        n0, size = n0 + seg, min(2 * size, _LOOKAHEAD)


def _uncleared(x: Real, system: BetaSystem, psi: PsiFunction,
               horizon: int) -> Iterator[tuple[int, Real, CertifiedReal]]:
    """(n, T^n x, psi(n)) for each n <= horizon that neither the zero-run
    scan nor the magnitude test of the module docstring clears, with T^n x
    and psi(n) built there only; the shared loop of ``detect_hits`` and
    ``exactness_evidence``."""
    steps, bound, point = _orbit_walk(x, system, horizon)
    ceiling, least = psi._log2_ceiling()
    for n, step in enumerate(steps, start=1) if least is None else _scan(steps, least):
        k = bound(step)
        if k is None or k < ceiling(n):
            yield n, point(step), psi.value(n)


def _exact(a: Real) -> Exact | None:
    """a's exact value, or None when a is known only through enclosures."""
    return a.exact if isinstance(a, CertifiedReal) else a


def _below(err: Real, bound: CertifiedReal) -> bool:
    """err < bound, for err >= 0 and bound > 0: an exact err = 0 (T^n x = 0,
    an ended expansion) by sign alone, with no enclosure of the bound, which
    can lie below 2**-PRECISION_CAP; else by ``compare``."""
    return _exact(err) == 0 or compare(err, bound) < 0


def _ratio(a: Real, b: CertifiedReal) -> float:
    """float(a / b) for a >= 0 and b > 0, from the certified quotient:
    exact for two exact values, else the quotient of enclosures taken s
    bits finer, s the first rung where b's lower end is positive.  It is
    correctly rounded when both sides are exact or refinable, and the
    midpoint of the quotient interval when either is a fixed interval.  An
    exact a = 0 gives 0.0 with no enclosure of b."""
    ea = _exact(a)
    if ea == 0:
        return 0.0
    if ea is not None and b.exact is not None:
        return float(ea / b.exact)
    ca = CertifiedReal._wrap(a)
    s = decide(lambda bits: (bits, b.enclosure(bits)[0]), lambda t: t[0] if t[1] > 0 else None,
               b.refinable, "ratio")

    def enclose(bits: int) -> tuple[Fraction, Fraction]:
        (alo, ahi), (blo, bhi) = ca.enclosure(bits + s), b.enclosure(bits + s)
        return alo / bhi, ahi / blo

    if ca.refinable and b.refinable:
        return float(CertifiedReal.from_refiner(enclose))
    return float(CertifiedReal.from_interval(*enclose(PRECISION_CAP)))


def detect_hits(x: Real, system: BetaSystem, psi: PsiFunction,
                horizon: int) -> HitRecord:
    """The n <= horizon with T^n x < psi(n), each with T^n x, psi(n) and
    their ratio as floats: correctly rounded where the value is exact or
    refinable, the midpoint of a fixed interval (an interval beta's).  The
    ratio is that of the certified quotient, never of the two floats, which
    can both underflow to 0.

    An n that the zero-run scan or the magnitude test of the module
    docstring clears is no hit, so neither T^n x nor psi(n) is built there;
    ``compared`` counts the others."""
    horizon = min(horizon, psi.max_index() or horizon)  # a table ends at its length
    hits, compared = [], 0
    for n, err, pv in _uncleared(x, system, psi, horizon):
        compared += 1
        if _below(err, pv):
            hits.append({
                "n": n,
                "scaled_error": float(err),
                "psi": float(pv),
                "ratio": _ratio(err, pv),
            })
    return HitRecord(str(x), system.spec, psi.describe(), horizon, hits, compared)


class EvidenceReport(Record):
    """Finite-horizon evidence for exact-order approximation.

    Consistency at a constant c means: at least one hit of psi and no hit
    of c*psi up to the horizon.  This is evidence only; membership is an
    infinite condition that no finite run can certify.  ``compared`` counts
    the n that neither the zero-run scan nor the magnitude test cleared.
    ``violations`` is keyed by
    float(c), and ``consistent`` takes c as a Fraction or a float.  An
    immutable ``exact.Record``, built once; ``to_json`` loads json on first use.
    """

    __slots__ = ()
    x_text: str
    beta_spec: str
    psi_text: str
    horizon: int
    c_values: list[float]
    hits: list[int]
    violations: dict[float, list[int]]
    compared: int = 0

    def consistent(self, c: Fraction | float) -> bool:
        return bool(self.hits) and not self.violations[float(c)]

    def to_json(self) -> str:
        import json
        return json.dumps({
            "x": self.x_text, "beta": self.beta_spec, "psi": self.psi_text,
            "horizon": self.horizon,
            "finite_horizon_only": True,
            "hits": self.hits,
            "violations": {str(c): v for c, v in self.violations.items()},
            "consistent": {str(c): self.consistent(c) for c in self.c_values},
            "compared": self.compared,
        }, sort_keys=True)


DEFAULT_C_GRID = (Fraction(9, 10), Fraction(99, 100))


def exactness_evidence(x: Real, system: BetaSystem, psi: PsiFunction,
                       c_values: Sequence = DEFAULT_C_GRID,
                       horizon: int = 64) -> EvidenceReport:
    """Partition n <= horizon into hits of psi and violations of c*psi.

    An n that the zero-run scan or the magnitude test of the module
    docstring clears is no hit, so neither T^n x nor psi(n) is built there.
    c*psi(n) is compared only where psi(n) is hit: c lies in (0, 1)
    and psi(n) > 0, so T^n x >= psi(n) implies T^n x > c*psi(n), and every
    violation is a hit.  ``compared`` counts the n compared with psi(n)."""
    cs = [Fraction(c) for c in c_values]
    if any(not (0 < c < 1) for c in cs):
        raise PreconditionViolated("constants must lie in (0, 1)")
    if len({float(c) for c in cs}) < len(cs):
        # the report is keyed by float(c): equal keys would merge violations
        raise PreconditionViolated("constants must differ as floats")
    horizon = min(horizon, psi.max_index() or horizon)  # a table ends at its length
    hits, compared = [], 0
    violations: dict[float, list[int]] = {float(c): [] for c in cs}
    for n, err, pv in _uncleared(x, system, psi, horizon):
        compared += 1
        if _below(err, pv):
            hits.append(n)
            for c in cs:
                if _below(err, pv.scaled(c)):
                    violations[float(c)].append(n)
    return EvidenceReport(str(x), system.spec, psi.describe(), horizon,
                          [float(c) for c in cs], hits, violations, compared)
