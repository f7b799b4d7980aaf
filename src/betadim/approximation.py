"""Approximation speeds and convergent errors.

The scaled error of the order-n truncation is the orbit point itself:
beta**n * (x - value(first n digits)) = T^n(x).  Hits of a speed function
psi are the n with T^n(x) < psi(n); a point approximable to order psi but
to no better order c*psi (0 < c < 1) shows hits of psi and no hits of any
c*psi.  Desk-scale runs can only certify finite-horizon evidence of that,
and every report says so explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionViolated
from .exact import (PRECISION_START, CertifiedReal, Exact, LogValue, compare, exact_enclosure,
                    inv_pow_fixed, iroot, pow_interval, root_interval)
from .numerics import BetaSystem, Real, orbit


# ---------------------------------------------------------------------------
# Speed functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiFunction:
    """A non-increasing approximation speed tied to one base.

    Families:
      exponential  psi(n) = c * n**(-p) * beta**(-alpha*n); p = 0 is the
                   plain exponential speed, p > 0 a tempered one
      table        explicit positive values psi(1), psi(2), ...
    """

    system: BetaSystem
    family: str
    alpha: Fraction = Fraction(0)
    c: Fraction = Fraction(1)
    p: Fraction = Fraction(0)
    table: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.family not in ("exponential", "table"):
            raise ValueError(f"unknown psi family {self.family!r}")
        if self.family == "table":
            if not self.table or (self.alpha, self.c, self.p) != (0, 1, 0):
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
        """Exact value when representable in the base's field, else None."""
        self._check_index(n)
        if self.family == "table":
            return self.table[n - 1]
        e = self.alpha * n
        if e.denominator != 1 or not self.system.is_exact:
            return None
        v = self.system.pow(-int(e))
        if self.c != 1:
            v = self.c * v
        if not self.p:
            return v
        r = iroot(n, self.p.denominator)  # p = k/m: n**p is rational iff n = r**m
        return v / r ** self.p.numerator if r ** self.p.denominator == n else None

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
        bhi**-k rounded down and blo**-k rounded up over 2**P, P = w + mag +
        bitlen(k) + 4, from its declared ends by ``inv_pow_fixed``, once, at
        the declared bits + PRECISION_START: no rung can make the value
        narrower than beta's declared width lets it be, so it is a fixed
        interval, and a comparison it cannot decide fails at the first rung.
        No end of an enclosure of beta is raised to a power exactly; only
        the factor n**-p comes from ``pow_interval``.
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
        P = w + mag + k.bit_length() + 4  # (k + 2) * 2**-P < 2**-(w + mag)
        return CertifiedReal.from_interval(*psi(
            w, Fraction(inv_pow_fixed(bhi, k, P, up=False), 1 << P),
            Fraction(inv_pow_fixed(blo, k, P, up=True), 1 << P)))

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
    return PsiFunction(system, "exponential", alpha=Fraction(alpha),
                       p=Fraction(p), c=Fraction(c))


def psi_table(system: BetaSystem, values: Sequence) -> PsiFunction:
    return PsiFunction(system, "table", table=tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class AlphaEstimate:
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


def scaled_errors(x: Real, system: BetaSystem, horizon: int) -> list[Real]:
    """[T^1(x), ..., T^horizon(x)] = beta**n (x - truncation_n) for each n."""
    return [t for _, t in orbit(x, system, horizon)]


@dataclass
class HitRecord:
    """Indices n <= horizon where the truncation beats psi(n)/beta^n."""

    x_text: str
    beta_spec: str
    psi_text: str
    horizon: int
    hits: list[dict] = field(default_factory=list)

    def hit_indices(self) -> list[int]:
        return [h["n"] for h in self.hits]

    def to_json(self) -> str:
        return json.dumps({
            "x": self.x_text, "beta": self.beta_spec, "psi": self.psi_text,
            "horizon": self.horizon, "hits": self.hits,
        }, sort_keys=True)


def detect_hits(x: Real, system: BetaSystem, psi: PsiFunction,
                horizon: int) -> HitRecord:
    """The n <= horizon with T^n x < psi(n), each with T^n x, psi(n) and
    their ratio as floats: correctly rounded where the value is exact or
    refinable, the midpoint of a fixed interval (an interval beta's)."""
    cap = psi.max_index()
    if cap is not None:
        horizon = min(horizon, cap)
    rec = HitRecord(str(x), system.spec, psi.describe(), horizon)
    for n, err in enumerate(scaled_errors(x, system, horizon), start=1):
        pv = psi.value(n)
        if compare(err, pv) < 0:
            ferr, fpv = float(err), float(pv)
            rec.hits.append({
                "n": n,
                "scaled_error": ferr,
                "psi": fpv,
                "ratio": (ferr / fpv) if fpv else float("inf"),
            })
    return rec


@dataclass
class EvidenceReport:
    """Finite-horizon evidence for exact-order approximation.

    Consistency at a constant c means: at least one hit of psi and no hit
    of c*psi up to the horizon.  This is evidence only; membership is an
    infinite condition that no finite run can certify.
    """

    x_text: str
    beta_spec: str
    psi_text: str
    horizon: int
    c_values: list[float]
    hits: list[int]
    violations: dict[float, list[int]]

    def consistent(self, c: float) -> bool:
        return bool(self.hits) and not self.violations[c]

    def to_json(self) -> str:
        return json.dumps({
            "x": self.x_text, "beta": self.beta_spec, "psi": self.psi_text,
            "horizon": self.horizon,
            "finite_horizon_only": True,
            "hits": self.hits,
            "violations": {str(c): v for c, v in self.violations.items()},
            "consistent": {str(c): self.consistent(c) for c in self.c_values},
        }, sort_keys=True)


DEFAULT_C_GRID = (Fraction(9, 10), Fraction(99, 100))


def exactness_evidence(x: Real, system: BetaSystem, psi: PsiFunction,
                       c_values: Sequence = DEFAULT_C_GRID,
                       horizon: int = 64) -> EvidenceReport:
    """Partition n <= horizon into hits of psi and violations of c*psi.

    c*psi(n) is compared only where psi(n) is hit: c lies in (0, 1) and
    psi(n) > 0, so T^n x >= psi(n) implies T^n x > c*psi(n), and every
    violation is a hit."""
    cs = [Fraction(c) for c in c_values]
    if any(not (0 < c < 1) for c in cs):
        raise PreconditionViolated("constants must lie in (0, 1)")
    if len({float(c) for c in cs}) < len(cs):
        # the report is keyed by float(c): equal keys would merge violations
        raise PreconditionViolated("constants must differ as floats")
    cap = psi.max_index()
    if cap is not None:
        horizon = min(horizon, cap)
    hits: list[int] = []
    violations: dict[float, list[int]] = {float(c): [] for c in cs}
    for n, err in enumerate(scaled_errors(x, system, horizon), start=1):
        pv = psi.value(n)
        if compare(err, pv) < 0:
            hits.append(n)
            for c in cs:
                if compare(err, pv.scaled(c)) < 0:
                    violations[float(c)].append(n)
    return EvidenceReport(str(x), system.spec, psi.describe(), horizon,
                          [float(c) for c in cs], hits, violations)
