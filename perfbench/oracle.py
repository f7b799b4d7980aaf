"""Reference answers for the benchmark, computed without betadim.

Only the standard library is used, and none of betadim's algorithms:

* exact arithmetic in Q(sqrt(d)) on pairs (a, b) of Fractions, with an
  exact floor by one ``isqrt``;
* the quasi-greedy expansion of 1 from that arithmetic;
* Parry's criterion checked suffix by suffix, and fullness from the
  suffixes of a word that are prefixes of the quasi-greedy expansion;
* the Renyi-Parry recursions for the number of admissible and of full
  words, and a census by explicit enumeration for the non-full runs;
* orbits in ``decimal`` arithmetic whose every floor and comparison is
  decided only outside an explicit error bound.

Run as a script to print the stored expected values (``expected.json``).
"""

from __future__ import annotations

import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

Q = tuple  # (a, b) meaning a + b*sqrt(d)

#: name -> (betadim spec, radicand d (0 for rationals), beta as (a, b))
BETAS = {
    "2": ("2", 0, (Fraction(2), Fraction(0))),
    "golden": ("golden", 5, (Fraction(1, 2), Fraction(1, 2))),
    "9/5": ("9/5", 0, (Fraction(9, 5), Fraction(0))),
    "5/2": ("5/2", 0, (Fraction(5, 2), Fraction(0))),
    "s13": ("quad:(1+1*sqrt(13))/2", 13, (Fraction(1, 2), Fraction(1, 2))),
}


class OracleUndecided(Exception):
    """The decimal oracle could not separate a value from a boundary."""


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(sqrt(d))
# ---------------------------------------------------------------------------


def q(a, b=0) -> Q:
    return Fraction(a), Fraction(b)


def add(x: Q, y: Q) -> Q:
    return x[0] + y[0], x[1] + y[1]


def sub(x: Q, y: Q) -> Q:
    return x[0] - y[0], x[1] - y[1]


def mul(x: Q, y: Q, d: int) -> Q:
    return x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0]


def inv(x: Q, d: int) -> Q:
    norm = x[0] * x[0] - x[1] * x[1] * d
    return x[0] / norm, -x[1] / norm


def power(x: Q, k: int, d: int) -> Q:
    if k < 0:
        x, k = inv(x, d), -k
    out = q(1)
    for _ in range(k):
        out = mul(out, x, d)
    return out


def floor(x: Q, d: int) -> int:
    """Exact floor of a + b*sqrt(d): floor((P + floor(B*sqrt(d))) / R)."""
    a, b = x
    if b == 0:
        return math.floor(a)
    r = a.denominator * b.denominator
    p, bb = a.numerator * b.denominator, b.numerator * a.denominator
    s = math.isqrt(bb * bb * d)  # d is not a square, so b*sqrt(d) is irrational
    return (p + (s if bb > 0 else -s - 1)) // r


def sign(x: Q, d: int) -> int:
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    if (a >= 0) == (b > 0):
        return 1 if b > 0 else -1
    return (1 if a > 0 else -1) if a * a > b * b * d else (1 if b > 0 else -1)


def from_betadim(v) -> Q:
    """(a, b) pair of a betadim exact value (int, Fraction or QuadNum)."""
    if isinstance(v, (int, Fraction)):
        return q(v)
    return Fraction(v.a), Fraction(v.b)


def word_value(word, beta: Q, d: int) -> Q:
    binv = inv(beta, d)
    acc = q(0)
    for digit in reversed(word):
        acc = mul(add(acc, q(digit)), binv, d)
    return acc


# ---------------------------------------------------------------------------
# Quasi-greedy expansion, admissibility and fullness
# ---------------------------------------------------------------------------


def quasi_greedy(name: str, n: int) -> tuple[list[int], int | None]:
    """First n quasi-greedy digits of 1 and the period when purely periodic."""
    _, d, beta = BETAS[name]
    digits: list[int] = []
    r = q(1)
    while len(digits) < n:
        y = mul(beta, r, d)
        k = floor(y, d)
        digits.append(k)
        r = sub(y, q(k))
        if r == q(0):
            block = digits[:-1] + [digits[-1] - 1]
            period = next(p for p in range(1, len(block) + 1)
                          if all(block[i] == block[i % p] for i in range(len(block))))
            return [block[i % period] for i in range(n)], period
    return digits, None


def admissible(word, dstar) -> bool:
    """Parry: every suffix is at most the quasi-greedy prefix of its length."""
    n = len(word)
    return all(list(word[k:]) <= dstar[:n - k] for k in range(n))


def full(word, dstar, period: int | None) -> bool:
    """Full iff every suffix equal to a quasi-greedy prefix has a length the
    quasi-greedy sequence is periodic with (only possible when purely
    periodic)."""
    n = len(word)
    for k in range(1, n + 1):
        if list(word[n - k:]) == dstar[:k] and (period is None or k % period):
            return False
    return True


def counts(name: str, n: int) -> tuple[int, int]:
    """(admissible words, full words) of length n by the Renyi-Parry
    recursions N(m) = sum_i d*_i N(m-i) + 1 and the same for full words,
    whose last term is 1 only when d*_1..d*_m is itself full."""
    dstar, period = quasi_greedy(name, n)
    cnt, cfull = [1], [1]
    for m in range(1, n + 1):
        cnt.append(sum(dstar[i - 1] * cnt[m - i] for i in range(1, m + 1)) + 1)
        cfull.append(sum(dstar[i - 1] * cfull[m - i] for i in range(1, m + 1))
                     + full(dstar[:m], dstar, period))
    return cnt[n], cfull[n]


def census_by_enumeration(name: str, n: int) -> tuple[int, int, int]:
    """(count, count_full, longest run of consecutive non-full words), by
    walking all admissible words in lexicographic order while tracking
    every suffix that matches a quasi-greedy prefix."""
    dstar, period = quasi_greedy(name, n + 1)
    count = count_full = gap = max_gap = 0
    stack = [(0, ())]  # (length, lengths of suffixes matching a prefix)
    while stack:
        length, matches = stack.pop()
        if length == n:
            count += 1
            if all(period is not None and k % period == 0 for k in matches):
                count_full += 1
                gap = 0
            else:
                gap += 1
                max_gap = max(max_gap, gap)
            continue
        top = min([dstar[0]] + [dstar[k] for k in matches])
        for digit in range(top, -1, -1):  # pushed in reverse: popped in order
            nxt = tuple(k + 1 for k in matches if dstar[k] == digit)
            if digit == dstar[0]:
                nxt += (1,)
            stack.append((length + 1, nxt))
    return count, count_full, max_gap


# ---------------------------------------------------------------------------
# Decimal orbits with an error bound
# ---------------------------------------------------------------------------


def decimal_orbit(x_of, beta_of, horizon: int, alpha: Fraction, cs) -> dict:
    """Digits, hits of psi(n) = beta**(-alpha*n) and violations of c*psi(n).

    ``x_of`` and ``beta_of`` give Decimals at the current context
    precision.  The precision is chosen well beyond beta**-horizon, and the
    accumulated error after n steps is bounded by (n+2) * beta**(n+1)
    ulps; any floor or comparison closer than that raises OracleUndecided.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        b_approx = beta_of()
        grow = float(b_approx.log10())
        ctx.prec = int(horizon * grow) + 60
        beta, x = beta_of(), x_of()
        ulp = Decimal(10) ** (-ctx.prec + 3)
        ln_beta = beta.ln()
        digits: list[int] = []
        hits: list[int] = []
        violations: dict[Fraction, list[int]] = {Fraction(c): [] for c in cs}
        t = x
        scale = beta
        for n in range(1, horizon + 1):
            tol = (n + 2) * scale * ulp
            y = beta * t
            k = int(y.to_integral_value(rounding="ROUND_FLOOR"))
            if y - k < tol or k + 1 - y < tol:
                raise OracleUndecided(f"floor at step {n}")
            digits.append(k)
            t = y - k
            psi = (-Decimal(alpha.numerator) / alpha.denominator * n * ln_beta).exp()
            for c, out in [(None, hits)] + list(violations.items()):
                bound = psi if c is None else psi * c.numerator / c.denominator
                if abs(t - bound) < tol:
                    raise OracleUndecided(f"comparison at step {n}")
                if t < bound:
                    out.append(n)
            scale *= beta
    return {"digits": digits, "hits": hits, "violations": violations}


def expected_values(census_orders: dict, sweep_orders: dict, count_order: int) -> dict:
    """Census, sweep and long-count expectations at the given orders."""
    out: dict = {"census": {}, "sweep": {}, "count_1000": {}}
    for name, n in census_orders.items():
        count, count_full, max_gap = census_by_enumeration(name, n)
        if (count, count_full) != counts(name, n):
            raise SystemExit(f"enumeration disagrees with recursion for {name}")
        out["census"][name] = {"order": n, "count": count,
                               "count_full": count_full, "max_gap": max_gap}
    for name, n in sweep_orders.items():
        count, count_full = counts(name, n)
        out["sweep"][name] = {"order": n, "count": count, "count_full": count_full}
    for name in BETAS:
        out["count_1000"][name] = str(counts(name, count_order)[0])
    return out


if __name__ == "__main__":
    # the full sizes of workloads.SIZES; expected.json holds this output
    json.dump(expected_values({"2": 18, "golden": 24, "9/5": 21, "5/2": 15, "s13": 16},
                              {"2": 14, "golden": 20, "9/5": 18, "5/2": 11, "s13": 10},
                              1000),
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
