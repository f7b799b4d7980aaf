"""The benchmark's workloads: fixed lists of betadim operations with oracles.

Each workload is a list of ``Op``s run in order by one caller.  An op
names its kind (which fixes its latency limit), the betadim layer of the
function it calls, an untimed ``prepare`` step, the timed ``call`` and a
``check`` against ``oracle``.  ``replay`` ops are run only by the traced
run: they call one layer at a time on the workload's own inputs, and
probe the layers the workload never calls, so that every per-layer metric
is measured on every workload.  Why each workload exists is in
WORKLOADS.md.
"""

from __future__ import annotations

import json
import math
import random
import weakref
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle
from betadim.approximation import detect_hits, exactness_evidence, psi_exponential
from betadim.cylinders import (find_full_in_interval, full_census, iter_cylinders,
                               length_by_partition, successor)
from betadim.exact import CertifiedReal, QuadNum, ln_interval
from betadim.numerics import eval_word, expand, make_beta, orbit
from betadim.words import ParryAutomaton, count_admissible, words_with_states

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Latency limit of each workload op kind, in seconds.  An op that raises
#: or fails its oracle is charged this instead of its measured time, so a
#: fixed failure never reads as a slowdown and a new one always does.  The
#: (1+sqrt(13))/2 sweep and find_full ops, which fail today, were timed
#: with the mixed-radicand check bypassed, on the generic QuadNum path;
#: WORKLOADS.md gives the figures each limit is set above.
LIMIT_S = {
    "full_census": 5.0,
    "count_admissible": 2.0,
    "expand_exact": 2.0,
    "expand_lazy": 5.0,
    "expand_interval": 5.0,
    "evidence": 5.0,
    "detect_hits": 5.0,
    "iter_cylinders": 4.0,
    "find_full": 0.05,
}

NAMES = list(oracle.BETAS)  # 2, golden, 9/5, 5/2, s13
SPEC = {name: spec for name, (spec, _, _) in oracle.BETAS.items()}
DEC_SPEC = "dec:1.8@200"
C_GRID = (Fraction(9, 10), Fraction(99, 100))

#: Workload sizes; ``tiny`` is for the smoke tests.
SIZES = {
    "full": {
        "census": {"2": 18, "golden": 24, "9/5": 21, "5/2": 15, "s13": 16},
        "count_order": 1000,
        "sweep": {"2": 14, "golden": 20, "9/5": 18, "5/2": 11, "s13": 10},
        "find_order": 150, "intervals": 20, "samples": 8,
        "horizons": {"third": 1000, "quad5": 500, "quad13": 500, "lazy": 60, "dec": 200},
        "probe_order": 10, "probe_horizon": 30, "psi_terms": 200,
    },
    "tiny": {
        "census": {"2": 6, "golden": 8, "9/5": 7, "5/2": 5, "s13": 6},
        "count_order": 40,
        "sweep": {"2": 5, "golden": 6, "9/5": 6, "5/2": 4, "s13": 5},
        "find_order": 30, "intervals": 2, "samples": 2,
        "horizons": {"third": 40, "quad5": 30, "quad13": 30, "lazy": 8, "dec": 20},
        "probe_order": 5, "probe_horizon": 6, "psi_terms": 10,
    },
}


def _none() -> None:
    return None


def _one(_out) -> int:
    return 1


def _hit_count(report) -> int:
    return len(report.hits)


@dataclass
class Op:
    kind: str
    layer: str
    label: str
    call: Callable[[Any], Any]
    prepare: Callable[[], Any] = _none
    check: Callable[[Any], str | None] | None = None
    units: Callable[[Any], int] = _one


@dataclass
class Workload:
    name: str
    specs: list[str]
    ops: list[Op] = field(default_factory=list)
    replay: list[Op] = field(default_factory=list)
    intervals: dict = field(default_factory=dict)
    built: list[weakref.ref] = field(default_factory=list)

    def make(self, spec: str):
        """make_beta, remembering the system for ``systems_alive``."""
        system = make_beta(spec)
        self.built.append(weakref.ref(system))
        return system


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def expected_for(sizes: dict) -> dict:
    """Expected values for ``sizes``: stored for the full sizes, computed
    by the oracle for any other."""
    if sizes is SIZES["full"]:
        return load_expected()
    return oracle.expected_values(sizes["census"], sizes["sweep"], sizes["count_order"])


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lazy_sqrt2_minus_1() -> CertifiedReal:
    """sqrt(2) - 1 known only through refinable rational enclosures."""
    def refiner(bits: int):
        s = math.isqrt(2 << (2 * bits))
        return Fraction(s, 1 << bits) - 1, Fraction(s + 1, 1 << bits) - 1
    return CertifiedReal.from_refiner(refiner)


def _decimal_of(value) -> Callable[[], Decimal]:
    """Decimal evaluation of an orbit point or a beta, for the oracle."""
    if value == "lazy":
        return lambda: Decimal(2).sqrt() - 1
    if isinstance(value, QuadNum):
        a, b, d = value.a, value.b, value.d
        return lambda: (Decimal(a.numerator) / a.denominator
                        + Decimal(b.numerator) / b.denominator * Decimal(d).sqrt())
    f = Fraction(value)
    return lambda: Decimal(f.numerator) / f.denominator


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def _census_ops(w: Workload, systems: dict, sizes: dict, exp: dict) -> None:
    for name in NAMES:
        system, n = systems[name], sizes["census"][name]
        want = exp["census"][name]

        def check_census(rec, name=name, n=n, want=want):
            got = (rec.count_admissible, rec.count_full, rec.max_gap)
            if name == "2" and got != (2 ** n, 2 ** n, 0):
                return f"base 2 census {got} is not (2^n, 2^n, 0)"
            if name == "golden" and rec.count_admissible != _fib(n + 2):
                return f"golden count {rec.count_admissible} is not F(n+2)"
            if rec.max_gap > n:
                return f"non-full run {rec.max_gap} exceeds order {n}"
            return _mismatch("census", got,
                             (want["count"], want["count_full"], want["max_gap"]))

        w.ops.append(Op("full_census", "cylinders", f"full_census({n}, {name})",
                        lambda _, n=n, s=system: full_census(n, s), check=check_census))
        w.ops.append(Op("count_admissible", "words", f"count_admissible({n}, {name})",
                        lambda _, n=n, s=system: count_admissible(n, s),
                        check=lambda c, want=want: _mismatch("DP count", c, want["count"])))
    m = sizes["count_order"]
    for name in NAMES:
        want = int(exp["count_1000"][name])
        closed = {"2": 2 ** m, "golden": _fib(m + 2)}.get(name, want)

        def check_count(c, want=want, closed=closed):
            return _mismatch("closed form", c, closed) or _mismatch("stored count", c, want)

        w.ops.append(Op("count_admissible", "words", f"count_admissible({m}, {name})",
                        lambda _, m=m, s=systems[name]: count_admissible(m, s),
                        check=check_count))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

#: (label, beta spec, point, psi exponent alpha, approximation call)
POINTS = [
    ("third", SPEC["9/5"], Fraction(1, 3), Fraction(3, 2), "evidence"),
    ("quad5", SPEC["golden"], QuadNum(Fraction(1, 3), Fraction(1, 7), 5), Fraction(1, 2), "detect_hits"),
    ("quad13", SPEC["s13"], QuadNum(Fraction(1, 5), Fraction(1, 9), 13), Fraction(1, 2), "evidence"),
    ("lazy", SPEC["golden"], "lazy", Fraction(1, 2), "detect_hits"),
    ("dec", DEC_SPEC, Fraction(1, 3), Fraction(3, 2), "evidence"),
]

_BETA_DECIMAL = {
    SPEC["9/5"]: _decimal_of(Fraction(9, 5)),
    SPEC["golden"]: lambda: (1 + Decimal(5).sqrt()) / 2,
    SPEC["s13"]: lambda: (1 + Decimal(13).sqrt()) / 2,
    # the interval beta is checked against its exact centre 9/5
    DEC_SPEC: _decimal_of(Fraction(9, 5)),
}


def _point_maker(point) -> Callable[[], Any]:
    return _lazy_sqrt2_minus_1 if point == "lazy" else (lambda: point)


def _orbit_ops(w: Workload, systems: dict, sizes: dict) -> None:
    for label, spec, point, alpha, approx in POINTS:
        system, h = systems[spec], sizes["horizons"][label]
        psi = psi_exponential(system, alpha)
        ref: dict = {}

        def reference(spec=spec, point=point, h=h, alpha=alpha, ref=ref):
            if not ref:
                ref.update(oracle.decimal_orbit(_decimal_of(point), _BETA_DECIMAL[spec],
                                                h, alpha, C_GRID))
            return ref

        kind = {"lazy": "expand_lazy", "dec": "expand_interval"}.get(label, "expand_exact")
        w.ops.append(Op(kind, "numerics", f"expand({label}, {h})",
                        lambda x, s=system, h=h: expand(x, s, h),
                        prepare=_point_maker(point),
                        check=lambda digits, r=reference: _mismatch(
                            "digits", list(digits), r()["digits"]),
                        units=len))

        if approx == "evidence":
            def call(x, s=system, p=psi, h=h):
                return exactness_evidence(x, s, p, C_GRID, horizon=h)

            def check(rep, r=reference):
                want = r()
                return (_mismatch("hits", rep.hits, want["hits"])
                        or _mismatch("violations", rep.violations,
                                     {float(c): v for c, v in want["violations"].items()}))

        else:
            def call(x, s=system, p=psi, h=h):
                return detect_hits(x, s, p, h)

            def check(rec, r=reference):
                return _mismatch("hits", rec.hit_indices(), r()["hits"])

        w.ops.append(Op(approx, "approximation", f"{approx}({label}, {h})", call,
                        prepare=_point_maker(point), check=check, units=_hit_count))


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------


def _cylinder_ops(w: Workload, systems: dict, sizes: dict, exp: dict,
                  rng: random.Random) -> None:
    for name in NAMES:
        system, n = systems[name], sizes["sweep"][name]
        _, d, beta = oracle.BETAS[name]
        want = exp["sweep"][name]
        dstar, period = oracle.quasi_greedy(name, max(n, sizes["find_order"]) + 1)
        keep = set()
        for i in rng.sample(range(want["count"] - 1), sizes["samples"]):
            keep.update((i, i + 1))

        def sweep(_, n=n, s=system, keep=keep):
            """The sweep as a stream: counts, the exact sum of the lengths
            (numerators summed per denominator, for a + b*sqrt(d) apart)
            and the sampled cylinders are all that is kept."""
            count = full = 0
            a_sums: dict = {}
            b_sums: dict = {}
            kept = {}
            for c in iter_cylinders(n, s):
                v = c.length
                if isinstance(v, QuadNum):
                    a_sums[v.a.denominator] = a_sums.get(v.a.denominator, 0) + v.a.numerator
                    b_sums[v.b.denominator] = b_sums.get(v.b.denominator, 0) + v.b.numerator
                else:
                    a_sums[v.denominator] = a_sums.get(v.denominator, 0) + v.numerator
                full += c.is_full
                if count in keep:
                    kept[count] = c
                count += 1
            total = tuple(sum(Fraction(p, q) for q, p in sums.items())
                          for sums in (a_sums, b_sums))
            return count, full, total, kept

        def check_sweep(out, n=n, d=d, beta=beta, want=want, dstar=dstar,
                        period=period):
            count, full, total, kept = out
            bad = (_mismatch("cylinders", count, want["count"])
                   or _mismatch("full cylinders", full, want["count_full"]))
            if bad:
                return bad
            if total != (1, 0):
                return f"lengths sum to {total}, not 1"
            pm = oracle.power(beta, -n, d)
            for i in sorted(kept):
                c = kept[i]
                if i + 1 not in kept:
                    continue
                length = oracle.from_betadim(c.length)
                left = oracle.word_value(c.word, beta, d)
                if not oracle.admissible(c.word, dstar):
                    return f"{c.word} is not admissible"
                if oracle.from_betadim(c.left) != left:
                    return f"left endpoint of {c.word} is wrong"
                if oracle.sub(oracle.from_betadim(kept[i + 1].left), left) != length:
                    return f"partition and follower lengths of {c.word} differ"
                if c.is_full != oracle.full(c.word, dstar, period) or c.is_full != (length == pm):
                    return f"fullness of {c.word} is wrong"
            return None

        w.ops.append(Op("iter_cylinders", "cylinders", f"iter_cylinders({n}, {name})",
                        sweep, check=check_sweep, units=lambda out: out[0]))

    n = sizes["find_order"]
    for name in NAMES:
        system = systems[name]
        _, d, beta = oracle.BETAS[name]
        dstar, period = oracle.quasi_greedy(name, n + 1)
        pm = oracle.power(beta, -n, d)
        for _ in range(sizes["intervals"]):
            lo = Fraction(rng.randrange(10 ** 6), 10 ** 6)
            hi = lo + min(Fraction(rng.randrange(1, 10 ** 4), 10 ** 6), 1 - lo)
            w.intervals.setdefault(name, []).append((lo, hi))
            verdicts: dict = {}

            def check_find(word, lo=lo, hi=hi, s=system, d=d, beta=beta, dstar=dstar,
                           period=period, pm=pm, verdicts=verdicts):
                if word not in verdicts:
                    left = oracle.word_value(word, beta, d)
                    verdicts[word] = (
                        None if oracle.admissible(word, dstar) else "not admissible"
                    ) or (
                        None if oracle.full(word, dstar, period) else "not full"
                    ) or (
                        None if length_by_partition(word, s) == s.pow(-len(word))
                        else "partition-route length is not beta^-n"
                    ) or (
                        None if oracle.sign(oracle.sub(left, oracle.q(lo)), d) >= 0
                        and oracle.sign(oracle.sub(oracle.add(left, pm), oracle.q(hi)), d) <= 0
                        else f"cylinder of {word} is not inside ({lo}, {hi})")
                return verdicts[word]

            w.ops.append(Op("find_full", "cylinders", f"find_full({name}, {lo}, {hi})",
                            lambda _, lo=lo, hi=hi, s=system: find_full_in_interval(lo, hi, n, s),
                            check=check_find))


# ---------------------------------------------------------------------------
# traced replay: the same inputs, one layer at a time
# ---------------------------------------------------------------------------


def _words_at(system, n: int) -> list:
    return list(words_with_states(system, n))


def _orbit_values(system, point, h: int) -> list:
    return [t for _, t in orbit(_point_maker(point)(), system, h)]


def _replay_ops(w: Workload, systems: dict, sizes: dict) -> None:
    """Layer-by-layer calls on this workload's inputs, plus small probes of
    the calls it never makes (see the metric table in WORKLOADS.md)."""
    names = [name for name in NAMES if name in systems]
    quadratic = [name for name in names if oracle.BETAS[name][1]]
    po, ph = sizes["probe_order"], sizes["probe_horizon"]
    census = w.name == "census"
    cyl = w.name == "cylinders"
    # order of each beta's words: the workload's own order where it has one
    word_order = {name: (sizes["census"] if census else sizes["sweep"] if cyl else {})
                  .get(name, po) for name in names}
    eval_order = {name: (sizes["sweep"][name] if cyl else po) for name in names}
    r = w.replay

    r.append(Op("make_beta", "numerics", "make_beta(all)",
                lambda _: [w.make(spec) for spec in w.specs]))
    for name in names:
        s = systems[name]
        r.append(Op("automaton_build", "words", f"automaton({name})",
                    lambda _, s=s, n=word_order[name]: ParryAutomaton(s).transition_table(n)))
        r.append(Op("enumerate_words", "words", f"words_with_states({name})",
                    lambda _, s=s, n=word_order[name]: sum(1 for _ in words_with_states(s, n)),
                    units=int))
        if not census:
            r.append(Op("count_admissible", "words", f"count_admissible({name})",
                        lambda _, s=s: count_admissible(po, s)))
        r.append(Op("eval_word", "numerics", f"eval_word({name})",
                    lambda words, s=s: [eval_word(wd, s) for wd, _ in words],
                    prepare=lambda s=s, n=eval_order[name]: _words_at(s, n), units=len))
        r.append(Op("ln_interval", "exact", f"ln_interval({name})",
                    lambda b: [ln_interval(b, 256) for _ in range(5)],
                    prepare=lambda s=s: s.beta_exact, units=len))
        r.append(Op("psi_value", "approximation", f"psi.value({name})",
                    lambda p, k=sizes["psi_terms"]: [p.value(i).enclosure(128)
                                                      for i in range(1, k + 1)],
                    prepare=lambda s=s: psi_exponential(s, Fraction(1, 2)), units=len))
        if cyl:
            r.append(Op("successor", "cylinders", f"successor({name})",
                        lambda words, s=s: [successor(wd, s) for wd in words],
                        prepare=lambda s=s, iv=w.intervals[name]: [
                            expand(lo, s, sizes["find_order"]) for lo, _ in iv],
                        units=len))
        else:
            r.append(Op("successor", "cylinders", f"successor({name})",
                        lambda words, s=s: [successor(wd, s) for wd, _ in words],
                        prepare=lambda s=s: _words_at(s, po)[:200], units=len))
            r.append(Op("iter_cylinders", "cylinders", f"iter_cylinders({name})",
                        lambda _, s=s: sum(1 for _ in iter_cylinders(po, s)), units=int))
            r.append(Op("find_full", "cylinders", f"find_full({name})",
                        lambda _, s=s: find_full_in_interval(Fraction(1, 3), Fraction(1, 2),
                                                             3 * po, s)))
        if not census:
            r.append(Op("full_census", "cylinders", f"full_census({name})",
                        lambda _, s=s: full_census(po, s)))
        if w.name != "orbits":
            psi = psi_exponential(s, Fraction(1, 2))
            r.append(Op("expand_exact", "numerics", f"expand({name})",
                        lambda _, s=s: expand(Fraction(1, 3), s, 4 * ph), units=len))
            r.append(Op("detect_hits", "approximation", f"detect_hits({name})",
                        lambda _, s=s, p=psi: detect_hits(Fraction(1, 3), s, p, ph),
                        units=_hit_count))
            r.append(Op("evidence", "approximation", f"evidence({name})",
                        lambda _, s=s, p=psi: exactness_evidence(Fraction(1, 3), s, p,
                                                                 C_GRID, horizon=ph),
                        units=_hit_count))

    # exact-layer work on the workload's own values
    for name in quadratic:
        s = systems[name]
        if cyl or census:
            n = eval_order[name]
            r.append(Op("quad_mul", "exact", f"pow(-n)*tail_sup({name})",
                        lambda v: [v[0] * t for t in v[1]],
                        prepare=lambda s=s, n=n: (s.pow(-n), [s.tail_sup(st)
                                                              for _, st in _words_at(s, n)]),
                        units=len))
            r.append(Op("quad_floor", "exact", f"floor(beta*T^n(1/3), {name})",
                        lambda ys: [math.floor(y) for y in ys],
                        prepare=lambda s=s: [s.beta_exact * t for t in
                                             _orbit_values(s, Fraction(1, 3), 4 * ph)],
                        units=len))
    quad_points = [(systems[spec], point, sizes["horizons"][label])
                   for label, spec, point, _, _ in POINTS if isinstance(point, QuadNum)]
    if w.name == "orbits":
        for s, point, h in quad_points:
            r.append(Op("quad_mul", "exact", f"beta*T^n({point})",
                        lambda v: [v[0] * t for t in v[1]],
                        prepare=lambda s=s, p=point, h=h: (s.beta_exact, _orbit_values(s, p, h)),
                        units=len))
            r.append(Op("quad_floor", "exact", f"floor(beta*T^n({point}))",
                        lambda ys: [math.floor(y) for y in ys],
                        prepare=lambda s=s, p=point, h=h: [s.beta_exact * t for t in
                                                           _orbit_values(s, p, h)],
                        units=len))

    # certified values: the lazy and interval orbits (the workload's own on
    # orbits, shorter probes elsewhere)
    golden = systems.get(SPEC["golden"]) or w.make(SPEC["golden"])
    dec = systems.get(DEC_SPEC) or w.make(DEC_SPEC)
    certified = []
    for label, s, point, alpha in (("lazy", golden, "lazy", Fraction(1, 2)),
                                   ("dec", dec, Fraction(1, 3), Fraction(3, 2))):
        h = sizes["horizons"][label] if w.name == "orbits" else ph
        certified.append((label, s, point, alpha, h))
        if w.name != "orbits":
            kind = "expand_lazy" if label == "lazy" else "expand_interval"
            r.append(Op(kind, "numerics", f"expand({label}, {h})",
                        lambda x, s=s, h=h: expand(x, s, h),
                        prepare=_point_maker(point), units=len))
    for label, s, point, alpha, h in certified:
        psi = psi_exponential(s, alpha)
        r.append(Op("certified_floor", "exact", f"floor(beta*T^n({label}))",
                    lambda ys: [y.floor() for y in ys],
                    prepare=lambda s=s, p=point, h=h: [
                        s.beta * (t if isinstance(t, CertifiedReal) else CertifiedReal.from_exact(t))
                        for t in _orbit_values(s, p, h)],
                    units=len))
        r.append(Op("certified_cmp", "exact", f"cmp(T^n({label}), psi(n))",
                    lambda pairs: [t.cmp(v) for t, v in pairs],
                    prepare=lambda s=s, p=point, h=h, psi=psi: [
                        (t if isinstance(t, CertifiedReal) else CertifiedReal.from_exact(t),
                         psi.value(n)) for n, t in enumerate(_orbit_values(s, p, h), 1)],
                    units=len))


# ---------------------------------------------------------------------------


WORKLOADS = ("census", "orbits", "cylinders")


def build(name: str, seed: int, tiny: bool = False, expected: dict | None = None) -> Workload:
    """The workload's systems, timed ops and traced replay.  Only the
    cylinders intervals and sampled words depend on ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    sizes = SIZES["tiny" if tiny else "full"]
    exp = expected if expected is not None else expected_for(sizes)
    specs = ([spec for _, spec, _, _, _ in POINTS] if name == "orbits"
             else [SPEC[n] for n in NAMES])
    specs = list(dict.fromkeys(specs))
    w = Workload(name, specs)
    by_spec = {spec: w.make(spec) for spec in specs}
    by_name = {n: by_spec[SPEC[n]] for n in NAMES if SPEC[n] in by_spec}
    if name == "census":
        _census_ops(w, by_name, sizes, exp)
    elif name == "orbits":
        _orbit_ops(w, by_spec, sizes)
    else:
        _cylinder_ops(w, by_name, sizes, exp, random.Random(seed))
    _replay_ops(w, {**by_name, **by_spec}, sizes)
    return w
