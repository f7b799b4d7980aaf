"""Benchmark of betadim: census, orbits and cylinders workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 38 --trace 0

Runs one workload in this process, one operation at a time, repeating its
fixed operation list for ``--seconds``; ``all`` runs each workload in a
process of its own, one after another.  Every output is checked against
the independent oracles of ``oracle.py``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced passes
with traced ones that also replay the inputs one layer at a time, and
reports the per-layer metrics.  Every metric is printed by name and unit,
provenance and the full record go to ``perfbench/results/``, and the last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  WORKLOADS.md explains the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fresh processes timed for ``setup_s`` (after one untimed warm-up)
SETUP_REPS = 21

#: Time of ``calibration_s`` at the reference speed.  A shared VM's speed
#: drifts by a quarter and more over tens of seconds, so every time in the
#: end-to-end metrics is scaled by (CAL_REF_S / calibration time measured
#: right before and after it) ** SCALE_EXPONENT: seconds at the reference
#: speed.
CAL_REF_S = 0.015
#: Power to which the speed ratio is raised.  In a slow period betadim's
#: work slows by more than the kernel does; over 90 runs of 38 s, taken in
#: three spells on a 2-core VM, 1.25 left the least run-to-run spread of
#: ``solve_s`` (WORKLOADS.md).
SCALE_EXPONENT = 1.25
#: longest stretch of operations between two calibrations, in seconds
SEGMENT_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "ok_share": "share", "peak_rss_mb": "MB"}
LAYERS = ("exact", "numerics", "words", "cylinders", "approximation")

#: per-layer metric -> (unit, op kind, how it is formed from that kind's spans)
DERIVED = {
    "words.automaton_build_ms": ("ms", "automaton_build", "total_ms"),
    "words.count_admissible_ms": ("ms", "count_admissible", "total_ms"),
    "words.enum_us_per_word": ("us", "enumerate_words", "us_per_unit"),
    "words.words_enumerated": ("count", "enumerate_words", "units"),
    "cylinders.census_s": ("s", "full_census", "total_s"),
    "cylinders.sweep_us_per_cylinder": ("us", "iter_cylinders", "us_per_unit"),
    "cylinders.cylinders_emitted": ("count", "iter_cylinders", "units"),
    "cylinders.find_full_ms": ("ms", "find_full", "mean_ms"),
    "cylinders.successor_us": ("us", "successor", "us_per_unit"),
    "numerics.make_beta_ms": ("ms", "make_beta", "mean_ms"),
    "numerics.expand_exact_us_per_digit": ("us", "expand_exact", "us_per_unit"),
    "numerics.expand_lazy_s": ("s", "expand_lazy", "total_s"),
    "numerics.expand_interval_s": ("s", "expand_interval", "total_s"),
    "numerics.eval_word_us": ("us", "eval_word", "us_per_unit"),
    "exact.quad_mul_us": ("us", "quad_mul", "us_per_unit"),
    "exact.quad_floor_us": ("us", "quad_floor", "us_per_unit"),
    "exact.certified_floor_us": ("us", "certified_floor", "us_per_unit"),
    "exact.certified_cmp_us": ("us", "certified_cmp", "us_per_unit"),
    "exact.ln_interval_us": ("us", "ln_interval", "us_per_unit"),
    "approximation.psi_value_us": ("us", "psi_value", "us_per_unit"),
    "approximation.detect_hits_s": ("s", "detect_hits", "total_s"),
    "approximation.evidence_s": ("s", "evidence", "total_s"),
}

PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("self_s", "s"), ("calls", "count"), ("failed", "count"))},
    **{name: unit for name, (unit, _, _) in DERIVED.items()},
    "approximation.hits": "count",
    "numerics.systems_alive": "count",
    "trace.overhead_share": "ratio",
}

#: argv: src directory, this directory, specs.  Prints the set-up time and
#: then two runs of the calibration kernel in the same process.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import betadim.approximation, betadim.cylinders, betadim.exact, betadim.numerics, betadim.words
for spec in sys.argv[3:]:
    betadim.numerics.make_beta(spec)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import calibration_s
print(repr(elapsed), repr(calibration_s()), repr(calibration_s()))
"""


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    error: str | None  # raised or disagreed with the oracle
    mismatch: bool = False


def run_op(op, tracer=None) -> Outcome:
    """One call, timed from outside; errors are recorded, never retried."""
    x = op.prepare()
    sp = None
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.call(x)
        else:
            with tracer.span(op.layer, op.kind) as sp:
                out = op.call(x)
    except Exception as exc:  # a failed operation; the run goes on
        return Outcome(perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    problem = op.check(out) if op.check is not None else None
    if sp is not None:
        sp.units = op.units(out)
        sp.failed = problem is not None
    return Outcome(seconds, problem, mismatch=problem is not None)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0

    def add(self, op, outcome: Outcome, errors: dict) -> None:
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            self.mismatched += outcome.mismatch
            errors.setdefault(op.label, [outcome.error, 0])[1] += 1


def run_pass(ops, tally: Tally, errors: dict, tracer=None) -> list[Outcome]:
    """Every op once, in order, counted in ``tally``."""
    outcomes = [run_op(op, tracer) for op in ops]
    for op, outcome in zip(ops, outcomes):
        tally.add(op, outcome, errors)
    return outcomes


def run_calibrated_pass(ops, tally: Tally, errors: dict) -> tuple[list[Outcome], list[float]]:
    """``run_pass`` plus each op's speed scale, from the calibrations that
    bracket every stretch of ops lasting SEGMENT_S or more."""
    outcomes, scales = [], []
    before, start = calibration_s(), perf_counter()
    for i, op in enumerate(ops):
        outcome = run_op(op)
        tally.add(op, outcome, errors)
        outcomes.append(outcome)
        if perf_counter() - start >= SEGMENT_S or i == len(ops) - 1:
            after = calibration_s()
            scales += [speed_scale([before, after])] * (len(outcomes) - len(scales))
            before, start = after, perf_counter()
    return outcomes, scales


def charged(ops, outcomes, limits: dict, scales=None) -> list[float]:
    """Latency of each op times its scale; a failed op is charged the limit
    of its kind instead."""
    scales = scales or [1.0] * len(ops)
    return [limits[op.kind] if o.error is not None else o.seconds * scale
            for op, o, scale in zip(ops, outcomes, scales)]


def calibration_s() -> float:
    """Time of a fixed pure-Python kernel (exact rational orbit steps and
    an integer loop): the yardstick for the machine's speed right now."""
    t0 = perf_counter()
    x, beta = Fraction(1, 3), Fraction(9, 5)
    for _ in range(300):
        x *= beta
        x -= x.numerator // x.denominator
    n = 0
    for i in range(150_000):
        n += i * i % 7
    return perf_counter() - t0


def speed_scale(calibrations: list[float]) -> float:
    return (CAL_REF_S / statistics.fmean(calibrations)) ** SCALE_EXPONENT


def measure_setup(specs: list[str], reps: int) -> list[tuple[float, float]]:
    """(seconds, speed scale) to import betadim and make_beta every spec,
    each in a fresh process.  The scale comes from the kernel run in that
    same process right after its set-up (this process may be on the other
    core), and is the plain ratio: set-up, mostly imports, does not slow by
    more than the kernel in a slow period."""
    samples = []
    for i in range(reps + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE),
                               *specs], capture_output=True, text=True, timeout=120, check=True)
        elapsed, *kernel = (float(v) for v in done.stdout.split())
        if i:
            samples.append((elapsed, CAL_REF_S / statistics.fmean(kernel)))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(tracer) -> dict[str, float]:
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
        m[f"{layer}.failed"] = 0
    by_kind: dict[str, list] = {}
    for sp in tracer.spans:
        m[f"{sp.layer}.self_s"] += sp.seconds
        m[f"{sp.layer}.calls"] += 1
        m[f"{sp.layer}.failed"] += sp.failed
        if not sp.failed:
            acc = by_kind.setdefault(sp.kind, [0.0, 0, 0])
            acc[0] += sp.seconds
            acc[1] += sp.units
            acc[2] += 1
    for name, (_, kind, form) in DERIVED.items():
        secs, units, calls = by_kind.get(kind, (0.0, 0, 0))
        m[name] = {
            "total_s": secs,
            "total_ms": secs * 1e3,
            "mean_ms": secs * 1e3 / max(calls, 1),
            "us_per_unit": secs * 1e6 / max(units, 1),
            "units": units,
        }[form]
    m["approximation.hits"] = (by_kind.get("detect_hits", (0, 0, 0))[1]
                               + by_kind.get("evidence", (0, 0, 0))[1])
    return m


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def _no_time_for_another(began: float, deadline: float) -> bool:
    """Whether a pass as long as the last one would end past the deadline."""
    now = perf_counter()
    return now + (now - began) > deadline


def run_untraced(workloads, name: str, seed: int, seconds: float, tiny: bool = False,
                 expected: dict | None = None, setup_reps: int = SETUP_REPS) -> dict:
    w = workloads.build(name, seed, tiny=tiny, expected=expected)
    setup = measure_setup(w.specs, setup_reps)
    tally, errors, passes, solve, unscaled = Tally(), {}, [], [], []
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        began = perf_counter()
        outcomes, scales = run_calibrated_pass(w.ops, tally, errors)
        passes.append([(o.seconds, scale) for o, scale in zip(outcomes, scales)])
        solve.append(sum(charged(w.ops, outcomes, workloads.LIMIT_S, scales)))
        unscaled.append(sum(charged(w.ops, outcomes, workloads.LIMIT_S)))
        if _no_time_for_another(began, deadline):
            break
    metrics = {
        "setup_s": statistics.median(t * scale for t, scale in setup),
        "solve_s": statistics.median(solve),
        "ok_share": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    unscaled_medians = {"setup_s": statistics.median(t for t, _ in setup),
                        "solve_s": statistics.median(unscaled)}
    return {"tally": tally, "errors": errors, "metrics": metrics,
            "unscaled": unscaled_medians,
            "samples": {"setup_s_and_scale": setup, "op_seconds_and_scale": passes,
                        "solve_s": solve}}


def run_traced(workloads, name: str, seed: int, seconds: float, tiny: bool = False,
               expected: dict | None = None) -> dict:
    w = workloads.build(name, seed, tiny=tiny, expected=expected)
    tally, errors = Tally(), {}
    plain, traced, per_pass = [], [], []
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        gc.collect()
        plain.append(sum(o.seconds for o in run_pass(w.ops, tally, errors)))
        gc.collect()
        tracer = Tracer()
        traced.append(sum(o.seconds for o in run_pass(w.ops, tally, errors, tracer)))
        for op in w.replay:
            run_op(op, tracer)
        per_pass.append(layer_metrics(tracer))
        if _no_time_for_another(began, deadline):
            break
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "count" and key in metrics:
            metrics[key] = round(metrics[key])
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain)
    built = w.built
    del w, tracer, op  # the ops' closures hold the systems
    gc.collect()
    metrics["numerics.systems_alive"] = sum(ref() is not None for ref in built)
    return {"tally": tally, "errors": errors, "metrics": metrics,
            "samples": {"plain_s": plain, "traced_s": traced}}


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "betadim").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args, limits: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_betadim_sha256": src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
        "latency_limits_s": limits,
    }


def report(name: str, result: dict, trace: bool) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    tally = result["tally"]
    for key in units:
        print(f"  {name}.{key} = {result['metrics'][key]:.6g} {units[key]}")
    for key, value in result.get("unscaled", {}).items():
        print(f"  {name}.{key} before speed scaling = {value:.6g} s")
    print(f"  {name}.failed_share = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    groups: dict = {}
    for label, (error, times) in sorted(result["errors"].items()):
        groups.setdefault((error, times), []).append(label)
    for (error, times), labels in groups.items():
        print(f"  failed {times} times each: {', '.join(labels)}: {error}")
    return {
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": result["metrics"][key], "unit": units[key]}
                    for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "orbits", "cylinders", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "betadim" / "numerics.py").is_file():
        print(f"perfbench: no betadim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    prov = provenance(args, workloads.LIMIT_S)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in prov.items()
                                  if k != "latency_limits_s"))
    run = run_traced if args.trace else run_untraced
    result = run(workloads, args.workload, args.seed, args.seconds)
    line = report(args.workload, result, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    record = {"provenance": prov, **line, "errors": result["errors"],
              "samples": result["samples"]}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0


def run_all(args, names) -> int:
    """Each workload in a process of its own, so that peak_rss_mb is its own."""
    lines = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        out = done.stdout.splitlines()
        print("\n".join(out[:-1]))
        if done.returncode or not out:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode or 1
        lines[name] = json.loads(out[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{n}.{k}": v for n, r in lines.items() for k, v in r["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
