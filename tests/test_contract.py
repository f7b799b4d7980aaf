"""The contract matrix: every spec family the grammar accepts against every
public orbit, counting and cylinder function, and ``eval_word``.

Each cell either checks a value or expects the error class the function's
docstring documents.  The cells where a non-golden quadratic base meets a
function that evaluates words (``CYLINDER_COLUMNS``) are strict expected
failures: ``word_evaluator`` compares beta with ``GOLDEN`` across fields
and raises ``ValueError("mixed radicands")`` (ROADMAP, Fix first).  Being
strict, they fail the day that defect is mended, and must then become
plain value cells.
"""

from fractions import Fraction

import pytest

from betadim.approximation import detect_hits, exactness_evidence, psi_exponential
from betadim.cylinders import (cylinder, find_full_in_interval, full_census, is_full,
                               iter_cylinders, length_by_partition, successor)
from betadim.errors import PrecisionExhausted
from betadim.exact import compare
from betadim.numerics import eval_word, expand, make_beta, orbit
from betadim.words import count_admissible, enumerate_admissible, is_admissible

X = Fraction(1, 3)
LO, HI = Fraction(1, 3), Fraction(1, 2)

FAMILIES = {
    "integer": "2",
    "rational": "9/5",
    "decimal-rational": "1.8",
    "golden": "golden",
    "pisot-13": "quad:(1+1*sqrt(13))/2",
    "pisot-2": "quad:(1+1*sqrt(2))/1",
    "pisot-7": "quad:(2+1*sqrt(7))/1",
    "non-integer-quadratic": "quad:(3+1*sqrt(2))/2",
    "square-radicand": "quad:(1+1*sqrt(4))/2",
    "interval": "dec:1.8@200",
}


def check_expand(b):
    w = expand(X, b, 20)
    assert len(w) == 20 and is_admissible(w, b)


def check_orbit(b):
    steps = list(orbit(X, b, 20))
    assert [d for d, _ in steps] == list(expand(X, b, 20))
    assert all(0 <= float(t) < 1 for _, t in steps)


def check_detect_hits(b):
    rec = detect_hits(X, b, psi_exponential(b, Fraction(1, 2)), 20)
    assert rec.horizon == 20 and set(rec.hit_indices()) <= set(range(1, 21))


def check_exactness_evidence(b):
    rep = exactness_evidence(X, b, psi_exponential(b, Fraction(1, 2)), horizon=20)
    # a hit of c*psi, c < 1, is a hit of psi
    assert all(set(v) <= set(rep.hits) for v in rep.violations.values())


def check_count_admissible(b):
    assert count_admissible(6, b) == sum(1 for _ in enumerate_admissible(6, b))


def check_full_census(b):
    rec = full_census(12, b)
    assert rec.count_admissible == count_admissible(12, b)
    assert 0 < rec.count_full <= rec.count_admissible and rec.max_gap <= 12


def check_iter_cylinders(b):
    cyls = list(iter_cylinders(6, b))
    assert len(cyls) == count_admissible(6, b)
    assert sum((c.length for c in cyls), Fraction(0)) == 1


def check_cylinder(b):
    c = cylinder(expand(X, b, 8), b)
    assert compare(c.left, X) <= 0 < compare(c.left + c.length, X)


def check_length_by_partition(b):
    w = expand(X, b, 8)
    assert length_by_partition(w, b) == cylinder(w, b).length  # the follower route


def check_successor(b):
    w = expand(X, b, 8)
    nxt = successor(w, b)
    assert nxt is None or (len(nxt) == 8 and nxt > w and is_admissible(nxt, b))
    assert successor(tuple(b.star.prefix(8)), b) is None  # t1...t8, the last word


def check_is_full(b):
    assert type(is_full(expand(X, b, 8), b)) is bool
    assert is_full((0,) * 8, b) is True


def check_eval_word(b):
    w = expand(X, b, 8)
    assert eval_word(w, b) == cylinder(w, b).left


def check_find_full_in_interval(b):
    w = find_full_in_interval(LO, HI, 12, b)
    c = cylinder(w, b)
    assert is_full(w, b) and compare(c.left, LO) >= 0 and compare(c.left + c.length, HI) <= 0


COLUMNS = {
    "expand": check_expand,
    "orbit": check_orbit,
    "detect_hits": check_detect_hits,
    "exactness_evidence": check_exactness_evidence,
    "count_admissible": check_count_admissible,
    "full_census": check_full_census,
    "iter_cylinders": check_iter_cylinders,
    "cylinder": check_cylinder,
    "length_by_partition": check_length_by_partition,
    "find_full_in_interval": check_find_full_in_interval,
    "successor": check_successor,
    "is_full": check_is_full,
    "eval_word": check_eval_word,
}

CYLINDER_COLUMNS = ("iter_cylinders", "cylinder", "length_by_partition",
                    "find_full_in_interval", "eval_word")
NON_GOLDEN_QUADRATICS = ("pisot-13", "pisot-2", "pisot-7", "non-integer-quadratic")
MIXED_RADICANDS = pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="Fix first: word_evaluator compares beta with GOLDEN across fields")


def cells():
    for row, spec in FAMILIES.items():
        for column in COLUMNS:
            marks = ()
            if row in NON_GOLDEN_QUADRATICS and column in CYLINDER_COLUMNS:
                marks = (MIXED_RADICANDS,)
            yield pytest.param(spec, column, id=f"{row}-{column}", marks=marks)


@pytest.mark.parametrize("spec, column", cells())
def test_cell(spec, column):
    b = make_beta(spec)
    if not b.is_exact and column in CYLINDER_COLUMNS:
        # documented: cylinder geometry needs exact powers of beta
        with pytest.raises(PrecisionExhausted):
            COLUMNS[column](b)
    else:
        COLUMNS[column](b)
