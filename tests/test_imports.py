"""Importing the package stays cheap and needs the standard library only.

One fresh interpreter, run with -I -S so that neither site-packages nor
anything site preloads is seen, imports fractions (which compiles its own
patterns), makes the re functions refuse, imports every module of the
package and builds a system of each spec form.  It reports which of the
watched modules are then loaded: none of the heavy standard-library modules
that records built on dataclasses or an eager json import would pull in,
nor array, which the Renyi-Parry counts import when they run, nor typing
or threading; and no regular expression is compiled or matched."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "json")
# an extension module loaded from disk, about 0.8 ms of every cold start;
# words._coefficients imports it once a call, for its machine-width slots
LAZY = ("array",)
TYPING = ("typing", "threading")
SPECS = ("2", "9/5", "1.8", "golden", "quad:(1+1*sqrt(13))/2", "dec:1.8@200")

# the modules are listed from the glob, since pkgutil itself loads inspect
# and ast; the child prints the watched modules that are loaded at its end
GATE = """
import re, sys
sys.path.insert(0, sys.argv[1])
import fractions

def refuse(*args, **kwargs):
    raise AssertionError(f"a regular expression is compiled or matched: {args!r}")

re.compile = re.match = re.fullmatch = re.search = refuse
for name in sys.argv[2].split(","):
    __import__("betadim." + name)
from betadim.numerics import make_beta
for spec in sys.argv[3].split(";"):
    make_beta(spec)
print(*sorted(set(sys.argv[4:]) & set(sys.modules)))
"""


def _module_names() -> list[str]:
    return sorted(p.stem for p in (SRC / "betadim").glob("*.py"))


@pytest.fixture(scope="module")
def loaded() -> list[str]:
    """The watched modules loaded in the child, once for both tests."""
    names = _module_names()
    assert len(names) >= 6, names
    done = subprocess.run([sys.executable, "-I", "-S", "-c", GATE, str(SRC), ",".join(names),
                           ";".join(SPECS), *HEAVY, *LAZY, *TYPING],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_heavy_module(loaded):
    assert _module_names() == sorted(m.name for m in pkgutil.iter_modules([str(SRC / "betadim")]))
    assert [m for m in loaded if m in HEAVY] == []
    assert [m for m in loaded if m in LAZY] == []


def test_import_and_make_beta_load_no_typing_or_threading_and_use_no_regex(loaded):
    assert [m for m in loaded if m in TYPING] == []
