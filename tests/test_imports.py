"""Importing the package stays cheap: every module of it, imported in a
fresh isolated interpreter, loads none of the heavy standard-library modules
that records built on dataclasses or an eager json import would pull in,
nor array, which the Renyi-Parry counts import when they run; and neither
importing it nor building a system of each spec form loads typing or
threading or compiles or matches a regular expression."""

import pkgutil
import subprocess
import sys
from pathlib import Path

HEAVY = ("dataclasses", "inspect", "ast", "json")
# an extension module loaded from disk, about 0.8 ms of every cold start;
# words._coefficients imports it once a call, for its machine-width slots
LAZY = ("array",)

# the modules are listed here, since pkgutil itself loads inspect and ast;
# the child imports each of them and prints the heavy modules that appeared
CODE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2].split(","):
    importlib.import_module("betadim." + name)
print(*sorted((set(sys.modules) - before) & set(sys.argv[3:])))
"""


def test_import_loads_no_heavy_module():
    src = Path(__file__).resolve().parent.parent / "src"
    names = [m.name for m in pkgutil.iter_modules([str(src / "betadim")])]
    assert len(names) >= 6, names
    done = subprocess.run([sys.executable, "-I", "-c", CODE, str(src), ",".join(names),
                           *HEAVY, *LAZY], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert [m for m in loaded if m in HEAVY] == []
    assert [m for m in loaded if m in LAZY] == []


# -S as well as -I: a site that preloads typing, re or threading would hide
# them.  fractions compiles its own patterns when imported, so it comes
# first; after it the re functions refuse, and every module of the package
# is imported and a system of each spec form built
SPECS = ("2", "9/5", "1.8", "golden", "quad:(1+1*sqrt(13))/2", "dec:1.8@200")
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
for spec in sys.argv[3:]:
    make_beta(spec)
print(*sorted({"typing", "threading"} & set(sys.modules)))
"""


def test_import_and_make_beta_load_no_typing_or_threading_and_use_no_regex():
    src = Path(__file__).resolve().parent.parent / "src"
    names = [m.name for m in pkgutil.iter_modules([str(src / "betadim")])]
    assert len(names) >= 6, names
    done = subprocess.run([sys.executable, "-I", "-S", "-c", GATE, str(src), ",".join(names),
                           *SPECS], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
