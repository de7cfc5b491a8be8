import os
import pathlib

import pytest

from treestab import nc_complex
from treestab.tree_core import load_tree

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
# the interpreters that tests start import the package from src/ too, as
# the tests themselves do (`pythonpath` in pyproject.toml)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(FIXTURES.parent / "src")]
    + [p for p in [os.environ.get("PYTHONPATH")] if p])

# small trees first; big8 is the stress case (8 interior vertices, a
# degree-4 vertex, 1074 facets)
SUITE = ["a2", "star3", "subseg", "cyc3", "deg45", "caterpillar4", "big8"]
SMALL = [n for n in SUITE if n != "big8"]

_cache = {}


def get_tree(name):
    if name not in _cache:
        _cache[name] = load_tree(str(FIXTURES / ("%s.tree" % name)))
    return _cache[name]


@pytest.fixture
def a2():
    return get_tree("a2")


@pytest.fixture(params=SUITE)
def suite_tree(request):
    return get_tree(request.param)


@pytest.fixture(params=SMALL)
def small_tree(request):
    return get_tree(request.param)


def fixture_path(name):
    return str(FIXTURES / ("%s.tree" % name))


def payload_columns(facets):
    """The record table (see `nc_complex._mark`) of `facets`' payloads."""
    out = {}
    for k, f in enumerate(facets):
        for record in f.payload:
            out[record] = out.get(record, 0) | 1 << k
    return dict(sorted(out.items()))


def doctor_marking(monkeypatch, tree, fs):
    """Have `nc_complex._marking` of `tree` hand out the (doctored)
    facets `fs` and the record table of their payloads, which is what
    the column routes read; `facets(tree)` then gives `fs` too."""
    real = nc_complex._marking
    marked = tuple(fs), real(tree)[1], payload_columns(fs)
    monkeypatch.setattr(nc_complex, "_marking",
                        lambda t: marked if t is tree else real(t))
