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


def outcome(fn, tree):
    """(passed, detail) of `fn(tree)` as check-all reports a step."""
    try:
        return True, fn(tree)
    except Exception as e:
        return False, "%s: %s" % (type(e).__name__, e)


# Doctors of the tables check-all's steps read: each wraps the real
# builder, and leaves a tree with nothing to doctor as it is.


def swapped_count(real):
    """The counts of the first record's arc swapped on its segment."""
    def counts(tree):
        out = [list(row) for row in real(tree)]
        records = nc_complex._marking(tree)[2]
        if records:
            a, s, _ = next(iter(records))
            out[a][s] = out[a][s][::-1]
        return out
    return counts


def raised_count(real):
    """The plus count, on the first record's segment, of the first other
    arc that shares a facet with that record raised by one, so the two
    pair to a nonzero value."""
    def counts(tree):
        out = [list(row) for row in real(tree)]
        records = list(nc_complex._marking(tree)[2].items())
        if records:
            (b, s, _), col = records[0]
            a = next(a for (a, _, _), other in records
                     if a != b and col & other)
            out[a][s] = (out[a][s][0] + 1, out[a][s][1])
        return out
    return counts


def first_green(change):
    """A doctor mapping each count (plus, minus) of the first green
    record's arc by `change`."""
    def doctor(real):
        def counts(tree):
            out = list(real(tree))
            greens = [a for a, _, green in nc_complex._marking(tree)[2]
                      if green]
            if greens:
                out[greens[0]] = [change(*pm) for pm in out[greens[0]]]
            return out
        return counts
    return doctor


negated_green = first_green(lambda p, m: (-p, -m))
# as many minus as plus edges everywhere, so it witnesses nothing
evened_green = first_green(lambda p, m: (p, p))


def swapped_semi(real):
    """The semi columns of the first two segments with different columns
    swapped.  That relabels segments, so the order check passes while
    the theorem step fails."""
    def columns(tree, weights):
        semi, stable = real(tree, weights)
        semi = list(semi)
        pairs = [(s, t) for s in range(len(semi)) for t in range(s)
                 if semi[s] != semi[t]]
        if pairs:
            s, t = pairs[0]
            semi[s], semi[t] = semi[t], semi[s]
        return semi, stable
    return columns


def dropped_semi(real):
    """The last segment's semi column without its lowest position."""
    def columns(tree, weights):
        semi, stable = real(tree, weights)
        if semi:
            semi = semi[:-1] + [semi[-1] & semi[-1] - 1]
        return semi, stable
    return columns
