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
# builder, and leaves a tree with nothing to doctor as it is.  The count
# doctors plant their fault in the g-vector table (`_g_vectors`), which
# the count table and the oracles' vectors are both built from.


def g_doctor(change):
    """A doctor of the g-vector table: `change(tree, records, g)` edits
    g, the vectors as lists by arc id, given the record table."""
    def doctor(real):
        def g_vectors(tree):
            out = [list(g) for g in real(tree)]
            records = nc_complex._marking(tree)[2]
            if records:
                change(tree, records, out)
            return tuple(map(tuple, out))
        return g_vectors
    return doctor


def _swap(tree, records, g):
    a, s, _ = next(iter(records))
    for e in tree.all_segments[s].edges():
        g[a][tree.edge_index[e]] *= -1


def _raise(tree, records, g):
    (b, s, _), col = next(iter(records.items()))
    a = next(a for (a, _, _), other in records.items()
             if a != b and col & other)
    # a and b pair to 0, so plus = minus for a on s: some entry is not 1
    e = next(i for i in map(tree.edge_index.get,
                            tree.all_segments[s].edges()) if g[a][i] != 1)
    g[a][e] += 1


def first_green(change):
    """A doctor mapping the g-vector of the first green record's arc by
    `change`."""
    def edit(tree, records, g):
        greens = [a for a, _, green in records if green]
        if greens:
            g[greens[0]] = change(g[greens[0]])
    return g_doctor(edit)


# the first record's arc's plus and minus counts swapped on its segment
swapped_count = g_doctor(_swap)
# plus - minus, on the first record's segment, of the first other arc
# that shares a facet with that record raised by one, so the two pair
# to a nonzero value
raised_count = g_doctor(_raise)
negated_green = first_green(lambda g: [-x for x in g])
# as many minus as plus edges everywhere, so it witnesses nothing
evened_green = first_green(lambda g: [0] * len(g))


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
