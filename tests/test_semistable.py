import random

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import SMALL, doctor_marking, fixture_path, get_tree
from treestab import cli, gc_vectors, nc_complex, partitions as pt
from treestab import semistable as st
from treestab import string_modules as sm
from treestab.gc_vectors import kreweras_theta
from treestab.nc_complex import Facet, facets
from treestab.tree_core import (ConventionError, EmbeddedTree, Segment,
                                load_tree)


def test_theta_value_kinds():
    tree = get_tree("a2")
    s = Segment.canonical(("v1", "v2", "v3"))
    M = sm.string_module(tree, s)
    theta = (3, -5)
    assert oracles.theta_value(tree, theta, s) == -2
    assert oracles.theta_value(tree, theta, M) == -2
    assert oracles.theta_value(tree, theta, sm.ModuleSum([M, M])) == -4


def test_semistable_zero_weight_is_everything():
    tree = get_tree("a2")
    ss = st.semistable_modules(tree, (0, 0))
    assert len(ss) == 3
    M10 = sm.string_module(tree, Segment.canonical(("v1", "v2")))
    M11 = sm.string_module(tree, Segment.canonical(("v1", "v2", "v3")))
    assert st.is_stable(tree, (0, 0), M10)
    assert not st.is_stable(tree, (0, 0), M11)


def test_semistable_wrong_length_raises():
    with pytest.raises(ValueError):
        st.semistable_modules(get_tree("a2"), (1, 2, 3))
    with pytest.raises(ValueError):
        st.stable_modules(get_tree("a2"), (1, 2, 3))


def test_semistable_command_weighs_segments_at_most_twice(monkeypatch,
                                                           capsys):
    """`semistable` takes both verdicts from a constant number of
    weight passes, not one per semistable module."""
    calls = []
    real = st._stability

    def counting(tree, theta):
        calls.append(theta)
        return real(tree, theta)

    monkeypatch.setattr(st, "_stability", counting)
    assert cli.main(["semistable", "--theta=0,0,0,0,0,0,0",
                     fixture_path("big8")]) == 0
    assert "24 semistable indecomposables" in capsys.readouterr().out
    assert 1 <= len(calls) <= 2


def test_semistable_matches_full_lattice_oracle(small_tree):
    """The indecomposable-submodule shortcut equals King's condition
    checked on the whole submodule lattice, across random weights."""
    rng = random.Random(7)
    segs = list(small_tree.all_segments)
    for _ in range(60):
        theta = tuple(rng.randint(-4, 4) for _ in range(small_tree.n))
        for s in segs:
            M = sm.string_module(small_tree, s)
            assert st.is_semistable(small_tree, theta, M) == \
                oracles.semistable_full_lattice(small_tree, theta, s)


def test_facet_weights_verify(suite_tree):
    report = st.verify_kreweras_stability(suite_tree)
    assert report.all_passed, report.failures()[:5]
    assert report.summary_line().endswith("facets pass")


def test_semistable_poset_isomorphism(suite_tree):
    po = st.semistable_poset(suite_tree)  # asserts the isomorphism
    assert len(po) == len(facets(suite_tree))


def test_a2_poset_is_the_pentagon_lattice():
    po = st.semistable_poset(get_tree("a2"))
    assert len(po) == 5
    assert po.is_lattice()


def test_stable_vs_semistable_refinement():
    """Red segments are stable, red composites only semistable."""
    tree = get_tree("a2")
    for f in facets(tree):
        theta = kreweras_theta(f)
        part = oracles.red_partition(f)
        reds = oracles.partition_segments(tree, part)
        closure = pt.segment_closure(tree, reds)
        for s in reds:
            assert st.is_stable(tree, theta, sm.string_module(tree, s))
        for s in closure - reds:
            M = sm.string_module(tree, s)
            assert st.is_semistable(tree, theta, M)
            assert not st.is_stable(tree, theta, M)


def test_all_red_and_all_green_facets():
    tree = get_tree("a2")
    for f in facets(tree):
        theta = kreweras_theta(f)
        if not f.greens():
            assert theta == (0, 0)
            assert len(st.semistable_modules(tree, theta)) == 3
        if not f.reds():
            assert theta == (1, 1)
            assert not st.semistable_modules(tree, theta)


def test_report_failures_surface():
    """A doctored result reports red instead of hiding it."""
    r = st.FacetResult(0, (1,), failures=["made-up reason"])
    rep = st.SemistableReport([r, st.FacetResult(1, (0,))])
    assert not rep.all_passed
    assert rep.summary_line() == "1/2 facets pass"
    assert rep.failures() == [(0, "made-up reason")]


def test_converse_sweep_small(small_tree):
    checked, distinct = st.check_semistable_wide(
        small_tree, samples=40, seed=11)
    assert checked == 40
    assert distinct >= 1


def test_converse_sweep_rejects_negative_count():
    tree = get_tree("a2")
    assert st.check_semistable_wide(tree, samples=0) == (0, 0)
    with pytest.raises(ValueError, match="samples must be >= 0, got -3"):
        st.check_semistable_wide(tree, samples=-3)


def test_sweep_scaling_guard():
    """Scaling by a positive constant never changes the semistable set;
    the sweep asserts this internally, spot-check one weight here."""
    tree = get_tree("deg45")
    theta = (2, -1, -1)
    base = st.semistable_modules(tree, theta)
    for c in (2, 3, 7):
        assert st.semistable_modules(
            tree, tuple(c * t for t in theta)) == base


# -- the column route against the per-facet route --------------------------


def report_view(results):
    return [(r.index, r.theta, r.failures) for r in results]


def outcome(run):
    """What `run()` returns, or the error it raises, in words."""
    try:
        return run()
    except (ConventionError, ValueError) as e:
        return "%s: %s" % (type(e).__name__, e)


def assert_columns_match_per_facet(tree, one_by_one=True):
    """verify_kreweras_stability, and check_facet on each facet alone,
    report what the per-facet route does, word for word, or fail with
    its error."""
    def columns():
        report = st.verify_kreweras_stability(tree)
        return report_view(report.results), report.summary_line()

    def per_facet():
        results = oracles.check_facets_per_facet(tree)
        return (report_view(results),
                st.SemistableReport(results).summary_line())

    want = outcome(per_facet)
    assert outcome(columns) == want
    if one_by_one and not isinstance(want, str):
        assert report_view(st.check_facet(tree, f)
                           for f in nc_complex.facets(tree)) == want[0]
    return want


def test_column_report_matches_per_facet_route(suite_tree):
    assert_columns_match_per_facet(suite_tree)


@settings(max_examples=15, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_column_report_matches(rotation):
    assert_columns_match_per_facet(EmbeddedTree(rotation))


def test_nine_vertex_column_report_matches():
    tree = randtrees.grow_full(random.Random(9), 9)
    assert len(facets(tree)) == 4862
    views, summary = assert_columns_match_per_facet(tree, one_by_one=False)
    assert summary == "4862/4862 facets pass"


def doctored_facets(tree, k, j, record):
    """The tree's facets with record j of facet k's payload replaced by
    `record(old record)`, a tuple of records."""
    out = []
    for f in facets(tree):
        g = Facet.__new__(Facet)
        g.tree, g.index, g._mask, g.payload = tree, f.index, f._mask, f.payload
        if f.index == k:
            g.payload = (f.payload[:j] + record(f.payload[j])
                         + f.payload[j + 1:])
        out.append(g)
    return tuple(out)


def test_doctored_payload_reports_match(monkeypatch):
    """With one record of one facet's payload doctored (its color
    flipped, or a green record dropped or moved to another segment) and
    the record table read off the doctored payloads, the column route
    fails the same claims, or raises the same error, as the per-facet
    route."""
    seen = set()
    for name in SMALL:
        rng = random.Random(name)
        places = [(f.index, j, green) for f in facets(get_tree(name))
                  for j, (_, _, green) in enumerate(f.payload)]
        segments = range(len(get_tree(name).all_segments))
        cases = [(k, j, lambda r: ((r[0], r[1], not r[2]),))
                 for k, j, _ in rng.sample(places, min(6, len(places)))]
        greens = [(k, j) for k, j, green in places if green]
        for k, j in rng.sample(greens, min(6, len(greens))):
            s = rng.choice(segments)
            cases += [(k, j, lambda r: ()),
                      (k, j, lambda r, s=s: ((r[0], s, True),))]
        for k, j, record in cases:
            tree = load_tree(fixture_path(name))
            fs = doctored_facets(tree, k, j, record)
            with monkeypatch.context() as m:
                doctor_marking(m, tree, fs)
                want = assert_columns_match_per_facet(tree)
            seen.add(want.split(" ")[1] if isinstance(want, str)
                     else "fail" if want[1] != "%d/%d facets pass"
                     % (len(fs), len(fs)) else "pass")
    assert seen == {"red", "green", "fail", "pass"}


def test_verify_thm1_takes_no_per_facet_route(monkeypatch, capsys):
    """One verify-thm1 on big8 weighs no single facet, lists no
    facet's semistable modules and looks up no Kreweras complement."""
    calls = []
    for module, name in ((st, "semistable_modules"), (st, "_stability"),
                         (pt, "kreweras_complement"),
                         (gc_vectors, "kreweras_theta")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    assert cli.main(["verify-thm1", fixture_path("big8")]) == 0
    assert capsys.readouterr().out == "1074/1074 facets pass\n"
    assert calls == []
