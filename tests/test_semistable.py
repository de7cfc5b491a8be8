import random

import pytest

import oracles
from conftest import fixture_path, get_tree
from treestab import cli, partitions as pt, semistable as st
from treestab import string_modules as sm
from treestab.gc_vectors import kreweras_theta
from treestab.nc_complex import facets
from treestab.tree_core import Segment


def test_theta_value_kinds():
    tree = get_tree("a2")
    s = Segment.canonical(("v1", "v2", "v3"))
    M = sm.string_module(tree, s)
    theta = (3, -5)
    assert st.theta_value(tree, theta, s) == -2
    assert st.theta_value(tree, theta, M) == -2
    assert st.theta_value(tree, theta, sm.ModuleSum([M, M])) == -4


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
        part = pt.red_partition(f)
        reds = pt.partition_segments(tree, part)
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


def test_sweep_scaling_guard():
    """Scaling by a positive constant never changes the semistable set;
    the sweep asserts this internally, spot-check one weight here."""
    tree = get_tree("deg45")
    theta = (2, -1, -1)
    base = st.semistable_modules(tree, theta)
    for c in (2, 3, 7):
        assert st.semistable_modules(
            tree, tuple(c * t for t in theta)) == base
