"""Acceptance gate: ten end-to-end criteria, each printed as one line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines.  Every criterion carries its own wall-clock budget; blowing the
budget fails the criterion even if the math checks out.
"""

import itertools
import time

from conftest import SUITE, SMALL, get_tree
from treestab.nc_complex import facets
from treestab.gc_vectors import (
    c_vector,
    g_vector,
    kreweras_theta,
    pairing_matrix,
    quotient_segments,
    segment_of,
    submodule_segments,
    zigzag_dominance_check,
)
from treestab.string_modules import (
    algebra_dimension,
    hom_dim,
    indecomposable_quotients,
    indecomposable_submodules,
    indecomposables,
    string_module,
    tiling_algebra,
)
from treestab.partitions import (
    ncp_poset,
    noncrossing_partitions,
    torsion_decompose,
    torsion_pair,
)
from treestab.semistable import (
    check_semistable_wide,
    is_semistable,
    is_stable,
    semistable_poset,
    verify_kreweras_stability,
)

import oracles


def _report(num, label, budget, fn):
    t0 = time.monotonic()
    try:
        fn()
        ok = True
        detail = ""
    except AssertionError as e:
        ok = False
        detail = " (%s)" % e
    elapsed = time.monotonic() - t0
    if ok and elapsed > budget:
        ok = False
        detail = " (took %.1fs, budget %.0fs)" % (elapsed, budget)
    line = "%s  criterion %2d  %-28s %6.2fs%s" % (
        "PASS" if ok else "FAIL", num, label, elapsed, detail)
    print(line)
    assert ok, line


def _facet_by_leaves(tree, leaf_pairs):
    for f in facets(tree):
        if frozenset(d.leaves for d in f.colored) == frozenset(leaf_pairs):
            return f
    raise AssertionError("no facet with colored arcs %r" % (leaf_pairs,))


def test_criterion_01_two_edge_vectors():
    def body():
        tree = get_tree("a2")
        f = _facet_by_leaves(tree, [("l1", "l4"), ("l1", "l5")])
        by = {d.leaves: d for d in f.colored}
        gamma, delta = by[("l1", "l5")], by[("l1", "l4")]
        assert f.color[gamma] == "red" and f.color[delta] == "green"
        assert g_vector(tree, gamma) == (-1, 0)
        assert c_vector(f, gamma) == (-1, -1)
        assert g_vector(tree, delta) == (-1, 1)
        assert c_vector(f, delta) == (0, 1)
    _report(1, "two-edge vector pairs", 1.0, body)


def test_criterion_02_two_edge_algebra_dim():
    def body():
        assert algebra_dimension(get_tree("a2")) == 3
    _report(2, "two-edge algebra dim 3", 1.0, body)


def test_criterion_03_pairing_identity_suite():
    def body():
        assert len(SUITE) >= 6
        degrees = set()
        interiors = set()
        for name in SUITE:
            tree = get_tree(name)
            interiors.add(len(tree.interior_vertices))
            degrees |= {len(tree.rotation[v])
                        for v in tree.interior_vertices}
            for f in facets(tree):
                k = len(f.colored)
                ident = [[1 if i == j else 0 for j in range(k)]
                         for i in range(k)]
                assert pairing_matrix(f) == ident, (name, f.index)
        assert max(interiors) == 8
        assert {4, 5} <= degrees
        # cyc3 carries the length-2 relations of a 3-cycle of arrows
        assert len(tiling_algebra(get_tree("cyc3")).relations) == 3
    _report(3, "pairing identity, full suite", 60.0, body)


def test_criterion_04_facet_purity():
    def body():
        for name in SUITE:
            tree = get_tree(name)
            leaves = len(tree.leaves)
            inner = len(tree.interior_vertices)
            for f in facets(tree):
                assert len(f.arcs) == leaves + inner - 1, (name, f.index)
                assert len(f.colored) == inner - 1, (name, f.index)
    _report(4, "facet purity", 60.0, body)


def test_criterion_05_kreweras_stability():
    def body():
        for name in SUITE:
            tree = get_tree(name)
            report = verify_kreweras_stability(tree, jobs=2)
            assert report.all_passed, (name, report.summary_line,
                                       report.failures()[:3])
            # stability refinement spot check on every facet of the
            # small trees: reds stable, full facet count preserved
            if name in SMALL:
                theta_of = {f.index: kreweras_theta(f)
                            for f in facets(tree)}
                for f in facets(tree):
                    th = theta_of[f.index]
                    for d in f.reds():
                        m = string_module(tree, segment_of(f, d))
                        assert is_stable(tree, th, m)
                        assert is_semistable(tree, th, m)
    _report(5, "Kreweras weights vs wides", 300.0, body)


def test_criterion_06_poset_isomorphism():
    def body():
        for name in SUITE:
            tree = get_tree(name)
            ssp = semistable_poset(tree)
            ncp = ncp_poset(tree)
            assert ssp.isomorphic_by(ncp, {i: i for i in range(len(ssp))})
        a2 = semistable_poset(get_tree("a2"))
        assert len(a2) == 5 and a2.is_lattice()
    _report(6, "lattice of semistables", 120.0, body)


def test_criterion_07_torsion_pairs():
    def body():
        for name in SMALL:
            tree = get_tree(name)
            for part in noncrossing_partitions(tree):
                tors, free = torsion_pair(tree, part)
                for m in tors:
                    for nmod in free:
                        assert hom_dim(tree, m, nmod) == 0
                for m in indecomposables(tree):
                    t, fq = torsion_decompose(tree, part, m)
                    dt = t.dim_vector(tree) if t else (0,) * len(
                        tree.interior_edges)
                    df = fq.dim_vector(tree) if fq else (0,) * len(
                        tree.interior_edges)
                    got = tuple(a + b for a, b in zip(dt, df))
                    assert got == m.dim_vector, (name, part, m)
    _report(7, "torsion pairs", 120.0, body)


def test_criterion_08_zigzag_dominance():
    def body():
        for name in SUITE:
            tree = get_tree(name)
            n = 0
            for f in facets(tree):
                for d in f.reds():
                    if len(segment_of(f, d).edges()) < 2:
                        continue
                    assert zigzag_dominance_check(f, d), (name, f.index, d)
                    n += 1
            if name == "big8":
                assert n == 1681
    _report(8, "zigzag dominance counting", 120.0, body)


def test_criterion_09_subquotient_oracle():
    def body():
        for name in SUITE:
            tree = get_tree(name)
            for seg in tree.all_segments:
                subs = {s.vertices for s in submodule_segments(tree, seg)}
                quots = {s.vertices for s in quotient_segments(tree, seg)}
                assert subs == {s.vertices
                                for s in oracles.indec_subs(tree, seg)}
                assert quots == {s.vertices
                                 for s in oracles.indec_quots(tree, seg)}
                mod = string_module(tree, seg)
                here = {m.segment.vertices for m in
                        indecomposable_submodules(tree, mod)}
                assert here == subs
                hq = {m.segment.vertices for m in
                      indecomposable_quotients(tree, mod)}
                assert hq == quots
    _report(9, "sub/quotient enumeration", 120.0, body)


def test_criterion_10_random_weight_sweep():
    def body():
        for name in SUITE:
            tree = get_tree(name)
            ran, distinct = check_semistable_wide(
                tree, samples=200, seed=2026)
            assert ran == 200, name
            assert distinct >= 1, name
    _report(10, "200-weight converse sweep", 300.0, body)
