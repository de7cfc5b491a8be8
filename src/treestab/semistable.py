"""Integer stability conditions on the tiling algebra.

A weight vector on the interior edges declares a module semistable
when its own weight vanishes and every proper submodule weighs at most
zero, stable when strictly less.  The facet weights summing the green
g-vectors realize exactly the wide subcategories coming from
noncrossing tree partitions; `verify_kreweras_stability` recomputes
both sides of that statement facet by facet and reports rather than
throws, so a broken convention shows up as a failed check and not a
stack trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import gc_vectors, nc_complex, partitions, string_modules
from .tree_core import ConventionError


def theta_value(tree, theta, thing):
    """Weight of a module, module sum, or segment."""
    if isinstance(thing, string_modules.ModuleSum):
        return sum(theta_value(tree, theta, m) for m in thing)
    if isinstance(thing, string_modules.StringModule):
        vec = thing.dim_vector
    else:
        vec = gc_vectors.indicator(tree, thing.edges())
    return sum(t * x for t, x in zip(theta, vec))


def _proper_submodules(tree, segment):
    """M(t) for t in C_s other than s, built once per segment and tree."""
    return tree.memo(("proper_subs", segment), _build_proper_submodules,
                     segment)


def _build_proper_submodules(tree, segment):
    return tuple(string_modules.string_module(tree, t)
                 for t in gc_vectors.submodule_segments(tree, segment)
                 if t != segment)


def is_semistable(tree, theta, module):
    """Zero weight, no positive-weight submodule.  Sums of the proper
    indecomposable submodules exhaust all proper submodules, so checking
    the indecomposables suffices."""
    if theta_value(tree, theta, module) != 0:
        return False
    return all(theta_value(tree, theta, t) <= 0
               for t in _proper_submodules(tree, module.segment))


def is_stable(tree, theta, module):
    if theta_value(tree, theta, module) != 0:
        return False
    return all(theta_value(tree, theta, t) < 0
               for t in _proper_submodules(tree, module.segment))


def semistable_modules(tree, theta):
    """Indecomposable semistable modules of an integer weight."""
    theta = tuple(theta)
    if len(theta) != tree.n:
        raise ValueError("weight has %d entries, tree has %d interior edges"
                         % (len(theta), tree.n))
    return {m for m in string_modules.indecomposables(tree)
            if is_semistable(tree, theta, m)}


# -- the main verification -----------------------------------------------


@dataclass
class FacetResult:
    index: int
    theta: tuple
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures


@dataclass
class SemistableReport:
    results: list

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def summary_line(self):
        good = sum(1 for r in self.results if r.passed)
        return "%d/%d facets pass" % (good, len(self.results))

    def failures(self):
        return [(r.index, f) for r in self.results for f in r.failures]


def _segment_set(mods):
    return {m.segment for m in mods}


def _decomposition_lengths(seg, parts):
    """Lengths of ways to write the segment as an end-to-end chain of
    the given parts.  Nesting means contained-part counting is wrong;
    walking prefixes is not."""
    target = seg.vertices
    t = len(target)
    lengths = set()

    def rec(i, k):
        if i == t - 1:
            lengths.add(k)
            return
        for g in parts:
            gl = len(g.vertices)
            if i + gl > t:
                continue
            window = target[i:i + gl]
            if g.vertices == window or \
                    g.vertices == tuple(reversed(window)):
                rec(i + gl - 1, k + 1)

    rec(0, 0)
    return lengths


def check_facet(tree, facet):
    """All per-facet claims: the semistable set matches the partition's
    wide subcategory, red segments are stable, red composites are
    semistable but not stable, green composites weigh their length."""
    theta = gc_vectors.kreweras_theta(facet)
    res = FacetResult(facet.index, theta)
    ss = semistable_modules(tree, theta)
    part = partitions.red_partition(facet)
    wide = partitions.wide_from_partition(tree, part)
    if ss != wide:
        res.failures.append(
            "semistable set %r differs from partition side %r"
            % (sorted(_segment_set(ss), key=lambda s: s.vertices),
               sorted(_segment_set(wide), key=lambda s: s.vertices)))
    reds = partitions.partition_segments(tree, part)
    closure = _segment_set(wide)
    for s in sorted(reds, key=lambda s: s.vertices):
        m = string_modules.string_module(tree, s)
        if not is_stable(tree, theta, m):
            res.failures.append("red segment %r not stable" % (s,))
    for s in sorted(closure - reds, key=lambda s: s.vertices):
        m = string_modules.string_module(tree, s)
        if not is_semistable(tree, theta, m):
            res.failures.append("red composite %r not semistable" % (s,))
        if is_stable(tree, theta, m):
            res.failures.append("red composite %r unexpectedly stable" % (s,))
    comp = partitions.kreweras_complement(tree, part)
    greens = partitions.partition_segments(tree, comp)
    gclosure = _segment_set(partitions.wide_from_partition(tree, comp))
    for s in sorted(gclosure, key=lambda s: s.vertices):
        ks = _decomposition_lengths(s, greens)
        if len(ks) != 1:
            res.failures.append(
                "green composite %r has decomposition lengths %r"
                % (s, sorted(ks)))
            continue
        k = ks.pop()
        got = theta_value(tree, theta, s)
        if got != k:
            res.failures.append(
                "green composite %r weighs %d, composition length is %d"
                % (s, got, k))
    if not facet.greens():
        if any(t != 0 for t in theta):
            res.failures.append("all-red facet weight %r nonzero" % (theta,))
        if _segment_set(ss) != set(tree.all_segments):
            res.failures.append("all-red facet misses some module")
    if not facet.reds():
        if any(t != 1 for t in theta):
            res.failures.append("all-green facet weight %r not all ones"
                                % (theta,))
        if ss:
            res.failures.append("all-green facet has semistables %r" % (ss,))
    return res


def verify_kreweras_stability(tree, jobs=1):
    """Run check_facet over every facet.  `jobs` > 1 splits the facet
    list across processes; results are identical either way."""
    all_facets = nc_complex.facets(tree)
    if jobs > 1 and len(all_facets) > 1:
        from concurrent.futures import ProcessPoolExecutor
        indices = list(range(len(all_facets)))
        chunks = [indices[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(_check_chunk,
                             [(tree.rotation, c) for c in chunks])
            results = [r for part in parts for r in part]
        results.sort(key=lambda r: r.index)
        return SemistableReport(results)
    return SemistableReport([check_facet(tree, f) for f in all_facets])


def _check_chunk(payload):
    from .tree_core import EmbeddedTree
    rotation, indices = payload
    tree = EmbeddedTree(rotation)
    fs = nc_complex.facets(tree)
    return [check_facet(tree, fs[i]) for i in indices]


# -- poset comparison ----------------------------------------------------


def semistable_poset(tree):
    """Semistable sets of the facet weights under inclusion.  The map
    from noncrossing partitions is checked to be an order isomorphism,
    which is the poset half of the main statement."""
    table = []
    for facet in nc_complex.facets(tree):
        theta = gc_vectors.kreweras_theta(facet)
        table.append(frozenset(_segment_set(
            semistable_modules(tree, theta))))
    if len(set(table)) != len(table):
        raise ConventionError("facet weights share a semistable set")
    sid = {s: i for i, s in enumerate(tree.all_segments)}
    po = partitions.Poset(table, [sum(1 << sid[s] for s in e) for e in table])
    if not po.isomorphic_by(partitions.ncp_poset(tree), range(len(table))):
        raise ConventionError(
            "semistable order disagrees with refinement order")
    return po


# -- converse sweep ------------------------------------------------------


def check_semistable_wide(tree, samples=200, seed=0, bound=10,
                          scales=(2, 3, 7)):
    """Semistable sets of pseudorandom integer weights are wide, and
    scaling a weight changes nothing.  Returns (checked, distinct wide
    sets seen); any failure raises ConventionError with the offending
    weight, since a counterexample would sink the converse direction."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(samples):
        theta = tuple(rng.randint(-bound, bound) for _ in range(tree.n))
        ss = semistable_modules(tree, theta)
        segs = frozenset(_segment_set(ss))
        for c in scales:
            scaled = tuple(c * t for t in theta)
            same = semistable_modules(tree, scaled)
            if frozenset(_segment_set(same)) != segs:
                raise ConventionError(
                    "weight %r changes semistables under scaling by %d"
                    % (theta, c))
        if not tree.memo(("is_wide", segs), string_modules.is_wide, segs):
            raise ConventionError(
                "semistable set of %r is not wide: %r"
                % (theta, sorted(segs, key=lambda s: s.vertices)))
        seen.add(segs)
    return samples, len(seen)
