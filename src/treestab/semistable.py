"""Integer stability conditions on the tiling algebra.

A weight vector on the interior edges declares a module semistable
when its own weight vanishes and every proper submodule weighs at most
zero, stable when strictly less.  The facet weights summing the green
g-vectors realize exactly the wide subcategories coming from
noncrossing tree partitions; `verify_kreweras_stability` recomputes
both sides of that statement facet by facet and reports rather than
throws, so a broken convention shows up as a failed check and not a
stack trace.

A weight is read as one list of per-segment weights, by segment id,
summed along the weight steps of the tree's segment table (see
`tree_core`).  Semistability and stability of every indecomposable
then come off that list and the per-tree id masks of the proper C_s:
the sums of proper indecomposable submodules exhaust the proper
submodules, so those suffice.  Segment sets stay id masks through the
whole per-facet check, and a green composite's decompositions are read
off the table's sub-segment splits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import gc_vectors, nc_complex, partitions, string_modules
from .tree_core import ConventionError, _bits, _id_mask, _segment_table


def theta_value(tree, theta, thing):
    """Weight of a module, module sum, or segment."""
    if isinstance(thing, string_modules.ModuleSum):
        return sum(theta_value(tree, theta, m) for m in thing)
    if isinstance(thing, string_modules.StringModule):
        vec = thing.dim_vector
    else:
        vec = gc_vectors.indicator(tree, thing.edges())
    return sum(t * x for t, x in zip(theta, vec))


def _stability(tree, theta):
    """(per-segment weights, id mask of the semistable segments, id
    mask of the stable ones): zero weight, and no proper C_s member of
    positive weight, or of nonnegative weight for stable.  Worked out
    once per weight and tree."""
    theta = tuple(theta)
    return tree.memo(("stability", theta), _build_stability, theta)


def _build_stability(tree, theta):
    if len(theta) != tree.n:
        raise ValueError("weight has %d entries, tree has %d interior edges"
                         % (len(theta), tree.n))
    proper = gc_vectors._proper(tree)
    weights = [0] * len(proper)
    positive = nonnegative = 0
    for s, prefix, e in _segment_table(tree).steps:
        w = weights[s] = theta[e] if prefix < 0 else weights[prefix] + theta[e]
        if w >= 0:
            nonnegative |= 1 << s
            if w > 0:
                positive |= 1 << s
    semi = stable = 0
    for s in _bits(nonnegative & ~positive):
        if not proper[s] & positive:
            semi |= 1 << s
            if not proper[s] & nonnegative:
                stable |= 1 << s
    return weights, semi, stable


def is_semistable(tree, theta, module):
    """Zero weight, no positive-weight submodule."""
    return module in semistable_modules(tree, theta)


def is_stable(tree, theta, module):
    """Zero weight, every proper submodule of negative weight."""
    return module in stable_modules(tree, theta)


def semistable_modules(tree, theta):
    """Indecomposable semistable modules of an integer weight."""
    inds = string_modules.indecomposables(tree)
    return {inds[s] for s in _bits(_stability(tree, theta)[1])}


def stable_modules(tree, theta):
    """Indecomposable stable modules of an integer weight."""
    inds = string_modules.indecomposables(tree)
    return {inds[s] for s in _bits(_stability(tree, theta)[2])}


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


def _decomposition_lengths(tree, s, parts):
    """Lengths of the ways to write segment s as an end-to-end chain of
    segments from the id mask `parts`: bit k of reach[j] says the first
    j edges of s split into k parts."""
    reach = [1]
    for row in _segment_table(tree).splits[s]:
        r = 0
        for i, t in row:
            if parts >> t & 1:
                r |= reach[i] << 1
        reach.append(r)
    return set(_bits(reach[-1]))


def check_facet(tree, facet):
    """All per-facet claims: the semistable set matches the partition's
    wide subcategory, red segments are stable, red composites are
    semistable but not stable, green composites weigh their length."""
    theta = gc_vectors.kreweras_theta(facet)
    res = FacetResult(facet.index, theta)
    segs = tree.all_segments
    weights, semi, stable = _stability(tree, theta)
    ss = semistable_modules(tree, theta)  # reads the same weight pass
    ss_mask = _id_mask(tree, (m.segment for m in ss))
    part = partitions.noncrossing_partitions(tree)[facet.index]
    reds = partitions._segment_mask(tree, part)
    closure = partitions._wide_mask(tree, part)
    if ss_mask != closure:
        res.failures.append(
            "semistable set %r differs from partition side %r"
            % ([segs[i] for i in _bits(ss_mask)],
               [segs[i] for i in _bits(closure)]))
    for s in _bits(reds & ~stable):
        res.failures.append("red segment %r not stable" % (segs[s],))
    for s in _bits(closure & ~reds):
        if not semi >> s & 1:
            res.failures.append("red composite %r not semistable"
                                % (segs[s],))
        if stable >> s & 1:
            res.failures.append("red composite %r unexpectedly stable"
                                % (segs[s],))
    comp = partitions.kreweras_complement(tree, part)
    greens = partitions._segment_mask(tree, comp)
    for s in _bits(partitions._wide_mask(tree, comp)):
        ks = _decomposition_lengths(tree, s, greens)
        if len(ks) != 1:
            res.failures.append(
                "green composite %r has decomposition lengths %r"
                % (segs[s], sorted(ks)))
            continue
        k = ks.pop()
        if weights[s] != k:
            res.failures.append(
                "green composite %r weighs %d, composition length is %d"
                % (segs[s], weights[s], k))
    if not any(green for _, _, green in facet.payload):
        if any(t != 0 for t in theta):
            res.failures.append("all-red facet weight %r nonzero" % (theta,))
        if ss_mask != (1 << len(segs)) - 1:
            res.failures.append("all-red facet misses some module")
    if all(green for _, _, green in facet.payload):
        if any(t != 1 for t in theta):
            res.failures.append("all-green facet weight %r not all ones"
                                % (theta,))
        if ss:
            res.failures.append("all-green facet has semistables %r" % (ss,))
    return res


def verify_kreweras_stability(tree):
    """Run check_facet over every facet, in facet order."""
    return SemistableReport([check_facet(tree, f)
                             for f in nc_complex.facets(tree)])


# -- poset comparison ----------------------------------------------------


def semistable_poset(tree):
    """Semistable sets of the facet weights under inclusion.  The map
    from noncrossing partitions is checked to be an order isomorphism,
    which is the poset half of the main statement."""
    table = []
    for facet in nc_complex.facets(tree):
        theta = gc_vectors.kreweras_theta(facet)
        table.append(frozenset(
            m.segment for m in semistable_modules(tree, theta)))
    if len(set(table)) != len(table):
        raise ConventionError("facet weights share a semistable set")
    po = partitions.Poset(table, [_id_mask(tree, e) for e in table])
    if not po.isomorphic_by(partitions.ncp_poset(tree), range(len(table))):
        raise ConventionError(
            "semistable order disagrees with refinement order")
    return po


# -- converse sweep ------------------------------------------------------


SCALES = (2, 3, 7)  # the factors each sampled weight is scaled by


def check_semistable_wide(tree, samples=200, seed=0, bound=10):
    """Semistable sets of pseudorandom integer weights are wide, and
    scaling a weight by each of SCALES changes nothing.  Returns
    (checked, distinct wide sets seen); any failure raises
    ConventionError with the offending weight, since a counterexample
    would sink the converse direction."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(samples):
        theta = tuple(rng.randint(-bound, bound) for _ in range(tree.n))
        ss = semistable_modules(tree, theta)
        segs = frozenset(m.segment for m in ss)
        for c in SCALES:
            if semistable_modules(tree, tuple(c * t for t in theta)) != ss:
                raise ConventionError(
                    "weight %r changes semistables under scaling by %d"
                    % (theta, c))
        if not tree.memo(("is_wide", segs), string_modules.is_wide, segs):
            raise ConventionError(
                "semistable set of %r is not wide: %r"
                % (theta, sorted(segs, key=lambda s: s.vertices)))
        seen.add(segs)
    return samples, len(seen)
