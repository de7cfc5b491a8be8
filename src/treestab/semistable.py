"""Integer stability conditions on the tiling algebra.

A weight vector on the interior edges declares a module semistable
when its own weight vanishes and every proper submodule weighs at most
zero, stable when strictly less; the proper C_s members suffice, since
sums of proper indecomposable submodules exhaust the proper
submodules.  The facet weights summing the green g-vectors realize
exactly the wide subcategories coming from noncrossing tree
partitions; `verify_kreweras_stability` recomputes both sides of that
statement and reports rather than throws, so a broken convention shows
up as a failed check and not a stack trace.

One weight is read as a list of per-segment weights, by segment id,
summed along the weight steps of the tree's segment table, and its
semistable and stable sets as id masks.  The facet weights run
column-wise, on int bitsets over facet positions: per edge and per
segment a column per weight value, per segment the semistable and
stable columns, per claim a fault column.  Reasons are written out for
the failing facets only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_, xor

from . import gc_vectors, nc_complex, partitions, string_modules
from .tree_core import ConventionError, _bits, _segment_table


def _stability(tree, theta):
    """(per-segment weights, id mask of the semistable segments, id
    mask of the stable ones): zero weight, and no proper C_s member of
    positive weight, or of nonnegative weight for stable."""
    theta = tuple(theta)
    if len(theta) != tree.n:
        raise ValueError("weight has %d entries, tree has %d interior edges"
                         % (len(theta), tree.n))
    C = gc_vectors._subsegments(tree)[0]
    weights = [0] * len(C)
    positive = nonnegative = 0
    for s, prefix, e in _segment_table(tree).steps:
        w = weights[s] = theta[e] if prefix < 0 else weights[prefix] + theta[e]
        if w >= 0:
            nonnegative |= 1 << s
            if w > 0:
                positive |= 1 << s
    semi = stable = 0
    for s in _bits(nonnegative & ~positive):
        if not C[s] & positive:
            semi |= 1 << s
            if not (C[s] ^ 1 << s) & nonnegative:
                stable |= 1 << s
    return weights, semi, stable


def _segment_weights(tree, theta):
    """Per segment id, {v: positions of weight v} from the per-edge
    columns `theta` (see `gc_vectors.theta_columns`), summed along the
    weight steps of the segment table."""
    weights = [None] * len(tree.all_segments)
    for s, prefix, e in _segment_table(tree).steps:
        weights[s] = theta[e] if prefix < 0 else gc_vectors._sum_columns(
            weights[prefix], theta[e])
    return weights


def _semistable_columns(tree, weights):
    """(semi, stable): per segment id, the positions where it has zero
    weight and no proper C_s member of positive weight, or, for
    stable, of nonnegative weight."""
    zero = [w.get(0, 0) for w in weights]
    positive = [sum(c for v, c in w.items() if v > 0) for w in weights]
    semi, stable = [], []
    for s, below in enumerate(gc_vectors._subsegments(tree)[0]):
        up = ahead = 0
        for t in _bits(below ^ 1 << s):
            up |= positive[t]
            ahead |= zero[t]
        semi.append(zero[s] & ~up)
        stable.append(zero[s] & ~up & ~ahead)
    return semi, stable


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


def _length_columns(tree, parts):
    """Per segment id, {k: the positions where the segment is an
    end-to-end chain of k segments that `parts` (positions, by segment
    id) holds there}: along the segment's splits, reach[j] says where
    its first j edges split into k parts."""
    out = []
    for rows in _segment_table(tree).splits:
        reach = [{0: -1}]  # -1: every position
        for row in rows:
            r = {}
            for i, t in row:
                for k, c in reach[i].items():
                    c &= parts[t]
                    if c:
                        r[k + 1] = r.get(k + 1, 0) | c
            reach.append(r)
        out.append(reach[-1])
    return out


def _check_facets(tree, facets, glued):
    """A FacetResult per facet of `facets`, every claim of the main
    theorem worked out for all of them at once, as int bitsets over
    their positions (columns), from their gluing `glued` (see
    `partitions._glue_columns`).  Each claim gives fault columns, in the
    order the reasons are reported; the reasons are written out for the
    facets in some fault column only."""
    segs = tree.all_segments
    everyone = (1 << len(facets)) - 1
    theta = gc_vectors.theta_columns(tree, glued.records, len(facets))
    weights = _segment_weights(tree, theta)
    semi, stable = _semistable_columns(tree, weights)
    (reds, greens), close = glued.blocks, partitions._closure_columns
    wide, green_wide = close(tree, reds), close(tree, greens)
    lengths = _length_columns(tree, greens)

    def row(items, columns, f):  # the items whose column holds f
        return [x for x, c in zip(items, columns) if c >> f & 1]

    def value(columns, f):
        return next(v for v, c in columns.items() if c >> f & 1)

    # (positions, reason, or a function of the position giving it)
    faults = [(reduce(or_, map(xor, semi, wide), 0), lambda f: (
        "semistable set %r differs from partition side %r"
        % (row(segs, semi, f), row(segs, wide, f))))]
    faults += [(reds[s] & ~stable[s], "red segment %r not stable" % (seg,))
               for s, seg in enumerate(segs)]
    for s, seg in enumerate(segs):
        composite = wide[s] & ~reds[s]
        faults += [(composite & ~semi[s],
                    "red composite %r not semistable" % (seg,)),
                   (composite & stable[s],
                    "red composite %r unexpectedly stable" % (seg,))]
    for s, seg in enumerate(segs):
        once = twice = fits = 0
        for k, c in lengths[s].items():
            twice |= once & c
            once |= c
            fits |= c & weights[s].get(k, 0)
        faults += [
            (green_wide[s] & ~(once & ~twice), lambda f, s=s: (
                "green composite %r has decomposition lengths %r"
                % (segs[s], [k for k, c in sorted(lengths[s].items())
                             if c >> f & 1]))),
            (green_wide[s] & once & ~twice & ~fits, lambda f, s=s: (
                "green composite %r weighs %d, composition length is %d"
                % (segs[s], value(weights[s], f), value(lengths[s], f))))]
    # a facet glues along a segment of some color exactly when its
    # partition of that color has a block segment
    all_red = everyone & ~reduce(or_, greens, 0)
    all_green = everyone & ~reduce(or_, reds, 0)
    thetas = _theta_rows(theta, len(facets))
    faults += [
        (all_red & ~reduce(and_, (col.get(0, 0) for col in theta), everyone),
         lambda f: "all-red facet weight %r nonzero" % (thetas[f],)),
        (all_red & ~reduce(and_, semi, everyone),
         "all-red facet misses some module"),
        (all_green & ~reduce(and_, (col.get(1, 0) for col in theta),
                             everyone),
         lambda f: "all-green facet weight %r not all ones" % (thetas[f],)),
        (all_green & reduce(or_, semi, 0), lambda f: (
            "all-green facet has semistables %r"
            % (row(string_modules.indecomposables(tree), semi, f),)))]
    faults = [(col, why) for col, why in faults if col]
    results = [FacetResult(facet.index, t) for facet, t in zip(facets, thetas)]
    for f in _bits(reduce(or_, (col for col, _ in faults), 0)):
        results[f].failures = [why(f) if callable(why) else why
                               for col, why in faults if col >> f & 1]
    return results


def _theta_rows(theta, width):
    """Per position, below `width`, its weight: the value columns
    `theta` (see `gc_vectors.theta_columns`) transposed."""
    edges = []
    for col in theta:
        value = {b"".join(b"1" if c == d else b"0" for d in col.values()): v
                 for v, c in col.items()}
        edges.append(map(value.__getitem__,
                         nc_complex._transpose(list(col.values()), width)))
    return list(zip(*edges)) if theta else [()] * width


def check_facet(tree, facet):
    """The claims of the main theorem for one facet of the tree: the
    column route of `verify_kreweras_stability` on it alone, glued by
    itself: the checks across the tree's facets are not run."""
    return _check_facets(tree, (facet,), partitions._glue_columns(
        tree, dict.fromkeys(sorted(facet.payload), 1), 1, False))[0]


def verify_kreweras_stability(tree):
    """Check every facet, in facet order, in one column-wise pass."""
    return SemistableReport(_check_facets(tree, nc_complex.facets(tree),
                                          partitions._gluing(tree)))


# -- poset comparison ----------------------------------------------------


def semistable_poset(tree):
    """Semistable sets of the facet weights under inclusion.  The map
    from noncrossing partitions is checked to be an order isomorphism,
    the poset half of the main statement: both list the facets in
    order, so their up-rows agree.  Each facet's semistable set is read
    off the semi columns of all facet weights."""
    fs = nc_complex.facets(tree)
    semi, _ = _semistable_columns(tree, _segment_weights(
        tree, gc_vectors.theta_columns(
            tree, partitions._gluing(tree).records, len(fs))))
    masks = list(map(nc_complex._as_int, nc_complex._transpose(semi, len(fs))))
    if len(set(masks)) != len(masks):
        raise ConventionError("facet weights share a semistable set")
    segs = tree.all_segments
    po = partitions.Poset([frozenset(segs[s] for s in _bits(m))
                           for m in masks], masks)
    if po.up != partitions.ncp_poset(tree).up:
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
    would sink the converse direction.  Each distinct semistable id
    mask is tested for wideness once."""
    if samples < 0:
        raise ValueError("samples must be >= 0, got %d" % samples)
    rng = random.Random(seed)
    segs, seen = tree.all_segments, set()
    for _ in range(samples):
        theta = tuple(rng.randint(-bound, bound) for _ in range(tree.n))
        semi = _stability(tree, theta)[1]
        for c in SCALES:
            if _stability(tree, tuple(c * t for t in theta))[1] != semi:
                raise ConventionError(
                    "weight %r changes semistables under scaling by %d"
                    % (theta, c))
        members = [segs[s] for s in _bits(semi)]
        if semi not in seen and not string_modules.is_wide(tree, members):
            raise ConventionError("semistable set of %r is not wide: %r"
                                  % (theta, members))
        seen.add(semi)
    return samples, len(seen)
