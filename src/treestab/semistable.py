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
stable columns, per claim a fault column.  Reasons, weights and
per-facet results are written out for the failing facets only, and for
the rest when a report's `results` are read.  The facet weights'
columns are one table per tree (`_facet_weights`), which the theorem's
checks, the order isomorphism and `semistable_poset` all read.  The
partition side of the theorem, where a segment's ends share a block,
comes from the gluing; where it is the semistable side everywhere, the
order isomorphism follows (see `_check_order`) and no poset is built
to check it.
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


def _facet_weights(tree):
    """The `_weigh` table of the tree's facets, built once."""
    width = len(nc_complex.facets(tree))  # so `facets` builds them
    return tree.memo("facet_weights", _weigh, nc_complex._marking(tree)[2],
                     width)


def _weigh(tree, records, width):
    """(theta, weights, semi, stable) of `width` facets, off their record
    table `records`: the value columns of their weights per edge (see
    `gc_vectors.theta_columns`) and per segment (`_segment_weights`),
    and the semistable and stable columns (`_semistable_columns`)."""
    theta = gc_vectors.theta_columns(tree, records, width)
    weights = _segment_weights(tree, theta)
    return (theta, weights, *_semistable_columns(tree, weights))


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


class SemistableReport:
    """The main theorem's checks on `count` facets: `results` holds a
    FacetResult per facet, in order, and `failing` those of the failing
    facets, which is all that `all_passed`, `summary_line` and
    `failures` read.  Built from the results; the column route builds
    the failing ones alone, and the rest when `results` is first read
    (`_lazy`)."""

    def __init__(self, results):
        self._results = list(results)
        self.count = len(self._results)
        self.failing = [r for r in self._results if not r.passed]

    @classmethod
    def _lazy(cls, count, failing, make):
        """A report whose `results` are `make()`, run on first read."""
        report = cls.__new__(cls)
        report.count, report.failing = count, failing
        report._results, report._make = None, make
        return report

    @property
    def results(self):
        if self._results is None:
            self._results = self._make()
        return self._results

    @property
    def all_passed(self):
        return not self.failing

    def summary_line(self):
        return "%d/%d facets pass" % (self.count - len(self.failing),
                                      self.count)

    def failures(self):
        return [(r.index, f) for r in self.failing for f in r.failures]


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


def _check_facets(tree, facets, glued, weighed):
    """The SemistableReport of `facets`, every claim of the main theorem
    worked out for all of them at once, as int bitsets over their
    positions (columns), from their gluing `glued` (see
    `partitions._glue_columns`) and their `_weigh` table `weighed`: the
    partition side is where a segment's ends share a block.  Each claim
    gives fault columns, in the order the reasons are reported; the
    reasons, and the weights, are written out for the facets in some
    fault column only, until the report's `results` are read."""
    segs = tree.all_segments
    everyone = (1 << len(facets)) - 1
    theta, weights, semi, stable = weighed
    (reds, greens), (wide, green_wide) = glued.blocks, glued.ends
    lengths = _length_columns(tree, greens)

    def row(items, columns, f):  # the items whose column holds f
        return [x for x, c in zip(items, columns) if c >> f & 1]

    def value(columns, f):
        return next(v for v, c in columns.items() if c >> f & 1)

    def weight(f):
        return tuple(value(col, f) for col in theta)

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
    faults += [
        (all_red & ~reduce(and_, (col.get(0, 0) for col in theta), everyone),
         lambda f: "all-red facet weight %r nonzero" % (weight(f),)),
        (all_red & ~reduce(and_, semi, everyone),
         "all-red facet misses some module"),
        (all_green & ~reduce(and_, (col.get(1, 0) for col in theta),
                             everyone),
         lambda f: "all-green facet weight %r not all ones" % (weight(f),)),
        (all_green & reduce(or_, semi, 0), lambda f: (
            "all-green facet has semistables %r"
            % (row(string_modules.indecomposables(tree), semi, f),)))]
    faults = [(col, why) for col, why in faults if col]
    failing = {f: FacetResult(facets[f].index, weight(f), [
        why(f) if callable(why) else why
        for col, why in faults if col >> f & 1])
        for f in _bits(reduce(or_, (col for col, _ in faults), 0))}

    def results():
        out = [FacetResult(facet.index, t) for facet, t in
               zip(facets, _theta_rows(theta, len(facets)))]
        for f, result in failing.items():
            out[f] = result
        return out

    return SemistableReport._lazy(len(facets), list(failing.values()),
                                  results)


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
    records = dict.fromkeys(sorted(facet.payload), 1)
    return _check_facets(tree, (facet,), partitions._glue_columns(
        tree, records, 1, False), _weigh(tree, records, 1)).results[0]


def verify_kreweras_stability(tree):
    """Check every facet, in facet order, in one column-wise pass."""
    return _check_facets(tree, nc_complex.facets(tree),
                         partitions._gluing(tree), _facet_weights(tree))


# -- poset comparison ----------------------------------------------------


def semistable_poset(tree):
    """Semistable sets of the facet weights under inclusion, checked to
    be isomorphic to the noncrossing partitions under refinement (see
    `_check_order`)."""
    segs = tree.all_segments
    masks = _check_order(tree)
    return partitions.Poset([frozenset(segs[s] for s in _bits(m))
                             for m in masks], masks)


def _check_order(tree):
    """The poset half of the main statement: the map from noncrossing
    partitions to the semistable sets of the facet weights is an order
    isomorphism.  Both list the facets in order.  Write R(p) for the
    vertex pairs that share a red block at position p, and E(p) for the
    segments whose end pair lies in R(p) (`_Gluing.ends`).  Refinement
    is inclusion of R, and R(p) <= R(q) exactly when E(p) <= E(q): E
    reads R at end pairs only, and R(p) is the transitive closure of the
    end pairs of the segments glued at p, which all lie in E(p).  So
    where each semi column is the red ends column, inclusion of
    semistable sets is refinement, and distinct partitions, which the
    gluing checks, give distinct sets.  Where some column differs,
    which a doctored table alone brings about, the two posets are built
    whole and compared.  Returns the facets' semistable sets, as id
    masks, which must differ."""
    glued, semi = partitions._gluing(tree), _facet_weights(tree)[2]
    masks = list(map(nc_complex._as_int, nc_complex._transpose(
        semi, len(glued.complement))))
    if len(set(masks)) != len(masks):
        raise ConventionError("facet weights share a semistable set")
    if semi != glued.ends[0] and partitions.Poset(
            masks, masks).up != partitions.ncp_poset(tree).up:
        raise ConventionError(
            "semistable order disagrees with refinement order")
    return masks


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
