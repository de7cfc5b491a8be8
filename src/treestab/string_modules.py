"""The tiling algebra of an embedded tree and its string modules.

Quiver nodes are the interior edges; there is one arrow per corner at
which two interior edges meet, pointing to the edge immediately
counterclockwise, and a length-2 path is a relation exactly when both
arrows pivot at the same vertex.  The algebra is gentle and
representation-finite, and its indecomposable modules are the string
modules of the tree's segments, all of them multiplicity-free.

Thinness and the tree reduce the module theory to set operations on
segments, off the id masks of C_s and K_s (`gc_vectors._subsegments`),
with no linear algebra and no arrow looked up.  A subset of the edges
of s spans a submodule exactly when each of its runs is in C_s; it is
kept with its quotient as the segment ids of their runs
(`_submodules`).  Two segments s and t share at most one run r of
edges, so a morphism M(s) -> M(t) is zero or the graph map that is the
identity on r (Crawley-Boevey's graph maps): it is nonzero exactly
when K_s and C_t meet, in r, one AND of two id masks.  Ext^1 between
two of them has at most one non-split middle term, an arrow or an
overlap extension (Canakci-Pauksztello-Schroll, "On extensions for
gentle algebras"); `middle_terms` needs it, `is_wide` does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gc_vectors
from .tree_core import Segment, _bits, _id, _segment_table, segment_turns


@dataclass(frozen=True)
class Arrow:
    source: tuple
    target: tuple
    vertex: object
    face: int

    def __repr__(self):
        return "%s->%s@%s" % ("-".join(self.source), "-".join(self.target),
                              self.vertex)


class TilingAlgebra:
    """Quiver plus relations; nodes are interior-edge indices."""

    def __init__(self, tree):
        self.tree = tree
        interior = set(tree.interior_edges)
        arrows = []
        for v in tree.interior_vertices:
            for a in tree.rotation[v]:
                e = tuple(sorted((v, a)))
                if e not in interior:
                    continue
                b = tree.ccw_next(v, a)
                e2 = tuple(sorted((v, b)))
                if e2 not in interior:
                    continue
                arrows.append(Arrow(e, e2, v, tree.sector_face[(v, a)]))
        arrows.sort(key=lambda ar: (ar.source, ar.target))
        self.arrows = tuple(arrows)
        # relations: consecutive arrows pivoting at one vertex.  The
        # face condition (second corner immediately ccw from the first)
        # is automatic for two corners at a common vertex.
        rels = []
        for first in self.arrows:
            for second in self.arrows:
                if first.target == second.source and first.vertex == second.vertex:
                    rels.append((first, second))
        self.relations = tuple(rels)
        self.by_edges = {(ar.source, ar.target): ar for ar in self.arrows}

    def dimension(self):
        """Number of paths with no relation sub-path, trivial paths
        included.  Consecutive arrows of such a path pivot at different
        vertices, so it runs along a segment whose arrows all point one
        way, which is a segment that turns the same way at every inner
        vertex; each such segment with two or more edges carries one."""
        return self.tree.n + sum(len(set(segment_turns(self.tree, s))) == 1
                                 for s in self.tree.all_segments)


def tiling_algebra(tree):
    return tree.memo("algebra", TilingAlgebra)


def algebra_dimension(tree):
    return tiling_algebra(tree).dimension()


@dataclass(frozen=True)
class StringModule:
    """Indecomposable module of the tiling algebra, one per segment.
    The dimension vector is the 0/1 indicator of the segment's edges."""

    segment: Segment
    dim_vector: tuple

    @property
    def support(self):
        return self.segment.edge_set()

    def __repr__(self):
        return "M(%r)" % (self.segment,)


def string_module(tree, segment):
    """M(segment); ValueError for a segment that is not the tree's."""
    _id(tree, segment)
    return StringModule(segment, gc_vectors.indicator(tree, segment.edges()))


def indecomposables(tree):
    return tree.memo("indecomposables", _indecomposables)


def _indecomposables(tree):
    return tuple(string_module(tree, s) for s in tree.all_segments)


def string_word(tree, segment):
    """Display form of the segment's string: edges joined by the arrow
    or inverse arrow between them.  Raises ValueError on a segment that
    is not the tree's."""
    _id(tree, segment)
    alg = tiling_algebra(tree)
    names = {ar: "a%d" % i for i, ar in enumerate(alg.arrows)}
    edges = segment.edges()
    parts = ["|".join(edges[0])]
    for e1, e2 in zip(edges, edges[1:]):
        if (e1, e2) in alg.by_edges:
            parts.append("-%s>" % names[alg.by_edges[(e1, e2)]])
        else:
            parts.append("<%s-" % names[alg.by_edges[(e2, e1)]])
        parts.append("|".join(e2))
    return " ".join(parts)


class ModuleSum:
    """Finite multiset of string modules, kept sorted for equality."""

    def __init__(self, summands=()):
        self.summands = tuple(sorted(summands,
                                     key=lambda m: m.segment.vertices))

    def dim_vector(self, tree):
        vec = [0] * tree.n
        for m in self.summands:
            for i, x in enumerate(m.dim_vector):
                vec[i] += x
        return tuple(vec)

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def __eq__(self, other):
        return isinstance(other, ModuleSum) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        if not self.summands:
            return "0"
        return " + ".join(repr(m) for m in self.summands)


# -- submodule combinatorics -------------------------------------------


def _submodules(tree):
    """The tree's submodule table, built once."""
    return tree.memo("submodules", _build_submodules)


def _build_submodules(tree):
    """Per segment id, per arrow-closed edge subset in `itertools.product`
    order: (ids of the submodule's runs, ids of the quotient's runs),
    the maximal runs of edges in and out of the subset, off the splits.
    It is closed exactly when each of its runs is in C_s: the arrow at
    an inner vertex where a run starts points into it exactly when s
    turns right there, the one where it ends when s turns left there."""
    C = gc_vectors._subsegments(tree)[0]
    table = []
    for s, rows in enumerate(_segment_table(tree).splits):
        options, k = [], len(rows)
        for bits in itertools.product((False, True), repeat=k):
            runs, lo = ([], []), 0
            for end in range(1, k + 1):
                if end == k or bits[end] != bits[lo]:
                    t = rows[end - 1][lo][1]
                    if bits[lo] and not C[s] >> t & 1:
                        break
                    runs[not bits[lo]].append(t)
                    lo = end
            else:
                options.append(tuple(map(tuple, runs)))
        table.append(tuple(options))
    return tuple(table)


def _module_sum(tree, ids):
    """The sum of the indecomposables with these segment ids."""
    inds = indecomposables(tree)
    return ModuleSum(inds[i] for i in ids)


def all_submodules(tree, module):
    """Every submodule of an indecomposable, as a decomposed sum.

    A subset of the segment's edges spans a submodule exactly when it
    is closed under the arrow action; thinness means there is nothing
    else a subspace could be.  Raises ValueError on a foreign module."""
    return [_module_sum(tree, sub)
            for sub, _ in _submodules(tree)[_id(tree, module.segment)]]


def indecomposable_submodules(tree, module):
    """{M(t) : t in C_s}; agrees with the closed-subset enumeration."""
    return {string_module(tree, t)
            for t in gc_vectors.submodule_segments(tree, module.segment)}


def indecomposable_quotients(tree, module):
    """{M(t) : t in K_s}."""
    return {string_module(tree, t)
            for t in gc_vectors.quotient_segments(tree, module.segment)}


def quotient_by(tree, module, sub):
    """Quotient of an indecomposable by one of its submodules, as a sum
    of strings on the leftover runs; `sub` is a sum, or one summand.
    Raises ValueError on a foreign module, or a sub that is not its."""
    sub = sub if isinstance(sub, ModuleSum) else ModuleSum((sub,))
    for subs, quots in _submodules(tree)[_id(tree, module.segment)]:
        if _module_sum(tree, subs) == sub:
            return _module_sum(tree, quots)
    raise ValueError("%r is not a submodule of %r" % (sub, module))


# -- Hom spaces ---------------------------------------------------------


def _graph_map(tree, s, t):
    """The run r a nonzero map M(s) -> M(t) is the identity on, or None
    when Hom is 0.  A graph map is the identity on a quotient segment
    of s that is a submodule segment of t, and there is at most one: it
    is the run s and t share.  Raises ValueError on a segment that is
    not the tree's."""
    C, K = gc_vectors._subsegments(tree)
    r = K[_id(tree, s)] & C[_id(tree, t)]
    return tree.all_segments[r.bit_length() - 1] if r else None


def hom_dim(tree, M, N):
    """Dimension of the morphism space; additive over direct sums."""
    ms = M.summands if isinstance(M, ModuleSum) else (M,)
    ns = N.summands if isinstance(N, ModuleSum) else (N,)
    return sum(1 for X in ms for Y in ns
               if _graph_map(tree, X.segment, Y.segment) is not None)


def hom_basis(tree, X, Y):
    """Basis of Hom(X, Y) as scalar-per-edge dicts: empty, or the one
    graph map, 1 on every edge of the shared run."""
    r = _graph_map(tree, X.segment, Y.segment)
    return [] if r is None else [dict.fromkeys(r.edges(), 1)]


# -- extensions ------------------------------------------------------------


def _by_vertices(segments):
    return tuple(sorted(segments, key=lambda s: s.vertices))


def _nonsplit(tree, s, t):
    """Segments of the middle term of the non-split extension with sub
    M(s) and quotient M(t), sorted, or None when Ext^1(M(t), M(s)) = 0."""
    # the path s and t share: two tree paths meet in one, in order on s
    run = [v for v in s.vertices if v in t.vertices]
    if len(run) < 2:
        # arrow extension: s and t meet end to end in the segment u
        C, K = gc_vectors._subsegments(tree)
        i, j = _id(tree, s), _id(tree, t)
        u = _segment_table(tree).compose[i].get(j)
        if u is not None and C[u] >> i & K[u] >> j & 1:
            return (tree.all_segments[u],)
        return None
    # overlap extension: s = s1 r s2 and t = t1 r t2 with r running the
    # same way in both; the middle term is s1 r t2 + t1 r s2
    sv = s.vertices
    tv = t.vertices
    if tv.index(run[0]) > tv.index(run[-1]):
        tv = tv[::-1]
    i, k = sv.index(run[0]), tv.index(run[0])
    pieces = _by_vertices((Segment.canonical(sv[:i] + tv[k:]),
                           Segment.canonical(tv[:k] + sv[i:])))
    if pieces == _by_vertices((s, t)):
        return None
    if all(_graph_map(tree, s, p) is not None
           and _graph_map(tree, p, t) is not None for p in pieces):
        return pieces
    return None


def middle_terms(tree, X, Y):
    """Middle terms of the extensions with sub X and quotient Y, as
    multisets of segments: the split sum, then the non-split term when
    Ext^1(Y, X) is not zero (it is at most one-dimensional)."""
    split = _by_vertices((X.segment, Y.segment))
    term = _nonsplit(tree, X.segment, Y.segment)
    return (split,) if term is None else (split, term)


# -- wideness ------------------------------------------------------------


def _outside(rows, r):
    """Ids of the parts of a segment outside its sub-segment r, off its
    splits `rows`: positions 0..i and j..end, for r between i and j."""
    i, j = next((i, j) for j, row in enumerate(rows, 1)
                for i, t in row if t == r)
    return ([rows[i - 1][0][1]] if i else []) + \
        ([rows[-1][j][1]] if j < len(rows) else [])


def is_wide(tree, indec_set):
    """Whether the additive closure of the given indecomposables is
    wide: closed under kernels, cokernels and extensions.  Raises
    ValueError on a segment that is not the tree's.

    On member ids: (a) a composition s t = u of members is a member,
    and (b) for a graph map M(s) -> M(t) between members, the identity
    on r = K_s & C_t, the parts of s and t outside r (its kernel and
    cokernel) are members.  Wide implies (a): s t = u is the middle term
    of a non-split arrow extension in one order (s in C_u and t in K_u
    when u turns left at the junction, the reverse otherwise).  A
    non-split overlap extension of s = s1 r s2 and t = t1 r t2 forces r
    in K_s & C_t; s1, s2, t1 and t2 are then kernel and cokernel pieces,
    r, s1 r and t1 r cokernels of graph maps from them, and both middle
    terms s1 r t2 and t1 r s2 compositions: (a) and (b) give closure
    under extensions."""
    members = 0
    for m in indec_set:
        members |= 1 << _id(tree, m.segment if isinstance(m, StringModule)
                            else m)
    table = _segment_table(tree)
    C, K = gc_vectors._subsegments(tree)
    for s in _bits(members):
        if any(members >> t & 1 and not members >> u & 1
               for t, u in table.compose[s].items()):
            return False
        for t in _bits(members):
            r = (K[s] & C[t]).bit_length() - 1
            if r >= 0 and not all(members >> p & 1 for p in _outside(
                    table.splits[s], r) + _outside(table.splits[t], r)):
                return False
    return True
