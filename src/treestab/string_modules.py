"""The tiling algebra of an embedded tree and its string modules.

Quiver nodes are the interior edges; there is one arrow per corner at
which two interior edges meet, pointing to the edge immediately
counterclockwise, and a length-2 path is a relation exactly when both
arrows pivot at the same vertex.  The algebra is gentle and
representation-finite, and its indecomposable modules are the string
modules of the tree's segments, all of them multiplicity-free.

Thinness and the tree reduce the module theory to set operations on
segments, with no linear algebra.  A submodule is a subset of edges
closed under the arrow action.  Two segments share at most one run r
of edges, so a morphism between two indecomposables is either zero or
the graph map that is the identity on r (Crawley-Boevey's graph maps):
Hom(M(s), M(t)) is nonzero exactly when K_s and C_t meet, in r, one AND
of two id masks of the sub-segment table (`gc_vectors._subsegments`).
Ext^1 between two of them has at most one non-split middle term, an
arrow or an overlap extension (Canakci-Pauksztello-Schroll, "On
extensions for gentle algebras").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gc_vectors
from .tree_core import ConventionError, Segment, _id, _segment_table, \
    segment_turns


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
    return StringModule(segment, gc_vectors.indicator(tree, segment.edges()))


def indecomposables(tree):
    return tree.memo("indecomposables", _indecomposables)


def _indecomposables(tree):
    return tuple(string_module(tree, s) for s in tree.all_segments)


def string_word(tree, segment):
    """Display form of the segment's string: edges joined by the arrow
    or inverse arrow between them."""
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


def _action_pairs(tree, segment):
    """Ordered pairs (i, j) of edge positions of the segment such that
    the arrow between edge i and edge j points i -> j."""
    alg = tiling_algebra(tree)
    edges = segment.edges()
    out = []
    for i in range(len(edges) - 1):
        if (edges[i], edges[i + 1]) in alg.by_edges:
            out.append((i, i + 1))
        elif (edges[i + 1], edges[i]) in alg.by_edges:
            out.append((i + 1, i))
        else:
            raise ConventionError("no arrow between edges %r and %r of %r"
                                  % (edges[i], edges[i + 1], segment))
    return out


def _run_summands(tree, segment, positions):
    """Decompose an edge-position subset into string summands along the
    segment, one per maximal run of consecutive positions."""
    runs = []
    for p in sorted(positions):
        if runs and p == runs[-1][1] + 1:
            runs[-1][1] = p
        else:
            runs.append([p, p])
    vs = segment.vertices
    return ModuleSum(string_module(tree, Segment.canonical(vs[lo:hi + 2]))
                     for lo, hi in runs)


def all_submodules(tree, module):
    """Every submodule of an indecomposable, as a decomposed sum.

    A subset of the segment's edges spans a submodule exactly when it
    is closed under the arrow action; thinness means there is nothing
    else a subspace could be."""
    seg = module.segment
    k = len(seg)
    pairs = _action_pairs(tree, seg)
    return [_run_summands(tree, seg, [i for i in range(k) if bits[i]])
            for bits in itertools.product((False, True), repeat=k)
            if not any(bits[i] and not bits[j] for i, j in pairs)]


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
    of strings on the leftover runs."""
    if sub not in all_submodules(tree, module):
        raise ValueError("%r is not a submodule of %r" % (sub, module))
    return _quotient(tree, module, sub)


def _quotient(tree, module, sub):
    """Quotient by a known submodule: the strings on the edge positions
    the submodule leaves out."""
    used = set().union(*(m.support for m in sub))
    return _run_summands(tree, module.segment,
                         [i for i, e in enumerate(module.segment.edges())
                          if e not in used])


# -- Hom spaces ---------------------------------------------------------


def _shared_run(s, t):
    """The path two segments share, as a vertex tuple in the direction
    of s, or None when they share no edge.  Two paths in a tree meet in
    one path, so the shared vertices are consecutive along s."""
    tv = set(t.vertices)
    run = tuple(v for v in s.vertices if v in tv)
    return run if len(run) > 1 else None


def _outside(segment, run):
    """The segments of `segment` on either side of `run`, one of its
    sub-paths in either direction."""
    vs = segment.vertices
    i, j = sorted((vs.index(run[0]), vs.index(run[-1])))
    return [Segment.canonical(p) for p in (vs[:i + 1], vs[j:]) if len(p) > 1]


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
    M(s) and quotient M(t), sorted, or None when Ext^1(M(t), M(s)) = 0.
    Built once per pair and tree."""
    return tree.memo(("ext", s, t), _build_nonsplit, s, t)


def _build_nonsplit(tree, s, t):
    run = _shared_run(s, t)
    if run is None:
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


# -- kernel/cokernel closure and wideness --------------------------------


def is_wide(tree, indec_set):
    """Whether the additive closure of the given indecomposables is
    wide: closed under kernels and cokernels of morphisms between
    members and under extensions.

    Every ordered pair of members is checked: the kernel of the graph
    map on r (the part of s outside r), its cokernel (the part of t
    outside r) and the middle term of the non-split extension must lie
    in the set.  Raises ValueError on a segment that does not belong to
    the tree."""
    members = {m.segment if isinstance(m, StringModule) else m
               for m in indec_set}
    unknown = members - set(tree.all_segments)
    if unknown:
        raise ValueError("not a segment of this tree: %s" % ", ".join(
            repr(s) for s in _by_vertices(unknown)))
    for s in members:
        for t in members:
            r = _graph_map(tree, s, t)
            if r is not None and not members.issuperset(
                    _outside(s, r.vertices) + _outside(t, r.vertices)):
                return False
            term = _nonsplit(tree, s, t)
            if term is not None and not members.issuperset(term):
                return False
    return True
