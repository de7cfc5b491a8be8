"""The tiling algebra of an embedded tree and its string modules.

Quiver nodes are the interior edges; there is one arrow per corner at
which two interior edges meet, pointing to the edge immediately
counterclockwise, and a length-2 path is a relation exactly when both
arrows pivot at the same vertex.  The algebra is gentle and
representation-finite, and its indecomposable modules are the string
modules of the tree's segments, all of them multiplicity-free.

Thinness keeps every piece of linear algebra small and exact: a
morphism between two indecomposables is a scalar per shared edge, a
submodule is a subset of edges closed under the arrow action, and
kernels, cokernels and extension middle terms can be certified over
the rationals without any numerical tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import gc_vectors
from ._exact import nullspace, rank
from .tree_core import Segment


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
        included."""
        n = self.tree.n
        total = n
        outgoing = {}
        for ar in self.arrows:
            outgoing.setdefault(ar.source, []).append(ar)
        forbidden = set(self.relations)

        def extend(path):
            count = 0
            for nxt in outgoing.get(path[-1].target, []):
                if (path[-1], nxt) in forbidden:
                    continue
                assert len(path) < n, "path length exceeds edge count"
                count += 1 + extend(path + [nxt])
            return count

        for ar in self.arrows:
            total += 1 + extend([ar])
        return total


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
        else:
            assert (edges[i + 1], edges[i]) in alg.by_edges
            out.append((i + 1, i))
    return out


def _runs(positions):
    """Maximal runs of consecutive integers, each as a (lo, hi) range."""
    runs = []
    for p in sorted(positions):
        if runs and p == runs[-1][1] + 1:
            runs[-1][1] = p
        else:
            runs.append([p, p])
    return runs


def _run_summands(tree, segment, positions):
    """Decompose an edge-position subset into string summands along the
    segment."""
    vs = segment.vertices
    out = []
    for lo, hi in _runs(positions):
        sub = Segment.canonical(vs[lo:hi + 2])
        out.append(string_module(tree, sub))
    return ModuleSum(out)


def all_submodules(tree, module):
    """Every submodule of an indecomposable, as a decomposed sum.

    A subset of the segment's edges spans a submodule exactly when it
    is closed under the arrow action; thinness means there is nothing
    else a subspace could be."""
    seg = module.segment
    k = len(seg)
    pairs = _action_pairs(tree, seg)
    out = []
    for bits in itertools.product((False, True), repeat=k):
        if any(bits[i] and not bits[j] for i, j in pairs):
            continue
        out.append(_run_summands(tree, seg,
                                 [i for i in range(k) if bits[i]]))
    return out


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
    edges = module.segment.edges()
    used = set()
    for m in sub:
        used |= m.support
    positions = [i for i, e in enumerate(edges) if e not in used]
    return _run_summands(tree, module.segment, positions)


# -- Hom spaces ---------------------------------------------------------


def _acts(segment, arrow):
    """Whether the arrow carries a nonzero map on the segment's string
    module: its two edges must be consecutive in the segment."""
    edges = segment.edges()
    for e1, e2 in zip(edges, edges[1:]):
        if {e1, e2} == {arrow.source, arrow.target}:
            return True
    return False


def _hom_system(tree, X, Y):
    """Unknowns (one scalar per shared edge) and commutation rows for
    Hom(X, Y) between indecomposables."""
    alg = tiling_algebra(tree)
    shared = sorted(X.support & Y.support)
    col = {e: i for i, e in enumerate(shared)}
    rows = []
    for ar in alg.arrows:
        xa = 1 if _acts(X.segment, ar) else 0
        ya = 1 if _acts(Y.segment, ar) else 0
        row = [Fraction(0)] * len(shared)
        # f_target * X_ar = Y_ar * f_source, absent scalars are zero
        if ar.target in col and xa:
            row[col[ar.target]] += 1
        if ar.source in col and ya:
            row[col[ar.source]] -= 1
        if any(row):
            rows.append(row)
    return shared, rows


def hom_dim(tree, M, N):
    """Dimension of the morphism space; additive over direct sums.
    Solved once per pair of indecomposables and tree."""
    ms = M.summands if isinstance(M, ModuleSum) else (M,)
    ns = N.summands if isinstance(N, ModuleSum) else (N,)
    return sum(tree.memo(("hom", X, Y), _hom_dim, X, Y)
               for X in ms for Y in ns)


def _hom_dim(tree, X, Y):
    shared, rows = _hom_system(tree, X, Y)
    return len(shared) - rank(rows)


def hom_basis(tree, X, Y):
    """Basis of Hom(X, Y) as scalar-per-edge dicts."""
    shared, rows = _hom_system(tree, X, Y)
    if not shared:
        return []
    basis = nullspace(rows, len(shared))
    return [{e: vec[i] for i, e in enumerate(shared) if vec[i] != 0}
            for vec in basis]


def hom_table(tree):
    """dim Hom(M(s), M(t)) for all ordered segment pairs."""
    return tree.memo("hom_table", _hom_table)


def _hom_table(tree):
    indecs = indecomposables(tree)
    return MappingProxyType({(X.segment, Y.segment): hom_dim(tree, X, Y)
                             for X in indecs for Y in indecs})


# -- general representations (for cokernels of chosen maps) ------------


class Rep:
    """Representation of the tiling algebra with explicit matrices.

    dims[i] is the dimension at node i; mats[arrow] is a dims[target] x
    dims[source] matrix over Fraction.  Only needed where string sums
    get quotiented by non-split images."""

    def __init__(self, tree, dims, mats):
        self.tree = tree
        self.dims = list(dims)
        self.mats = mats

    @staticmethod
    def from_sum(tree, segments):
        """Block sum of string modules.  Node slots are ordered by
        component index; `slots` maps (component, node) -> row."""
        alg = tiling_algebra(tree)
        n = tree.n
        dims = [0] * n
        slots = {}
        for k, seg in enumerate(segments):
            for e in seg.edge_set():
                i = tree.edge_index[e]
                slots[(k, i)] = dims[i]
                dims[i] += 1
        mats = {}
        for ar in alg.arrows:
            src = tree.edge_index[ar.source]
            tgt = tree.edge_index[ar.target]
            mat = [[Fraction(0)] * dims[src] for _ in range(dims[tgt])]
            for k, seg in enumerate(segments):
                if _acts(seg, ar):
                    mat[slots[(k, tgt)]][slots[(k, src)]] = Fraction(1)
            mats[ar] = mat
        rep = Rep(tree, dims, mats)
        rep.slots = slots
        return rep

    def dim_vector(self):
        return tuple(self.dims)

    def hom_from_string(self, segment):
        """dim Hom(M(segment), self), by exact solve."""
        tree = self.tree
        alg = tiling_algebra(tree)
        sup = [tree.edge_index[e] for e in sorted(segment.edge_set())]
        offset = {}
        total = 0
        for i in sup:
            offset[i] = total
            total += self.dims[i]
        if total == 0:
            return 0
        rows = []
        for ar in alg.arrows:
            src = tree.edge_index[ar.source]
            tgt = tree.edge_index[ar.target]
            if src not in offset:
                continue
            acts = 1 if _acts(segment, ar) else 0
            for r in range(self.dims[tgt]):
                row = [Fraction(0)] * total
                for c in range(self.dims[src]):
                    row[offset[src] + c] += self.mats[ar][r][c]
                if acts and tgt in offset:
                    row[offset[tgt] + r] -= 1
                if any(row):
                    rows.append(row)
        return total - rank(rows)

    def profile(self):
        """Hom-dimensions from every indecomposable; determines the
        isomorphism class."""
        return tuple(self.hom_from_string(s)
                     for s in self.tree.all_segments)


def _string_profile(tree, segment):
    table = hom_table(tree)
    return tuple(table[(s, segment)] for s in tree.all_segments)


def _quotient_maps(column):
    """Projection P with kernel spanned by `column` and a section R
    with P R = id.  Identity pair when the column is zero."""
    d = len(column)
    if all(x == 0 for x in column):
        eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        return eye, eye
    p = next(i for i, x in enumerate(column) if x != 0)
    keep = [i for i in range(d) if i != p]
    P = []
    for i in keep:
        row = [Fraction(0)] * d
        row[i] = Fraction(1)
        row[p] = -Fraction(column[i], 1) / column[p]
        P.append(row)
    R = []
    for i in range(d):
        row = [Fraction(0)] * (d - 1)
        if i != p:
            row[keep.index(i)] = Fraction(1)
        R.append(row)
    return P, R


def _mat_mul(A, B):
    if not A or not B:
        return [[] for _ in A]
    cols = len(B[0])
    inner = len(B)
    return [[sum(A[i][k] * B[k][j] for k in range(inner))
             for j in range(cols)] for i in range(len(A))]


def _cokernel_rep(tree, E, columns):
    """Cokernel of a map from a thin module into E, given the image
    column at each node (zero column where the map misses the node)."""
    alg = tiling_algebra(tree)
    P = {}
    R = {}
    dims = []
    for i in range(tree.n):
        col = columns.get(i, [Fraction(0)] * E.dims[i])
        P[i], R[i] = _quotient_maps(col)
        dims.append(len(P[i]))
    mats = {}
    for ar in alg.arrows:
        src = tree.edge_index[ar.source]
        tgt = tree.edge_index[ar.target]
        mats[ar] = _mat_mul(_mat_mul(P[tgt], E.mats[ar]), R[src])
    return Rep(tree, dims, mats)


# -- extension middle terms ---------------------------------------------


def _candidate_sums(tree, target):
    """Multisets of segments whose indicator vectors sum to `target`.
    Segments are chosen in nondecreasing order; the lowest uncovered
    node prunes the search."""
    target = tuple(target)
    return tree.memo(("candidates", target), _build_candidate_sums, target)


def _build_candidate_sums(tree, target):
    segs = list(tree.all_segments)
    vecs = [string_module(tree, s).dim_vector for s in segs]
    out = []

    def rec(start, remaining, chosen):
        if all(x == 0 for x in remaining):
            out.append(tuple(chosen))
            return
        low = next(i for i, x in enumerate(remaining) if x > 0)
        for k in range(start, len(segs)):
            v = vecs[k]
            if v[low] == 0:
                continue
            if any(v[i] > remaining[i] for i in range(tree.n)):
                continue
            rec(k, tuple(r - x for r, x in zip(remaining, v)),
                chosen + [segs[k]])

    rec(0, target, [])
    return tuple(out)


def _injection_with_cokernel(tree, X, E_segments, Y):
    """Search for an injection X -> sum(E_segments) whose cokernel is
    isomorphic to Y.  Returns True when a certified witness exists.

    Witnesses are exact: injectivity is checked edgewise and the
    cokernel is compared with Y through Hom-profiles against every
    indecomposable, which determine modules up to isomorphism.  The
    search space of coefficient vectors is a finite grid, so a miss is
    possible in principle; every certificate is sound."""
    basis = []
    for k, seg in enumerate(E_segments):
        for b in hom_basis(tree, X, string_module(tree, seg)):
            basis.append((k, b))
    if not basis:
        return False
    xsup = sorted(tree.edge_index[e] for e in X.support)
    # quick reachability: every X-node must be hit by some basis map
    reach = set()
    for k, b in basis:
        for e in b:
            reach.add(tree.edge_index[e])
    if not set(xsup) <= reach:
        return False
    E = Rep.from_sum(tree, E_segments)
    want_dims = tuple(a - b for a, b in
                      zip(E.dim_vector(), X.dim_vector))
    want_profile = _string_profile(tree, Y.segment)
    if len(basis) <= 4:
        grid = itertools.product((-2, -1, 0, 1, 2), repeat=len(basis))
    elif len(basis) <= 9:
        grid = itertools.product((-1, 0, 1), repeat=len(basis))
    else:
        # at most three nonzero coefficients once the space is huge;
        # certificates stay sound, the search just gets sparser
        def sparse():
            for spots in itertools.combinations(range(len(basis)), 3):
                for vals in itertools.product((-1, 0, 1), repeat=3):
                    c = [0] * len(basis)
                    for s, v in zip(spots, vals):
                        c[s] = v
                    yield tuple(c)
        grid = sparse()
    for coeffs in grid:
        if all(c == 0 for c in coeffs):
            continue
        columns = {}
        for i in xsup:
            columns[i] = [Fraction(0)] * E.dims[i]
        ok = True
        for c, (k, b) in zip(coeffs, basis):
            if c == 0:
                continue
            for e, val in b.items():
                i = tree.edge_index[e]
                columns[i][E.slots[(k, i)]] += c * val
        for i in xsup:
            if all(x == 0 for x in columns[i]):
                ok = False
                break
        if not ok:
            continue
        coker = _cokernel_rep(tree, E, columns)
        if coker.dim_vector() != want_dims:
            continue
        if coker.profile() == want_profile:
            return True
    return False


def _certify_middle(tree, X, Y, cand):
    """Whether `cand` is a certified middle term for an extension with
    sub X and quotient Y.  Cached per (sub, quotient, candidate)."""
    split = tuple(sorted((X.segment, Y.segment), key=lambda s: s.vertices))
    if cand == split:
        return True
    return tree.memo(("middle", X.segment, Y.segment, cand),
                     _injection_with_cokernel, X, cand, Y)


def middle_terms(tree, X, Y):
    """Certified middle terms of extensions with sub X and quotient Y,
    as multisets of segments.  The split sum is always present."""
    target = tuple(a + b for a, b in zip(X.dim_vector, Y.dim_vector))
    return tuple(cand for cand in _candidate_sums(tree, target)
                 if _certify_middle(tree, X, Y, cand))


# -- kernel/cokernel closure and wideness --------------------------------


def _map_patterns(tree, X, Y):
    """All achievable (kernel, cokernel) summand sets over morphisms
    X -> Y, via exact zero-set analysis of the Hom space."""
    return tree.memo(("patterns", X.segment, Y.segment),
                     _build_map_patterns, X, Y)


def _build_map_patterns(tree, X, Y):
    shared, rows = _hom_system(tree, X, Y)
    col = {e: i for i, e in enumerate(shared)}
    xedges = X.segment.edges()
    yedges = Y.segment.edges()
    results = set()

    def solution_dim(forced_zero):
        extra = []
        for e in forced_zero:
            row = [Fraction(0)] * len(shared)
            row[col[e]] = Fraction(1)
            extra.append(row)
        return len(shared) - rank(rows + extra)

    for zero_set in itertools.chain.from_iterable(
            itertools.combinations(shared, r)
            for r in range(len(shared) + 1)):
        zs = set(zero_set)
        d = solution_dim(zs)
        # the zero set is exact iff no further shared edge vanishes on
        # the whole solution space
        exact = all(solution_dim(zs | {e}) < d
                    for e in shared if e not in zs)
        if not exact:
            continue
        kpos = [i for i, e in enumerate(xedges)
                if e in zs or e not in Y.support]
        cpos = [i for i, e in enumerate(yedges)
                if e in zs or e not in X.support]
        kernel = _run_summands(tree, X.segment, kpos)
        coker = _run_summands(tree, Y.segment, cpos)
        results.add((kernel, coker))
    return frozenset(results)


def is_wide(tree, indec_set):
    """Whether the additive closure of the given indecomposables is
    wide: closed under kernels and cokernels of morphisms between
    members and under extensions.

    Extension closure is decided through certified middle terms; a
    certificate always names a genuine short exact sequence, so a False
    verdict is exact, while True additionally relies on the middle-term
    search being exhaustive on the finite coefficient grid."""
    members = {m.segment if isinstance(m, StringModule) else m
               for m in indec_set}
    all_segs = set(tree.all_segments)
    assert members <= all_segs, "unknown module in candidate set"
    if members == all_segs or not members:
        return True
    mods = [string_module(tree, s) for s in sorted(members,
                                                   key=lambda s: s.vertices)]
    for X in mods:
        for Y in mods:
            for kernel, coker in _map_patterns(tree, X, Y):
                for part in (kernel, coker):
                    if any(m.segment not in members for m in part):
                        return False
    for X in mods:
        for Y in mods:
            target = tuple(a + b for a, b in
                           zip(X.dim_vector, Y.dim_vector))
            for cand in _candidate_sums(tree, target):
                if all(s in members for s in cand):
                    continue
                if _certify_middle(tree, X, Y, cand):
                    return False
    return True
