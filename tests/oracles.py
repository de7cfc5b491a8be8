"""Independent recomputations used to cross-check the engine.

Everything here derives the same objects from a different definition
than the production code: segments from edge-face incidence instead of
rotation adjacency, submodules from explicit matrix invariance instead
of turn conditions, semistability from the full submodule lattice
instead of the indecomposable shortcut, Hom and Ext^1 from matrix
ranks instead of segment overlaps.  Slow is fine; different is the
point.
"""

import itertools
from fractions import Fraction

from treestab import string_modules
from treestab.tree_core import Segment


def compose_by_join(tree, s, t):
    """Concatenation of two segments sharing exactly one endpoint, when
    the concatenation is again a segment; None otherwise."""
    sv, tv = s.vertices, t.vertices
    joined = None
    for a in (sv, sv[::-1]):
        for b in (tv, tv[::-1]):
            if a[-1] == b[0]:
                cand = a + b[1:]
                if len(set(cand)) != len(cand):
                    continue
                if not tree.is_extreme_path(list(cand)):
                    continue
                new = Segment.canonical(cand)
                if joined is not None and new != joined:
                    return None
                joined = new
    return joined


def edge_faces(tree, edge):
    """The two faces bordering an interior edge."""
    u, v = edge
    return {tree.sector_face[(u, v)], tree.sector_face[(v, u)]}


def face_extreme_paths(tree):
    """Segments characterized by consecutive edges sharing a face."""
    out = set()
    vs = tree.interior_vertices
    for a, b in itertools.combinations(vs, 2):
        path = tree.path_between(a, b)
        edges = [tuple(sorted(p)) for p in zip(path, path[1:])]
        if all(edge_faces(tree, e1) & edge_faces(tree, e2)
               for e1, e2 in zip(edges, edges[1:])):
            out.add(Segment.canonical(path))
    return out


# -- matrix-level module theory ------------------------------------------


def _letters(tree, segment):
    """Arrow per consecutive edge pair, with its direction along the
    segment: (arrow, True) when the arrow points forward."""
    alg = string_modules.tiling_algebra(tree)
    edges = segment.edges()
    out = []
    for e1, e2 in zip(edges, edges[1:]):
        if (e1, e2) in alg.by_edges:
            out.append((alg.by_edges[(e1, e2)], True))
        else:
            out.append((alg.by_edges[(e2, e1)], False))
    return out


def closed_patterns(tree, segment):
    """Edge-position subsets invariant under every arrow matrix.

    The module is thin, so a subspace compatible with the grading is a
    coordinate pattern; invariance is checked on the actual 1x1 matrix
    blocks rather than any turn rule."""
    edges = segment.edges()
    k = len(edges)
    arrows = _letters(tree, segment)
    patterns = []
    for bits in itertools.product((0, 1), repeat=k):
        ok = True
        for idx, (arrow, forward) in enumerate(arrows):
            src, tgt = (idx, idx + 1) if forward else (idx + 1, idx)
            # arrow matrix is [1] between these slots; invariance means
            # the image of a kept slot is kept
            if bits[src] and not bits[tgt]:
                ok = False
                break
        if ok:
            patterns.append(frozenset(i for i in range(k) if bits[i]))
    return patterns


def _pattern_runs(segment, pattern):
    vs = segment.vertices
    runs = []
    current = None
    for i in range(len(segment)):
        if i in pattern:
            if current is None:
                current = [i, i]
            else:
                current[1] = i
        elif current is not None:
            runs.append(current)
            current = None
    if current is not None:
        runs.append(current)
    return [Segment.canonical(vs[lo:hi + 2]) for lo, hi in runs]


def submodule_edge_sets(tree, segment):
    """All submodules as frozen edge sets."""
    edges = segment.edges()
    return {frozenset(edges[i] for i in p)
            for p in closed_patterns(tree, segment)}


def indec_subs(tree, segment):
    """Submodule patterns forming one contiguous run."""
    out = set()
    for p in closed_patterns(tree, segment):
        runs = _pattern_runs(segment, p)
        if len(runs) == 1 and len(p) > 0:
            out.add(runs[0])
    return out


def indec_quots(tree, segment):
    """Quotients by submodule patterns whose complement is one run."""
    out = set()
    k = len(segment)
    for p in closed_patterns(tree, segment):
        comp = frozenset(range(k)) - p
        runs = _pattern_runs(segment, comp)
        if len(runs) == 1 and comp:
            out.add(runs[0])
    return out


def hom_count(tree, s, t):
    """Graph-map count: quotient shapes of s that are sub shapes of t."""
    return len(indec_quots(tree, s) & indec_subs(tree, t))


def closed_under_graph_maps(tree, members):
    """Wideness of a set of segments, by closure under the kernel and
    cokernel of every graph map between members (matrix-invariant
    quotient and sub shapes) and under composition of members."""
    for s in members:
        for t in members:
            u = compose_by_join(tree, s, t)
            if u is not None and u not in members:
                return False
            for q in indec_quots(tree, s) & indec_subs(tree, t):
                for seg in (s, t):
                    rest = {i for i, e in enumerate(seg.edges())
                            if e not in q.edge_set()}
                    if not set(_pattern_runs(seg, rest)) <= members:
                        return False
    return True


def rank(rows):
    """Rank of an integer or rational matrix, by exact elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def _acts(segment, arrow):
    """Whether the arrow acts (as 1) on the string module of the
    segment: its two edges must be consecutive in the segment."""
    edges = segment.edges()
    return any({e1, e2} == {arrow.source, arrow.target}
               for e1, e2 in zip(edges, edges[1:]))


def ext_dim(tree, s, t):
    """dim Ext^1(M(t), M(s)) from the start of the standard resolution:
    cocycles (f_a : M(t)_source -> M(s)_target per arrow a) with
    X_b f_a + f_b Y_a = 0 for each relation (a, b), modulo the
    coboundaries X_a h - h Y_a of edgewise maps h.  X is M(s) and Y is
    M(t); both are thin, so every block is 1x1."""
    alg = string_modules.tiling_algebra(tree)
    xs, ys = s.edge_set(), t.edge_set()
    cols = [ar for ar in alg.arrows if ar.source in ys and ar.target in xs]
    col = {ar: i for i, ar in enumerate(cols)}
    cocycle = []
    for a, b in alg.relations:
        row = [0] * len(cols)
        if a in col and _acts(s, b):
            row[col[a]] += 1
        if b in col and _acts(t, a):
            row[col[b]] += 1
        cocycle.append(row)
    shared = sorted(xs & ys)
    coboundary = []
    for e in shared:
        row = [0] * len(cols)
        for ar in cols:
            if ar.source == e and _acts(s, ar):
                row[col[ar]] += 1
            if ar.target == e and _acts(t, ar):
                row[col[ar]] -= 1
        coboundary.append(row)
    return len(cols) - rank(cocycle) - rank(coboundary)


def _commutes(tree, x, y, f):
    """Whether the edgewise scalars f (edge -> value, zero elsewhere)
    form a module map M(x) -> M(y)."""
    for ar in string_modules.tiling_algebra(tree).arrows:
        lhs = f.get(ar.target, 0) if _acts(x, ar) else 0
        rhs = f.get(ar.source, 0) if _acts(y, ar) else 0
        if lhs != rhs:
            return False
    return True


def is_short_exact(tree, s, pieces, t):
    """Whether 0 -> M(s) -> sum M(p) -> M(t) -> 0 is exact for the maps
    that are 1 on the edges s shares with each piece p and, into M(t),
    (-1)^k on the edges piece k shares with t.  Checks that each
    component commutes with every arrow, then edge by edge that the
    first map is injective, the second surjective, their composite zero
    and the dimensions add up, which together give exactness."""
    xs, ys = s.edge_set(), t.edge_set()
    into = [dict.fromkeys(xs & p.edge_set(), 1) for p in pieces]
    onto = [dict.fromkeys(p.edge_set() & ys, (-1) ** k)
            for k, p in enumerate(pieces)]
    if not all(_commutes(tree, s, p, f) and _commutes(tree, p, t, g)
               for p, f, g in zip(pieces, into, onto)):
        return False
    for e in tree.interior_edges:
        i = [f.get(e, 0) for f in into]
        o = [g.get(e, 0) for g in onto]
        if sum(1 for p in pieces if e in p.edge_set()) != \
                (e in xs) + (e in ys):
            return False
        if (e in xs and not any(i)) or (e in ys and not any(o)):
            return False
        if sum(a * b for a, b in zip(i, o)) != 0:
            return False
    return True


def semistable_full_lattice(tree, theta, segment):
    """King's condition checked on every submodule, not only the
    indecomposable ones."""
    edges = segment.edges()
    idx = [tree.edge_index[e] for e in edges]
    if sum(theta[i] for i in idx) != 0:
        return False
    for p in closed_patterns(tree, segment):
        if len(p) == len(edges):
            continue
        if sum(theta[idx[i]] for i in p) > 0:
            return False
    return True


# -- brute-force noncrossing facets --------------------------------------


def brute_facets(tree, arcs, crossing):
    """Maximal noncrossing arc sets by subset scan; only viable for a
    handful of arcs."""
    assert len(arcs) <= 12, "subset scan would blow up"
    sets = []
    for r in range(len(arcs) + 1):
        for combo in itertools.combinations(arcs, r):
            if any(crossing(a, b) for a, b in
                   itertools.combinations(combo, 2)):
                continue
            sets.append(frozenset(combo))
    maximal = [s for s in sets
               if not any(s < t for t in sets)]
    return set(maximal)


def scan_flip_neighbors(facet, all_facets):
    """Facets differing from `facet` in exactly one non-boundary arc,
    by comparing it with every facet."""
    mine = set(facet.colored)
    out = []
    for g in all_facets:
        theirs = set(g.colored)
        if len(mine - theirs) == 1 and len(theirs - mine) == 1:
            out.append(g)
    return out


# -- dense posets --------------------------------------------------------


class DensePoset:
    """Finite poset with explicit relation matrix, filled by calling
    `leq` on every pair of elements."""

    def __init__(self, elements, leq):
        self.elements = list(elements)
        k = len(self.elements)
        self.matrix = [[bool(leq(self.elements[i], self.elements[j]))
                        for j in range(k)] for i in range(k)]
        for i in range(k):
            assert self.matrix[i][i], "order must be reflexive"
            for j in range(k):
                if i != j and self.matrix[i][j] and self.matrix[j][i]:
                    raise ValueError("elements %d and %d are order-equal"
                                     % (i, j))

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return self.matrix[i][j]

    def covers(self):
        """Pairs (i, j) with i covered by j."""
        k = len(self.elements)
        out = []
        for i in range(k):
            for j in range(k):
                if i == j or not self.matrix[i][j]:
                    continue
                if any(m != i and m != j and self.matrix[i][m]
                       and self.matrix[m][j] for m in range(k)):
                    continue
                out.append((i, j))
        return out

    def _bound_ids(self, i, j, upper):
        k = len(self.elements)
        if upper:
            bounds = [m for m in range(k)
                      if self.matrix[i][m] and self.matrix[j][m]]
            least = [m for m in bounds
                     if all(self.matrix[m][x] for x in bounds)]
        else:
            bounds = [m for m in range(k)
                      if self.matrix[m][i] and self.matrix[m][j]]
            least = [m for m in bounds
                     if all(self.matrix[x][m] for x in bounds)]
        return least

    def is_lattice(self):
        k = len(self.elements)
        for i in range(k):
            for j in range(i + 1, k):
                if len(self._bound_ids(i, j, True)) != 1:
                    return False
                if len(self._bound_ids(i, j, False)) != 1:
                    return False
        return True

    def isomorphic_by(self, other, mapping):
        """Whether the index map i -> mapping[i] is an order
        isomorphism onto `other`."""
        k = len(self.elements)
        if len(other.elements) != k or sorted(mapping) != list(range(k)):
            return False
        for i in range(k):
            for j in range(k):
                if self.matrix[i][j] != other.matrix[mapping[i]][mapping[j]]:
                    return False
        return True
