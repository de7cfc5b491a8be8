"""Independent recomputations used to cross-check the engine.

Everything here derives the same objects from a different definition
than the production code: segments from edge-face incidence instead of
rotation adjacency, submodules from explicit matrix invariance instead
of turn conditions, semistability from the full submodule lattice
instead of the indecomposable shortcut.  Slow is fine; different is
the point.
"""

import itertools

from treestab import string_modules
from treestab.tree_core import Segment


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
