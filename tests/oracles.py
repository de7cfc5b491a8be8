"""Independent recomputations used to cross-check the engine.

Everything here derives the same objects from a different definition
than the production code: segments from edge-face incidence instead of
rotation adjacency, submodules from explicit matrix invariance instead
of turn conditions, semistability from the full submodule lattice
instead of the indecomposable shortcut, Hom and Ext^1 from matrix
ranks instead of segment overlaps, and the graph map on the run two
segments share instead of the sub-segment table.  Slow is fine;
different is the point.

It also keeps the routes the engine used before it moved to integer
ids, on `Arc` and `Segment` objects: frozenset-membership marking,
the frozenset closure fixpoint, each arc with its hugged corners and
turns by a breadth-first search per pair of leaves, g-vectors by
walking each arc's path, block segments and the vertex-pair table by
walking tree paths, the compose table by endpoint lookup over
all pairs of segments, semistability by summing weights over edges,
decomposition lengths by matching vertex windows, the maximal-clique
search on Python sets, the JSON payloads of `facets`, `vectors`,
`ncp`, `kreweras`, `torsion` and `poset` built as one dict per facet
or partition, string words with the arrow names made per call,
wideness through Ext by vertex surgery (`is_wide_by_extensions`), and each submodule and quotient as a sum of
strings built from segment vertices (`submodules_by_runs`).  And it keeps
the per-facet routes that the column-wise passes replaced: the main
theorem's claims with one weight pass per facet, segments, closures
and decomposition lengths per partition; and the partition table
glued facet by facet, with block segments per partition block and the
gluing checks in the column route's order; and each partition's torsion
pair, built and checked by itself, with the work-list closure on one id
mask; each module's canonical sequence under one partition, by
filtering its submodules; and the lattice verdict from every pair of
poset elements, with the down-rows transposed from the up-rows.  The vector routes that
counting replaced are here too: the pairing matrix as dot products of
g- and c-vectors, zigzag dominance on edge sets, and the algebra
dimension by depth-first search over arrow paths.  Tests compare each
with its id or column form.  Code that only tests use (red-green trees,
biclosed sets, supporting arcs) lives here too.
"""

import itertools
import weakref
from fractions import Fraction

from treestab import gc_vectors, nc_complex, partitions, semistable
from treestab import string_modules, tree_core
from treestab.tree_core import ConventionError, Segment, compose


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
                if not is_extreme_path(tree, cand):
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
        path = path_between(tree, a, b)
        edges = [tuple(sorted(p)) for p in zip(path, path[1:])]
        if all(edge_faces(tree, e1) & edge_faces(tree, e2)
               for e1, e2 in zip(edges, edges[1:])):
            out.add(Segment.canonical(path))
    return out


# -- tree paths and arcs, per pair of ends ---------------------------------


def path_between(tree, a, b):
    """The unique simple path from a to b, as a vertex list, by
    breadth-first search."""
    if a == b:
        return [a]
    parent = {a: None}
    queue = [a]
    while queue:
        v = queue.pop(0)
        if v == b:
            break
        for u in tree.rotation[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def rotation_turn(tree, v, a, b):
    """"left" when ray b is the next one clockwise from ray a about v,
    "right" when the next one counterclockwise, None otherwise, read
    off the positions of a and b in v's rotation list."""
    nbrs = tree.rotation[v]
    step = (nbrs.index(b) - nbrs.index(a)) % len(nbrs)
    return {1: "right", len(nbrs) - 1: "left"}.get(step)


def path_turns(tree, path):
    """`rotation_turn` at each intermediate vertex of the path."""
    return [rotation_turn(tree, path[i], path[i - 1], path[i + 1])
            for i in range(1, len(path) - 1)]


def is_extreme_path(tree, path):
    """True when the path enters and leaves each intermediate vertex by
    rotation-adjacent rays."""
    return None not in path_turns(tree, path)


def ray_faces(tree, v, x):
    """The two faces on either side of the ray from v toward x."""
    nbrs = tree.rotation[v]
    return {tree.sector_face[v, x],
            tree.sector_face[v, nbrs[nbrs.index(x) - 1]]}


def hugged_corners(tree, path):
    """Corners (v, face) the path passes through, one per intermediate
    vertex: the one face that both its rays at v border."""
    out = []
    for a, v, b in zip(path, path[1:], path[2:]):
        shared = ray_faces(tree, v, a) & ray_faces(tree, v, b)
        if len(shared) != 1:
            raise ValueError("path is not extreme at %r" % (v,))
        out.append((v, shared.pop()))
    return out


def arcs_by_leaf_pairs(tree):
    """(pos, path, hugged corners, turns) of every arc, by searching the
    tree path between every two boundary leaves, in boundary order."""
    leaves = tree.boundary_leaves
    out = []
    for p, q in itertools.combinations(range(len(leaves)), 2):
        path = path_between(tree, leaves[p], leaves[q])
        if is_extreme_path(tree, path):
            out.append(((p, q), tuple(path),
                        tuple(hugged_corners(tree, path)),
                        tuple(path_turns(tree, path))))
    return out


def g_vector_by_turns(tree, arc):
    """The g-vector of an arc, by walking its path and comparing the
    turns at the two ends of each interior edge."""
    path = list(arc.path)
    vec = [0] * tree.n
    turns = dict(zip(path[1:-1], path_turns(tree, path)))
    for i in range(len(path) - 1):
        e = tuple(sorted((path[i], path[i + 1])))
        if e not in tree.edge_index:
            continue
        t1, t2 = turns[path[i]], turns[path[i + 1]]
        if t1 == "left" and t2 == "right":
            vec[tree.edge_index[e]] = 1
        elif t1 == "right" and t2 == "left":
            vec[tree.edge_index[e]] = -1
    return tuple(vec)


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


def graph_map_by_shared_run(tree, s, t):
    """The run a nonzero map M(s) -> M(t) is the identity on, or None:
    the path s and t share, when it is a quotient shape of s and a sub
    shape of t.  Two paths in a tree meet in one path, so the shared
    vertices are consecutive along s."""
    tv = set(t.vertices)
    run = [v for v in s.vertices if v in tv]
    if len(run) < 2:
        return None
    r = Segment.canonical(run)
    return r if r in indec_quots(tree, s) and r in indec_subs(tree, t) \
        else None


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


def _outside(segment, run):
    """The segments of `segment` on either side of `run`, one of its
    sub-paths in either direction."""
    vs = segment.vertices
    i, j = sorted((vs.index(run[0]), vs.index(run[-1])))
    return [Segment.canonical(p) for p in (vs[:i + 1], vs[j:]) if len(p) > 1]


def is_wide_by_extensions(tree, members):
    """Wideness of a set of segments through Ext, by vertex surgery:
    for every ordered pair of members, the parts of each outside the
    run the graph map between them is the identity on (its kernel and
    cokernel) and the middle term of the non-split extension lie in the
    set."""
    members = set(members)
    for s in members:
        for t in members:
            r = string_modules._graph_map(tree, s, t)
            if r is not None and not members.issuperset(
                    _outside(s, r.vertices) + _outside(t, r.vertices)):
                return False
            term = string_modules._nonsplit(tree, s, t)
            if term is not None and not members.issuperset(term):
                return False
    return True


def _run_summands(tree, segment, positions):
    """The sum of the strings on the maximal runs of edge positions."""
    return string_modules.ModuleSum(
        string_modules.string_module(tree, r)
        for r in _pattern_runs(segment, set(positions)))


def submodules_by_runs(tree, module):
    """(submodule, quotient) per submodule of an indecomposable, as
    decomposed sums, each built from segment vertices: the strings on
    the runs of each invariant pattern (in `closed_patterns` order),
    and on the runs of the edges its summands leave out."""
    seg = module.segment
    out = []
    for p in closed_patterns(tree, seg):
        sub = _run_summands(tree, seg, p)
        used = set().union(*(m.support for m in sub))
        out.append((sub, _run_summands(tree, seg, [
            i for i, e in enumerate(seg.edges()) if e not in used])))
    return out


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


# -- arc regions and corner marks ------------------------------------------


def regions(tree, arc):
    """The two regions of an arc as sets of gap indices: the gaps swept
    from leaves[0] counterclockwise to leaves[1], and the rest."""
    p, q = arc.pos
    inner = frozenset(range(p, q))
    return inner, frozenset(range(len(tree.boundary_leaves))) - inner


def region_containing(tree, arc, face_index):
    inner, outer = regions(tree, arc)
    return inner if face_index in inner else outer


def crossing_by_regions(tree, d1, d2):
    """Definitional crossing: d1 and d2 cross when no choice of regions
    nests."""
    return not any(r1 <= r2 or r2 <= r1
                   for r1 in regions(tree, d1) for r2 in regions(tree, d2))


def scan_marks(tree, members):
    """{arc: marked corners in `tree.corners` order}, by scanning every
    member at every corner: the arcs through a corner, sorted by the
    size of their region on the corner's side, must nest, and the
    largest takes the mark."""
    hugs = {d: frozenset(hugged_corners(tree, d.path)) for d in members}
    marks = {d: [] for d in members}
    for corner in tree.corners:
        _, fi = corner
        candidates = [d for d in members if corner in hugs[d]]
        assert candidates, "corner %r hugged by no arc" % (corner,)
        candidates.sort(key=lambda d: len(region_containing(tree, d, fi)))
        for small, big in zip(candidates, candidates[1:]):
            assert region_containing(tree, small, fi) <= \
                region_containing(tree, big, fi), corner
        marks[candidates[-1]].append(corner)
    return {d: tuple(ms) for d, ms in marks.items()}


def scan_facet(tree, members):
    """{colored arc: (color, segment, supporting arcs)} from
    `scan_marks`: the segment joins the two marked corners along the
    arc, both flags there give the color, and the supporting arc at a
    mark is the next smaller member through that corner."""
    hugs = {d: frozenset(hugged_corners(tree, d.path)) for d in members}
    marks = scan_marks(tree, members)
    out = {}
    for d in members:
        if d.is_boundary:
            continue
        path = list(d.path)
        (v, fi), (u, gi) = sorted(marks[d],
                                  key=lambda c: path.index(c[0]))
        seg = path[path.index(v):path.index(u) + 1]
        colors = {tree.flag_color(v, seg[1], fi),
                  tree.flag_color(u, seg[-2], gi)}
        assert len(colors) == 1, d
        support = []
        for corner in marks[d]:
            chain = sorted((e for e in members if corner in hugs[e]),
                           key=lambda e: len(region_containing(
                               tree, e, corner[1])))
            support.append(chain[chain.index(d) - 1])
        out[d] = (colors.pop(), Segment.canonical(seg), tuple(support))
    return out


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


def max_cliques_by_sets(vertices, adjacent):
    """Bron-Kerbosch with pivoting on Python sets, the clique search
    before it ran on int masks; yields maximal cliques as sets."""
    def expand(r, p, x):
        if not p and not x:
            yield set(r)
            return
        pivot = max(p | x, key=lambda v: len(adjacent[v] & p))
        for v in sorted(p - adjacent[pivot]):
            yield from expand(r | {v}, p & adjacent[v], x & adjacent[v])
            p = p - {v}
            x = x | {v}

    yield from expand(set(), set(vertices), set())


def facet_dicts(facets):
    """The "facets" list of `facets --format json` as one dict per
    facet, the way the command built it before it joined pre-rendered
    entry texts: colored arcs read off each facet's payload, boundary
    arcs off its mask."""
    out = []
    for facet in facets:
        tree = facet.tree
        every = nc_complex.arcs(tree)
        colored = iter(facet.payload)
        entries = []
        for d in facet.arcs:
            entry = {"leaves": list(d.leaves), "boundary": d.is_boundary}
            if not d.is_boundary:
                i, s, green = next(colored)
                assert every[i] is d
                entry["color"] = "green" if green else "red"
                entry["segment"] = list(tree.all_segments[s].vertices)
            entries.append(entry)
        out.append({"index": facet.index, "arcs": entries})
    return out


def vectors_payload(tree):
    """The payload of `vectors --format json` as one dict per facet and
    per colored arc, the way the command built it before it picked
    entries rendered once per record: each facet's weight from
    `kreweras_theta`, each arc's g- and c-vector by itself."""
    return {"command": "vectors",
            "edges": [{"index": i, "edge": "-".join(e)}
                      for i, e in enumerate(tree.interior_edges)],
            "facets": [{"index": f.index,
                        "theta": list(gc_vectors.kreweras_theta(f)),
                        "vectors": [{
                            "arc": list(d.leaves), "color": f.color[d],
                            "segment": list(f.segment[d].vertices),
                            "g": list(gc_vectors.g_vector(tree, d)),
                            "c": list(gc_vectors.c_vector(f, d))}
                            for d in f.colored]}
                       for f in nc_complex.facets(tree)]}


def _blocks(partition):
    return [list(b) for b in partition.blocks]


def ncp_payload(tree):
    """The payload of `ncp --format json`, a list of blocks per
    partition object."""
    ncps = partitions.noncrossing_partitions(tree)
    return {"command": "ncp", "count": len(ncps),
            "partitions": [_blocks(p) for p in ncps]}


def kreweras_payload(tree):
    """The payload of `kreweras --format json`, each complement looked up
    by `kreweras_complement`."""
    return {"command": "kreweras",
            "pairs": [{"partition": _blocks(p), "complement": _blocks(
                partitions.kreweras_complement(tree, p))}
                for p in partitions.noncrossing_partitions(tree)],
            "orbit_lengths": partitions.kreweras_orbits(tree)}


def torsion_payload(tree):
    """The payload of `torsion --format json`, off each partition's
    `torsion_pair`, its modules sorted by vertices."""
    def listed(modules):
        return [list(v) for v in sorted(m.segment.vertices for m in modules)]

    pairs = []
    for p in partitions.noncrossing_partitions(tree):
        T, F = partitions.torsion_pair(tree, p)
        pairs.append({"partition": _blocks(p), "torsion": listed(T),
                      "free": listed(F)})
    return {"command": "torsion", "pairs": pairs}


def poset_payload(tree, which):
    """The payload of `poset --which <which> --format json`, each label
    made from its element."""
    if which == "ncp":
        po = partitions.ncp_poset(tree)
        labels = [str(p) for p in po.elements]
    else:
        po = semistable.semistable_poset(tree)
        labels = ["{%s}" % ",".join("-".join(s.vertices) for s in sorted(
            e, key=lambda s: s.vertices)) for e in po.elements]
    return {"command": "poset", "which": which, "size": len(po),
            "labels": labels, "covers": [[i, j] for i, j in po.covers()],
            "lattice": po.is_lattice()}


def string_word(tree, segment):
    """`string_modules.string_word` with the arrows' names made afresh
    on each call, from their places in the algebra's arrow list."""
    names = {ar: "a%d" % i for i, ar in enumerate(
        string_modules.tiling_algebra(tree).arrows)}
    parts = ["|".join(segment.edges()[0])]
    for (ar, forward), e in zip(_letters(tree, segment), segment.edges()[1:]):
        parts.append(("-%s>" if forward else "<%s-") % names[ar])
        parts.append("|".join(e))
    return " ".join(parts)


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


def down_rows(poset):
    """The down-set bitmasks of a `partitions.Poset`, bit i of the row
    of j saying i <= j: its up-rows transposed."""
    return list(map(nc_complex._as_int,
                    nc_complex._transpose(poset.up, len(poset))))


def lattice_by_rows(poset):
    """Lattice verdict of a `partitions.Poset` from every pair of its
    elements, the route `Poset.is_lattice` took before the cover-pair
    test: each pair's common up-set must be some element's up-set (a
    join) and its common down-set some element's down-set (a meet)."""
    for rows in (poset.up, down_rows(poset)):
        principal = set(rows)
        if not all(principal.issuperset(map(a.__and__, rows[i + 1:]))
                   for i, a in enumerate(rows)):
            return False
    return True


# -- routes on objects, from before integer ids --------------------------


_object_chains = weakref.WeakKeyDictionary()


def object_chains(tree):
    """{corner: [(arc, region gap bitmask)] of the arcs through it,
    largest region on the corner's side first}, kept per tree."""
    if tree not in _object_chains:
        _object_chains[tree] = _build_object_chains(tree)
    return _object_chains[tree]


def _build_object_chains(tree):
    full = (1 << len(tree.boundary_leaves)) - 1
    through = {corner: [] for corner in tree.corners}
    for d in nc_complex.arcs(tree):
        p, q = d.pos
        inner = (1 << q) - (1 << p)
        for corner in hugged_corners(tree, d.path):
            region = inner if p <= corner[1] < q else full ^ inner
            through[corner].append((d, region))
    return {corner: sorted(chain, key=lambda e: -e[1].bit_count())
            for corner, chain in through.items()}


def chain_facet(tree, members):
    """(marks, colors, segments), each keyed by arc, by filtering every
    corner's chain on frozenset membership: the largest member through
    a corner takes its mark, consecutive members must nest, and a
    colored arc's segment runs along it between its two marks.  Checks
    run, and fail with the same words, in the order `Facet` runs them."""
    members = sorted(members, key=lambda d: d.pos)
    chains = object_chains(tree)
    member_set = frozenset(members)
    marks = {d: [] for d in members}
    for corner in tree.corners:
        chain = [e for e in chains[corner] if e[0] in member_set]
        if not chain:
            raise ConventionError("corner %r hugged by no arc" % (corner,))
        for (_, big), (_, small) in zip(chain, chain[1:]):
            if small & ~big:
                raise ConventionError(
                    "regions at corner %r do not nest" % (corner,))
        marks[chain[0][0]].append(corner)
    for d in members:
        want = 1 if d.is_boundary else 2
        if len(marks[d]) != want:
            raise ConventionError("%r carries %d marks, expected %d"
                                  % (d, len(marks[d]), want))
    colored = [d for d in members if not d.is_boundary]
    for d in colored:
        (_, fi), (_, gi) = marks[d]
        p, q = d.pos
        if (p <= fi < q) == (p <= gi < q):
            raise ConventionError(
                "marks of %r fall in the same region" % (d,))
    colors = {d: "boundary" for d in members if d.is_boundary}
    segments = {}
    for d in colored:
        path = list(d.path)
        (v, fi), (u, gi) = sorted(marks[d], key=lambda c: path.index(c[0]))
        seg = path[path.index(v):path.index(u) + 1]
        c1 = tree.flag_color(v, seg[1], fi)
        c2 = tree.flag_color(u, seg[-2], gi)
        if c1 != c2:
            raise ConventionError(
                "flags of %r disagree: %s vs %s" % (d, c1, c2))
        colors[d] = c1
        segments[d] = Segment.canonical(seg)
    return {d: tuple(ms) for d, ms in marks.items()}, colors, segments


def supporting_arcs(facet, d):
    """The covers of d from below at its two marked corners, in mark
    order: the next member down each corner's chain."""
    if d.is_boundary:
        raise ValueError("boundary arcs have no supporting arcs")
    chains = object_chains(facet.tree)
    members = frozenset(facet.arcs)
    out = []
    for corner in facet.marks[d]:
        chain = [e for e, _ in chains[corner] if e in members]
        k = chain.index(d)
        if k + 1 == len(chain):
            raise ConventionError("marked arc cannot be minimal at its corner")
        out.append(chain[k + 1])
    return tuple(out)


def closure_by_sets(tree, segments):
    """Smallest composition-closed superset, as a set fixpoint calling
    `compose` on every new pair."""
    closed = set(segments)
    todo = list(closed)
    while todo:
        s = todo.pop()
        for t in list(closed):
            c = compose(tree, s, t) if t != s else None
            if c is not None and c not in closed:
                closed.add(c)
                todo.append(c)
    return closed


def block_segments_by_paths(tree, block):
    """Segments joining the pairs of a block whose tree path meets the
    block only at its ends; ValueError when such a path is no segment."""
    block = set(block)
    out = set()
    for a, b in itertools.combinations(sorted(block), 2):
        path = path_between(tree, a, b)
        if any(v in block for v in path[1:-1]):
            continue
        if not is_extreme_path(tree, path):
            raise ValueError("no segment joins %r and %r" % (a, b))
        out.add(Segment.canonical(path))
    return out


def vertex_pairs_by_paths(tree):
    """The segment table's `pairs`, by walking the tree path between
    every two interior vertices: pairs[a, b] is the mask of the path's
    inner vertices and the id of the segment it is, or None."""
    ivs = tree.interior_vertices
    index = {v: i for i, v in enumerate(ivs)}
    ids = {s: i for i, s in enumerate(tree.all_segments)}
    pairs = {}
    for a, b in itertools.permutations(range(len(ivs)), 2):
        path = path_between(tree, ivs[a], ivs[b])
        pairs[a, b] = (sum(1 << index[v] for v in path[1:-1]),
                       ids[Segment.canonical(path)]
                       if is_extreme_path(tree, path) else None)
    return pairs


def compose_table_by_ends(tree):
    """The segment table's `compose`, by trying all S x S pairs: s and
    t compose to the segment joining their outer endpoints when they
    share exactly one endpoint and its length is the sum of theirs."""
    segs = tree.all_segments
    by_ends = {s.endpoints: i for i, s in enumerate(segs)}
    table = []
    for s in segs:
        row = {}
        for t, seg in enumerate(segs):
            # the symmetric difference has two ends, and so can name a
            # segment, exactly when s and t share one endpoint
            u = by_ends.get(s.endpoints ^ seg.endpoints)
            if u is not None and len(segs[u]) == len(s) + len(seg):
                row[t] = u
        table.append(row)
    return table


def _proper_theta_values(tree, theta, module):
    return [theta_value(tree, theta, string_modules.string_module(
                tree, t))
            for t in gc_vectors.submodule_segments(tree, module.segment)
            if t != module.segment]


def theta_semistable(tree, theta, module):
    """Zero weight and no proper indecomposable submodule of positive
    weight, by summing theta over dimension vectors."""
    return theta_value(tree, theta, module) == 0 and all(
        v <= 0 for v in _proper_theta_values(tree, theta, module))


def theta_stable(tree, theta, module):
    return theta_value(tree, theta, module) == 0 and all(
        v < 0 for v in _proper_theta_values(tree, theta, module))


def decomposition_lengths(seg, parts):
    """Lengths of the ways to write the segment as an end-to-end chain
    of the given parts, matching each part against vertex windows."""
    target = seg.vertices
    lengths = set()

    def rec(i, k):
        if i == len(target) - 1:
            lengths.add(k)
            return
        for g in parts:
            window = target[i:i + len(g.vertices)]
            if len(window) == len(g.vertices) and \
                    g.vertices in (window, tuple(reversed(window))):
                rec(i + len(g.vertices) - 1, k + 1)

    rec(0, 0)
    return lengths


def check_facet_by_objects(tree, facet, theta):
    """Failure list of the per-facet claims of the main theorem for the
    weight theta, on segment and module sets, with the weight of every
    module summed over its edges."""
    def named(mods):
        return sorted((m.segment for m in mods), key=lambda s: s.vertices)

    def module(s):
        return string_modules.string_module(tree, s)

    failures = []
    ss = {m for m in string_modules.indecomposables(tree)
          if theta_semistable(tree, theta, m)}
    part = partitions.noncrossing_partitions(tree)[facet.index]
    reds = set().union(*(block_segments_by_paths(tree, b)
                         for b in part.blocks))
    closure = closure_by_sets(tree, reds)
    if {m.segment for m in ss} != closure:
        failures.append("semistable set %r differs from partition side %r"
                        % (named(ss), sorted(closure,
                                             key=lambda s: s.vertices)))
    for s in sorted(reds, key=lambda s: s.vertices):
        if not theta_stable(tree, theta, module(s)):
            failures.append("red segment %r not stable" % (s,))
    for s in sorted(closure - reds, key=lambda s: s.vertices):
        if not theta_semistable(tree, theta, module(s)):
            failures.append("red composite %r not semistable" % (s,))
        if theta_stable(tree, theta, module(s)):
            failures.append("red composite %r unexpectedly stable" % (s,))
    comp = partitions.kreweras_complement(tree, part)
    greens = set().union(*(block_segments_by_paths(tree, b)
                           for b in comp.blocks))
    for s in sorted(closure_by_sets(tree, greens), key=lambda s: s.vertices):
        ks = decomposition_lengths(s, greens)
        if len(ks) != 1:
            failures.append("green composite %r has decomposition lengths %r"
                            % (s, sorted(ks)))
            continue
        k = ks.pop()
        got = theta_value(tree, theta, s)
        if got != k:
            failures.append("green composite %r weighs %d, composition "
                            "length is %d" % (s, got, k))
    if not facet.greens():
        if any(t != 0 for t in theta):
            failures.append("all-red facet weight %r nonzero" % (theta,))
        if {m.segment for m in ss} != set(tree.all_segments):
            failures.append("all-red facet misses some module")
    if not facet.reds():
        if any(t != 1 for t in theta):
            failures.append("all-green facet weight %r not all ones"
                            % (theta,))
        if ss:
            failures.append("all-green facet has semistables %r" % (
                [m for m in string_modules.indecomposables(tree)
                 if m in ss],))
    return failures


# -- helpers only tests call -----------------------------------------------


def theta_value(tree, theta, thing):
    """Weight of a module, module sum, or segment."""
    if isinstance(thing, string_modules.ModuleSum):
        return sum(theta_value(tree, theta, m) for m in thing)
    if isinstance(thing, string_modules.StringModule):
        vec = thing.dim_vector
    else:
        vec = gc_vectors.indicator(tree, thing.edges())
    return sum(t * x for t, x in zip(theta, vec))


def block_of(partition, v):
    """The block of `partition` that holds v."""
    for b in partition.blocks:
        if v in b:
            return b
    raise KeyError(v)


def refinement_leq(p, q):
    """Whether p refines q: every block of p sits inside a block of q."""
    return all(any(set(bp) <= set(bq) for bq in q.blocks) for bp in p.blocks)


def block_mask(tree, block):
    """Id mask of the segments a partition block requires: endpoint
    pairs inside the block whose tree path meets the block only at the
    ends.  Such a pair must be joined by a segment; anything else means
    the block is not realizable and the input was not a noncrossing
    partition."""
    table = tree_core._segment_table(tree)
    ids = sorted({table.index[v] for v in block})
    inside = sum(1 << a for a in ids)
    out = 0
    for x, a in enumerate(ids):
        for b in ids[x + 1:]:
            inner, seg = table.pairs[a, b]
            if inner & inside:
                continue
            if seg is None:
                ivs = tree.interior_vertices
                raise ValueError(
                    "block %r needs a curve from %r to %r but no segment "
                    "joins them" % (sorted(block), ivs[a], ivs[b]))
            out |= 1 << seg
    return out


def segment_mask(tree, partition):
    """Id mask of the union of the blocks' `block_mask`."""
    out = 0
    for b in partition.blocks:
        out |= block_mask(tree, b)
    return out


def block_segments(tree, block):
    """The segments of `block_mask`, as a set."""
    segs = tree.all_segments
    return {segs[i] for i in tree_core._bits(block_mask(tree, block))}


def partition_segments(tree, partition):
    """Union of block_segments over all blocks, as a frozenset."""
    mask = segment_mask(tree, partition)
    return frozenset(tree.all_segments[i] for i in tree_core._bits(mask))


def wide_from_partition(tree, partition):
    """Module set of the composition closure of the partition's
    segments; the subcategory the main theorem pairs with a Kreweras
    stability condition.  A frozenset."""
    inds = string_modules.indecomposables(tree)
    return frozenset(inds[i] for i in tree_core._bits(closure_mask(
        tree, segment_mask(tree, partition))))


def segment_ends(tree, segments):
    """(vertex id, vertex id, segment) per segment: the ids of its two
    ends, and the segment."""
    index = tree_core._segment_table(tree).index
    return [(index[s.vertices[0]], index[s.vertices[-1]], s)
            for s in segments]


def glued_blocks(tree, ends, color):
    """Frozenset of the vertex id masks of the blocks got by gluing,
    for each (a, b, segment) of `ends`, the blocks of the vertices with
    ids a and b.  A segment must not pass through its own block."""
    table = tree_core._segment_table(tree)
    block = [1 << v for v in range(len(table.index))]
    for a, b, _ in ends:
        glued = block[a] | block[b]
        for v in tree_core._bits(glued):
            block[v] = glued
    for a, b, s in ends:
        if table.pairs[a, b][0] & block[a]:
            raise ConventionError("%s segment %r not minimal in its block"
                                  % (color, s))
    return frozenset(block)


def vertex_partition(tree, blocks):
    """The TreePartition of vertex id masks."""
    ivs = tree.interior_vertices
    return partitions.TreePartition([ivs[v] for v in tree_core._bits(m)]
                                    for m in blocks)


def red_partition(facet):
    """Interior vertices glued along the facet's red segments."""
    return glued_partition(facet, "red")


def green_partition(facet):
    """Interior vertices glued along the facet's green segments."""
    return glued_partition(facet, "green")


def glued_partition(facet, color):
    """The gluing of the facet's segments of one color, read off its
    payload records, facet by facet."""
    tree = facet.tree
    segs = tree.all_segments
    return vertex_partition(tree, glued_blocks(tree, segment_ends(tree, [
        segs[s] for _, s, green in facet.payload
        if green == (color == "green")]), color))


def partition_table(tree):
    """Red partitions in facet order and the red-to-green map, glued
    facet by facet (`glued_partition`).  All red checks run before the
    green ones, facet by facet, in the column route's order: a segment
    through its own block, a block no segment draws (`segment_mask`),
    then a red partition that repeats or a green one that is no red
    one."""
    fs = nc_complex.facets(tree)
    reds = {}
    for f in fs:
        red = glued_partition(f, "red")
        segment_mask(tree, red)
        if red in reds:
            raise ConventionError("red partitions repeat across facets")
        reds[red] = f
    complement = {}
    for f, red in zip(fs, reds):
        green = glued_partition(f, "green")
        segment_mask(tree, green)
        if green not in reds:
            raise ConventionError("green partition of facet %d is no red "
                                  "partition" % f.index)
        complement[red] = green
    return tuple(reds), complement


# -- per-partition closures and torsion pairs -----------------------------


def id_mask(tree, segments):
    """The id mask of a collection of the tree's segments."""
    ids = tree_core._segment_table(tree).ids
    return sum(1 << ids[s] for s in set(segments))


def closure_mask(tree, mask):
    """Id mask of the smallest composition-closed superset of the id
    mask `mask`, by a work list.  Composition is symmetric, so each pair
    is composed once: when the later of the two is taken off the list."""
    table = tree_core._segment_table(tree).compose
    todo = list(tree_core._bits(mask))
    while todo:
        for t, u in table[todo.pop()].items():
            if mask >> t & 1 and not mask >> u & 1:
                mask |= 1 << u
                todo.append(u)
    return mask


def torsion_masks_by_partition(tree, partition):
    """Id masks (T, F) of one partition's torsion pair, built and
    checked by itself: T closes the K_s of the Kreweras complement's
    block segments, F the C_s of the partition's own (`segment_mask`),
    then Hom is tested over all of T x F, and every simple must lie in
    T or F, with the column route's messages."""
    bits = tree_core._bits
    segs = tree.all_segments
    tmask = 0
    for s in bits(segment_mask(
            tree, partitions.kreweras_complement(tree, partition))):
        tmask |= id_mask(
            tree, gc_vectors.quotient_segments(tree, segs[s]))
    tmask = closure_mask(tree, tmask)
    fmask = 0
    for s in bits(segment_mask(tree, partition)):
        fmask |= id_mask(
            tree, gc_vectors.submodule_segments(tree, segs[s]))
    fmask = closure_mask(tree, fmask)
    inds = string_modules.indecomposables(tree)
    for x in bits(tmask):
        for y in bits(fmask):
            if string_modules.hom_dim(tree, inds[x], inds[y]) != 0:
                raise ConventionError(
                    "torsion class maps onto its own free class: %r -> %r"
                    % (inds[x], inds[y]))
    simples = sum(1 << i for i, s in enumerate(segs) if len(s) == 1)
    if simples & ~(tmask | fmask):
        raise ConventionError("simple module outside both classes")
    return tmask, fmask


_filtered = weakref.WeakKeyDictionary()


def decompose_by_filter(tree, partition, module):
    """Canonical sequence of one module under one partition's torsion
    pair, by the per-call route: filter the module's submodules
    (`all_submodules`, each with its quotient) for the one whose
    submodule lies in T and quotient in F, the `torsion_pair` sets.
    Each partition's pair and each module's submodule list are kept per
    tree, as that route kept them."""
    pairs, options = _filtered.setdefault(tree, ({}, {}))
    if partition not in pairs:
        pairs[partition] = partitions.torsion_pair(tree, partition)
    if module not in options:
        options[module] = [
            (sub, string_modules.quotient_by(tree, module, sub))
            for sub in string_modules.all_submodules(tree, module)]
    T, F = pairs[partition]
    hits = [(sub, quot) for sub, quot in options[module]
            if T.issuperset(sub) and F.issuperset(quot)]
    if len(hits) != 1:
        raise ConventionError("torsion decomposition of %r not unique: %r"
                              % (module, hits))
    return hits[0]


# -- the per-facet route of the main theorem -------------------------------


def decomposition_length_mask(tree, s, parts):
    """Lengths of the ways to write segment id s as an end-to-end chain
    of segments from the id mask `parts`, along the table's splits."""
    reach = [1]
    for row in tree_core._segment_table(tree).splits[s]:
        r = 0
        for i, t in row:
            if parts >> t & 1:
                r |= reach[i] << 1
        reach.append(r)
    return set(tree_core._bits(reach[-1]))


def check_facets_per_facet(tree):
    """A FacetResult per facet of the tree, in facet order, from
    `check_facet_per_facet` on the facet-by-facet `partition_table`."""
    table = partition_table(tree)
    return [check_facet_per_facet(tree, f, table)
            for f in nc_complex.facets(tree)]


def check_facet_per_facet(tree, facet, table):
    """The main theorem's claims for one facet on segment-id masks: its
    weight from `kreweras_theta`, that weight's `_stability` pass, its
    partitions from `table` (see `partition_table`), their segments and
    closures per partition.  A FacetResult."""
    bits = tree_core._bits
    theta = gc_vectors.kreweras_theta(facet)
    res = semistable.FacetResult(facet.index, theta)
    segs = tree.all_segments
    weights, semi, stable = semistable._stability(tree, theta)
    part = table[0][facet.index]
    reds = segment_mask(tree, part)
    closure = closure_mask(tree, reds)
    if semi != closure:
        res.failures.append(
            "semistable set %r differs from partition side %r"
            % ([segs[i] for i in bits(semi)],
               [segs[i] for i in bits(closure)]))
    for s in bits(reds & ~stable):
        res.failures.append("red segment %r not stable" % (segs[s],))
    for s in bits(closure & ~reds):
        if not semi >> s & 1:
            res.failures.append("red composite %r not semistable"
                                % (segs[s],))
        if stable >> s & 1:
            res.failures.append("red composite %r unexpectedly stable"
                                % (segs[s],))
    greens = segment_mask(tree, table[1][part])
    for s in bits(closure_mask(tree, greens)):
        ks = decomposition_length_mask(tree, s, greens)
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
    inds = string_modules.indecomposables(tree)
    if not any(green for _, _, green in facet.payload):
        if any(t != 0 for t in theta):
            res.failures.append("all-red facet weight %r nonzero" % (theta,))
        if semi != (1 << len(segs)) - 1:
            res.failures.append("all-red facet misses some module")
    if all(green for _, _, green in facet.payload):
        if any(t != 1 for t in theta):
            res.failures.append("all-green facet weight %r not all ones"
                                % (theta,))
        if semi:
            res.failures.append("all-green facet has semistables %r"
                                % ([inds[s] for s in bits(semi)],))
    return res


# -- biclosed sets ---------------------------------------------------------


def is_closed(tree, segments):
    segments = set(segments)
    return partitions.segment_closure(tree, segments) == segments


def is_biclosed(tree, segments):
    """Closed under composition, with composition-closed complement."""
    segments = set(segments)
    rest = set(tree.all_segments) - segments
    return is_closed(tree, segments) and is_closed(tree, rest)


def join_biclosed(tree, b1, b2):
    """Join in the biclosed-set order: closure of the union.  The
    result is checked to be biclosed again."""
    joined = partitions.segment_closure(tree, set(b1) | set(b2))
    if not is_biclosed(tree, joined):
        raise ConventionError("join left the biclosed family")
    return joined


# -- red-green trees -----------------------------------------------------


def endpoint_partition(tree, segments):
    """Interior vertices glued along the segments, by union-find."""
    parent = {v: v for v in tree.interior_vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in segments:
        a, b = s.endpoints
        parent[find(a)] = find(b)
    blocks = {}
    for v in tree.interior_vertices:
        blocks.setdefault(find(v), []).append(v)
    return partitions.TreePartition(blocks.values())


class RedGreenTree:
    """Spanning structure on the interior vertices whose edge set is
    the disjoint union of the partition's red segments and its
    Kreweras complement's green segments.  Always a tree."""

    def __init__(self, tree, partition):
        self.tree = tree
        self.partition = partition
        self.complement = partitions.kreweras_complement(tree, partition)
        self.red_segments = sorted(
            partition_segments(tree, partition),
            key=lambda s: s.vertices)
        self.green_segments = sorted(
            partition_segments(tree, self.complement),
            key=lambda s: s.vertices)
        overlap = set(self.red_segments) & set(self.green_segments)
        if overlap:
            raise ConventionError("segment on both sides: %r" % (overlap,))
        self.adjacency = {v: [] for v in tree.interior_vertices}
        edges = 0
        for color, segs in (("red", self.red_segments),
                            ("green", self.green_segments)):
            for s in segs:
                a, b = s.endpoints
                self.adjacency[a].append((b, s, color))
                self.adjacency[b].append((a, s, color))
                edges += 1
        if edges != len(tree.interior_vertices) - 1:
            raise ConventionError("red and green segments miss the tree count")
        # connectivity makes it a tree
        glued = endpoint_partition(
            tree, self.red_segments + self.green_segments)
        if len(glued.blocks) != 1:
            raise ConventionError("red-green graph is disconnected")

    def tree_path(self, v, u):
        """Segments along the unique path from v to u, each tagged with
        its color."""
        prev = {v: None}
        stack = [v]
        while stack:
            w = stack.pop()
            if w == u:
                break
            for x, s, color in self.adjacency[w]:
                if x not in prev:
                    prev[x] = (w, s, color)
                    stack.append(x)
        if u not in prev:
            raise KeyError("no path from %r to %r" % (v, u))
        out = []
        w = u
        while prev[w] is not None:
            w2, s, color = prev[w]
            out.append((s, color))
            w = w2
        return list(reversed(out))


def redgreen_tree(tree, partition):
    return RedGreenTree(tree, partition)


# -- vector routes, before the count tables --------------------------------


def pairing_by_vectors(facet):
    """<g(row), c(col)> over the facet's colored arcs, as dot products
    of the vectors themselves."""
    tree, colored = facet.tree, facet.colored
    cs = [gc_vectors.c_vector(facet, d) for d in colored]
    return [[sum(a * b for a, b in zip(gc_vectors.g_vector(tree, d), c))
             for c in cs] for d in colored]


def dominance_by_zigzags(facet, arc):
    """`gc_vectors.zigzag_dominance_check` for a red arc with a segment
    of two or more edges, in a facet with a green arc, counted on the
    zigzags' edge sets inside each member of C_s."""
    tree, seg = facet.tree, facet.segment[arc]
    zigzags = [gc_vectors.zigzag(tree, d) for d in facet.greens()]
    counts = {t: [(len(plus & t.edge_set()), len(minus & t.edge_set()))
                  for plus, minus in zigzags]
              for t in gc_vectors.submodule_segments(tree, seg)}
    return (all(m >= p for row in counts.values() for p, m in row)
            and all(any(m == p + 1 for p, m in row)
                    for t, row in counts.items() if t != seg))


def algebra_dimension_by_paths(tree):
    """Number of arrow paths with no relation sub-path, trivial paths
    included, by depth-first search from every arrow."""
    alg = string_modules.tiling_algebra(tree)
    outgoing = {}
    for ar in alg.arrows:
        outgoing.setdefault(ar.source, []).append(ar)
    forbidden = set(alg.relations)

    def extend(path):
        count = 0
        for nxt in outgoing.get(path[-1].target, []):
            if (path[-1], nxt) in forbidden:
                continue
            if len(path) >= tree.n:
                raise ConventionError("path length exceeds edge count")
            count += 1 + extend(path + [nxt])
        return count

    return tree.n + sum(1 + extend([ar]) for ar in alg.arrows)
