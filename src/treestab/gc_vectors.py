"""Integer vectors attached to arcs and segments.

Everything lives in Z^n with one coordinate per interior edge, in the
tree's canonical (lexicographic) edge order.  The g-vector of an arc
reads off how the arc turns at the two ends of each interior edge it
uses (the turns its walk recorded), in one per-tree table
(`_g_vectors`); the c-vector of a colored arc in a facet is a signed
indicator of the segment between its marked corners.  Per facet the
two families are dual bases.  `pairing_matrix` checks that and
`zigzag_dominance_check` counts zigzags on one per-tree table, of the
+1 and -1 entries of each arc's g-vector on each segment
(`_arc_counts`), with no vector built.  The facet weights also come
column-wise, for all facets at once (`theta_columns`).

The sub-path families C_s and K_s defined here are one per-tree table
of id masks (`_subsegments`).  It drives both the module theory
(indecomposable submodules and quotients, and Hom, one AND of a K_s
and a C_t) and the stability checks, which read the proper C_s
(segment ids and the other per-tree segment tables live in
`tree_core`).
"""

from __future__ import annotations

from . import nc_complex
from .tree_core import ConventionError, _bits, _id, _segment_table, \
    segment_turns, turn


def indicator(tree, edges):
    vec = [0] * tree.n
    for e in edges:
        vec[tree.edge_index[e]] = 1
    return tuple(vec)


def g_vector(tree, arc):
    """Entry per interior edge (x, y) traversed by the arc: +1 when the
    arc turns left at x and right at y, -1 when right at x and left at
    y, 0 when it turns the same way at both ends or avoids the edge.
    Independent of traversal orientation.  Read off the per-tree table
    `_g_vectors` by arc id; raises ValueError on an arc that is not the
    tree's."""
    every = nc_complex.arcs(tree)
    if arc.id >= len(every) or every[arc.id] != arc:
        raise ValueError("not an arc of this tree: %r" % (arc,))
    return tree.memo("g", _g_vectors)[arc.id]


def _g_vectors(tree):
    """Per arc id, its g-vector, off the arc's turns: for consecutive
    inner vertices x, y of the arc, edge xy gets the sign of the turn
    at x when the turns at x and y differ."""
    out = []
    for arc in nc_complex.arcs(tree):
        vec, inner, turns = [0] * tree.n, arc.path[1:-1], arc.turns
        for x, y, tx, ty in zip(inner, inner[1:], turns, turns[1:]):
            if tx != ty:
                vec[tree.edge_index[tuple(sorted((x, y)))]] = \
                    1 if tx == "left" else -1
        out.append(tuple(vec))
    return tuple(out)


def zigzag(tree, arc):
    """The signed support of the g-vector, as (plus edges, minus edges)."""
    g = g_vector(tree, arc)
    plus = frozenset(e for e, i in tree.edge_index.items() if g[i] == 1)
    minus = frozenset(e for e, i in tree.edge_index.items() if g[i] == -1)
    return plus, minus


def segment_of(facet, arc):
    """The segment joining the two marked corners of a colored arc."""
    if arc.is_boundary:
        raise ValueError("boundary arcs carry no segment")
    return facet.segment[arc]


def c_vector(facet, arc):
    """Signed indicator of segment_of(facet, arc): positive for green
    arcs, negative for red.  Facet-dependent, unlike the g-vector."""
    sign = 1 if facet.color[arc] == "green" else -1
    return tuple(sign * x for x in indicator(
        facet.tree, segment_of(facet, arc).edges()))


def _arc_counts(tree):
    """Per arc id, per segment id, (plus, minus): how many of the
    segment's edges carry +1, and how many -1, in the arc's g-vector.
    Summed along the weight steps of the segment table, once per
    tree."""
    return tree.memo("arc_counts", _build_arc_counts)


def _build_arc_counts(tree):
    steps = _segment_table(tree).steps
    out = []
    for g in tree.memo("g", _g_vectors):
        counts = [None] * len(steps)
        for s, prefix, e in steps:
            p, m = counts[prefix] if prefix >= 0 else (0, 0)
            counts[s] = (p + (g[e] == 1), m + (g[e] == -1))
        out.append(tuple(counts))
    return tuple(out)


def pairing_matrix(facet):
    """Gram matrix <g(row), c(col)> over the facet's colored arcs, read
    off its payload: <g(a), c(b)> is plus - minus of a on the segment of
    b (see `_arc_counts`), negated for red b.

    Checked to be the identity; a failure is a convention bug and
    names the offending pair."""
    counts, payload = _arc_counts(facet.tree), facet.payload
    columns = [(s, 1 if green else -1) for _, s, green in payload]
    matrix = [[sign * (row[s][0] - row[s][1]) for s, sign in columns]
              for row in (counts[a] for a, _, _ in payload)]
    every = nc_complex.arcs(facet.tree)
    for i, (row, (a, _, _)) in enumerate(zip(matrix, payload)):
        for j, (x, (b, _, _)) in enumerate(zip(row, payload)):
            if x != (i == j):
                raise ConventionError(
                    "pairing <g(%r), c(%r)> = %d, expected %d"
                    % (every[a], every[b], x, i == j))
    return matrix


def kreweras_theta(facet):
    """Sum of the g-vectors of the facet's green arcs, read off its
    payload."""
    tree = facet.tree
    table = tree.memo("g", _g_vectors)
    gs = [table[i] for i, _, green in facet.payload if green]
    return tuple(map(sum, zip(*gs))) if gs else (0,) * tree.n


def theta_columns(tree, records, width):
    """The Kreweras weights (see `kreweras_theta`) column-wise, from the
    record table `records` of `width` facets: per interior edge, {v:
    the positions of the facets weighing v there}.  Adding an arc's
    g-vector moves the facets where the arc is green from v to v + g."""
    out = [{0: (1 << width) - 1} for _ in range(tree.n)]
    table = tree.memo("g", _g_vectors)
    for (i, _, green), col in records.items():
        for e, x in enumerate(table[i] if green else ()):
            if x:
                out[e] = _sum_columns(out[e], {x: col, 0: ~col})
    return out


def _sum_columns(a, b):
    """{v + x: the positions in both a[v] and b[x]} over two families of
    value columns, nonempty columns only."""
    out = {}
    for v, c in a.items():
        for x, d in b.items():
            if c & d:
                out[v + x] = out.get(v + x, 0) | c & d
    return out


def _subsegments(tree):
    """(C, K): per segment id, the id masks of C_s and of K_s; built
    once per tree."""
    return tree.memo("subsegments", _build_subsegments)


def _build_subsegments(tree):
    """The sub-path of s between vertex positions i < j is in C_s when
    i is an end of s or s turns right there, and j an end or s turns
    left there; in K_s when the same holds with left and right swapped.
    Hom and Ext are read off these sets, so a turn word that is not the
    mirror of the one read backward raises ConventionError."""
    C, K = [], []
    for seg, rows in zip(tree.all_segments, _segment_table(tree).splits):
        word = segment_turns(tree, seg)
        back = [turn(tree, seg.vertices[::-1], i) for i in range(1, len(seg))]
        if any(b == w for b, w in zip(back, reversed(word))):
            raise ConventionError("turn word of %r differs between "
                                  "orientations" % (seg,))
        ends = [None] + word + [None]
        c = k = 0
        for j, row in enumerate(rows, 1):
            for i, t in row:
                c |= (ends[i] != "left" and ends[j] != "right") << t
                k |= (ends[i] != "right" and ends[j] != "left") << t
        C.append(c)
        K.append(k)
    return tuple(C), tuple(K)


def submodule_segments(tree, seg):
    """C_s: sub-paths of s (oriented v_0..v_t) that start where s turns
    right and end where s turns left, endpoints of s always allowed.
    Contains s itself; indexes the indecomposable submodules of the
    string module of s.  A frozenset read off `_subsegments`; raises
    ValueError on a segment that is not the tree's."""
    segs = tree.all_segments
    return frozenset(segs[t] for t in _bits(_subsegments(tree)[0][
        _id(tree, seg)]))


def quotient_segments(tree, seg):
    """K_s: mirror of C_s with left and right swapped; indexes the
    indecomposable quotients."""
    segs = tree.all_segments
    return frozenset(segs[t] for t in _bits(_subsegments(tree)[1][
        _id(tree, seg)]))


def zigzag_dominance_check(facet, arc):
    """Counting property of the proof machinery.

    For a red arc whose segment s has at least two edges, in a facet
    with at least one green arc:

      (a) every proper member t of C_s admits a green arc whose zigzag
          meets t and has exactly one more minus-edge than plus-edge
          inside t (the witness may depend on t: it keeps the end of s
          that t keeps);
      (b) no green arc ever has more plus- than minus-edges inside any
          member of C_s.

    (a) is deliberately quantified per sub-segment.  The one-witness-
    for-all-t variant is false in general: a four-edge red segment over
    a degree-5 vertex splits its proper sub-segments between two green
    arcs, one per kept end."""
    tree, payload = facet.tree, facet.payload
    greens = [a for a, _, green in payload if green]
    if not greens:
        raise ValueError("facet has no green arc")
    s = next((s for a, s, green in payload if a == arc.id and not green),
             None)
    if s is None:
        raise ValueError("arc is not red in this facet")
    if len(tree.all_segments[s]) < 2:
        raise ValueError("segment of the red arc has fewer than two edges")
    counts = _arc_counts(tree)
    # per member t of C_s, per green arc: plus and minus in t
    rows = {t: [counts[a][t] for a in greens]
            for t in _bits(_subsegments(tree)[0][s])}
    return (all(m >= p for row in rows.values() for p, m in row)
            and all(any(m == p + 1 for p, m in row)
                    for t, row in rows.items() if t != s))
