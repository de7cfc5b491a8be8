"""Integer vectors attached to arcs and segments.

Everything lives in Z^n with one coordinate per interior edge, in the
tree's canonical (lexicographic) edge order.  The g-vector of an arc
reads off how the arc turns at the two ends of each interior edge it
uses (the turns its walk recorded), in one per-tree table
(`_g_vectors`); the c-vector of a colored arc in a facet is a signed
indicator of the segment between its marked corners.  Per facet the
two families are dual bases.  Both that and the zigzag counts run on
one per-tree table, of the +1 and -1 entries of each arc's g-vector
on each segment (`_arc_counts`), with no vector built.  Each claim has
one route, on a record table as int bitsets over facet positions
(columns): `verify_pairing` and `verify_dominance` run it on the table
of marking, for all the tree's facets at once, and `pairing_matrix`
and `zigzag_dominance_check` on one facet's record, a table of one
position.  The facet weights also come column-wise (`theta_columns`).

The sub-path families C_s and K_s defined here are one per-tree table
of id masks (`_subsegments`).  It drives both the module theory
(indecomposable submodules and quotients, and Hom, one AND of a K_s
and a C_t) and the stability checks, which read the proper C_s
(segment ids and the other per-tree segment tables live in
`tree_core`).
"""

from __future__ import annotations

from . import nc_complex
from .tree_core import ConventionError, _bits, _id, _raise_lowest, \
    _segment_table, segment_turns, turn


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
    """Gram matrix <g(row), c(col)> over the facet's colored arcs: <g(a),
    c(b)> is plus - minus of a on the segment of b (see `_arc_counts`),
    negated for red b.  Checked to be the identity by `_pairing_faults`
    on the facet's record alone; a failure is a convention bug and names
    the offending pair."""
    payload = facet.payload
    _raise_lowest(*_pairing_faults(facet.tree, dict.fromkeys(payload, 1)))
    k = len(payload)
    return [[int(i == j) for j in range(k)] for i in range(k)]


def verify_pairing(tree):
    """`pairing_matrix` on every facet of the tree, column-wise (see
    `_pairing_faults`); returns the number of facets."""
    _raise_lowest(*_pairing_faults(tree, nc_complex._marking(tree)[2]))
    return len(nc_complex.facets(tree))


def _pairing_faults(tree, records):
    """([(the positions where the pairing is not the identity, None)],
    the error at a position), for `_raise_lowest`, off the record table
    `records`.  <g(a), c(b)> reads arc a and the record of b only, so a
    record fails where its own value is not 1, and where it meets
    another colored arc with plus != minus on its segment.  The error
    names the first wrong entry at the position, row by row."""
    counts = _arc_counts(tree)
    held = {}  # per colored arc id, the positions where it is colored
    for (a, _, _), col in records.items():
        held[a] = held.get(a, 0) | col
    faults = 0
    for (b, s, green), col in records.items():
        p, m = counts[b][s]
        if p - m != (1 if green else -1):
            faults |= col
        others = 0
        for a, other in held.items():
            if a != b and counts[a][s][0] != counts[a][s][1]:
                others |= other
        faults |= col & others

    def wrong(p, _):
        every = nc_complex.arcs(tree)
        here = [r for r, col in records.items() if col >> p & 1]
        for i, (a, _, _) in enumerate(here):
            for j, (b, s, green) in enumerate(here):
                x = (counts[a][s][0] - counts[a][s][1]) * (1 if green else -1)
                if x != (i == j):
                    return ConventionError(
                        "pairing <g(%r), c(%r)> = %d, expected %d"
                        % (every[a], every[b], x, i == j))
    return [(faults, None)], wrong


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
    arcs, one per kept end.  Read off `_dominance_faults` on the facet's
    record alone."""
    tree, payload = facet.tree, facet.payload
    if not any(green for _, _, green in payload):
        raise ValueError("facet has no green arc")
    s = next((s for a, s, green in payload if a == arc.id and not green),
             None)
    if s is None:
        raise ValueError("arc is not red in this facet")
    if len(tree.all_segments[s]) < 2:
        raise ValueError("segment of the red arc has fewer than two edges")
    # the one position fails or not: the arc's fault column is 1 or 0
    return (0, arc.id) in _dominance_faults(
        tree, dict.fromkeys(payload, 1))[1]


def verify_dominance(tree):
    """`zigzag_dominance_check` on every qualifying (facet, red arc) pair
    of the tree, column-wise (see `_dominance_faults`); returns the
    number of pairs.  The lowest failing facet raises for its first
    failing red arc, or for having no green arc."""
    records = nc_complex._marking(tree)[2]
    count, faults = _dominance_faults(tree, records)

    def error(p, a):
        if not any(green and col >> p & 1
                   for (_, _, green), col in records.items()):
            return ValueError("facet has no green arc")
        return ConventionError("facet %d arc %s~%s"
                               % ((p,) + nc_complex.arcs(tree)[a].leaves))
    _raise_lowest(faults, error)
    return count


def _dominance_faults(tree, records):
    """(the number of qualifying pairs, per qualifying red record in
    record order (the positions where it fails, its arc id)), off the
    record table `records`.  Per segment t, bad[t] holds the positions
    of a green arc with more plus than minus edges in t, good[t] those
    of one with one more minus than plus edge.  A red record whose
    segment s has two or more edges qualifies at the positions of its
    column, and fails where it meets bad[t] for a t in C_s and where it
    misses good[t] for a proper t in C_s.  That covers a facet with no
    green arc too, as such an s has a proper C_s member: its first edge
    if s turns left at its second vertex, else the rest of s."""
    counts, segs = _arc_counts(tree), tree.all_segments
    C = _subsegments(tree)[0]
    bad, good = [0] * len(segs), [0] * len(segs)
    for (a, _, green), col in records.items():
        if green:
            for t, (p, m) in enumerate(counts[a]):
                if p > m:
                    bad[t] |= col
                elif m == p + 1:
                    good[t] |= col
    count, faults = 0, []
    for (a, s, green), col in records.items():
        if not green and len(segs[s]) >= 2:
            count += col.bit_count()
            miss = 0
            for t in _bits(C[s]):
                miss |= bad[t] if t == s else bad[t] | ~good[t]
            faults.append((col & miss, a))
    return count, faults
