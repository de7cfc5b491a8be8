"""Trees embedded in a disk.

A tree is stored as a rotation system: for every vertex, the cyclic
counterclockwise order of its neighbors.  That is all the embedding
data needed to recover the boundary order of the leaves, the faces of
the disk complement, the corners, and the segments that index string
modules downstream.

Every per-tree fact about segments comes from one table built by one
walk of the interior subtree (`_SegmentTable`).

Conventions fixed here and relied on everywhere else:
  * rotation lists are counterclockwise;
  * interior edges are indexed lexicographically by endpoint pair;
  * the boundary order of leaves is counterclockwise and starts at the
    lexicographically smallest leaf;
  * face i sits in the gap between boundary leaf i and boundary leaf
    i+1 (cyclically);
  * a path turns LEFT at an intermediate vertex when its exit edge is
    immediately clockwise from its entry edge, RIGHT when immediately
    counterclockwise.  (See the note on `turn`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple


class TreeError(Exception):
    """Base class for everything raised by this package on bad input."""


class TreeFileError(TreeError):
    """Tree file cannot be parsed.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class TreeValidationError(TreeError):
    """Structurally invalid tree (cycle, bad degree, not connected, ...)."""


class ConventionError(TreeError):
    """Internal consistency failure that indicates an orientation-convention
    bug rather than bad user input.  Should never escape on valid trees."""


@dataclass(frozen=True)
class Face:
    """A connected component of the disk minus the tree.

    Identified by its boundary gap: the pair of cyclically consecutive
    boundary leaves it touches.  `vertices` lists the interior vertices
    on its tree boundary, in order along the walk from `gap[1]` to
    `gap[0]`.
    """

    index: int
    gap: tuple
    vertices: tuple

    def __repr__(self):
        return "Face(%d: %s|%s)" % (self.index, self.gap[0], self.gap[1])


@dataclass(frozen=True)
class Segment:
    """A path between interior vertices all of whose consecutive edge
    pairs are incident to a common face.

    Stored in canonical orientation (lexicographically smallest of the
    two directions) so segments are usable as dict keys.
    """

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("segment needs at least one edge")

    @staticmethod
    def canonical(vertices):
        vs = tuple(vertices)
        rv = tuple(reversed(vs))
        return Segment(min(vs, rv))

    @property
    def endpoints(self):
        return frozenset((self.vertices[0], self.vertices[-1]))

    def edges(self):
        vs = self.vertices
        return [tuple(sorted((vs[i], vs[i + 1]))) for i in range(len(vs) - 1)]

    def edge_set(self):
        return frozenset(self.edges())

    def __len__(self):
        return len(self.vertices) - 1

    def __repr__(self):
        return "-".join(str(v) for v in self.vertices)


_MISSING = object()  # `memo`'s mark for a key not built yet


class EmbeddedTree:
    """Validated tree with a counterclockwise rotation system.

    Immutable after construction; every derived structure (faces,
    corners, segments) is computed once and cached.  The tables the
    other layers derive from the tree (arcs with their hugged corners
    and turns, g-vectors, facets, noncrossing partitions, torsion
    pairs, sub- and quotient segments, module data) are kept here too,
    through `memo`, so each is built at most once and is freed with
    the tree.  Paths are not searched here: each arc's path comes with
    it from `nc_complex.arcs`, and each segment's from the segment
    table.
    """

    def __init__(self, rotation):
        self.rotation = {v: tuple(nbrs) for v, nbrs in rotation.items()}
        self._validate()
        self.leaves = tuple(sorted(v for v in self.rotation
                                   if len(self.rotation[v]) == 1))
        self.interior_vertices = tuple(sorted(v for v in self.rotation
                                              if len(self.rotation[v]) > 1))
        self.interior_edges = tuple(sorted(
            tuple(sorted((u, v)))
            for u in self.interior_vertices
            for v in self.rotation[u]
            if v in set(self.interior_vertices) and u < v))
        self.edge_index = {e: i for i, e in enumerate(self.interior_edges)}
        self.n = len(self.interior_edges)
        self._trace_faces()
        self._memo = {}

    def memo(self, key, build, *args):
        """`build(self, *args)`, computed on the first request for `key`
        and kept for the life of the tree.  Every later caller shares the
        value, so collections handed out are tuples or frozensets."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = build(self, *args)
        return value

    # -- validation ----------------------------------------------------

    def _validate(self):
        rot = self.rotation
        if not rot:
            raise TreeValidationError("empty vertex set")
        for v, nbrs in rot.items():
            if len(set(nbrs)) != len(nbrs):
                raise TreeValidationError("repeated neighbor at %r" % (v,))
            for u in nbrs:
                if u not in rot:
                    raise TreeValidationError(
                        "vertex %r lists unknown neighbor %r" % (v, u))
                if v not in rot[u]:
                    raise TreeValidationError(
                        "edge %r-%r not symmetric" % (v, u))
            if v in nbrs:
                raise TreeValidationError("loop at %r" % (v,))
        nedges = sum(len(nbrs) for nbrs in rot.values())
        if nedges % 2 != 0:
            raise TreeValidationError("odd incidence count")
        nedges //= 2
        # connectivity by BFS from an arbitrary vertex
        start = next(iter(rot))
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for u in rot[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        if len(seen) != len(rot):
            raise TreeValidationError("graph is not connected")
        if nedges != len(rot) - 1:
            raise TreeValidationError("graph contains a cycle")
        interior = [v for v in rot if len(rot[v]) >= 2]
        for v in interior:
            if len(rot[v]) == 2:
                raise TreeValidationError(
                    "interior vertex %r has degree 2" % (v,))
        if not interior:
            raise TreeValidationError("no interior vertex")

    # -- faces by walking the rotation system --------------------------

    def ccw_next(self, v, u):
        """Neighbor of v immediately counterclockwise from u."""
        nbrs = self.rotation[v]
        return nbrs[(nbrs.index(u) + 1) % len(nbrs)]

    def cw_next(self, v, u):
        nbrs = self.rotation[v]
        return nbrs[(nbrs.index(u) - 1) % len(nbrs)]

    def _trace_faces(self):
        # One closed walk visits every directed edge once: after u->v
        # continue with v->w, w immediately clockwise from u about v.
        # The walk meets the disk boundary exactly at the leaves, in
        # clockwise order, so the reversed arrival order is the ccw
        # boundary order.
        first_leaf = self.leaves[0]
        walk = [(first_leaf, self.rotation[first_leaf][0])]
        while True:
            u, v = walk[-1]
            w = self.cw_next(v, u)
            if (v, w) == walk[0]:
                break
            walk.append((v, w))
        if len(walk) != 2 * (len(self.rotation) - 1):
            raise ConventionError("face walk missed directed edges")

        arrival = [u for (u, v) in walk if u in set(self.leaves)]
        order = list(reversed(arrival))
        shift = order.index(min(order))
        self.boundary_leaves = tuple(order[shift:] + order[:shift])

        L = len(self.boundary_leaves)
        gap_index = {}
        for i in range(L):
            gap_index[(self.boundary_leaves[i],
                       self.boundary_leaves[(i + 1) % L])] = i

        # Split the walk at leaf visits.  The run from leaf p to the
        # next leaf q lies on the boundary of the face in gap (q, p).
        # At every interior passage (u->v->w) the walk hugs the sector
        # of v that starts at ray w, so that sector belongs to the same
        # face.
        self.sector_face = {}
        face_vertices = {}
        idx = [i for i, (u, v) in enumerate(walk) if u in set(self.leaves)]
        for k, start in enumerate(idx):
            end = idx[(k + 1) % len(idx)]
            p = walk[start][0]
            q = walk[end][0]
            fi = gap_index[(q, p)]
            run = []
            j = start
            while j != end:
                u, v = walk[j]
                jn = (j + 1) % len(walk)
                w = walk[jn][1]
                if v != q:
                    run.append(v)
                    key = (v, w)
                    if key in self.sector_face:
                        raise ConventionError("sector visited twice")
                    self.sector_face[key] = fi
                j = jn
            face_vertices[fi] = tuple(run)

        self.faces = tuple(
            Face(i, (self.boundary_leaves[i],
                     self.boundary_leaves[(i + 1) % L]),
                 face_vertices[i])
            for i in range(L))
        # planarity bookkeeping: interior v lies on deg(v) faces
        for v in self.interior_vertices:
            touching = [f for f in self.faces if v in f.vertices]
            if len(touching) != len(self.rotation[v]):
                raise ConventionError(
                    "vertex %r touches %d faces, expected deg %d"
                    % (v, len(touching), len(self.rotation[v])))

    @cached_property
    def corners(self):
        """All (interior vertex, face index) incidences."""
        return tuple((v, f.index) for f in self.faces for v in f.vertices)

    def flag_color(self, v, edge_neighbor, face_index):
        """Color of the flag (v, e, F) for e the edge toward
        `edge_neighbor`: green when F is immediately counterclockwise
        from e about v, red when immediately clockwise."""
        if self.sector_face[(v, edge_neighbor)] == face_index:
            return "green"
        if self.sector_face[(v, self.cw_next(v, edge_neighbor))] == face_index:
            return "red"
        raise ConventionError(
            "face %d is not adjacent to edge %r-%r" % (face_index, v,
                                                       edge_neighbor))

    # -- paths and segments ---------------------------------------------

    def _turn(self, v, a, b):
        """"left" when ray b is immediately clockwise from ray a about v,
        "right" when immediately counterclockwise, None otherwise."""
        if self.cw_next(v, a) == b:
            return "left"
        if self.ccw_next(v, a) == b:
            return "right"
        return None

    @cached_property
    def all_segments(self):
        """Every segment, sorted by vertices; its place here is its id."""
        return _segment_table(self).segments


def turn(tree, path, i):
    """Handedness of the path at intermediate vertex path[i].

    Returns "left" when the exit edge is immediately clockwise from the
    entry edge about path[i], "right" when immediately counterclockwise.
    Any other exit ray, and an index that is not intermediate, raises
    ValueError.

    The assignment of the words left/right to the two rotation
    directions is a global convention; it is validated end to end by
    the stability test suite, which reproduces published example
    vectors only under this choice.
    """
    if not (0 < i < len(path) - 1):
        raise ValueError("turn index must be intermediate")
    side = tree._turn(path[i], path[i - 1], path[i + 1])
    if side is None:
        raise ValueError(
            "path exits %r by a ray not adjacent to its entry" % (path[i],))
    return side


def segment_turns(tree, seg):
    """Turn word of a segment in its stored orientation.  Raises
    ValueError on a segment that is not the tree's."""
    _id(tree, seg)
    return [turn(tree, list(seg.vertices), i)
            for i in range(1, len(seg.vertices) - 1)]


def _bits(mask):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _raise_lowest(faults, error):
    """Given fault columns (col, what) over positions, raise error(p,
    what) for the first fault at the lowest position p of any."""
    failing = reduce(or_, (col for col, _ in faults), 0)
    if failing:
        p = (failing & -failing).bit_length() - 1
        raise next(error(p, what) for col, what in faults if col >> p & 1)


def compose(tree, s, t):
    """Concatenation of two of the tree's segments sharing exactly one
    endpoint, when it is again a segment; None otherwise.  Raises
    ValueError on a segment that is not the tree's."""
    u = _segment_table(tree).compose[_id(tree, s)].get(_id(tree, t))
    return None if u is None else tree.all_segments[u]


def _id(tree, seg):
    """The id of one of the tree's segments; ValueError for any other."""
    try:
        return _segment_table(tree).ids[seg]
    except KeyError:
        raise ValueError("not a segment of this tree: %r" % (seg,)) from None


class _SegmentTable(NamedTuple):
    """Every per-tree fact about segments.  A segment's id is its place
    in `segments`, and a vertex's its place in sorted order."""

    segments: tuple  # every segment, sorted by vertices
    ids: dict  # {segment: id}
    index: dict  # {interior vertex: id}
    # pairs[a, b], vertex ids a != b: the inner-vertex mask of the tree
    # path from a to b, and the id of the segment it is, or None
    pairs: dict
    # splits[s]: per vertex position j >= 1 along s, the pairs (i, t)
    # for i < j, t the id of the part between positions i and j
    splits: tuple
    # (s, prefix, e) per segment, shortest first: s is the segment
    # `prefix` (an id, or -1 for none) extended by interior edge e
    steps: tuple
    compose: tuple  # compose[s]: {t: u} for u = s and t end to end


def _segment_table(tree):
    """The tree's `_SegmentTable`, built once per tree."""
    return tree.memo("segments", _build_segment_table)


def _build_segment_table(tree):
    index = {v: i for i, v in enumerate(tree.interior_vertices)}
    # (a, b) -> (inner vertex mask, the path a..b if a segment, else ())
    walked = {}
    for a in index:
        # a stack, as paths can outgrow the recursion limit: x reached from
        # prev, the path a..x if a segment, else (), the mask of a..x but a
        todo = [(a, None, (a,), 0)]
        while todo:
            x, prev, path, inner = todo.pop()
            # a path is a segment exactly when its prefix is one and it
            # turns to a rotation-adjacent ray at the prefix's end
            for y in tree.rotation[x]:
                if y != prev and y in index:
                    extreme = prev is None or tree._turn(x, prev, y)
                    extended = path + (y,) if path and extreme else ()
                    walked[index[a], index[y]] = (inner, extended)
                    todo.append((y, x, extended, inner | 1 << index[y]))
    # a path leaving a toward a later vertex is in canonical orientation
    segments = tuple(map(Segment, sorted(
        p for (a, b), (_, p) in walked.items() if a < b and p)))
    ids = {s: i for i, s in enumerate(segments)}
    pairs = {ab: (inner, ids[Segment.canonical(p)] if p else None)
             for ab, (inner, p) in walked.items()}
    splits = []
    for s in segments:
        vs = [index[v] for v in s.vertices]
        splits.append(tuple(tuple((i, pairs[vs[i], vs[j]][1])
                                  for i in range(j))
                            for j in range(1, len(vs))))
    steps = []
    for s in sorted(range(len(segments)), key=lambda s: len(segments[s])):
        vs = segments[s].vertices
        prefix = ids[Segment.canonical(vs[:-1])] if len(vs) > 2 else -1
        steps.append((s, prefix, tree.edge_index[tuple(sorted(vs[-2:]))]))
    # u split at each of its inner vertices gives the two parts that
    # compose to it, in either order
    compose = [{} for _ in segments]
    for u, rows in enumerate(splits):
        for k in range(1, len(rows)):
            s, t = rows[k - 1][0][1], rows[-1][k][1]
            compose[s][t] = compose[t][s] = u
    return _SegmentTable(segments, ids, index, pairs, tuple(splits),
                         tuple(steps), tuple(compose))


def parse_tree(text):
    """Parse the tree file format.

    Lines of the form `vertex NAME: N1 N2 ... Nk` list the neighbors of
    NAME in counterclockwise order.  `#` starts a comment.  Every
    vertex that appears must also be declared by its own line.
    """
    rotation = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("vertex"):
            raise TreeFileError("expected 'vertex NAME: ...'", lineno)
        rest = line[len("vertex"):].strip()
        if ":" not in rest:
            raise TreeFileError("missing ':'", lineno)
        name, nbrs = rest.split(":", 1)
        name = name.strip()
        if not name:
            raise TreeFileError("empty vertex name", lineno)
        if name in rotation:
            raise TreeFileError("vertex %r declared twice" % name, lineno)
        nbr_list = nbrs.split()
        if not nbr_list:
            raise TreeFileError("vertex %r has no neighbors" % name, lineno)
        rotation[name] = nbr_list
    if not rotation:
        raise TreeFileError("no vertex lines found", None)
    for v, nbrs in rotation.items():
        for u in nbrs:
            if u not in rotation:
                raise TreeFileError(
                    "vertex %r used by %r but never declared" % (u, v), None)
    return EmbeddedTree(rotation)


def load_tree(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise TreeFileError("not valid UTF-8 at byte %d" % e.start) from None
    return parse_tree(text)
