import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import get_tree, SUITE
from treestab.tree_core import (
    EmbeddedTree,
    Segment,
    TreeFileError,
    TreeValidationError,
    compose,
    parse_tree,
    segment_turns,
    turn,
)

A2_TEXT = """\
# two-edge path with leaves
vertex v1: l1 v2 l2
vertex v2: v1 l3 v3
vertex v3: v2 l4 l5
vertex l1: v1
vertex l2: v1
vertex l3: v2
vertex l4: v3
vertex l5: v3
"""


def test_parse_a2():
    tree = parse_tree(A2_TEXT)
    assert tree.leaves == ("l1", "l2", "l3", "l4", "l5")
    assert tree.interior_vertices == ("v1", "v2", "v3")
    assert tree.interior_edges == (("v1", "v2"), ("v2", "v3"))
    assert tree.n == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TreeFileError, match="line 2"):
        parse_tree("vertex a: b\nvertex a: b\nvertex b: a\n")
    with pytest.raises(TreeFileError, match="line 1"):
        parse_tree("junk line\n")
    with pytest.raises(TreeFileError, match="never declared"):
        parse_tree("vertex a: b\n")


def test_validation_rejects_bad_rotations():
    # asymmetric adjacency
    with pytest.raises(TreeValidationError):
        EmbeddedTree({"a": ("b",), "b": ("c",), "c": ("b",)})
    # cycle
    with pytest.raises(TreeValidationError):
        EmbeddedTree({"a": ("b", "c"), "b": ("a", "c"), "c": ("a", "b")})
    # degree-2 interior vertex
    with pytest.raises(TreeValidationError):
        EmbeddedTree({"a": ("b",), "b": ("a", "c"), "c": ("b",)})
    # no interior vertex at all
    with pytest.raises(TreeValidationError):
        EmbeddedTree({"a": ("b",), "b": ("a",)})


def test_rotation_accessors():
    tree = get_tree("a2")
    assert tree.ccw_next("v2", "v1") == "l3"
    assert tree.ccw_next("v2", "l3") == "v3"
    assert tree.ccw_next("v2", "v3") == "v1"
    assert tree.cw_next("v2", "v1") == "v3"


# frozen face structure of the a2 fixture: counterclockwise boundary
# and the face index of every sector
A2_BOUNDARY = ("l1", "l3", "l4", "l5", "l2")
A2_SECTORS = {
    ("v1", "l1"): 0, ("v1", "l2"): 4, ("v1", "v2"): 3,
    ("v2", "l3"): 1, ("v2", "v1"): 0, ("v2", "v3"): 3,
    ("v3", "l4"): 2, ("v3", "l5"): 3, ("v3", "v2"): 1,
}


def test_face_trace_a2():
    tree = get_tree("a2")
    assert tree.boundary_leaves == A2_BOUNDARY
    assert dict(tree.sector_face) == A2_SECTORS
    gaps = [f.gap for f in tree.faces]
    assert gaps == [("l1", "l3"), ("l3", "l4"), ("l4", "l5"),
                    ("l5", "l2"), ("l2", "l1")]


def test_face_counts(suite_tree):
    tree = suite_tree
    L = len(tree.leaves)
    I = len(tree.interior_vertices)
    assert len(tree.faces) == L
    assert len(tree.corners) == L + 2 * (I - 1)
    # a face never touches the same vertex twice
    for f in tree.faces:
        assert len(f.vertices) == len(set(f.vertices))


def test_turns_a2():
    tree = get_tree("a2")
    path = ("l1", "v1", "v2", "v3", "l4")
    assert [turn(tree, path, i) for i in (1, 2, 3)] == \
        ["right", "left", "right"]
    with pytest.raises(ValueError):
        turn(tree, path, 0)


def test_segment_turns_orientation():
    tree = get_tree("a2")
    s = Segment.canonical(("v1", "v2", "v3"))
    assert segment_turns(tree, s) in (["left"], ["right"])


SEGMENT_COUNTS = {"a2": 3, "star3": 0, "subseg": 10, "cyc3": 6,
                  "deg45": 6, "caterpillar4": 6, "big8": 24}


def test_segment_counts(suite_tree):
    name = [n for n in SUITE if get_tree(n) is suite_tree][0]
    assert len(suite_tree.all_segments) == SEGMENT_COUNTS[name]


def test_segments_match_face_oracle(suite_tree):
    """Rotation-adjacency definition vs shared-face definition."""
    assert set(suite_tree.all_segments) == \
        oracles.face_extreme_paths(suite_tree)


def test_big8_non_segment():
    # the path through the degree-4 vertex v3 entering from v2 and
    # leaving to v4 uses non-adjacent rays, so it is not extreme
    tree = get_tree("big8")
    path = oracles.path_between(tree, "v2", "v4")
    assert path == ["v2", "v3", "v4"]
    assert not oracles.is_extreme_path(tree, path)
    assert Segment.canonical(path) not in set(tree.all_segments)
    with pytest.raises(ValueError, match="not adjacent to its entry"):
        turn(tree, path, 1)


def test_segment_canonical_orientation():
    s = Segment.canonical(("v3", "v2", "v1"))
    t = Segment.canonical(("v1", "v2", "v3"))
    assert s == t
    assert list(s.edges()) == [("v1", "v2"), ("v2", "v3")]
    assert len(s) == 2


def test_compose_a2():
    tree = get_tree("a2")
    s = Segment.canonical(("v1", "v2"))
    t = Segment.canonical(("v2", "v3"))
    assert compose(tree, s, t) == Segment.canonical(("v1", "v2", "v3"))
    # overlapping segments do not compose
    u = Segment.canonical(("v1", "v2", "v3"))
    assert compose(tree, s, u) is None


def test_compose_requires_extreme_result():
    tree = get_tree("big8")
    s = Segment.canonical(oracles.path_between(tree, "v2", "v3"))
    t = Segment.canonical(oracles.path_between(tree, "v3", "v4"))
    # both are segments but the concatenation pivots badly at v3
    assert s in set(tree.all_segments) and t in set(tree.all_segments)
    assert compose(tree, s, t) is None


def assert_compose_matches_join(tree):
    segs = tree.all_segments
    for s in segs:
        for t in segs:
            assert compose(tree, s, t) == oracles.compose_by_join(tree, s, t), \
                (s, t)


def test_compose_matches_join_oracle(suite_tree):
    assert_compose_matches_join(suite_tree)


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_compose_matches_join_oracle_random(rotation):
    assert_compose_matches_join(EmbeddedTree(rotation))


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations())
def test_random_tree_invariants(rotation):
    tree = EmbeddedTree(rotation)
    L = len(tree.leaves)
    I = len(tree.interior_vertices)
    assert len(tree.faces) == L
    assert len(tree.corners) == L + 2 * (I - 1)
    assert set(tree.all_segments) == oracles.face_extreme_paths(tree)
