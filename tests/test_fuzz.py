"""Arbitrary input never gets past the parser or the CLI as anything but
a one-line error: `parse_tree` raises only `TreeError`, and `facets`
exits 0 or 2 without a traceback."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

import randtrees
from treestab import cli
from treestab.tree_core import TreeError, parse_tree

NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f", "a:", "#"])
VERTEX_LINES = st.builds(
    lambda name, nbrs: "vertex %s: %s" % (name, " ".join(nbrs)),
    NAMES, st.lists(NAMES, max_size=4))
LINES = st.one_of(VERTEX_LINES, st.text(max_size=20))
TEXTS = st.lists(LINES, max_size=8).map("\n".join)


def _tree_file(rotation, drop):
    """A grown tree in the file format, without its line `drop` (when
    there is one)."""
    lines = ["vertex %s: %s" % (v, " ".join(ns))
             for v, ns in sorted(rotation.items())]
    return "\n".join(lines[:drop] + lines[drop + 1:])


TREE_FILES = st.builds(_tree_file, randtrees.rotations(max_interior=3),
                       st.integers(min_value=0, max_value=12))


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_parse_tree_raises_only_tree_errors(text):
    try:
        parse_tree(text)
    except TreeError:
        pass


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.binary(max_size=80),
                 st.one_of(TEXTS, TREE_FILES).map(str.encode)))
def test_facets_cli_exits_0_or_2(data):
    fd, path = tempfile.mkstemp(suffix=".tree")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["facets", path])
    finally:
        os.unlink(path)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
