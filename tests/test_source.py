"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treestab"


def test_no_assert_statements():
    """`python -O` strips `assert`, so every check in the package must
    raise explicitly."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def memo_builders():
    """{key family: builder expressions} over every `tree.memo(key,
    build, ...)` call in the package; the family of a tuple key is its
    first element."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "memo"):
                key = node.args[0]
                if isinstance(key, ast.Tuple):
                    key = key.elts[0]
                assert isinstance(key, ast.Constant), \
                    "%s:%d: memo key family is not a literal" % (
                        path.name, node.lineno)
                out.setdefault(key.value, set()).add(
                    ast.unparse(node.args[1]))
    return out


def test_each_memo_family_has_one_builder():
    """Each fact computed per tree is built in exactly one place."""
    builders = memo_builders()
    assert {"facets", "arcs", "chains", "arc_segment", "g", "hom",
            "segments", "proper", "gluing", "stability",
            "torsion", "decompositions", "arc_counts"} <= set(builders)
    # torsion pairs and decompositions are read off those two tables
    assert not {"torsion_pair", "sub_quotients"} & set(builders)
    shared = {k: v for k, v in builders.items() if len(v) != 1}
    assert not shared, shared
