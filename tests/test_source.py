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


def base_ints(node):
    """(line, column) of each `int(text, base)` call under `node`."""
    return {(n.lineno, n.col_offset) for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "int" and (len(n.args) > 1 or n.keywords)}


def test_bit_text_is_read_back_in_one_place():
    """b"0"/b"1" text becomes an int only in `nc_complex._as_int`, the
    reader of `_transpose`'s columns."""
    found = {(path.name,) + at for path in sorted(SRC.glob("*.py"))
             for at in base_ints(ast.parse(path.read_text()))}
    helper = next(node for node in ast.parse(
        (SRC / "nc_complex.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_as_int")
    allowed = {("nc_complex.py",) + at for at in base_ints(helper)}
    assert len(allowed) == 1 and found == allowed, sorted(found - allowed)


def memo_builders():
    """({key family: builder expressions}, the families of tuple keys)
    over every `tree.memo(key, build, ...)` call in the package; the
    family of a tuple key is its first element."""
    out, tupled = {}, set()
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
                if isinstance(node.args[0], ast.Tuple):
                    tupled.add(key.value)
                out.setdefault(key.value, set()).add(
                    ast.unparse(node.args[1]))
    return out, tupled


def test_each_memo_family_has_one_builder():
    """Each fact computed per tree is built in exactly one place, and
    each family is one table per tree, not one entry per key."""
    builders, tupled = memo_builders()
    assert {"facets", "arcs", "chains", "g", "segments", "subsegments",
            "submodules", "gluing", "torsion", "decompositions",
            "arc_counts", "payloads", "facet_weights"} <= set(builders)
    assert tupled == set()
    # torsion pairs and decompositions are read off those two tables;
    # C_s, K_s and Hom off the sub-segment table; a weight is not kept
    assert not {"torsion_pair", "sub_quotients", "C", "K", "hom", "proper",
                "stability"} & set(builders)
    shared = {k: v for k, v in builders.items() if len(v) != 1}
    assert not shared, shared


def test_memo_is_reached_through_its_method_only():
    """Every per-tree table is read and written through
    `EmbeddedTree.memo`: no module but `tree_core` touches `._memo`."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "tree_core.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "_memo"]
    assert not found, found


def calls(name):
    """["module:line"] of each call of a function or method `name` in
    the package."""
    return ["%s:%d" % (path.stem, node.lineno)
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))]


def test_facet_weights_are_built_in_one_place():
    """The facet weights' value columns and their semistable columns are
    made by the builder of one memo family (`semistable._weigh`), so no
    step rebuilds them; the partition side is read off the gluing, not
    closed again."""
    assert len(calls("theta_columns")) == 1, calls("theta_columns")
    assert len(calls("_semistable_columns")) == 1, \
        calls("_semistable_columns")
    assert not [at for at in calls("_closure_columns")
                if at.startswith("semistable:")]


def test_pairing_and_dominance_have_one_route():
    """Pairing and dominance are each checked by one record-table route,
    called by the tree-wide and the per-facet public functions alike,
    and a failure is raised through `_raise_lowest`: `gc_vectors` raises
    no ConventionError itself but the per-tree one of the turn words."""
    assert len(calls("_pairing_faults")) == 2, calls("_pairing_faults")
    assert len(calls("_dominance_faults")) == 2, calls("_dominance_faults")
    body = ast.parse((SRC / "gc_vectors.py").read_text()).body
    functions = [fn for fn in body if isinstance(fn, ast.FunctionDef)]

    def doing(test):
        return {fn.name for fn in functions
                if any(test(node) for node in ast.walk(fn))}
    assert doing(lambda n: isinstance(n, ast.Call) and getattr(
        n.func, "id", None) == "_raise_lowest") \
        == {"pairing_matrix", "verify_pairing", "verify_dominance"}
    assert doing(lambda n: isinstance(n, ast.Raise) and isinstance(
        n.exc, ast.Call) and getattr(n.exc.func, "id", None)
        == "ConventionError") == {"_build_subsegments"}
