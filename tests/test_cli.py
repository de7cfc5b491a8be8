import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import randtrees
from conftest import (SUITE, dropped_semi, fixture_path, get_tree,
                      negated_green, outcome, raised_count,
                      swapped_count, swapped_semi)
from treestab import cli, gc_vectors, nc_complex, semistable
from treestab.tree_core import EmbeddedTree, load_tree

BIN = [sys.executable, "-m", "treestab.cli"]


def run(*args, **kw):
    env = dict(os.environ)
    env.update(kw.pop("env", {}))
    return subprocess.run(BIN + list(args), capture_output=True,
                          text=True, env=env, **kw)


def test_verify_thm1_a2():
    r = run("verify-thm1", fixture_path("a2"))
    assert r.returncode == 0
    assert r.stdout.strip() == "5/5 facets pass"


def test_verify_thm1_jobs():
    r1 = run("verify-thm1", fixture_path("cyc3"))
    r2 = run("verify-thm1", "--jobs", "2", fixture_path("cyc3"))
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_semistable_zero_weight():
    r = run("semistable", "--theta", "0,0", fixture_path("a2"))
    assert r.returncode == 0
    assert "3 semistable indecomposables" in r.stdout
    body = [ln for ln in r.stdout.splitlines() if ln.startswith("  ")]
    assert len(body) == 3


def test_semistable_bad_weight_exits_2():
    r = run("semistable", "--theta", "0,0,0", fixture_path("a2"))
    assert r.returncode == 2
    assert "2 entries" in r.stderr
    r = run("semistable", "--theta", "a,b", fixture_path("a2"))
    assert r.returncode == 2


def test_missing_file_exits_2(tmp_path):
    r = run("facets", str(tmp_path / "nope.tree"))
    assert r.returncode == 2
    bad = tmp_path / "bad.tree"
    bad.write_text("vertex a: b\n")
    r = run("facets", str(bad))
    assert r.returncode == 2
    assert "bad tree file" in r.stderr


def test_invalid_utf8_exits_2(tmp_path):
    bad = tmp_path / "latin1.tree"
    bad.write_bytes("vertex v\xe9: a\n".encode("latin-1"))
    r = run("facets", str(bad))
    assert r.returncode == 2
    assert r.stderr.startswith("bad tree file")
    assert "UTF-8" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_semistable_empty_weight_without_interior_edges():
    r = run("semistable", "--theta=", fixture_path("star3"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("theta []: 0 semistable indecomposables")
    r = run("semistable", "--theta=", "--format", "json",
            fixture_path("star3"))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["theta"] == []
    r = run("semistable", "--theta=1", fixture_path("star3"))
    assert r.returncode == 2
    assert "0 entries" in r.stderr
    r = run("semistable", "--theta=", fixture_path("a2"))
    assert r.returncode == 2
    assert "2 entries" in r.stderr


def test_json_outputs_have_format_version():
    for cmd in (["facets"], ["vectors"], ["modules"], ["ncp"],
                ["kreweras"], ["torsion"],
                ["semistable", "--theta", "0,0"],
                ["verify-thm1"], ["poset"], ["check-all"]):
        r = run(*cmd, "--format", "json", fixture_path("a2"))
        assert r.returncode == 0, (cmd, r.stderr)
        data = json.loads(r.stdout)
        assert data["format_version"] == 1, cmd


def test_vectors_prints_legend_first():
    r = run("vectors", fixture_path("a2"))
    lines = r.stdout.splitlines()
    assert lines[0] == "edge 0: v1-v2"
    assert lines[1] == "edge 1: v2-v3"


def test_deterministic_output_across_hash_seeds():
    outs = set()
    for seed in ("0", "1", "271828"):
        r = run("vectors", "--format", "json", fixture_path("deg45"),
                env={"PYTHONHASHSEED": seed})
        outs.add(r.stdout)
        r2 = run("facets", fixture_path("subseg"),
                 env={"PYTHONHASHSEED": seed})
        outs.add("facets:" + r2.stdout)
    assert len(outs) == 2


def test_dot_outputs():
    r = run("facets", "--format", "dot", fixture_path("a2"))
    assert r.stdout.startswith("graph flips {")
    assert r.stdout.count(" -- ") == 5  # pentagon
    r = run("poset", "--which", "ncp", "--format", "dot",
            fixture_path("a2"))
    assert r.stdout.startswith("digraph poset {")
    assert r.stdout.count(" -> ") == 6


def test_poset_ss_matches_ncp_shape():
    r1 = run("poset", "--which", "ncp", "--format", "json",
             fixture_path("deg45"))
    r2 = run("poset", "--which", "ss", "--format", "json",
             fixture_path("deg45"))
    d1, d2 = json.loads(r1.stdout), json.loads(r2.stdout)
    assert d1["size"] == d2["size"] == 14
    assert sorted(map(tuple, d1["covers"])) == \
        sorted(map(tuple, d2["covers"]))
    assert d1["lattice"] and d2["lattice"]


def test_check_all_aggregates():
    r = run("check-all", "--samples", "20", fixture_path("cyc3"))
    assert r.returncode == 0
    for name in ("pairing-identity", "zigzag-dominance",
                 "kreweras-stability", "poset-isomorphism",
                 "torsion-pairs", "converse-sweep"):
        assert name in r.stdout
    assert "all checks pass" in r.stdout


def test_check_all_seed_changes_weights_not_verdict():
    r1 = run("check-all", "--samples", "10", "--seed", "1",
             fixture_path("a2"))
    r2 = run("check-all", "--samples", "10", "--seed", "2",
             fixture_path("a2"))
    assert r1.returncode == r2.returncode == 0


def test_check_all_negative_samples_exits_2():
    r = run("check-all", "--samples", "-3", fixture_path("a2"))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "--samples must be >= 0, got -3\n"


def test_kreweras_text():
    r = run("kreweras", fixture_path("a2"))
    assert "orbit lengths: [3, 2]" in r.stdout
    assert "{v1,v3}/{v2}  ->  {v1}/{v2,v3}" in r.stdout


def test_ncp_count_line():
    r = run("ncp", fixture_path("subseg"))
    assert r.stdout.splitlines()[0] == "42 noncrossing partitions"


def test_modules_text():
    r = run("modules", fixture_path("a2"))
    assert "algebra dimension 3, 1 arrows, 0 relations" in r.stdout


def test_facets_json_roundtrip():
    r = run("facets", "--format", "json", fixture_path("a2"))
    data = json.loads(r.stdout)
    assert data["count"] == 5
    colored = [a for f in data["facets"] for a in f["arcs"]
               if not a["boundary"]]
    assert len(colored) == 10
    assert all(a["color"] in ("red", "green") for a in colored)


DOCTORED = {
    # every arc's plus and minus counts swapped, so g pairs with c as -1
    "pairing-identity": "real = gc_vectors._arc_counts\n"
                        "gc_vectors._arc_counts = lambda tree: [[(m, p) "
                        "for p, m in row] for row in real(tree)]\n",
    # every arc's minus counts set to its plus counts, so no green arc
    # has one more minus than plus edge in a proper member of C_s
    "zigzag-dominance": "real = gc_vectors._arc_counts\n"
                        "gc_vectors._arc_counts = lambda tree: [[(p, p) "
                        "for p, m in row] for row in real(tree)]\n",
    "converse-sweep": "string_modules.is_wide = lambda tree, segs: False\n",
    # segment 0 in every C_s and K_s, so every Hom space is nonzero
    "torsion-pairs": "real = gc_vectors._build_subsegments\n"
                     "gc_vectors._build_subsegments = lambda tree: [[m | 1 "
                     "for m in side] for side in real(tree)]\n",
    # every facet weight's semistable set empty, its stable set kept
    "kreweras-stability": "real = semistable._semistable_columns\n"
                          "semistable._semistable_columns = lambda tree, w: "
                          "([0] * len(w), real(tree, w)[1])\n",
}


def run_doctored(doctor, *args, optimize=True, env=()):
    """`cli.main(args)` in a fresh interpreter after running `doctor`,
    under `python -O` unless `optimize` is false, with the variables
    `env` added to the environment."""
    script = (
        "import sys\n"
        "from treestab import cli, gc_vectors, semistable, string_modules\n"
        "if sys.flags.optimize != %d:\n"
        "    sys.exit(3)\n" % optimize
        + doctor +
        "sys.exit(cli.main(sys.argv[1:]))\n")
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, **dict(env)))


@pytest.mark.parametrize("check", sorted(DOCTORED))
def test_check_all_failures_survive_optimize(check):
    """A doctored check still fails `check-all` under `python -O`."""
    r = run_doctored(DOCTORED[check], "check-all", "--samples", "5",
                     fixture_path("cyc3"))
    assert r.returncode == 1, r.stderr
    line = next(ln for ln in r.stdout.splitlines() if ln.startswith(check))
    assert line.split()[1] == "FAIL", r.stdout


@pytest.mark.parametrize("optimize", [False, True])
def test_check_all_fails_non_unique_decomposition(optimize):
    """With every module listed as its own submodule twice, the whole
    module qualifies twice wherever it lies in T: `torsion-pairs`, and
    no other check, fails, under `python -O` too."""
    r = run_doctored("real = string_modules._build_submodules\n"
                     "string_modules._build_submodules = lambda tree: "
                     "[opts + opts[-1:] for opts in real(tree)]\n",
                     "check-all", "--samples", "5", fixture_path("cyc3"),
                     optimize=optimize)
    assert r.returncode == 1, r.stderr
    failed = [ln for ln in r.stdout.splitlines() if ln.split()[1] == "FAIL"]
    assert [ln.split()[0] for ln in failed] == ["torsion-pairs"], r.stdout
    assert "ConventionError: torsion decomposition of " in failed[0]
    assert "not unique" in failed[0]


PER_FACET = {"pairing-identity": oracles.pairing_per_facet,
             "zigzag-dominance": oracles.dominance_per_facet,
             "poset-isomorphism": oracles.order_per_poset}
# per doctor: what it patches, and the steps it fails on big8; a count
# doctor plants its fault in the g-vectors, so the weights and with them
# the order isomorphism go wrong too
COUNTS = (gc_vectors, "_g_vectors")
SEMI = (semistable, "_semistable_columns")
ALL = ["pairing-identity", "zigzag-dominance", "poset-isomorphism"]
DOCTORS = {"none": (None, []),
           "swapped-count": (COUNTS + (swapped_count,), ALL),
           "raised-count": (COUNTS + (raised_count,), ALL),
           "negated-green": (COUNTS + (negated_green,), ALL),
           "swapped-semi": (SEMI + (swapped_semi,), []),
           "dropped-semi": (SEMI + (dropped_semi,), ["poset-isomorphism"])}


@pytest.mark.parametrize("doctor", sorted(DOCTORS))
@pytest.mark.parametrize("name", SUITE)
def test_check_all_steps_match_per_facet_routes(name, doctor, monkeypatch,
                                                 capsys):
    """check-all's pairing, dominance and poset steps run on the record
    table, the count table and the gluing; passing or failing, each
    gives the verdict and detail of the per-facet oracle, the facet and
    arc a failure names included, also with the g-vectors or the semi
    columns doctored."""
    patch, fails = DOCTORS[doctor]
    if patch:
        module, attr, make = patch
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    cli.main(["check-all", "--format", "json", "--samples", "0",
              fixture_path(name)])
    got = {c["name"]: (c["passed"], c["detail"])
           for c in json.loads(capsys.readouterr().out)["checks"]
           if c["name"] in PER_FACET}
    tree = load_tree(fixture_path(name))
    assert got == {step: outcome(fn, tree) for step, fn in PER_FACET.items()}
    if name == "big8":
        assert [step for step, (ok, _) in got.items() if not ok] == fails


def path_tree(n):
    """A path of n interior vertices, each with two leaves, that enters
    and leaves every inner vertex through non-adjacent rays: its
    segments are its n - 1 edges, but walking it visits n vertices in a
    row."""
    names = ["v%03d" % i for i in range(n)]
    lines = []
    for i, v in enumerate(names):
        a, b = "a%03d" % i, "b%03d" % i
        rays = (names[i - 1:i] if i else []) + [a] + names[i + 1:i + 2] + [b]
        lines += ["vertex %s: %s" % (v, " ".join(rays)),
                  "vertex %s: %s" % (a, v), "vertex %s: %s" % (b, v)]
    return "\n".join(lines) + "\n"


def test_long_path_needs_no_deep_recursion(tmp_path):
    """The segment walk keeps its own stack: a 300-vertex path tree gets
    through `modules` under a recursion limit of 200."""
    path = tmp_path / "path300.tree"
    path.write_text(path_tree(300))
    r = subprocess.run(
        [sys.executable, "-c", "import sys\nsys.setrecursionlimit(200)\n"
         "from treestab import cli\nsys.exit(cli.main(sys.argv[1:]))\n",
         "modules", "--format", "json", str(path)],
        capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["modules"]) == 299


@pytest.mark.parametrize("optimize", [False, True])
def test_kreweras_stability_failure_is_one_readable_line(optimize):
    """The failing facets are counted and the first three reasons
    spelled out, not printed as a list of tuples."""
    r = run_doctored(DOCTORED["kreweras-stability"], "check-all",
                     "--samples", "5", fixture_path("cyc3"),
                     optimize=optimize)
    assert r.returncode == 1, r.stderr
    line = next(ln for ln in r.stdout.splitlines()
                if ln.startswith("kreweras-stability"))
    detail = line.split("ConventionError: ", 1)[1]
    assert detail.split("; ") == [
        "13/14 facets fail",
        "facet 0: semistable set [] differs from partition side [c-w2]",
        "facet 1: semistable set [] differs from partition side "
        "[c-w2, c-w3, w2-c-w3]",
        "facet 1: red composite w2-c-w3 not semistable"]


def test_failure_text_is_the_same_across_hash_seeds():
    """With every module semistable at every facet weight, the all-green
    facet of cyc3 lists its semistables in id order, so `verify-thm1`
    prints the same failure text whatever the string hashes are."""
    doctor = ("real = semistable._semistable_columns\n"
              "semistable._semistable_columns = lambda tree, w: ("
              "[sum(c.values()) for c in w], real(tree, w)[1])\n")
    outs = [run_doctored(doctor, "verify-thm1", fixture_path("cyc3"),
                         env={"PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert [r.returncode for r in outs] == [1, 1], outs[0].stderr
    assert outs[0].stdout == outs[1].stdout
    assert "facet 2: all-green facet has semistables [M(c-w1), M(c-w2), " \
        "M(c-w3), M(w1-c-w2), M(w1-c-w3), M(w2-c-w3)]\n" in outs[0].stdout


@pytest.mark.parametrize("optimize", [False, True])
def test_convention_error_is_one_line_exit_1(optimize):
    """A failed internal check escaping a subcommand is reported as one
    stderr line and exit status 1, never as a traceback."""
    r = run_doctored(DOCTORED["torsion-pairs"], "torsion",
                     fixture_path("cyc3"), optimize=optimize)
    assert r.returncode == 1, r.stderr
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert lines[0].startswith("check failed on ")
    assert "torsion class maps onto its own free class" in lines[0]


# -- the JSON writer -----------------------------------------------------

TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u20ac'
                                         '\U0001f600'),
                         st.characters()))
SCALARS = st.one_of(TEXT, st.integers(),
                    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
                    st.booleans(), st.sampled_from([0, 1, True, False]),
                    st.none())
PAYLOADS = st.recursive(
    SCALARS | st.sampled_from([[], {}, ()]),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=25)


def _with_shared(payload, shared):
    """`payload` next to one container met at depth 3, then three times
    at depth 2, then twice more at depth 3 and once at depth 4."""
    return {"a": [[shared]], "b": [shared, shared], "c": {"k": shared},
            "d": [[shared], {"k": [shared]}], "e": payload}


@settings(max_examples=100, deadline=None)
@given(st.builds(_with_shared, PAYLOADS,
                 st.lists(PAYLOADS, min_size=1, max_size=3)
                 | st.dictionaries(TEXT, PAYLOADS, min_size=1, max_size=3)))
def test_writer_matches_json_dumps(payload):
    assert cli._dumps(payload) == json.dumps(payload, sort_keys=True,
                                             indent=2)


@pytest.mark.parametrize("payload", [
    {"a": 1.5}, [0.0], {"a": [1, {"b": float("nan")}]}, {1: "a"},
    {"a": {(1, 2): 3}}, {"a": {1, 2}}, [b"bytes"]])
def test_writer_rejects_floats_and_non_str_keys(payload):
    with pytest.raises(TypeError):
        cli._dumps(payload)


def test_writer_leaves_nothing_for_the_cyclic_collector():
    """`_dumps` makes no reference cycle: with the cyclic collector off,
    nothing the call made is left for it to free once it returns, so
    the pieces of a large output go as soon as the text is joined."""
    payload = {"a": [1, {"b": None, "c": [True, "x"]}],
               "d": (piece for piece in ["[", "]"])}
    gc.collect()
    gc.disable()
    try:
        text = cli._dumps(payload)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
    assert text == json.dumps(dict(payload, d=[]), sort_keys=True, indent=2)


SLOT = object()  # where a pre-rendered value goes
SLOTTED = st.recursive(
    SCALARS | st.just(SLOT),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=25)


def _fill(payload, value):
    """`payload` with every SLOT replaced by value(depth), for the
    depth where it lies."""
    def fill(obj, depth):
        if obj is SLOT:
            return value(depth)
        if isinstance(obj, dict):
            return {k: fill(v, depth + 1) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return type(obj)(fill(v, depth + 1) for v in obj)
        return obj

    return fill(payload, 0)


def _pieces(text):
    """A generator of the pieces of `text`, three characters each."""
    return (text[k:k + 3] for k in range(0, len(text), 3))


@settings(max_examples=100, deadline=None)
@given(SLOTTED, PAYLOADS)
def test_writer_writes_pre_rendered_text_in_place(payload, x):
    """`_dumps(x)` rendered at the depth where it lands, handed over as
    a generator of pieces and put in the places of a payload, gives the
    text json.dumps gives with x itself in those places."""
    assert cli._dumps(_fill(payload, lambda depth: _pieces(
        cli._dumps(x, depth)))) == \
        json.dumps(_fill(payload, lambda depth: x), sort_keys=True,
                   indent=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(PAYLOADS, max_size=4),
       st.dictionaries(st.text(alphabet="abc%", min_size=1), PAYLOADS,
                       min_size=1, max_size=4),
       st.integers(min_value=0, max_value=4))
def test_list_and_object_texts_match_the_writer(items, obj, level):
    """A list's text from its items' texts, as pieces (`_items`) or
    joined (`_list_text`), and an object's from its slotted frame
    (`_object`), are the writer's text of the list and the object."""
    texts = [cli._dumps(x, level + 1) for x in items]
    assert "".join(cli._items(texts, level)) == cli._dumps(items, level)
    assert cli._list_text(texts, level) == cli._dumps(items, level)
    keys = sorted(obj)
    assert cli._object(level, *keys) % tuple(
        cli._dumps(obj[k], level + 1) for k in keys) == \
        cli._dumps(obj, level)


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


JSON_COMMANDS = [["facets"], ["vectors"], ["modules"], ["ncp"],
                 ["kreweras"], ["torsion"], ["semistable"], ["verify-thm1"],
                 ["poset", "--which", "ncp"], ["poset", "--which", "ss"],
                 ["check-all", "--samples", "20"]]


@pytest.mark.parametrize("name", SUITE)
def test_json_output_is_canonical(name):
    """Every subcommand's JSON is exactly what json.dumps(sort_keys=True,
    indent=2) makes of it, on every fixture."""
    path = fixture_path(name)
    theta = ",".join(str((-1) ** i * (i + 1))
                     for i in range(get_tree(name).n))
    for cmd in JSON_COMMANDS:
        if cmd == ["semistable"]:
            cmd = cmd + ["--theta=" + theta]
        code, out, err = _main(*cmd, "--format", "json", path)
        assert code == 0, (cmd, err)
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n", cmd


# each command, but `facets`, that writes its large lists as pieces,
# with the route that built them as dicts
PIECE_ROUTES = {
    ("vectors",): oracles.vectors_payload,
    ("ncp",): oracles.ncp_payload,
    ("kreweras",): oracles.kreweras_payload,
    ("torsion",): oracles.torsion_payload,
    ("poset", "--which", "ncp"): lambda tree: oracles.poset_payload(
        tree, "ncp"),
    ("poset", "--which", "ss"): lambda tree: oracles.poset_payload(
        tree, "ss"),
}


def assert_json_matches_dicts(out, payload):
    want = json.dumps(dict(payload, format_version=cli.FORMAT_VERSION),
                      sort_keys=True, indent=2) + "\n"
    same = out == want  # not compared in the assert: pytest's diff of
    # megabyte strings takes minutes
    assert same, "first difference at character %d" % next(
        (k for k, (a, b) in enumerate(zip(out, want)) if a != b),
        min(len(out), len(want)))


def assert_facets_json_matches_dicts(tree, out):
    fs = nc_complex.facets(tree)
    assert_json_matches_dicts(out, {"command": "facets", "count": len(fs),
                                    "facets": oracles.facet_dicts(fs)})


@pytest.mark.parametrize("name", SUITE)
def test_facets_json_matches_facet_dicts(name):
    """`facets --format json` is json.dumps of one dict per facet."""
    code, out, err = _main("facets", "--format", "json", fixture_path(name))
    assert code == 0, err
    assert_facets_json_matches_dicts(get_tree(name), out)


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_facets_json_matches_facet_dicts(rotation):
    tree = EmbeddedTree(rotation)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cmd_facets(tree, SimpleNamespace(format="json")) == 0
    assert_facets_json_matches_dicts(tree, out.getvalue())


@pytest.mark.parametrize("name", SUITE)
@pytest.mark.parametrize("cmd", sorted(PIECE_ROUTES))
def test_piece_routes_match_dict_routes(name, cmd):
    """Each command's JSON is json.dumps of its oracle dict route."""
    code, out, err = _main(*cmd, "--format", "json", fixture_path(name))
    assert code == 0, err
    assert_json_matches_dicts(out, PIECE_ROUTES[cmd](get_tree(name)))


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_piece_routes_match_dict_routes(rotation):
    tree = EmbeddedTree(rotation)
    for cmd, route in PIECE_ROUTES.items():
        out = io.StringIO()
        args = SimpleNamespace(format="json", which=cmd[-1])
        with contextlib.redirect_stdout(out):
            assert getattr(cli, "cmd_" + cmd[0])(tree, args) == 0
        assert_json_matches_dicts(out.getvalue(), route(tree))


def test_facets_json_is_written_in_chunks_as_made(monkeypatch):
    """`facets --format json` on big8 (3.2 MB) goes out in chunks of one
    piece each: every piece of its facet list is handed to
    `sys.stdout.write` alone, as soon as it is made, and no write is the
    whole output."""
    events = []  # ("made", piece) per facet-list piece, ("write", text)
    items = cli._items

    def spied(texts, level=1):
        for piece in items(texts, level):
            events.append(("made", piece))
            yield piece

    monkeypatch.setattr(cli, "_items", spied)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(
        write=lambda text: events.append(("write", text)),
        flush=lambda: None))
    assert cli.main(["facets", "--format", "json",
                     fixture_path("big8")]) == 0
    made = [i for i, (kind, _) in enumerate(events) if kind == "made"]
    assert len(made) > 2 * 1074
    assert all(events[i + 1] == ("write", events[i][1]) for i in made)
    writes = [text for kind, text in events if kind == "write"]
    whole = "".join(writes)
    assert json.loads(whole)["count"] == 1074
    assert max(map(len, writes)) < len(whole) // 100


def test_closed_stdout_exits_1_quietly():
    """A reader that closes stdout early, after 10 bytes of a 3.2 MB
    JSON output or before a text command writes at all, gets exit 1 and
    no traceback."""
    proc = subprocess.Popen(BIN + ["facets", "--format", "json",
                                   fixture_path("big8")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert (proc.wait(timeout=120), proc.stderr.read()) == (1, b"")
    proc.stderr.close()
    read, write = os.pipe()
    os.close(read)
    r = subprocess.run(BIN + ["ncp", fixture_path("a2")], stdout=write,
                       stderr=subprocess.PIPE, timeout=120)
    os.close(write)
    assert (r.returncode, r.stderr) == (1, b"")


def test_facets_json_never_calls_json_dumps(monkeypatch):
    calls = []
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **kw: calls.append(a) or "")
    code, out, _ = _main("facets", "--format", "json", fixture_path("big8"))
    assert code == 0 and not calls
    assert out.count('"index":') == 1074


def test_parser_is_built_once_and_dispatch_reads_globals(monkeypatch):
    """Three calls build one parser; a `cmd_*` replaced after the parser
    exists is the one that runs; bad arguments still exit 2."""
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or build())
    assert _main("ncp", fixture_path("a2"))[0] == 0
    ran = []
    monkeypatch.setattr(cli, "cmd_facets",
                        lambda tree, args: ran.append(args.format) or 7)
    assert _main("facets", "--format", "json", fixture_path("a2"))[0] == 7
    with pytest.raises(SystemExit) as bad:
        _main("facets", "--format", "xml", fixture_path("a2"))
    assert bad.value.code == 2
    assert _main("facets", fixture_path("a2"))[0] == 7
    assert ran == ["json", "text"]
    assert len(built) == 1


def test_reused_parser_leaks_no_options(monkeypatch):
    seen = []
    for name in ("cmd_semistable", "cmd_check_all"):
        monkeypatch.setattr(cli, name,
                            lambda tree, args: seen.append(vars(args)) or 0)
    _main("semistable", "--theta=1,2", "--format", "json", fixture_path("a2"))
    _main("check-all", fixture_path("a2"))
    _main("semistable", "--theta=0,0", fixture_path("a2"))
    path = fixture_path("a2")
    assert seen == [
        {"command": "semistable", "tree": path, "format": "json",
         "theta": "1,2"},
        {"command": "check-all", "tree": path, "format": "text", "jobs": 1,
         "seed": 0, "samples": 200},
        {"command": "semistable", "tree": path, "format": "text",
         "theta": "0,0"}]
