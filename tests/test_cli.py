import json
import os
import subprocess
import sys

import pytest

from conftest import fixture_path

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
    "zigzag-dominance": "gc_vectors.zigzag_dominance_check = "
                        "lambda facet, arc: False\n",
    "converse-sweep": "string_modules.is_wide = lambda tree, segs: False\n",
    "torsion-pairs": "string_modules.hom_dim = lambda tree, M, N: 1\n",
}


def run_doctored(doctor, *args, optimize=True):
    """`cli.main(args)` in a fresh interpreter after running `doctor`,
    under `python -O` unless `optimize` is false."""
    script = (
        "import sys\n"
        "from treestab import cli, gc_vectors, string_modules\n"
        "if sys.flags.optimize != %d:\n"
        "    sys.exit(3)\n" % optimize
        + doctor +
        "sys.exit(cli.main(sys.argv[1:]))\n")
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("check", sorted(DOCTORED))
def test_check_all_failures_survive_optimize(check):
    """A doctored check still fails `check-all` under `python -O`."""
    r = run_doctored(DOCTORED[check], "check-all", "--samples", "5",
                     fixture_path("cyc3"))
    assert r.returncode == 1, r.stderr
    line = next(ln for ln in r.stdout.splitlines() if ln.startswith(check))
    assert line.split()[1] == "FAIL", r.stdout


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
