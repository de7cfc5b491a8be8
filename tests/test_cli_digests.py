"""CLI output pinned by digest.

`cli_digests.json` holds the sha256 of stdout and stderr, and the exit
code, of every subcommand in every format on every fixture (`check-all`
with 20 samples, `semistable` with the zero weight and one fixed
nonzero weight).  `cli_digests_grown.json` holds the same for every
JSON subcommand on two trees grown by `randtrees.grow_full` (7 and 8
interior vertices, 429 and 1430 facets).  The tests rerun each command
in-process and compare.  A change that alters any byte of the output
fails here; regenerate the files with
`PYTHONPATH=src python tests/test_cli_digests.py` only together with a
CHANGES.md line that says why the output changed."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import tempfile

import pytest

import randtrees
from conftest import SUITE, get_tree
from treestab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "cli_digests.json"
GROWN_DIGESTS = DIGESTS.with_name("cli_digests_grown.json")
GROWN = {"grown7": 7, "grown8": 8}  # grow_full(random.Random(k), k)


def commands(name):
    """Argument lists for one fixture, the tree path relative to the
    repo root."""
    path = "fixtures/%s.tree" % name
    n = get_tree(name).n
    out = [["facets", "--format", f, path] for f in ("text", "json", "dot")]
    for sub in ("vectors", "modules", "ncp", "kreweras", "torsion",
                "verify-thm1"):
        out += [[sub, "--format", f, path] for f in ("text", "json")]
    for theta in ([0] * n, [i % 3 - 1 for i in range(n)]):
        out += [["semistable", "--theta=" + ",".join(map(str, theta)),
                 "--format", f, path] for f in ("text", "json")]
    out += [["poset", "--which", w, "--format", f, path]
            for w in ("ncp", "ss") for f in ("text", "json", "dot")]
    out += [["check-all", "--samples", "20", "--format", f, path]
            for f in ("text", "json")]
    return out


def write_grown(name, directory):
    """Write the grown tree `name` to `directory` as a tree file; return
    the tree."""
    k = GROWN[name]
    tree = randtrees.grow_full(random.Random(k), k)
    (pathlib.Path(directory) / ("%s.tree" % name)).write_text("".join(
        "vertex %s: %s\n" % (v, " ".join(ns))
        for v, ns in tree.rotation.items()))
    return tree


def json_commands(path, n):
    """Every subcommand with `--format json` on the tree file `path`, of
    a tree with n interior edges."""
    theta = ",".join(str(i % 3 - 1) for i in range(n))
    subs = [["facets"], ["vectors"], ["modules"], ["ncp"], ["kreweras"],
            ["torsion"], ["semistable", "--theta=" + theta],
            ["verify-thm1"], ["poset", "--which", "ncp"],
            ["poset", "--which", "ss"], ["check-all", "--samples", "20"]]
    return [sub + ["--format", "json", path] for sub in subs]


def grown_commands(directory):
    """Write both grown trees to `directory`; their commands, each tree
    path relative to it."""
    return [argv for name in GROWN for argv in json_commands(
        "%s.tree" % name, write_grown(name, directory).n)]


def digest(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"exit": code,
            "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(stderr.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("name", SUITE)
def test_cli_output_matches_digests(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(DIGESTS.read_text())
    cmds = commands(name)
    assert {k for k in want if k.endswith(" fixtures/%s.tree" % name)} == \
        {" ".join(argv) for argv in cmds}
    for argv in cmds:
        assert digest(argv) == want[" ".join(argv)], " ".join(argv)


def test_grown_tree_json_matches_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GROWN_DIGESTS.read_text())
    cmds = grown_commands(tmp_path)
    assert set(want) == {" ".join(argv) for argv in cmds}
    for argv in cmds:
        assert digest(argv) == want[" ".join(argv)], " ".join(argv)


TINY = 7  # characters per write of `cli._json_out`, far under a line


@pytest.mark.parametrize("name", SUITE)
def test_cli_output_in_tiny_chunks_matches_digests(name, monkeypatch):
    """Every command's output is the same, byte for byte, when the JSON
    writer writes every few characters."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "CHUNK", TINY)
    want = json.loads(DIGESTS.read_text())
    for argv in commands(name):
        assert digest(argv) == want[" ".join(argv)], " ".join(argv)


def test_grown_tree_json_in_tiny_chunks_matches_digests(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "CHUNK", TINY)
    want = json.loads(GROWN_DIGESTS.read_text())
    for argv in grown_commands(tmp_path):
        assert digest(argv) == want[" ".join(argv)], " ".join(argv)


def write_table(path, cmds):
    table = {" ".join(argv): digest(argv) for argv in cmds}
    path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    os.chdir(ROOT)
    write_table(DIGESTS, [argv for name in SUITE for argv in commands(name)])
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_table(GROWN_DIGESTS, grown_commands(work))
