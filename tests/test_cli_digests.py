"""CLI output pinned by digest.

`cli_digests.json` holds the sha256 of stdout and stderr, and the exit
code, of every subcommand in every format on every fixture (`check-all`
with 20 samples, `semistable` with the zero weight and one fixed
nonzero weight).  The test reruns each command in-process and compares.
A change that alters any byte of the output fails here; regenerate the
file with `PYTHONPATH=src python tests/test_cli_digests.py` only
together with a CHANGES.md line that says why the output changed."""

import contextlib
import hashlib
import io
import json
import os
import pathlib

import pytest

from conftest import SUITE, get_tree
from treestab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "cli_digests.json"


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


if __name__ == "__main__":
    os.chdir(ROOT)
    table = {" ".join(argv): digest(argv)
             for name in SUITE for argv in commands(name)}
    DIGESTS.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
