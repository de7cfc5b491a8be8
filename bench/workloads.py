"""The benchmark's workloads: which trees, which commands, and how each
command's output is checked.

Every command is a `treestab` argv with `--format json` (or dot), run
through `treestab.cli.main`.  A check returns the facet count the
output implies, or None when it implies none; it raises `CheckError`
when the output is wrong.  Counts that different commands imply for one
tree must agree (`Tally`).
"""

import json
import random
import re
from dataclasses import dataclass, field

import gen

FIXTURES_SMALL = ("a2", "star3", "subseg", "cyc3", "deg45", "caterpillar4")


class CheckError(Exception):
    pass


def ensure(cond, message):
    if not cond:
        raise CheckError(message)


@dataclass
class Tree:
    name: str
    text: str
    interior: int
    segments: int  # recomputed from the rotation, not by treestab
    theta: tuple = ()  # seeded weight for `semistable`

    @classmethod
    def from_rotation(cls, name, rotation, rng):
        interior = len(gen.interior_vertices(rotation))
        return cls(name, gen.tree_text(rotation), interior,
                   gen.segment_count(rotation),
                   tuple(rng.randint(-10, 10) for _ in range(interior - 1)))


@dataclass
class Command:
    tree: Tree
    argv: list  # without the tree file
    path: str = ""  # set when the tree file is written

    @property
    def label(self):
        return "%s %s" % (" ".join(self.argv), self.tree.name)


# -- output checks -------------------------------------------------------


def _json(out, command):
    data = json.loads(out)
    ensure(data.get("command") == command,
           "output is for %r, not %r" % (data.get("command"), command))
    return data


def _check_facets_json(tree, out):
    data = _json(out, "facets")
    ensure(data["count"] == len(data["facets"]), "count disagrees with list")
    for f in data["facets"]:
        colored = [a for a in f["arcs"] if not a["boundary"]]
        ensure(len(colored) == tree.interior - 1,
               "facet %d has %d colored arcs, expected %d"
               % (f["index"], len(colored), tree.interior - 1))
        ensure(all(a["color"] in ("red", "green") for a in colored),
               "facet %d has an arc of another color" % f["index"])
    return data["count"]


_DOT_NODE = re.compile(r'^  f(\d+) \[label="\d+"\];$')
_DOT_EDGE = re.compile(r"^  f(\d+) -- f(\d+);$")


def _check_facets_dot(tree, out):
    lines = out.splitlines()
    ensure(lines[0] == "graph flips {" and lines[-1] == "}", "not a graph")
    degree = {}
    for line in lines[1:-1]:
        node, edge = _DOT_NODE.match(line), _DOT_EDGE.match(line)
        ensure(node or edge, "unexpected dot line %r" % line)
        if node:
            degree[int(node.group(1))] = 0
        else:
            for v in edge.groups():
                degree[int(v)] += 1
    # a facet has one flip per colored arc
    ensure(all(d == tree.interior - 1 for d in degree.values()),
           "a facet has other than %d flips" % (tree.interior - 1))
    return len(degree)


def _check_vectors(tree, out):
    data = _json(out, "vectors")
    ensure(len(data["edges"]) == tree.interior - 1, "wrong edge count")
    for f in data["facets"]:
        ensure(len(f["vectors"]) == tree.interior - 1
               and len(f["theta"]) == tree.interior - 1,
               "facet %d has the wrong number of vectors" % f["index"])
    return len(data["facets"])


def _check_modules(tree, out):
    data = _json(out, "modules")
    ensure(len(data["modules"]) == tree.segments,
           "%d modules, but the tree has %d segments"
           % (len(data["modules"]), tree.segments))
    return None


def _check_ncp(tree, out):
    data = _json(out, "ncp")
    ensure(data["count"] == len(data["partitions"]),
           "count disagrees with list")
    return data["count"]


def _check_kreweras(tree, out):
    data = _json(out, "kreweras")
    ensure(sum(data["orbit_lengths"]) == len(data["pairs"]),
           "orbits do not cover the partitions")
    return len(data["pairs"])


def _check_torsion(tree, out):
    data = _json(out, "torsion")
    for pair in data["pairs"]:
        ensure(not {tuple(s) for s in pair["torsion"]}
               & {tuple(s) for s in pair["free"]},
               "a module is both torsion and torsion-free")
    return len(data["pairs"])


def _check_semistable(tree, out):
    data = _json(out, "semistable")
    ensure(tuple(data["theta"]) == tree.theta, "weight not echoed")
    ensure({tuple(s) for s in data["stable"]}
           <= {tuple(s) for s in data["semistable"]},
           "a stable module is not semistable")
    return None


_SUMMARY = re.compile(r"^(\d+)/(\d+) facets pass$")


def _facets_passing(summary):
    m = _SUMMARY.match(summary)
    ensure(m and m.group(1) == m.group(2), "summary %r" % summary)
    return int(m.group(2))


def _check_verify(tree, out):
    data = _json(out, "verify-thm1")
    ensure(data["all_passed"] and not data["failures"],
           "failures: %r" % data["failures"][:3])
    return _facets_passing(data["summary"])


def _check_poset(tree, out):
    data = _json(out, "poset")
    ensure(data["size"] == len(data["labels"]), "size disagrees with labels")
    ensure(data["lattice"], "%s poset is not a lattice" % data["which"])
    return data["size"]


def _check_all(tree, out):
    data = _json(out, "check-all")
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    ensure(data["all_passed"] and not failed, "failed checks %r" % failed)
    detail = {c["name"]: c["detail"] for c in data["checks"]}
    count = _facets_passing(detail["kreweras-stability"])
    for name, suffix in (("pairing-identity", " facets"),
                         ("poset-isomorphism", " elements")):
        ensure(detail[name] == "%d%s" % (count, suffix),
               "%s reports %r for %d facets" % (name, detail[name], count))
    return count


CHECKS = {
    "facets": _check_facets_json,
    "vectors": _check_vectors,
    "modules": _check_modules,
    "ncp": _check_ncp,
    "kreweras": _check_kreweras,
    "torsion": _check_torsion,
    "semistable": _check_semistable,
    "verify-thm1": _check_verify,
    "poset": _check_poset,
    "check-all": _check_all,
}


def check(command, out):
    """Facet count implied by a command's output, or None."""
    if command.argv[0] == "facets" and "dot" in command.argv:
        return _check_facets_dot(command.tree, out)
    return CHECKS[command.argv[0]](command.tree, out)


@dataclass
class Tally:
    """Facet count per tree, first as claimed and then as confirmed by
    every later command on the same tree within a pass."""
    facets: dict = field(default_factory=dict)

    def claim(self, tree, count):
        if count is None:
            return
        expected = self.facets.setdefault(tree.name, count)
        ensure(count == expected, "implies %d facets, another command %d"
               % (count, expected))


# -- workloads -----------------------------------------------------------


def _fixture(root, name, rng):
    text = (root / "fixtures" / ("%s.tree" % name)).read_text()
    tree = Tree.from_rotation(name, gen.parse_rotation(text), rng)
    tree.text = text
    return tree


def _json_args(*argv):
    return list(argv) + ["--format", "json"]


def _semistable_args(tree):
    return _json_args("semistable",
                      "--theta=" + ",".join(map(str, tree.theta)))


def thm1_large(root, rng):
    """The paper's headline check on the largest affordable trees."""
    trees = [_fixture(root, "big8", rng)]
    trees += [Tree.from_rotation("full8-%d" % i, gen.grow_full(rng, 8), rng)
              for i in range(2)]
    return [Command(t, argv) for t in trees for argv in (
        _json_args("facets"), _json_args("verify-thm1", "--jobs", "1"))]


def modules_mid(root, rng):
    """Module-heavy commands: wideness, Hom, torsion pairs."""
    trees = [Tree.from_rotation("full%d-%d" % (n, i), gen.grow_full(rng, n),
                                rng)
             for i, n in enumerate((5,) * 8 + (6, 6))]
    return [Command(t, argv) for t in trees for argv in (
        _json_args("check-all", "--samples", "50", "--jobs", "1"),
        _json_args("torsion"), _semistable_args(t))]


def order_mid(root, rng):
    """Posets and flip graphs of mid-sized trees."""
    tree = Tree.from_rotation("full7", gen.grow_full(rng, 7), rng)
    return [Command(tree, argv) for argv in (
        ["facets", "--format", "dot"],
        _json_args("kreweras"),
        _json_args("poset", "--which", "ncp"),
        _json_args("poset", "--which", "ss"))]


# seeded trees per interior-vertex count in batch-small; the few large
# ones already cost as much as all the small ones together
BATCH_SIZES = {1: 15, 2: 15, 3: 15, 4: 10, 5: 5}


def batch_small(root, rng):
    """Every subcommand on many small trees: short commands, cold caches."""
    trees = [_fixture(root, name, rng) for name in FIXTURES_SMALL]
    for n, k in BATCH_SIZES.items():
        trees += [Tree.from_rotation("grown%d-%d" % (n, i), gen.grow(rng, n),
                                     rng) for i in range(k)]
    commands = []
    for t in trees:
        argvs = [_json_args(c) for c in ("facets", "vectors", "modules",
                                         "ncp", "kreweras", "torsion")]
        # a tree without interior edges has no weight `--theta` accepts
        if t.interior > 1:
            argvs.append(_semistable_args(t))
        argvs += [_json_args("verify-thm1", "--jobs", "1"),
                  _json_args("poset", "--which", "ncp"),
                  _json_args("poset", "--which", "ss"),
                  _json_args("check-all", "--samples", "20", "--jobs", "1")]
        commands += [Command(t, argv) for argv in argvs]
    return commands


WORKLOADS = {
    "thm1-large": thm1_large,
    "modules-mid": modules_mid,
    "order-mid": order_mid,
    "batch-small": batch_small,
}


def build(name, root, seed):
    """The workload's command list; the same seed gives the same list."""
    return WORKLOADS[name](root, random.Random("%s/%d" % (name, seed)))


def known_defect_probes(commands):
    """`semistable` with the empty weight, on each tree of the command
    list that has no interior edge.  The CLI cannot parse an empty
    weight and exits 2, so this runs outside the timed passes and is
    reported on its own."""
    seen = {}
    for c in commands:
        if c.tree.interior == 1 and c.tree.name not in seen:
            seen[c.tree.name] = Command(c.tree,
                                        _json_args("semistable", "--theta="),
                                        c.path)
    return list(seen.values())
