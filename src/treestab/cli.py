"""Command line front end.

Every subcommand loads a tree file, computes one layer of the theory,
and prints it in a deterministic order; json and dot output are for
piping into other tools.  Exit status is 0 for success, 1 when a
verification subcommand finds a failing check, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

from . import gc_vectors, nc_complex, partitions, semistable, string_modules
from .tree_core import ConventionError, TreeError, _bits, load_tree

FORMAT_VERSION = 1
CHUNK = 1 << 20  # characters `_json_out` gathers before each write


def _json_out(payload):
    """Write the text of `payload` (see `_emit`) and a newline to stdout
    in writes of CHUNK characters or a piece more, each made as soon as
    its pieces are: a large list comes as a generator of pieces, and is
    never held whole."""
    payload["format_version"] = FORMAT_VERSION
    out = _Chunks(sys.stdout.write)
    _emit(out, payload, 0)
    out.append("\n")
    out.flush()


class _Chunks:
    """Text pieces, joined and handed to `write` whenever they add up to
    CHUNK characters."""

    def __init__(self, write):
        self.write, self.pieces, self.size = write, [], 0

    def append(self, piece):
        self.pieces.append(piece)
        self.size += len(piece)
        if self.size >= CHUNK:
            self.flush()

    def flush(self):
        self.write("".join(self.pieces))
        self.pieces, self.size = [], 0


@cache
def _indent(level):
    return "\n" + "  " * level


def _dumps(payload, level=0):
    """The text of `json.dumps(payload, sort_keys=True, indent=2)` for
    what `_emit` takes, at depth `level`; with `indent`, json.dumps is
    pure Python."""
    out = []
    _emit(out, payload, level)
    return "".join(out)


def _emit(out, obj, level):
    """Append the text of `obj` at depth `level` to `out`, in pieces:
    str-keyed dicts, lists, tuples, str, int, bool and None as json.dumps
    writes them, and a generator as the pieces it yields, the text of a
    value at the depth where it lands (others raise TypeError).  Not a
    closure, which would refer to itself and so keep `out` alive."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = _indent(level + 1)
        comma = "," + inner
        if isinstance(obj, dict):
            out.append("{")
            sep = inner
            for k, v in sorted(obj.items()):
                if not isinstance(k, str):
                    raise TypeError("keys must be str, not %s"
                                    % type(k).__name__)
                out.append(sep + _quote(k) + ": ")
                _emit(out, v, level + 1)
                sep = comma
            out.append(_indent(level) + "}")
        else:
            out.append("[")
            sep = inner
            for v in obj:
                out.append(sep)
                _emit(out, v, level + 1)
                sep = comma
            out.append(_indent(level) + "]")
    elif isinstance(obj, GeneratorType):
        for piece in obj:
            out.append(piece)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def _items(texts, level=1):
    """The text of a JSON list at depth `level`, as pieces, from the
    texts of its items at depth level + 1, taken as they come."""
    inner = _indent(level + 1)
    sep = "[" + inner
    for text in texts:
        yield sep
        yield text
        sep = "," + inner
    yield "[]" if sep[0] == "[" else _indent(level) + "]"


def _list_text(texts, level):
    """The text of a JSON list at depth `level` from the list of its
    items' texts at depth level + 1."""
    if not texts:
        return "[]"
    inner = _indent(level + 1)
    return "[" + inner + ("," + inner).join(texts) + _indent(level) + "]"


def _object(level, *keys):
    """The text of a JSON object at depth `level` whose keys, given
    sorted, each hold a `%s` slot."""
    inner = _indent(level + 1)
    return "{" + inner + ("," + inner).join(
        _quote(k).replace("%", "%%") + ": %s" for k in keys) \
        + _indent(level) + "}"


def _partition_texts(tree, level=None):
    """Per noncrossing partition, in facet order, made as they are taken:
    its JSON text at depth `level`, or with no level its name (`str` of
    the partition).  Each block's text is made once, off the blocks and
    per-partition block ids that `partitions._blocks` shares."""
    blocks, parts = partitions._blocks(tree)
    if level is None:
        names = ["{%s}" % ",".join(b) for b in blocks]
        return ("/".join([names[b] for b in part]) for part in parts)
    texts = [_dumps(b, level + 1) for b in blocks]
    return (_list_text([texts[b] for b in part], level) for part in parts)


def _edge_label(edge):
    return "-".join(edge)


def _arc_label(arc):
    return "%s~%s" % arc.leaves


# -- subcommand bodies ---------------------------------------------------


def cmd_facets(tree, args):
    fs = nc_complex.facets(tree)
    if args.format == "json":
        # a facet's text is its frame around arc 0's entry (the first two
        # leaves' boundary arc, in every facet) and then, in id order and
        # each after a comma, the entries whose column holds the facet;
        # each entry is rendered once per tree
        every, sep = nc_complex.arcs(tree), "," + _indent(4)

        def entry(d, **colored):
            return sep + _dumps(dict(colored, leaves=list(d.leaves),
                                     boundary=d.is_boundary), 4)

        entries = {(d.id,): (entry(d), (1 << len(fs)) - 1)
                   for d in every if d.is_boundary}
        for (i, s, green), col in nc_complex._marking(tree)[2].items():
            entries[i, s, green] = (entry(
                every[i], color="green" if green else "red",
                segment=list(tree.all_segments[s].vertices)), col)
        texts, columns = zip(*(entries[k] for k in sorted(entries)))
        head, tail = _object(2, "arcs", "index").split("%s", 1)
        head += "[" + _indent(4) + texts[0][len(sep):]
        tail = _indent(3) + "]" + tail
        _json_out({"command": "facets", "count": len(fs),
                   "facets": _items(
                       "".join((head, *pick, tail % index))
                       for index, pick in enumerate(nc_complex._pick(
                           texts[1:], columns[1:], len(fs))))})
        return 0
    if args.format == "dot":
        print("graph flips {")
        for f in fs:
            print('  f%d [label="%d"];' % (f.index, f.index))
        for f in fs:
            for g in nc_complex.flip_neighbors(f, fs):
                if g.index > f.index:
                    print("  f%d -- f%d;" % (f.index, g.index))
        print("}")
        return 0
    print("%d facets, %d arcs each" % (len(fs), len(fs[0].arcs) if fs else 0))
    for f in fs:
        colored = ", ".join(
            "%s %s [%s]" % (_arc_label(d), f.color[d],
                            "-".join(f.segment[d].vertices))
            for d in f.colored)
        print("facet %d: %s" % (f.index, colored or "(boundary only)"))
    return 0


def cmd_vectors(tree, args):
    legend = [(i, _edge_label(e)) for i, e in enumerate(tree.interior_edges)]
    # per record (arc id, segment id, green?), the vector entry of its
    # arc in each facet holding it, rendered once; per facet its weight
    # and its entries, picked off the record table
    width, records = len(nc_complex.facets(tree)), nc_complex._marking(tree)[2]
    thetas = semistable._theta_rows(gc_vectors.theta_columns(
        tree, records, width), width)
    every, segs = nc_complex.arcs(tree), tree.all_segments
    as_json = args.format == "json"
    entries = []
    for i, s, green in records:
        d, color = every[i], "green" if green else "red"
        g = list(gc_vectors.g_vector(tree, d))
        c = [x if green else -x
             for x in gc_vectors.indicator(tree, segs[s].edges())]
        entries.append(_dumps({"arc": list(d.leaves), "color": color,
                               "segment": list(segs[s].vertices),
                               "g": g, "c": c}, 4) if as_json else
                       "  %s %s g=%s c=%s" % (_arc_label(d), color, g, c))
    picks = nc_complex._pick(entries, records.values(), width)
    if as_json:
        weights = {t: _dumps(t, 3) for t in set(thetas)}
        facet = _object(2, "index", "theta", "vectors")
        _json_out({"command": "vectors",
                   "edges": [{"index": i, "edge": lab} for i, lab in legend],
                   "facets": _items(
                       facet % (index, weights[t], _list_text(list(pick), 3))
                       for index, (t, pick) in enumerate(zip(thetas, picks)))})
        return 0
    for i, lab in legend:
        print("edge %d: %s" % (i, lab))
    for index, (t, pick) in enumerate(zip(thetas, picks)):
        print("facet %d  theta %s" % (index, list(t)))
        for line in pick:
            print(line)
    return 0


def cmd_modules(tree, args):
    inds = string_modules.indecomposables(tree)
    alg = string_modules.tiling_algebra(tree)
    if args.format == "json":
        _json_out({"command": "modules",
                   "algebra_dimension": alg.dimension(),
                   "arrows": ["%s -> %s" % (_edge_label(a.source),
                                            _edge_label(a.target))
                              for a in alg.arrows],
                   "relations": len(alg.relations),
                   "modules": [{
                       "segment": list(m.segment.vertices),
                       "dim_vector": list(m.dim_vector),
                       "word": string_modules.string_word(tree, m.segment),
                   } for m in inds]})
        return 0
    print("algebra dimension %d, %d arrows, %d relations"
          % (alg.dimension(), len(alg.arrows), len(alg.relations)))
    for m in inds:
        print("%s dim %s  %s" % ("-".join(m.segment.vertices),
                                 list(m.dim_vector),
                                 string_modules.string_word(tree, m.segment)))
    return 0


def cmd_ncp(tree, args):
    count = len(partitions.noncrossing_partitions(tree))
    if args.format == "json":
        _json_out({"command": "ncp", "count": count,
                   "partitions": _items(_partition_texts(tree, 2))})
        return 0
    print("%d noncrossing partitions" % count)
    for i, p in enumerate(_partition_texts(tree)):
        print("%d: %s" % (i, p))
    return 0


def cmd_kreweras(tree, args):
    # each partition's text is made once, and printed as a partition and
    # as a complement
    texts = list(_partition_texts(tree, 3 if args.format == "json"
                                  else None))
    complement = partitions._gluing(tree).complement
    orbits = partitions.kreweras_orbits(tree)
    if args.format == "json":
        pair = _object(2, "complement", "partition")
        _json_out({"command": "kreweras",
                   "pairs": _items(pair % (texts[g], p)
                                   for p, g in zip(texts, complement)),
                   "orbit_lengths": orbits})
        return 0
    for p, g in zip(texts, complement):
        print("%s  ->  %s" % (p, texts[g]))
    print("orbit lengths: %s" % (orbits,))
    return 0


def cmd_torsion(tree, args):
    # per partition the id masks of T and F; ids follow vertex order, so
    # T and F come sorted
    rows = partitions._torsion(tree)[2]
    if args.format == "json":
        # each segment's vertex list is rendered once, at its depth here
        verts = [_dumps(s.vertices, 4) for s in tree.all_segments]
        pair = _object(2, "free", "partition", "torsion")

        def listed(mask):
            return _list_text([verts[i] for i in _bits(mask)], 3)

        _json_out({"command": "torsion",
                   "pairs": _items(pair % (listed(fs), p, listed(ts))
                                   for p, (ts, fs) in zip(
                                       _partition_texts(tree, 3), rows))})
        return 0
    names = ["-".join(s.vertices) for s in tree.all_segments]
    for p, pair in zip(_partition_texts(tree), rows):
        print(p)
        for side, mask in zip("TF", pair):
            print("  %s: %s" % (side, " ".join(names[i] for i in _bits(mask))
                                or "(none)"))
    return 0


def cmd_semistable(tree, args):
    theta = _parse_theta(args.theta, tree.n)
    # one stability pass gives both id masks; ids follow vertex order
    _, semi, stable = semistable._stability(tree, theta)
    segs = tree.all_segments
    if args.format == "json":
        _json_out({"command": "semistable", "theta": list(theta),
                   "semistable": [list(segs[s].vertices)
                                  for s in _bits(semi)],
                   "stable": [list(segs[s].vertices) for s in _bits(stable)]})
        return 0
    print("theta %s: %d semistable indecomposables" % (list(theta),
                                                       semi.bit_count()))
    for s in _bits(semi):
        print("  %s%s" % ("-".join(segs[s].vertices),
                          "  (stable)" if stable >> s & 1 else ""))
    return 0


def cmd_verify_thm1(tree, args):
    report = semistable.verify_kreweras_stability(tree)
    if args.format == "json":
        _json_out({"command": "verify-thm1",
                   "summary": report.summary_line(),
                   "all_passed": report.all_passed,
                   "failures": [{"facet": i, "reason": f}
                                for i, f in report.failures()]})
        return 0 if report.all_passed else 1
    for i, f in report.failures():
        print("facet %d: %s" % (i, f))
    print(report.summary_line())
    return 0 if report.all_passed else 1


def cmd_poset(tree, args):
    if args.which == "ncp":
        po = partitions.ncp_poset(tree)
        labels = _partition_texts(tree)
    else:
        po = semistable.semistable_poset(tree)
        labels = ("{%s}" % ",".join("-".join(s.vertices)
                                    for s in sorted(e, key=lambda s:
                                                    s.vertices))
                  for e in po.elements)
    covers = po.covers()
    if args.format == "json":
        cover = _list_text(["%d", "%d"], 2)
        _json_out({"command": "poset", "which": args.which,
                   "size": len(po), "labels": _items(map(_quote, labels)),
                   "covers": _items(cover % ij for ij in covers),
                   "lattice": po.is_lattice()})
        return 0
    if args.format == "dot":
        print("digraph poset {")
        print("  rankdir=BT;")
        for i, lab in enumerate(labels):
            print('  p%d [label="%s"];' % (i, lab))
        for i, j in covers:
            print("  p%d -> p%d;" % (i, j))
        print("}")
        return 0
    print("%d elements, lattice: %s" % (len(po), po.is_lattice()))
    for i, lab in enumerate(labels):
        print("%d: %s" % (i, lab))
    for i, j in covers:
        print("%d < %d" % (i, j))
    return 0


def cmd_check_all(tree, args):
    if args.samples < 0:
        raise _UsageError("--samples must be >= 0, got %d" % args.samples)
    checks = []

    def run(name, fn):
        try:
            detail = fn()
            checks.append((name, True, detail))
        except Exception as e:
            checks.append((name, False, "%s: %s" % (type(e).__name__, e)))

    def pairing():
        fs = nc_complex.facets(tree)
        for f in fs:
            gc_vectors.pairing_matrix(f)
        return "%d facets" % len(fs)

    def dominance():
        every, segs = nc_complex.arcs(tree), tree.all_segments
        count = 0
        for f in nc_complex.facets(tree):
            for i, s, green in f.payload:
                if green or len(segs[s]) < 2:
                    continue
                if not gc_vectors.zigzag_dominance_check(f, every[i]):
                    raise ConventionError("facet %d arc %s"
                                          % (f.index, _arc_label(every[i])))
                count += 1
        return "%d qualifying pairs" % count

    def theorem():
        report = semistable.verify_kreweras_stability(tree)
        if not report.all_passed:
            raise ConventionError("; ".join(
                ["%d/%d facets fail" % (len(report.failing), report.count)]
                + ["facet %d: %s" % f for f in report.failures()[:3]]))
        return report.summary_line()

    def posets():
        po = semistable.semistable_poset(tree)
        return "%d elements" % len(po)

    def torsion():
        modules = len(partitions._decompositions(tree))
        return "%d decompositions" % (len(nc_complex.facets(tree)) * modules)

    def converse():
        checked, distinct = semistable.check_semistable_wide(
            tree, samples=args.samples, seed=args.seed)
        return "%d weights, %d distinct wide sets" % (checked, distinct)

    run("pairing-identity", pairing)
    run("zigzag-dominance", dominance)
    run("kreweras-stability", theorem)
    run("poset-isomorphism", posets)
    run("torsion-pairs", torsion)
    run("converse-sweep", converse)

    ok = all(good for _, good, _ in checks)
    if args.format == "json":
        _json_out({"command": "check-all",
                   "checks": [{"name": n, "passed": g, "detail": d}
                              for n, g, d in checks],
                   "all_passed": ok})
        return 0 if ok else 1
    for n, g, d in checks:
        print("%-20s %s  %s" % (n, "ok" if g else "FAIL", d))
    print("all checks pass" if ok else "some checks FAILED")
    return 0 if ok else 1


# -- plumbing ------------------------------------------------------------


class _UsageError(Exception):
    pass


def _parse_theta(text, n):
    # the empty text is the weight of a tree without interior edges
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    try:
        theta = tuple(int(p) for p in parts)
    except ValueError:
        raise _UsageError(
            "weight must be %d comma-separated integers, got %r"
            % (n, text))
    if len(theta) != n:
        raise _UsageError(
            "weight must have %d entries (one per interior edge), got %d"
            % (n, len(theta)))
    return theta


def _build_parser():
    top = argparse.ArgumentParser(
        prog="treestab",
        description="Exact stability and noncrossing combinatorics of "
                    "trees embedded in a disk.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, formats=("text", "json"), **extra):
        p = sub.add_parser(name)
        p.add_argument("tree", help="tree file: lines 'vertex NAME: "
                                    "neighbors ccw'")
        p.add_argument("--format", choices=formats, default="text")
        for argname, kw in extra.items():
            p.add_argument("--" + argname.replace("_", "-"), **kw)
        return p

    add("facets", formats=("text", "json", "dot"))
    add("vectors")
    add("modules")
    add("ncp")
    add("kreweras")
    add("torsion")
    add("semistable",
        theta={"required": True,
               "help": "comma-separated integer weight, one per interior "
                       "edge"})
    ignored_jobs = {"type": int, "default": 1,
                    "help": "ignored: verification runs in one process"}
    add("verify-thm1", jobs=ignored_jobs)
    add("poset", formats=("text", "json", "dot"),
        which={"choices": ("ncp", "ss"), "default": "ncp"})
    add("check-all",
        jobs=ignored_jobs,
        seed={"type": int, "default": 0},
        samples={"type": int, "default": 200})
    return top


_parser = None  # built by the first `main` call, reused by later ones


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        tree = load_tree(args.tree)
    except OSError as e:
        print("cannot read %s: %s" % (args.tree, e), file=sys.stderr)
        return 2
    except TreeError as e:
        print("bad tree file %s: %s" % (args.tree, e), file=sys.stderr)
        return 2
    # looked up at call time, so that a replaced `cmd_*` is the one run
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(tree, args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ConventionError as e:
        print("check failed on %s: %s" % (args.tree, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
