"""Command line front end.

Every subcommand loads a tree file, computes one layer of the theory,
and prints it in a deterministic order; json and dot output are for
piping into other tools.  Exit status is 0 for success, 1 when a
verification subcommand finds a failing check, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gc_vectors, nc_complex, partitions, semistable, string_modules
from .tree_core import ConventionError, TreeError, load_tree

FORMAT_VERSION = 1


def _json_out(payload):
    payload["format_version"] = FORMAT_VERSION
    print(json.dumps(payload, sort_keys=True, indent=2))


def _edge_label(edge):
    return "-".join(edge)


def _arc_label(arc):
    return "%s~%s" % arc.leaves


def _facet_dict(facet):
    arcs = []
    for d in facet.arcs:
        entry = {"leaves": list(d.leaves), "boundary": d.is_boundary}
        if not d.is_boundary:
            entry["color"] = facet.color[d]
            entry["segment"] = list(facet.segment[d].vertices)
        arcs.append(entry)
    return {"index": facet.index, "arcs": arcs}


# -- subcommand bodies ---------------------------------------------------


def cmd_facets(tree, args):
    fs = nc_complex.facets(tree)
    if args.format == "json":
        _json_out({"command": "facets", "count": len(fs),
                   "facets": [_facet_dict(f) for f in fs]})
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
    fs = nc_complex.facets(tree)
    legend = [(i, _edge_label(e)) for i, e in enumerate(tree.interior_edges)]
    if args.format == "json":
        data = []
        for f in fs:
            rows = []
            for d in f.colored:
                rows.append({
                    "arc": list(d.leaves),
                    "color": f.color[d],
                    "segment": list(f.segment[d].vertices),
                    "g": list(gc_vectors.g_vector(tree, d)),
                    "c": list(gc_vectors.c_vector(f, d)),
                })
            data.append({"index": f.index, "vectors": rows,
                         "theta": list(gc_vectors.kreweras_theta(f))})
        _json_out({"command": "vectors",
                   "edges": [{"index": i, "edge": lab} for i, lab in legend],
                   "facets": data})
        return 0
    for i, lab in legend:
        print("edge %d: %s" % (i, lab))
    for f in fs:
        print("facet %d  theta %s" % (f.index,
                                      list(gc_vectors.kreweras_theta(f))))
        for d in f.colored:
            print("  %s %s g=%s c=%s" % (
                _arc_label(d), f.color[d],
                list(gc_vectors.g_vector(tree, d)),
                list(gc_vectors.c_vector(f, d))))
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
    ncps = partitions.noncrossing_partitions(tree)
    if args.format == "json":
        _json_out({"command": "ncp", "count": len(ncps),
                   "partitions": [[list(b) for b in p.blocks]
                                  for p in ncps]})
        return 0
    print("%d noncrossing partitions" % len(ncps))
    for i, p in enumerate(ncps):
        print("%d: %s" % (i, p))
    return 0


def cmd_kreweras(tree, args):
    ncps = partitions.noncrossing_partitions(tree)
    pairs = [(p, partitions.kreweras_complement(tree, p)) for p in ncps]
    orbits = partitions.kreweras_orbits(tree)
    if args.format == "json":
        _json_out({"command": "kreweras",
                   "pairs": [{"partition": [list(b) for b in p.blocks],
                              "complement": [list(b) for b in q.blocks]}
                             for p, q in pairs],
                   "orbit_lengths": orbits})
        return 0
    for p, q in pairs:
        print("%s  ->  %s" % (p, q))
    print("orbit lengths: %s" % (orbits,))
    return 0


def cmd_torsion(tree, args):
    ncps = partitions.noncrossing_partitions(tree)
    rows = []
    for p in ncps:
        T, F = partitions.torsion_pair(tree, p)
        rows.append((p,
                     sorted(m.segment.vertices for m in T),
                     sorted(m.segment.vertices for m in F)))
    if args.format == "json":
        _json_out({"command": "torsion",
                   "pairs": [{"partition": [list(b) for b in p.blocks],
                              "torsion": [list(v) for v in ts],
                              "free": [list(v) for v in fsg]}
                             for p, ts, fsg in rows]})
        return 0
    for p, ts, fsg in rows:
        print("%s" % p)
        print("  T: %s" % (" ".join("-".join(v) for v in ts) or "(none)"))
        print("  F: %s" % (" ".join("-".join(v) for v in fsg) or "(none)"))
    return 0


def cmd_semistable(tree, args):
    theta = _parse_theta(args.theta, tree.n)
    mods = sorted(semistable.semistable_modules(tree, theta),
                  key=lambda m: m.segment.vertices)
    stables = [m for m in mods if semistable.is_stable(tree, theta, m)]
    if args.format == "json":
        _json_out({"command": "semistable", "theta": list(theta),
                   "semistable": [list(m.segment.vertices) for m in mods],
                   "stable": [list(m.segment.vertices) for m in stables]})
        return 0
    print("theta %s: %d semistable indecomposables" % (list(theta),
                                                       len(mods)))
    stable_set = set(stables)
    for m in mods:
        print("  %s%s" % ("-".join(m.segment.vertices),
                          "  (stable)" if m in stable_set else ""))
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
        labels = [str(p) for p in po.elements]
    else:
        po = semistable.semistable_poset(tree)
        labels = ["{%s}" % ",".join("-".join(s.vertices)
                                    for s in sorted(e, key=lambda s:
                                                    s.vertices))
                  for e in po.elements]
    covers = po.covers()
    if args.format == "json":
        _json_out({"command": "poset", "which": args.which,
                   "size": len(po), "labels": labels,
                   "covers": [[i, j] for i, j in covers],
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
        fs = nc_complex.facets(tree)
        count = 0
        for f in fs:
            for d in f.reds():
                if len(f.segment[d]) >= 2:
                    if not gc_vectors.zigzag_dominance_check(f, d):
                        raise ConventionError("facet %d arc %s"
                                              % (f.index, _arc_label(d)))
                    count += 1
        return "%d qualifying pairs" % count

    def theorem():
        report = semistable.verify_kreweras_stability(tree)
        if not report.all_passed:
            raise ConventionError(report.failures()[:3])
        return report.summary_line()

    def posets():
        po = semistable.semistable_poset(tree)
        return "%d elements" % len(po)

    def torsion():
        count = 0
        inds = string_modules.indecomposables(tree)
        for p in partitions.noncrossing_partitions(tree):
            partitions.torsion_pair(tree, p)
            for m in inds:
                partitions.torsion_decompose(tree, p, m)
                count += 1
        return "%d decompositions" % count

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

    def add(name, fn, formats=("text", "json"), **extra):
        p = sub.add_parser(name)
        p.add_argument("tree", help="tree file: lines 'vertex NAME: "
                                    "neighbors ccw'")
        p.add_argument("--format", choices=formats, default="text")
        for argname, kw in extra.items():
            p.add_argument("--" + argname.replace("_", "-"), **kw)
        p.set_defaults(fn=fn)
        return p

    add("facets", cmd_facets, formats=("text", "json", "dot"))
    add("vectors", cmd_vectors)
    add("modules", cmd_modules)
    add("ncp", cmd_ncp)
    add("kreweras", cmd_kreweras)
    add("torsion", cmd_torsion)
    add("semistable", cmd_semistable,
        theta={"required": True,
               "help": "comma-separated integer weight, one per interior "
                       "edge"})
    ignored_jobs = {"type": int, "default": 1,
                    "help": "ignored: verification runs in one process"}
    add("verify-thm1", cmd_verify_thm1, jobs=ignored_jobs)
    add("poset", cmd_poset, formats=("text", "json", "dot"),
        which={"choices": ("ncp", "ss"), "default": "ncp"})
    add("check-all", cmd_check_all,
        jobs=ignored_jobs,
        seed={"type": int, "default": 0},
        samples={"type": int, "default": 200})
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        tree = load_tree(args.tree)
    except OSError as e:
        print("cannot read %s: %s" % (args.tree, e), file=sys.stderr)
        return 2
    except TreeError as e:
        print("bad tree file %s: %s" % (args.tree, e), file=sys.stderr)
        return 2
    try:
        return args.fn(tree, args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ConventionError as e:
        print("check failed on %s: %s" % (args.tree, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
