"""Scan every facet: does its Kreweras weight cut out the right wide
subcategory, with the red arcs stable and nothing else?

This is the package's main theorem check; run against any tree file.
"""

import pathlib
import sys
import time

from treestab import facets, kreweras_theta, load_tree, string_module
from treestab.gc_vectors import segment_of
from treestab.semistable import (
    semistable_modules,
    semistable_poset,
    stable_modules,
    verify_kreweras_stability,
)
from treestab.partitions import ncp_poset

FIX = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

name = sys.argv[1] if len(sys.argv) > 1 else "subseg"
tree = load_tree(str(FIX / (name + ".tree")))

t0 = time.time()
report = verify_kreweras_stability(tree)
print("%s: %s  (%.2fs)" % (name, report.summary_line(), time.time() - t0))
for index, reason in report.failures():
    print("  facet %d FAILED: %s" % (index, reason))
print()

# show the first few facets in detail
for f in facets(tree)[:4]:
    theta = kreweras_theta(f)
    ss = semistable_modules(tree, theta)
    stable = stable_modules(tree, theta)
    reds = {"-".join(segment_of(f, d).vertices) for d in f.reds()}
    print("facet %d  theta=%s" % (f.index, theta))
    print("  semistable: %s" % ", ".join(
        sorted("-".join(m.segment.vertices) for m in ss)))
    print("  stable:     %s" % ", ".join(
        sorted("-".join(m.segment.vertices) for m in stable)))
    print("  red arcs:   %s" % ", ".join(sorted(reds)))
print()

ssp = semistable_poset(tree)
ncp = ncp_poset(tree)
same = ssp.isomorphic_by(ncp, {i: i for i in range(len(ssp))})
print("semistable poset == noncrossing partition poset:", same)
