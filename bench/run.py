"""treestab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in-process through
`treestab.cli.main`, one command at a time with stdout captured in
memory, checks every output, and prints one line per metric followed by
a JSON result line.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` a separate run traces calls into each layer
module and reports per-layer metrics.  Inputs are generated from the
seed into bench/.work/, which also receives a results file and, for
traced runs, the spans.
"""

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("peak_rss_mb", "MB"))

# per-layer: inclusive seconds, then call counts, of these functions
INCLUSIVE = (
    "tree_core.load_tree", "nc_complex.facets", "nc_complex.flip_neighbors",
    "gc_vectors.kreweras_theta", "gc_vectors.submodule_segments",
    "gc_vectors.quotient_segments", "partitions.kreweras_complement",
    "partitions.segment_closure", "partitions.torsion_pair",
    "partitions.torsion_decompose", "partitions.ncp_poset",
    "partitions.poset_covers", "partitions.poset_is_lattice",
    "string_modules.is_wide", "string_modules.middle_terms",
    "string_modules.hom_dim", "string_modules.all_submodules",
    "string_modules.quotient_by", "semistable.check_facet",
    "semistable.semistable_modules", "semistable.check_semistable_wide",
    "semistable.semistable_poset")
CALLS = (
    "nc_complex.facets", "nc_complex.flip_neighbors",
    "gc_vectors.submodule_segments", "partitions.kreweras_complement",
    "partitions.torsion_pair", "string_modules.is_wide",
    "string_modules.hom_dim", "semistable.semistable_modules")


PER_LAYER = tuple(
    [(n + "_s", "s") for n in INCLUSIVE]
    + [(n + "_calls", "count") for n in CALLS]
    + [("nc_complex.facets_per_command", "ratio"),
       ("partitions.torsion_pair_per_partition", "ratio"),
       ("cli.output_bytes", "B")]
    + [(layer + ".self_s", "s") for layer in spans.LAYERS]
    + [(layer + ".alloc_peak_mb", "MB") for layer in spans.LAYERS]
    + [("trace.overhead_ratio", "ratio"), ("trace.accounted_share", "ratio")])


def tail_p90(samples):
    """The 90th percentile of the samples, or None unless at least ten
    samples lie above it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    if sum(1 for s in samples if s > value) < 10:
        return None
    return value


def repeat_for(seconds, step):
    """Call `step` until the next call would end after `seconds`, going
    by the last call; at least once."""
    started = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        lap = perf_counter() - t0
        if perf_counter() - started + lap > seconds:
            return


# -- running commands ----------------------------------------------------


def clear_caches():
    """Empty treestab's module-level caches, so that every command starts
    as a fresh CLI process would.  Their values refer to the tree they
    are keyed by, which keeps every tree of a long run alive (and makes
    each later garbage collection slower) unless they are emptied."""
    for name in spans.treestab_modules():
        for value in vars(sys.modules[name]).values():
            if isinstance(value, weakref.WeakKeyDictionary):
                value.clear()


class Runner:
    """Runs command lists through `treestab.cli.main` and tallies the
    outcome of every command."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []  # (command label, reason)
        self.facets = {}  # tree name -> facet count its outputs imply
        self.output_bytes = 0  # of the last pass
        self.seconds = {}  # command label -> seconds in each pass
        self.tracer = None  # set during traced passes
        self.after_command = None  # called with the command's index

    def run_one(self, command):
        """Seconds spent in cli.main, exit status and captured stdout."""
        out, err = io.StringIO(), io.StringIO()
        argv = command.argv + [command.path]
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                status = self.cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                status = e.code
            except Exception as e:
                status = "%s: %s" % (type(e).__name__, e)
            elapsed = perf_counter() - t0
        clear_caches()
        return elapsed, status, out.getvalue(), err.getvalue()

    def run_pass(self, commands):
        """Run every command once; return the per-command seconds."""
        tally = workloads.Tally()
        times = []
        self.output_bytes = 0
        for i, command in enumerate(commands):
            if self.tracer is not None:
                self.tracer.current_command = i
            elapsed, status, out, err = self.run_one(command)
            times.append(elapsed)
            self.seconds.setdefault(command.label, []).append(elapsed)
            self.attempted += 1
            self.output_bytes += len(out.encode())
            reason = None
            if status != 0:
                reason = "exit %r: %s" % (status, err.strip()[:200])
            else:
                try:
                    tally.claim(command.tree, workloads.check(command, out))
                except (workloads.CheckError, ValueError, KeyError,
                        TypeError, IndexError, AttributeError) as e:
                    reason = "%s: %s" % (type(e).__name__, e)
            if reason is not None:
                self.failures.append((command.label, reason))
            if self.after_command is not None:
                self.after_command(i)
        self.facets.update(tally.facets)
        return times


def setup(name, seed, workdir):
    """Import treestab afresh, generate the workload's trees and write
    them; return the seconds this took, the command list and the
    treestab.cli module."""
    t0 = perf_counter()
    for mod in spans.treestab_modules():
        del sys.modules[mod]
    cli = importlib.import_module("treestab.cli")
    commands = workloads.build(name, ROOT, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    written = {}
    for c in commands:
        if c.tree.name not in written:
            path = workdir / ("%s.tree" % c.tree.name)
            path.write_text(c.tree.text)
            written[c.tree.name] = str(path)
        c.path = written[c.tree.name]
    return perf_counter() - t0, commands, cli


class SetUpSampler:
    """Repeats the set-up after every `stride`-th command, until there
    are SETUP_REPEATS timings, so that their median samples the same
    stretch of the run as the commands do (the machine's speed drifts
    over tens of seconds).  The modules in use stay in place."""

    def __init__(self, first, stride, redo):
        self.seconds = [first]
        self.stride = stride
        self.redo = redo

    def __call__(self, index=0):
        if index % self.stride or len(self.seconds) >= SETUP_REPEATS:
            return
        in_use = {m: sys.modules.pop(m) for m in spans.treestab_modules()}
        try:
            self.seconds.append(self.redo())
        finally:
            for mod in spans.treestab_modules():
                del sys.modules[mod]
            sys.modules.update(in_use)


# -- the two kinds of run ------------------------------------------------


def measure(runner, commands, seconds):
    """Untraced passes: the end-to-end metrics but setup_s."""
    samples, walls = [], []

    def one_pass():
        times = runner.run_pass(commands)
        samples.extend(times)
        walls.append(sum(times))

    repeat_for(seconds, one_pass)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts = {"wall_s": "%d passes" % len(walls),
              "job_p50_s": "%d commands" % len(samples)}
    values = {"wall_s": statistics.median(walls),
              "job_p50_s": statistics.median(samples),
              "peak_rss_mb": peak_kb / 1024.0}
    p90 = tail_p90(samples)
    notes = []
    if p90 is None:
        notes.append("job_p90_s not reported: fewer than 10 of %d "
                     "commands lie beyond the 90th percentile"
                     % len(samples))
    else:
        notes.append("job_p90_s %.6f s (%d commands)" % (p90, len(samples)))
    return values, counts, notes


def measure_traced(runner, commands, seconds):
    """Alternate untraced and traced passes, then one allocation pass."""
    untraced, traced = [], []
    tracer = spans.SpanTracer()

    def two_passes():
        untraced.append(sum(runner.run_pass(commands)))
        patches = spans.install(tracer.wrap)
        runner.tracer = tracer
        try:
            traced.append(sum(runner.run_pass(commands)))
        finally:
            runner.tracer = None
            spans.restore(patches)

    repeat_for(seconds, two_passes)
    output_bytes = runner.output_bytes

    # tracemalloc slows allocation up to sevenfold, so this pass runs
    # only on the tree with the most facets, whose peaks are the largest,
    # and only the last command of each subcommand (`poset --which ss`
    # builds the ncp poset too)
    largest = max(commands, key=lambda c: runner.facets.get(c.tree.name, 0))
    alloc_commands = list({c.argv[0]: c for c in commands
                           if c.tree is largest.tree}.values())
    alloc = spans.AllocTracer()
    tracemalloc.start()
    patches = spans.install(alloc.wrap)
    try:
        runner.run_pass(alloc_commands)
    finally:
        spans.restore(patches)
        tracemalloc.stop()

    passes = len(traced)
    by_name, per_command = tracer.summary()
    values = {}
    for n in INCLUSIVE:
        values[n + "_s"] = by_name.get(n, (0, 0.0, 0.0))[1] / passes
    for n in CALLS:
        values[n + "_calls"] = by_name.get(n, (0, 0.0, 0.0))[0] / passes
    values["nc_complex.facets_per_command"] = (
        values["nc_complex.facets_calls"] / len(commands))
    # partitions whose torsion pair a command needed: all of its tree's
    partitions = sum(runner.facets.get(commands[c].tree.name, 0)
                     for (n, c) in per_command
                     if n == "partitions.torsion_pair") * passes
    calls = by_name.get("partitions.torsion_pair", (0,))[0]
    values["partitions.torsion_pair_per_partition"] = (
        calls / partitions if partitions else 0.0)
    values["cli.output_bytes"] = output_bytes
    self_s = {layer: 0.0 for layer in spans.LAYERS}
    for name, (_, _, own) in by_name.items():
        self_s[spans.layer_of(name)] += own
    for layer in spans.LAYERS:
        values[layer + ".self_s"] = self_s[layer] / passes
        values[layer + ".alloc_peak_mb"] = alloc.peak[layer] / 2.0 ** 20
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(untraced))
    values["trace.accounted_share"] = sum(self_s.values()) / sum(traced)
    counts = {n: "per pass, %d traced passes, %d spans"
              % (passes, len(tracer)) for n in values}
    counts["trace.overhead_ratio"] = "%d untraced, %d traced passes" % (
        len(untraced), passes)
    for layer in spans.LAYERS:
        counts[layer + ".alloc_peak_mb"] = "tracemalloc, %d commands on %s" % (
            len(alloc_commands), largest.tree.name)
    return values, counts, tracer


# -- entry point ---------------------------------------------------------


def environment():
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("bench: refusing to run under python -O: the assert "
              "statements in src/ are part of the checks", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "treestab" / "cli.py").is_file():
        print("bench: no treestab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    # set iteration order, and with it timing, depends on the hash seed;
    # and every set-up compiles treestab from source, whatever bytecode
    # caches the checkout holds
    env = {"PYTHONHASHSEED": HASH_SEED, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPYCACHEPREFIX": str(HERE / ".work" / "no-pycache")}
    if any(os.environ.get(k) != v for k, v in env.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__))]
                  + sys.argv[1:], dict(os.environ, **env))

    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r; choose from %s" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    workdir = HERE / ".work" / ("%s-%d" % (args.workload, args.seed))
    first, commands, cli = setup(args.workload, args.seed, workdir)
    runner = Runner(cli)
    # what exists now lives for the whole run; keep the collection
    # before each command from walking it again
    gc.collect()
    gc.freeze()

    env = environment()
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    if args.trace:
        values, counts, tracer = measure_traced(runner, commands,
                                                args.seconds)
        path = workdir / "spans.tsv"
        tracer.write(str(path))
        print("spans: %d written to %s" % (len(tracer), path))
        units = PER_LAYER
    else:
        setups = SetUpSampler(
            first, -(-len(commands) // (SETUP_REPEATS - 1)),
            lambda: setup(args.workload, args.seed, workdir)[0])
        runner.after_command = setups
        values, counts, notes = measure(runner, commands, args.seconds)
        runner.after_command = None
        while len(setups.seconds) < SETUP_REPEATS:
            setups()
        values["setup_s"] = statistics.median(setups.seconds)
        counts["setup_s"] = "median of %d set-ups" % SETUP_REPEATS
        counts["peak_rss_mb"] = "1 process"
        units = END_TO_END

    trees = {}
    for tree in {c.tree.name: c.tree for c in commands}.values():
        trees[tree.name] = {"interior": tree.interior,
                            "segments": tree.segments,
                            "facets": runner.facets.get(tree.name)}
        print("tree %s: %d interior vertices, %d segments, %s facets" % (
            tree.name, tree.interior, tree.segments,
            runner.facets.get(tree.name, "?")))
    for label, reason in runner.failures[:20]:
        print("FAILED %s: %s" % (label, reason))
    for probe in workloads.known_defect_probes(commands):
        _, status, out, err = runner.run_one(probe)
        print("known defect: %s exits %r%s" % (
            probe.label, status, (": " + err.strip()) if err else ""))
    for name, unit in units:
        print("%-44s %14.6f %-5s (%s)" % (name, values[name], unit,
                                          counts.get(name, "")))
    if not args.trace:
        for note in notes:
            print(note)
    failed = len(runner.failures)
    print("fail_ratio %.6f (%d of %d commands)" % (
        failed / runner.attempted, failed, runner.attempted))

    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units}}
    (workdir / ("result-trace%d.json" % args.trace)).write_text(json.dumps(
        dict(result, env=env, workload=args.workload, seed=args.seed,
             trees=trees, failures=runner.failures,
             command_seconds=runner.seconds), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
