"""Tests of the benchmark itself:  python -m pytest bench"""

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gen
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treestab import cli  # noqa: E402
from treestab.tree_core import parse_tree  # noqa: E402


@pytest.mark.parametrize("interior", range(1, 9))
def test_generator_is_deterministic_and_parses(interior):
    for seed in range(5):
        rotation = gen.grow(random.Random(seed), interior)
        assert rotation == gen.grow(random.Random(seed), interior)
        tree = parse_tree(gen.tree_text(rotation))
        assert len(tree.interior_vertices) == interior
        assert gen.segment_count(rotation) == len(tree.all_segments)


@pytest.mark.parametrize("interior", range(2, 8))
def test_full_trees_have_every_path_a_segment(interior):
    rotation = gen.grow_full(random.Random(1), interior)
    tree = parse_tree(gen.tree_text(rotation))
    assert len(tree.all_segments) == interior * (interior - 1) // 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    def shape(seed):
        return [(c.tree.text, c.argv) for c in workloads.build(name, ROOT,
                                                                seed)]
    assert shape(3) == shape(3)
    assert shape(3) != shape(4)
    for text, _ in shape(3):
        parse_tree(text)


def test_percentile_rule_needs_ten_samples_beyond():
    assert run.tail_p90([float(i) for i in range(50)]) is None
    assert run.tail_p90([float(i) for i in range(100)]) is not None
    for n in range(2, 200):
        samples = [float(i * i % 97) for i in range(n)]
        p90 = run.tail_p90(samples)
        if p90 is not None:
            assert sum(1 for s in samples if s > p90) >= 10


def _a2_commands(tmp_path):
    path = tmp_path / "a2.tree"
    shutil.copy(ROOT / "fixtures" / "a2.tree", path)
    tree = workloads._fixture(ROOT, "a2", random.Random(0))
    return [workloads.Command(tree, argv, str(path)) for argv in (
        ["facets", "--format", "json"], ["ncp", "--format", "json"],
        ["verify-thm1", "--format", "json"])]


class _Doctored:
    """treestab.cli with one subcommand's output or exit code altered."""

    def __init__(self, command, edit=None, status=None):
        self.command, self.edit, self.status = command, edit, status

    def main(self, argv):
        if argv[0] != self.command:
            return cli.main(argv)
        if self.status is not None:
            return self.status
        real = sys.stdout
        with redirect_stdout(io.StringIO()) as buf:
            cli.main(argv)
        data = json.loads(buf.getvalue())
        self.edit(data)
        real.write(json.dumps(data))
        return 0


def _fail_ratio(runner_cli, commands):
    runner = run.Runner(runner_cli)
    runner.run_pass(commands)
    return len(runner.failures) / runner.attempted


def test_doctored_commands_raise_fail_ratio(tmp_path):
    commands = _a2_commands(tmp_path)
    assert _fail_ratio(cli, commands) == 0

    def one_more(data):
        data["count"] += 1
        data["partitions"].append([])
    assert _fail_ratio(_Doctored("ncp", one_more), commands) == 1 / 3

    def failing(data):
        data["summary"] = "4/5 facets pass"
    assert _fail_ratio(_Doctored("verify-thm1", failing), commands) == 1 / 3
    assert _fail_ratio(_Doctored("facets", status=1), commands) == 1 / 3


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


def _bench(args, cwd, *flags):
    return subprocess.run([sys.executable, *flags, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=60)


ARGS = ["--workload", "order-mid", "--seed", "1", "--seconds", "1",
        "--trace", "0"]


def test_refuses_python_O():
    done = _bench(ARGS, ROOT, "-O")
    assert done.returncode != 0 and not done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(ARGS, tmp_path)
    assert done.returncode != 0 and not done.stdout


def test_tracing_accounts_for_command_time_and_restores(tmp_path):
    import spans
    from treestab import nc_complex
    original = nc_complex.facets
    commands = _a2_commands(tmp_path)
    runner = run.Runner(cli)
    tracer = spans.SpanTracer()
    runner.tracer = tracer
    patches = spans.install(tracer.wrap)
    try:
        times = runner.run_pass(commands)
    finally:
        spans.restore(patches)
    assert nc_complex.facets is original and not runner.failures
    by_name, per_command = tracer.summary()
    assert by_name["cli.main"][0] == len(commands)
    # verify-thm1 builds the facets twice, once through the NCP table
    assert per_command[("nc_complex.facets", 2)] == 2
    own = sum(row[2] for row in by_name.values())
    assert abs(own - sum(times)) < 0.01 * sum(times)
