"""Every demo script runs to completion against the installed layers."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    # conftest.py puts src/ on the PYTHONPATH the interpreter inherits
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_stability_scan_prints_failures():
    """A failing facet is listed by index and reason."""
    script = (
        "import runpy, sys\n"
        "from treestab import semistable\n"
        "semistable.verify_kreweras_stability = lambda tree: "
        "semistable.SemistableReport("
        "[semistable.FacetResult(0, (), ['doctored reason'])])\n"
        "sys.argv = sys.argv[1:]\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n")
    proc = run_python("-c", script, str(ROOT / "demos" / "stability_scan.py"))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert "  facet 0 FAILED: doctored reason" in proc.stdout.splitlines()
