"""The benchmark's tracer wraps fupcon functions by name; a rename or
deletion in src/ that it would miss fails here instead of in a benchmark
run (perfbench/run.py and perfbench/selftest.py refuse to report then).
The benchmark's self-test runs here too, so a change that breaks its
checks or its counters fails the test suite."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import fupcon.cli  # noqa: F401  (imports every module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
