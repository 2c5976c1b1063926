"""The benchmark's tracer wraps fupcon functions by name; a rename or
deletion in src/ that it would miss fails here instead of in a benchmark
run (perfbench/run.py and perfbench/selftest.py refuse to report then)."""

import importlib.util
from pathlib import Path

import fupcon.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
