"""The benchmark's tracer still reaches every binding it names.

``perfbench/selftest.py::check_bindings`` lists the names through which
callers reach the package's functions (names imported into other modules,
the CLI's solver tables) and checks that the tracer wraps each and restores
it afterwards.  Running it here makes a rename that hides one of them from
the tracer fail the test suite, not only the benchmark's own self-test.
"""

import importlib.util
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_tracer_wraps_and_restores_every_named_binding():
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST)
    selftest = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(selftest)
        assert selftest.check_bindings() == []
    finally:
        sys.path[:] = path
