"""The package names the benchmark in perfbench/ binds to still exist.

perfbench/tracer.py wraps sbcert callables by "module:attribute path" and
perfbench/run.py warms the K-layer caches and reads the scalar-backend
flag; a rename in src/ would otherwise show only when the benchmark runs.
run.py itself is not imported: its set-up drops and re-imports sbcert.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sbcert
from sbcert.cyclotomic import make_field

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    for name, targets in _load_tracer().SPANS.items():
        for target in targets:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{name}: {target}"


def test_backend_flag_exists():
    assert sbcert.rationals.HAVE_GMPY2 in (False, True)


@pytest.mark.parametrize("p", [7, 19])
def test_set_up_warm_up_calls(p):
    # the two K-layer calls of perfbench/run.py's set_up, in the same form
    field = make_field(p)
    coords = sbcert.cyclotomic.k_coordinate_vector(field, field.one().coords)
    assert sbcert.cyclotomic.k_inverse_from_period_coords(field, coords[: field.k]) == field.one()
