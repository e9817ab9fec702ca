"""The package names the benchmark in perfbench/ binds to still exist.

perfbench/tracer.py wraps sbcert callables by "module:attribute path",
perfbench/run.py warms the K-layer caches and reads the scalar-backend
flag, and both it and perfbench/workloads.py call package-root names as
sb.<name>; a rename in src/ would otherwise show only when the benchmark
runs, as run_failed.  run.py itself is not imported: its set-up drops and
re-imports sbcert.  The README's Python block is run as written, so an API
change fails here before it fails a reader.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import sbcert
from sbcert.cyclotomic import make_field

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _root_names_used():
    """Every sb.<name> in perfbench/run.py and workloads.py, and the README's imports."""
    names = set()
    for script in ("run.py", "workloads.py"):
        tree = ast.parse((ROOT / "perfbench" / script).read_text(encoding="utf-8"))
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "sb"
        )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (imported,) = re.findall(r"^from sbcert import (.+)$", readme, re.MULTILINE)
    return names | {name.strip() for name in imported.split(",")}


def test_package_root_names_used_by_the_benchmark_and_readme_resolve():
    names = _root_names_used()
    assert {"make_field", "run_pipeline", "certificate_to_json"} <= names
    assert [name for name in sorted(names) if not hasattr(sbcert, name)] == []


def test_readme_python_block_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert '"overall": "PASS"' in capsys.readouterr().out
