"""The README and the schema doc against the package, the BENCH files and the goldens.

The README puts package names, and nothing else that reads as a Python
name, in backticks: `make_field(p)`, `FieldElem.norm()`, `errors.BadInput`.
Each such name must resolve, and the arguments of a call form must be
parameters of what it names.  A time quoted in the README (a number of s or
ms) must sit in a paragraph or list item that names a committed
`BENCH_*.json`, and some figure of those files must round to it.
"""

import builtins
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
from pathlib import Path

import pytest

import sbcert

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SCHEMA = ROOT / "docs" / "certificate_schema.md"
GOLDEN = ROOT / "tests" / "golden"

# a dotted Python name, optionally called: run_pipeline(p, options), FieldElem.coords
NAME = re.compile(r"(?P<path>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\((?P<args>[^()]*)\))?")
FILE = re.compile(r"[\w*]+\.(?:json|md|py|toml)")
TIME = re.compile(r"(?<![\w.])(\d+(?:\.\d+)?)\s+(s|ms)\b")
BENCH = re.compile(r"BENCH_\w+\.json")


def _without_code_blocks(text: str) -> str:
    return re.sub(r"^```.*?^```$", "", text, flags=re.MULTILINE | re.DOTALL)


def _spans(text: str) -> list:
    return re.findall(r"`([^`\n]+)`", _without_code_blocks(text))


def _names(text: str) -> list:
    """Every backticked span that reads as a Python name, as a match of NAME."""
    return [m for m in map(NAME.fullmatch, _spans(text)) if m and not FILE.fullmatch(m[0])]


def _modules() -> list:
    names = [m.name for m in pkgutil.iter_modules(sbcert.__path__)]
    return [sbcert] + [importlib.import_module(f"sbcert.{name}") for name in names]


def _resolve(path: str):
    """The object a dotted name in the docs stands for; LookupError if none."""
    head, *rest = path.split(".")
    if head == "sbcert":
        head, *rest = rest or [None]
        if head is None:
            return sbcert
    for owner in (*_modules(), builtins):
        if hasattr(owner, head):
            obj = getattr(owner, head)
            break
    else:
        raise LookupError(f"{path}: no package name {head}")
    for part in rest:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None  # a field with no class default: nothing further to resolve
        else:
            raise LookupError(f"{path}: {part} is not an attribute")
    return obj


def _call_form_errors(match) -> list:
    """The arguments of a call form that are not parameters of what it names.

    The name is resolved first, so a bare name that names nothing raises too.
    """
    obj = _resolve(match["path"])
    if match["args"] is None:
        return []
    params = inspect.signature(obj).parameters
    args = [a.split("=")[0].strip() for a in match["args"].split(",") if a.strip()]
    return [f"{match[0]}: no parameter {a}" for a in args if a not in params]


def _unresolved(text: str) -> list:
    errors = []
    for match in _names(text):
        try:
            errors += _call_form_errors(match)
        except LookupError as exc:
            errors.append(str(exc))
    return errors


def _items(text: str) -> list:
    """Paragraphs and list items, each as one string."""
    items = []
    for block in re.split(r"\n\s*\n", _without_code_blocks(text)):
        items += re.split(r"\n(?=\s*(?:[-*]|\d+\.) )", block)
    return items


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _quoted(number: str, unit: str, figures) -> bool:
    """Whether a figure, in s or ms, rounds to number as written."""
    places = len(number.partition(".")[2])
    q = float(number)
    for v in figures:
        for scale in (1, 1000, 1 / 1000):
            if math.isclose(round(v * scale, places), q, abs_tol=10 ** -(places + 3)):
                return True
    return False


def _timing_errors(text: str) -> list:
    errors = []
    for item in _items(text):
        times = TIME.findall(item)
        if not times:
            continue
        files = [ROOT / name for name in BENCH.findall(item)]
        if not files:
            errors.append(f"a time without a BENCH file: {item[:60]!r}")
            continue
        missing = [f.name for f in files if not f.exists()]
        if missing:
            errors.append(f"no such file: {missing}")
            continue
        figures = [v for f in files for v in _numbers(json.loads(f.read_text(encoding="utf-8")))]
        errors += [f"{n} {u} is in none of {[f.name for f in files]}"
                   for n, u in times if not _quoted(n, u, figures)]
    return errors


def _library(text: str) -> str:
    return text.split("## Library", 1)[1].split("\n## ", 1)[0]


def test_every_backticked_name_in_the_readme_resolves():
    text = README.read_text(encoding="utf-8")
    assert len(_names(text)) > 50
    assert _unresolved(text) == []


def test_readme_names_each_call_form_once_in_the_library():
    forms = [m["path"] for m in _names(_library(README.read_text(encoding="utf-8")))
             if m["args"] is not None]
    assert sorted({f for f in forms if forms.count(f) > 1}) == []


def test_readme_names_every_root_export():
    exports = {name for name, value in vars(sbcert).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(exports) == 9
    named = {m["path"] for m in _names(README.read_text(encoding="utf-8"))}
    assert sorted(exports - named) == []


def test_every_time_the_readme_quotes_is_in_a_bench_file_it_names():
    text = README.read_text(encoding="utf-8")
    assert len(BENCH.findall(text)) >= 7
    assert _timing_errors(text) == []


@pytest.mark.parametrize(
    "text",
    [
        "- `make_fields(p)` returns a field.",
        "- `make_field(q)` returns a field.",
        "- `FieldElem.nrom()` is the norm.",
        "- `FieldElem.nrom` is the norm.",
        "- `make_field(6)` raises `NotPrime`.",
        "A default run takes 21.4 s at p = 37.",
        "`BENCH_9.json`: certify-p7 0.87 s -> 123.456 s.",
        "`BENCH_99.json`: group-p19 0.043 s -> 0.030 s.",
    ],
)
def test_the_readme_checks_refuse_a_wrong_name_or_an_uncited_time(text):
    assert _unresolved(text) + _timing_errors(text) != []


def _key_names(value, skip=("order_histogram",)):
    """Every key at any depth of a JSON value, but not the keys of the blocks in skip."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield k
            if k not in skip:
                yield from _key_names(v, skip)


def test_schema_doc_names_every_key_of_the_golden_certificate():
    golden = json.loads((GOLDEN / "cert_p7.json").read_text(encoding="utf-8"))
    words = set(re.findall(r"\w+", " ".join(_spans(SCHEMA.read_text(encoding="utf-8")))))
    assert sorted(set(_key_names(golden)) - words) == []


def test_every_top_level_key_of_the_schema_doc_is_in_the_golden_certificate():
    golden = json.loads((GOLDEN / "cert_p7.json").read_text(encoding="utf-8"))
    table = SCHEMA.read_text(encoding="utf-8").split("## Top-level keys", 1)[1].split("\n## ")[0]
    keys = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    # the goldens drop the wall-clock block, the one key that differs between runs
    assert keys == list(golden) + ["timings_ms"]


# "computed by `f`", "computed by `f` and `g`", "computed by `f`, `g` and `h`"
COMPUTED = re.compile(r"computed\s+by\s+(`[\w.]+`(?:(?:,|\s+and)\s+`[\w.]+`)*)")
ENTRY = re.compile(r"\s*- ((?:`\w+`(?:, )?)+) - ")


def _computed_by(text: str) -> dict:
    """Key -> the package names its entry in the schema doc says compute it.

    A top-level key's names are in the last cell of its table row.  A key of
    a block, found as "block.key", heads a list item in that block's
    section, and its names follow "computed by".
    """
    sections = {}
    for part in text.split("\n## ")[1:]:
        title, _, body = part.partition("\n")
        sections[title.strip()] = body.split("\n### ")[0]
    table = sections["Top-level keys (in order)"]
    found = {key: re.findall(r"`([\w.]+)`", cell) for key, cell in
             re.findall(r"^\| `(\w+)`.*\|([^|]*)\|$", table, flags=re.MULTILINE)}
    for block in ("obstruction", "algebra_checks", "group"):
        for item in _items(sections[f"`{block}`"]):
            head = ENTRY.match(item)
            if head:
                names = [n for m in COMPUTED.findall(item) for n in re.findall(r"`([\w.]+)`", m)]
                found.update((f"{block}.{key}", names) for key in re.findall(r"`(\w+)`", head[1]))
    return found


def _function_errors(found: dict) -> list:
    """Every named function that is not a function or property of the package."""
    errors = []
    for key, names in found.items():
        for name in names:
            try:
                obj = _resolve(name)
            except LookupError as exc:
                errors.append(f"{key}: {exc}")
                continue
            fn = inspect.unwrap(obj.fget if isinstance(obj, property) else obj)
            if not (inspect.isfunction(fn) and fn.__module__.startswith("sbcert.")):
                errors.append(f"{key}: {name} is not a function of the package")
    return errors


def test_schema_doc_names_the_function_that_computes_every_key():
    golden = json.loads((GOLDEN / "cert_p7.json").read_text(encoding="utf-8"))
    keys = [*golden, "timings_ms"]
    keys += [f"{b}.{k}" for b in ("obstruction", "algebra_checks", "group") for k in golden[b]]
    found = _computed_by(SCHEMA.read_text(encoding="utf-8"))
    assert sorted(k for k in keys if not found.get(k)) == []
    assert _function_errors(found) == []


@pytest.mark.parametrize(
    "found",
    [
        {"order": ["generate_subgroups"]},
        {"order": ["projective.generate"]},
        {"p": ["CycloField.order"]},
        {"a": ["DEFAULT_ENUMERATION_CAP"]},
        {"group": ["GroupReport"]},
    ],
)
def test_the_function_check_refuses_a_wrong_name(found):
    assert _function_errors(found) != []


# mutant "a", or mutants "a" and "b", or mutants "a", "b" or "c"
MUTANT_CITATION = re.compile(r'\bmutants?\s+("[^"]+"(?:,?\s+(?:(?:and|or)\s+)?"[^"]+")*)')


def _cited_mutants(text: str) -> list:
    return [n for names in MUTANT_CITATION.findall(text) for n in re.findall(r'"([^"]+)"', names)]


@pytest.mark.parametrize(
    "text, names",
    [
        ('the mutant "a") fails', ["a"]),
        ('mutants "a" and\n"b" fail', ["a", "b"]),
        ('mutants "a", "b" or "c"', ["a", "b", "c"]),
        ('"a" is no mutant; the mutants fail', []),
    ],
)
def test_mutant_citations_are_read_singular_and_plural(text, names):
    assert _cited_mutants(text) == names


def test_every_test_and_mutant_the_docs_cite_exists():
    mutants = (ROOT / "tests" / "mutants.py").read_text(encoding="utf-8")
    for doc in (README, SCHEMA):
        text = doc.read_text(encoding="utf-8")
        for path, name in re.findall(r"(tests/\w+\.py)::(\w+)", text):
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), (doc.name, name)
        for name in _cited_mutants(text):
            assert f'"{name}"' in mutants, (doc.name, name)
