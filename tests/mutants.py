"""Mutation-kill suite: each row breaks the package in one place, and its tests must fail.

Run from the repository root:

    python tests/mutants.py

Its name does not start with test_, so the tier-1 run does not collect it.
Each row names a file under src/sbcert, an old text that must occur in it
exactly once, the text that replaces it, and the test node ids that must
kill the mutant.  First the node ids of every row must pass on an
unmutated copy of src/.  Then, one row at a time, a fresh copy of src/ is
mutated and pytest runs that row's node ids with the copy first on
PYTHONPATH; the mutant counts as killed only when pytest exits 1 (tests
failed).  Any other exit code, or an old text that does not match exactly
once, fails the run, so a refactor of a mutated line must update its row.
The exit status is 0 only when every mutant is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# a mutant that loops instead of failing must not hang the run
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/sbcert
    old: str
    new: str
    node_ids: tuple


# a wrong entry in a row of the splitting matrix breaks associativity
_ASSOCIATIVITY = (
    "tests/test_algebra.py::test_mul_identity_and_associativity",
    "tests/test_algebra_laws.py::test_associativity_on_basis[a=2]",
)

MUTANTS = (
    Mutant(
        "the signed correction of the product's low block dropped",
        "cyclotomic.py",
        "        if low >> (split - 1):\n            low -= 1 << split\n",
        "",
        (
            "tests/test_cyclotomic.py::test_mul_with_a_negative_low_block_matches_schoolbook_oracle",
            "tests/test_field_properties.py::test_mul_matches_schoolbook_oracle",
        ),
    ),
    Mutant(
        "the packed product split at slot p - 1",
        "cyclotomic.py",
        "split = width * p\n",
        "split = width * (p - 1)\n",
        (
            "tests/test_cyclotomic.py::test_mul_reduction_cases",
            "tests/test_cyclotomic.py::test_mul_with_a_negative_low_block_matches_schoolbook_oracle",
            "tests/test_field_properties.py::test_mul_matches_schoolbook_oracle",
        ),
    ),
    Mutant(
        "0 - x returns x",
        "cyclotomic.py",
        "return other if sign > 0 else -other\n",
        "return other\n",
        ("tests/test_cyclotomic.py::test_plus_with_zero_and_equal_denominators",),
    ),
    Mutant(
        "the Phi_p fold hard-coded to p = 7",
        "cyclotomic.py",
        "out = _unpack(low + ((prod - low) >> split), width, p)",
        "out = _unpack(low + ((prod - low) >> split), width, 7)",
        (
            "tests/test_cyclotomic.py::test_mul_matches_schoolbook_oracle",
            "tests/test_field_properties.py::test_mul_matches_schoolbook_oracle",
        ),
    ),
    Mutant(
        "_fold without its subtraction of the top slot",
        "cyclotomic.py",
        "tuple(c - top for c in slots[:-1])",
        "tuple(c for c in slots[:-1])",
        (
            "tests/test_cyclotomic.py::test_mul_reduction_cases",
            "tests/test_cyclotomic.py::test_mul_matches_schoolbook_oracle",
        ),
    ),
    Mutant(
        "the field guard of FieldElem._check removed",
        "cyclotomic.py",
        "            if other.field is not self.field:\n"
        "                raise ValueError(\"elements belong to different fields\")\n",
        "",
        ("tests/test_cyclotomic.py::test_one_field_per_prime_compared_by_identity",),
    ),
    Mutant(
        "make_field skips the validation of a prime it already holds",
        "cyclotomic.py",
        "if not isinstance(p, int) or not is_prime(p):",
        "if p not in _FIELDS and (not isinstance(p, int) or not is_prime(p)):",
        (
            "tests/test_cyclotomic.py::test_make_field_validates_a_prime_it_already_holds[float]",
            "tests/test_cyclotomic.py::test_make_field_validates_a_prime_it_already_holds[list]",
        ),
    ),
    Mutant(
        "_power squares without multiplying by the base",
        "cyclotomic.py",
        "        if bit == \"1\":\n            result = result * base\n",
        "",
        (
            "tests/test_algebra.py::test_power_is_the_repeated_product",
            "tests/test_algebra.py::test_alpha_cubed_takes_two_products",
        ),
    ),
    Mutant(
        "row 1 of the splitting matrix without its a",
        "algebra.py",
        "(t2 * a, t0, t1)",
        "(t2, t0, t1)",
        _ASSOCIATIVITY,
    ),
    Mutant(
        "the middle a of row 2 of the splitting matrix dropped",
        "algebra.py",
        "(t1 * a, t2 * a, t0)",
        "(t1 * a, t2, t0)",
        _ASSOCIATIVITY,
    ),
    Mutant(
        "row 1 of the splitting matrix permuted",
        "algebra.py",
        "(t2 * a, t0, t1)",
        "(t2 * a, t1, t0)",
        _ASSOCIATIVITY,
    ),
    Mutant(
        "the algebra product subtracts the x1 and x2 rows",
        "algebra.py",
        "z0 + x * m0, z1 + x * m1, z2 + x * m2",
        "z0 - x * m0, z1 - x * m1, z2 - x * m2",
        _ASSOCIATIVITY,
    ),
    Mutant(
        # the opposite algebra is associative too: only the defining relation sees it
        "the transposed s/s^2 twist of rows 1 and 2",
        "algebra.py",
        "a, k = self.algebra.a, 3 - i",
        "a, k = self.algebra.a, i",
        ("tests/test_algebra.py::test_lambda_alpha_relation",),
    ),
    Mutant(
        "AlgebraElem.__sub__ adds",
        "algebra.py",
        "*map(sub, self.components, other.components)",
        "*map(add, self.components, other.components)",
        ("tests/test_algebra.py::test_additive_structure_and_distributivity",),
    ),
    Mutant(
        "unary minus of an algebra element returns it unchanged",
        "algebra.py",
        "return AlgebraElem(self.algebra, *map(neg, self.components))",
        "return self",
        ("tests/test_algebra.py::test_additive_structure_and_distributivity",),
    ),
    Mutant(
        "the field guard of CyclicAlgebra.element removed",
        "algebra.py",
        "            elif c.field is not self.field:\n"
        "                raise ParamMismatch(\"component from a different field\")\n",
        "",
        ("tests/test_algebra.py::test_components_from_another_field_rejected",),
    ),
    Mutant(
        "the reduced norm's sign flipped",
        "algebra.py",
        "m[0][0] * c00 + m[1][0] * c10 + m[2][0] * c20",
        "-(m[0][0] * c00 + m[1][0] * c10 + m[2][0] * c20)",
        (
            "tests/test_algebra.py::test_reduced_norm_values",
            "tests/test_algebra.py::test_division_property",
        ),
    ),
    Mutant(
        "_cofactors scales Nrd and the cofactors by zeta",
        "algebra.py",
        "return (c00, c10, c20), m[0][0] * c00 + m[1][0] * c10 + m[2][0] * c20",
        "z = m[0][0].field.zeta()\n"
        "        return (c00 * z, c10 * z, c20 * z), (m[0][0] * c00 + m[1][0] * c10 + m[2][0] * c20) * z",
        (
            "tests/test_algebra.py::test_reduced_norm_in_K_and_multiplicative",
            "tests/test_algebra.py::test_division_property",
        ),
    ),
    Mutant(
        "the row scales of regular_rep_rows swapped",
        "algebra.py",
        "for s in (1, a)]",
        "for s in (a, 1)]",
        (
            "tests/test_algebra.py::test_regular_rep_det_values",
            "tests/test_algebra_laws.py::test_regular_rep_rows_on_basis[a=2]",
        ),
    ),
    Mutant(
        "_encode without _int_field",
        "certificate.py",
        "    return _int_field(value)",
        "    return value",
        ("tests/test_certificate_cli.py::test_wide_ints_are_strings_in_every_block",),
    ),
    Mutant(
        "_encode leaves tuples alone",
        "certificate.py",
        "if isinstance(value, (list, tuple)):",
        "if isinstance(value, list):",
        (
            "tests/test_certificate_cli.py::test_certificate_structure",
            "tests/test_certificate_cli.py::test_encoder_writes_a_witness_as_rational_strings",
        ),
    ),
    Mutant(
        "canonicalize's inverse memo keyed without den",
        "projective.py",
        "key = (block, comp.den)",
        "key = block",
        (
            "tests/test_projective.py::test_canonicalize_inverse_memo_is_transparent[7]",
            "tests/test_projective.py::test_canonicalize_inverse_memo_is_transparent[13]",
        ),
    ),
    Mutant(
        "the float guard of ints_over_den removed",
        "rationals.py",
        "        if isinstance(v, float):\n"
        "            raise TypeError(f\"{v!r} is a float; give an exact int, string or fraction\")\n",
        "",
        ("tests/test_cyclotomic.py::test_floats_rejected_at_the_rational_boundary",),
    ),
    Mutant(
        "the linalg type guard removed",
        "linalg.py",
        "    if any(type(e) is not int for row in copies for e in row):\n"
        "        raise TypeError(\"linalg takes matrices of int entries only\")\n",
        "",
        ("tests/test_linalg.py::test_int_entries_only_and_caller_rows_unchanged",),
    ),
    Mutant(
        "the linalg type guard made an isinstance check, which lets a bool through",
        "linalg.py",
        "type(e) is not int",
        "not isinstance(e, int)",
        ("tests/test_linalg.py::test_int_entries_only_and_caller_rows_unchanged",),
    ),
    Mutant(
        "the override guard made an isinstance check, which lets a bool through",
        "pipeline.py",
        "if type(a) is not int:",
        "if not isinstance(a, int):",
        ("tests/test_certificate_cli.py::test_pipeline_rejects_cube_override",),
    ),
    Mutant(
        "choose_a dropped from the package root",
        "__init__.py",
        "from .obstruction import choose_a, is_cube_mod_p",
        "from .obstruction import is_cube_mod_p",
        (
            "tests/test_perfbench_bindings.py::"
            "test_package_root_names_used_by_the_benchmark_and_readme_resolve",
        ),
    ),
)


def _pytest(src: Path, node_ids) -> int:
    """pytest's exit code on node_ids, importing the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def _mutated_copy(mutant: Mutant, scratch: Path) -> Path:
    """A copy of src/ under scratch with mutant applied; ValueError unless old occurs once."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "sbcert" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: old text occurs {count} times, expected once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def main() -> int:
    start = time.monotonic()
    node_ids = sorted({n for m in MUTANTS for n in m.node_ids})
    code = _pytest(ROOT / "src", node_ids)
    if code != 0:
        print(f"FAIL    the unmutated package: pytest exit {code}, expected 0")
        return 1
    survivors = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="sbcert-mutant-") as scratch:
            try:
                code = _pytest(_mutated_copy(mutant, Path(scratch)), mutant.node_ids)
            except ValueError as exc:
                code, why = None, str(exc)
            else:
                why = f"pytest exit {code}, expected 1"
        killed = code == 1
        survivors += not killed
        print(f"{'killed' if killed else 'FAIL  '}  {mutant.name}" + ("" if killed else f": {why}"))
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
