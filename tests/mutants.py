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
failed) and its -rf summary names every listed node id as failed (an id
without parameters fails when one of its parametrized cases does).  Any
other outcome, or an old text that does not match exactly once, fails the
run, so a refactor of a mutated line must update its row, and a listed
test that stops killing the mutant shows.  The exit status is 0 only when
every mutant is killed.
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


# a wrong entry in a row of the splitting matrix breaks associativity and
# the multiplicativity of M
_ASSOCIATIVITY = (
    "tests/test_algebra.py::test_mul_identity_and_associativity",
    "tests/test_algebra_laws.py::test_associativity_on_basis[a=2]",
    "tests/test_algebra_laws.py::test_splitting_matrix_multiplicative_by_closure[13]",
)

MUTANTS = (
    Mutant(
        "the bias of the product's low slots dropped",
        "cyclotomic.py",
        " + (((1 << split) - 1) // mask << (width - 1))",
        "",
        (
            "tests/test_cyclotomic.py::test_mul_matches_schoolbook_oracle",
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
        "range(0, split - width, width)",
        "range(0, 6 * width, width)",
        (
            "tests/test_cyclotomic.py::test_mul_matches_schoolbook_oracle",
            "tests/test_field_properties.py::test_mul_matches_schoolbook_oracle",
        ),
    ),
    Mutant(
        # zeta(e) and sigma fold through _fold; the packed product does not
        "_fold without its subtraction of the top slot",
        "cyclotomic.py",
        "tuple(c - top for c in slots[:-1])",
        "tuple(c for c in slots[:-1])",
        (
            "tests/test_cyclotomic.py::test_mul_reduction_cases",
            "tests/test_cyclotomic.py::test_sigma_has_order_three",
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
        "the norm divides by den^(p-1), not den^k",
        "cyclotomic.py",
        "c.den**field.k",
        "c.den**field.degree",
        (
            "tests/test_cyclotomic.py::test_norm_values",
            "tests/test_cyclotomic.py::test_norm_matches_the_conjugate_product_oracle",
        ),
    ),
    Mutant(
        # the cofactor identities still hold: only det * det_inv == 1 sees it
        "k_inverse returns twice the inverse",
        "cyclotomic.py",
        "    return k_inverse_from_period_coords(x.field, coords[: x.field.k]) * x.den",
        "    return 2 * k_inverse_from_period_coords(x.field, coords[: x.field.k]) * x.den",
        ("tests/test_algebra.py::test_division_property",),
    ),
    Mutant(
        "k_inverse inverts the integral coordinates without scaling by den",
        "cyclotomic.py",
        "coords[: x.field.k]) * x.den",
        "coords[: x.field.k])",
        (
            "tests/test_cyclotomic.py::test_k_inverse_of_fixed_field_elements",
            "tests/test_algebra.py::test_division_property",
        ),
    ),
    Mutant(
        "_reduced keeps a negative denominator",
        "cyclotomic.py",
        "g = gcd(den, *num) if den > 0 else -gcd(den, *num)",
        "g = gcd(den, *num)",
        (
            "tests/test_cyclotomic.py::test_element_equality_and_hash",
            "tests/test_projective.py::test_canonical_rep_normalization",
            "tests/test_golden.py::test_certificate_matches_golden[7]",
        ),
    ),
    Mutant(
        "k_inverse_from_period_coords without its length check",
        "cyclotomic.py",
        "    if len(vec) != field.k:\n"
        "        raise ValueError(f\"expected {field.k} period coordinates, got {len(vec)}\")\n",
        "",
        ("tests/test_cyclotomic.py::test_k_inverse_of_fixed_field_elements",),
    ),
    Mutant(
        "k_inverse without its K-membership test",
        "cyclotomic.py",
        "    if any(coords[x.field.k :]):  # x is in K exactly when its zeta, zeta^2 blocks vanish\n"
        "        raise NotInvertible(\"k_inverse needs an element of the fixed field K\")\n",
        "",
        ("tests/test_cyclotomic.py::test_k_inverse_rejects_elements_outside_K",),
    ),
    Mutant(
        "inverse without its check of det * det_inv",
        "algebra.py",
        "det * det_inv != det.field.one() or ",
        "",
        ("tests/test_certificate_cli.py::test_division_failure_fails_algebra_stage",),
    ),
    Mutant(
        "row 1 of the splitting matrix without its a",
        "algebra.py",
        "(s2 * a, s0, s1)",
        "(s2, s0, s1)",
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
        "(s2 * a, s0, s1)",
        "(s2 * a, s1, s0)",
        _ASSOCIATIVITY,
    ),
    Mutant(
        "the kept splitting rows answer row 1 for row 2",
        "algebra.py",
        "return twisted[i - 1]",
        "return twisted[0]",
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
        "for k in (2, 1))",
        "for k in (1, 2))",
        (
            "tests/test_algebra.py::test_lambda_alpha_relation",
            "tests/test_algebra_laws.py::test_lambda_alpha_on_basis[p=13]",
        ),
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
        "                raise ValueError(\"component from a different field\")\n",
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
        "pipeline.py",
        "    return _int_field(value)",
        "    return value",
        ("tests/test_certificate_cli.py::test_wide_ints_are_strings_in_every_block",),
    ),
    Mutant(
        "_encode leaves tuples alone",
        "pipeline.py",
        "if isinstance(value, (list, tuple)):",
        "if isinstance(value, list):",
        (
            "tests/test_certificate_cli.py::test_certificate_structure",
            "tests/test_certificate_cli.py::test_encoder_writes_a_witness_as_rational_strings",
        ),
    ),
    Mutant(
        "the cached inverse applied without den / g",
        "projective.py",
        "[c * comp.den for c in inv.num], inv.den * g",
        "inv.num, inv.den",
        (
            "tests/test_projective.py::test_canonical_rep_normalization",
            "tests/test_projective.py::test_rational_multiples_share_one_memo_entry[7]",
        ),
    ),
    Mutant(
        # still canonical: a block and its negative only take two solves
        "canonicalize's memo key without its sign normalization",
        "projective.py",
        "gcd(*block) if next(filter(None, block)) > 0 else -gcd(*block)",
        "gcd(*block)",
        ("tests/test_projective.py::test_group_report_solves_each_leading_block_once[19]",),
    ),
    Mutant(
        "Light's test compares row x s with row x unmapped",
        "projective.py",
        "== list(map(table[x].__getitem__, table[s]))",
        "== table[x]",
        (
            "tests/test_projective.py::test_abstract_group_p7",
            "tests/test_projective.py::test_table_checks_match_the_entry_by_entry_oracles",
        ),
    ),
    Mutant(
        "the table range check admits the entry n",
        "projective.py",
        "set().union(*table) <= set(range(n))",
        "set().union(*table) <= set(range(n + 1))",
        ("tests/test_projective.py::test_table_checks_return_a_verdict_on_an_entry_out_of_range",),
    ),
    Mutant(
        "jordan_index_check without the range guard",
        "projective.py",
        "if not _square(table, n) or any(0 not in row for row in table):",
        "if any(0 not in row for row in table):",
        ("tests/test_projective.py::test_table_checks_return_a_verdict_on_an_entry_out_of_range",),
    ),
    Mutant(
        "the float guard of CycloField.element removed",
        "cyclotomic.py",
        "            if isinstance(v, float):\n"
        "                raise TypeError(f\"{v!r} is a float; give an exact int, string or fraction\")\n",
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
        "the child's exit status ignored by the forked trial blocks",
        "pipeline.py",
        "if pid is None or os.waitpid(pid, 0)[1]:",
        "if pid is None or os.waitpid(pid, 0)[1] < 0:",
        (
            "tests/test_pipeline_fork.py::"
            "test_a_check_refusing_one_sample_in_either_half_counts_as_the_serial_run[child]",
            "tests/test_algebra.py::test_norm_oracle_cannot_see_the_sign_of_nrd",
            "tests/test_pipeline_fork.py::test_every_trial_refused_counts_every_trial_of_an_odd_block",
        ),
    ),
    Mutant(
        "the odd trial of a block dropped from half 0",
        "pipeline.py",
        "range((n + 1 - half) // 2)",
        "range((n - half) // 2)",
        ("tests/test_pipeline_fork.py::test_every_trial_refused_counts_every_trial_of_an_odd_block",),
    ),
    Mutant(
        "both halves of the trial blocks draw from one stream",
        "pipeline.py",
        'random.Random(f"{seed}/{half}")',
        'random.Random(f"{seed}")',
        ("tests/test_golden.py::test_algebra_draws_match_golden",),
    ),
    Mutant(
        # the stream and the counts stay; only the block of one draw moves
        "a draw moved between the two reduced norm blocks",
        "pipeline.py",
        "(trials, elem, 1, lambda x: nrd(x).is_in_K()),\n"
        '        "reduced_norm_multiplicativity": (\n'
        "            trials, elem, 2, lambda x, y: nrd(x * y) == nrd(x) * nrd(y)",
        "(trials, elem, 2, lambda x, _: nrd(x).is_in_K()),\n"
        '        "reduced_norm_multiplicativity": (\n'
        "            trials, elem, 1, lambda x: nrd(x * x) == nrd(x) * nrd(x)",
        ("tests/test_golden.py::test_algebra_draws_match_golden",),
    ),
    Mutant(
        "make_field without its cap on p",
        "cyclotomic.py",
        "if isinstance(p, int) and p > _P_MAX:",
        "if False:",
        (
            "tests/test_cyclotomic.py::test_make_field_caps_p_before_the_primality_test",
            "tests/test_certificate_cli.py::"
            "test_cli_rejects_a_prime_above_the_cap_without_testing_it",
        ),
    ),
    Mutant(
        "zeta and alpha swapped in group_report's generator list",
        "projective.py",
        "generate_subgroup([algebra.embed(field.zeta()), algebra.alpha()])",
        "generate_subgroup([algebra.alpha(), algebra.embed(field.zeta())])",
        ("tests/test_projective.py::test_group_report_matches_golden[19]",),
    ),
    Mutant(
        "the walk's reached-0 flag flipped",
        "projective.py",
        "closures.append((closure, x == 0))",
        "closures.append((closure, x != 0))",
        (
            "tests/test_projective.py::test_element_orders",
            "tests/test_projective.py::test_element_orders_return_on_a_broken_table",
        ),
    ),
    Mutant(
        "the norm search runs to height bound + 1",
        "obstruction.py",
        "for h in range(1, bound + 1):",
        "for h in range(1, bound + 2):",
        ("tests/test_obstruction.py::test_search_visits_exactly_the_candidates_the_report_claims",),
    ),
    Mutant(
        "the enumeration cap refuses a search of exactly its size",
        "obstruction.py",
        "if total > DEFAULT_ENUMERATION_CAP:",
        "if total >= DEFAULT_ENUMERATION_CAP:",
        ("tests/test_obstruction.py::test_search_cap_admits_exactly_its_own_size",),
    ),
    Mutant(
        "the 10p subgroup cap refuses exactly 10p classes",
        "projective.py",
        "if len(index) > cap:",
        "if len(index) >= cap:",
        ("tests/test_projective.py::test_generation_cap_admits_exactly_10p_classes[70]",),
    ),
    Mutant(
        "is_abelian compares the table and its transpose by !=",
        "projective.py",
        "list(zip(*table)) == list(map(tuple, table))",
        "list(zip(*table)) != list(map(tuple, table))",
        ("tests/test_projective.py::test_is_abelian_on_cyclic_and_non_abelian_tables",),
    ),
    Mutant(
        "is_abelian without its guard",
        "projective.py",
        "return not _square(table, len(table)) or ",
        "return ",
        (
            "tests/test_projective.py::test_table_checks_return_a_verdict_on_an_entry_out_of_range",
            "tests/test_projective.py::test_table_checks_return_a_verdict_on_an_empty_or_short_row",
        ),
    ),
    Mutant(
        "the isomorphism counterexample splits its first index by 4",
        "projective.py",
        "divmod(gi, 3)",
        "divmod(gi, 4)",
        ("tests/test_projective.py::test_isomorphism_counterexample_is_the_first_broken_pair",),
    ),
    Mutant(
        "group_report reads its generator indices from elements[1]",
        "projective.py",
        "xi_i, al_i = elements[0][1]",
        "xi_i, al_i = elements[1][1]",
        (
            "tests/test_projective.py::"
            "test_group_report_reads_the_generators_at_the_classes_of_zeta_and_alpha",
        ),
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
    Mutant(
        "DivisionByZero loses its SbcertError base",
        "errors.py",
        "class DivisionByZero(SbcertError, ZeroDivisionError):",
        "class DivisionByZero(ZeroDivisionError):",
        ("tests/test_certificate_cli.py::test_cli_stage_error_exits_3",),
    ),
)


def _pytest(src: Path, node_ids) -> tuple:
    """pytest's exit code on node_ids, importing the package from src, and the ids that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *node_ids]
    done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    # a summary line reads "FAILED <node id>", then " - <message>" when it fits
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed


def _unkilled(node_ids, failed) -> list:
    """The listed node ids that no failed test id matches, itself or a parametrized case."""
    return [n for n in node_ids if not any(f == n or f.startswith(n + "[") for f in failed)]


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
    code = _pytest(ROOT / "src", node_ids)[0]
    if code != 0:
        print(f"FAIL    the unmutated package: pytest exit {code}, expected 0")
        return 1
    survivors = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="sbcert-mutant-") as scratch:
            try:
                code, failed = _pytest(_mutated_copy(mutant, Path(scratch)), mutant.node_ids)
            except ValueError as exc:
                killed, why = False, str(exc)
            else:
                passed = _unkilled(mutant.node_ids, failed)
                killed = code == 1 and not passed
                why = f"pytest exit {code}, expected 1" if code != 1 else f"passed: {passed}"
        survivors += not killed
        print(f"{'killed' if killed else 'FAIL  '}  {mutant.name}" + ("" if killed else f": {why}"))
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
