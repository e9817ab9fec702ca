"""Per-layer spans for the benchmark, recorded from outside the package.

The tracer replaces public sbcert callables with timing wrappers at every
place they are looked up.  A name taken in with ``from .x import y`` is a
separate binding in the importing module, so each such binding is patched
where it is used (for example ``sbcert.algebra.k_inverse`` and
``sbcert.projective.k_coordinate_vector``); patching only the defining
module would leave those calls untraced and their time would read as zero.

Spans nest through a stack.  A span's self time is its duration minus the
durations of its direct child spans.  A span opened directly inside a span
of the same name (``sigma`` calling ``apply_aut``, ``__rsub__`` calling
``__sub__``) is folded into its parent, so each layer call counts once.
Totals are aggregated per name in memory; per-span records would not fit
the millions of field operations one op makes.
"""

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# span name -> the bindings it wraps, as "module:attribute path"
SPANS = {
    "cyclotomic.mul": (
        "sbcert.cyclotomic:FieldElem.__mul__",
        "sbcert.cyclotomic:FieldElem.__rmul__",
    ),
    "cyclotomic.addsub": (
        "sbcert.cyclotomic:FieldElem.__add__",
        "sbcert.cyclotomic:FieldElem.__radd__",
        "sbcert.cyclotomic:FieldElem.__sub__",
        "sbcert.cyclotomic:FieldElem.__rsub__",
    ),
    "cyclotomic.aut": (
        "sbcert.cyclotomic:FieldElem.apply_aut",
        "sbcert.cyclotomic:FieldElem.sigma",
    ),
    "cyclotomic.inv": ("sbcert.cyclotomic:FieldElem.inv",),
    "cyclotomic.relative_norm": ("sbcert.cyclotomic:FieldElem.relative_norm",),
    "cyclotomic.k_coords": (
        "sbcert.cyclotomic:k_coordinate_vector",
        "sbcert.projective:k_coordinate_vector",
    ),
    "cyclotomic.k_inverse": (
        "sbcert.cyclotomic:k_inverse_from_period_coords",
        "sbcert.projective:k_inverse_from_period_coords",
        "sbcert.algebra:k_inverse",
    ),
    "linalg.solve": ("sbcert.linalg:solve",),
    "linalg.det": ("sbcert.linalg:det_rational",),
    "linalg.invert": ("sbcert.linalg:invert",),
    "algebra.mul": ("sbcert.algebra:AlgebraElem.__mul__",),
    "algebra.splitting_matrix": ("sbcert.algebra:AlgebraElem.splitting_matrix",),
    "algebra.reduced_norm": ("sbcert.algebra:AlgebraElem.reduced_norm",),
    "algebra.inverse": ("sbcert.algebra:AlgebraElem.inverse",),
    "algebra.regular_rep_det": ("sbcert.algebra:AlgebraElem.regular_rep_det",),
    "projective.canonicalize": ("sbcert.projective:canonicalize",),
    "projective.generate": ("sbcert.projective:generate_subgroup",),
    "projective.cayley_table": ("sbcert.projective:cayley_table",),
    "projective.isomorphism": ("sbcert.projective:check_isomorphism",),
    "projective.relations": ("sbcert.projective:verify_relations",),
    "projective.jordan": ("sbcert.projective:jordan_index_check",),
    "projective.report": (
        "sbcert:group_report",
        "sbcert.pipeline:group_report",
    ),
    "obstruction.search": ("sbcert.obstruction:brute_force_norm_search",),
    "pipeline.run": ("sbcert:run_pipeline",),
    "pipeline.algebra_checks": (
        "sbcert:run_algebra_checks",
        "sbcert.pipeline:run_algebra_checks",
    ),
    "sampling": (
        "sbcert.pipeline:random_field_elem",
        "sbcert.pipeline:random_algebra_elem",
        "sbcert.pipeline:random_nonzero_algebra_elem",
    ),
    "certificate.to_json": ("sbcert:certificate_to_json",),
}

# classes found by BFS: every element but the identity is discovered once
RESULT_COUNTS = {"projective.generate": lambda elements: len(elements) - 1}


class Tracer:
    """Installs the SPANS wrappers and aggregates calls and self time."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span, child span) -> calls
        self.results = Counter()  # span -> RESULT_COUNTS totals
        self._stack = []  # open spans as [name, seconds covered by children]
        self._undo = []

    def _wrap(self, name, fn):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges
        count_result = RESULT_COUNTS.get(name)
        results = self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    edges[(stack[-1][0], name)] += 1
            if count_result is not None:
                results[name] += count_result(out)
            return out

        return traced

    def install(self):
        """Wrap every binding in SPANS in the currently imported sbcert."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, targets in SPANS.items():
            for target in targets:
                module_name, path = target.split(":")
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append((owner, attr, original))

    def remove(self):
        """Restore every original binding."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Copies of the running totals, for per-op differences."""
        return (Counter(self.calls), dict(self.self_s), Counter(self.edges),
                Counter(self.results))


def delta(after, before=None):
    """Totals between two snapshots (or since install); every span is present."""
    if before is None:
        before = (Counter(), {}, Counter(), Counter())
    calls = {n: after[0][n] - before[0][n] for n in SPANS}
    self_s = {n: after[1].get(n, 0.0) - before[1].get(n, 0.0) for n in SPANS}
    edges = after[2] - before[2]
    results = after[3] - before[3]
    return {"calls": calls, "self_s": self_s, "edges": edges, "results": results}
