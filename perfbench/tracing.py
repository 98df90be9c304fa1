"""Outside-in tracing of one ``ktq`` process.

Public functions are wrapped under the names their callers use, from the
benchmark's files: a function imported into another module is patched in
that module, a function called inside its own module is patched there
(module globals resolve at call time), and methods are patched on their
class.  No file under ``src/`` changes.

Each call records a span [name, parent, start, end, excluded] in memory.
``excluded`` is time the tracer spent on its own bookkeeping inside that
span after a child ended, so it is charged to neither.  ``summary()`` turns the spans
into per-name total and self time and per-layer self time; the layer is
the part of the name before the first dot.
"""

import importlib
import time
from collections import Counter
from types import SimpleNamespace

clock = time.perf_counter


def _nnz(rows):
    return sum(len(r) - r.count(0) for r in rows)


def _matrix_counts(M, ncols):
    if ncols is None:
        ncols = len(M[0]) if M else 0
    return len(M) * ncols, _nnz(M)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.colorings_inputs = set()

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self, args, kwargs, result)
            if parent >= 0:
                spans[parent][4] += clock() - span[3]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self):
        """Per span name: calls, total and self seconds; per layer: self
        seconds; plus the counters."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, self_s, layers = Counter(), Counter(), Counter()
        for i, (name, _, t0, t1, excl) in enumerate(self.spans):
            own = t1 - t0 - child[i] - excl
            total[name] += t1 - t0
            self_s[name] += own
            layers[name.split(".", 1)[0]] += own
        return {
            "total": dict(total),
            "self": dict(self_s),
            "layers": dict(layers),
            "counts": dict(self.counts),
            "colorings_distinct": len(self.colorings_inputs),
        }


def _count_a3(tracer, args, kwargs, report):
    if report.a3l and report.a3r:
        tracer.counts["algebra.check_a3.pass"] += 1


def _count_boundary_matrix(tracer, args, kwargs, M):
    cells, nnz = _matrix_counts(M, None)
    tracer.counts["homology.boundary_matrix.cells"] += cells
    tracer.counts["homology.boundary_matrix.nnz"] += nnz


def _count_matrix_arg(prefix, ncols_pos=1):
    """Counter of cells and nonzeros of a matrix passed as first argument,
    with its column count at position ``ncols_pos`` or keyword ``ncols``."""

    def count(tracer, args, kwargs, result):
        ncols = args[ncols_pos] if len(args) > ncols_pos else kwargs.get("ncols")
        cells, nnz = _matrix_counts(args[0], ncols)
        tracer.counts[prefix + ".cells"] += cells
        tracer.counts[prefix + ".nnz"] += nnz

    return count


def _count_solve(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["intlinalg.solve.hits"] += 1


def _count_colorings(tracer, args, kwargs, result):
    d, X = args[0], args[1]
    tracer.counts["diagram.colorings.found"] += len(result)
    tracer.colorings_inputs.add((d, X.t))


def _count_matched(tracer, args, kwargs, result):
    tracer.counts["diagram.matched.pairs"] += len(result)


def install(tracer):
    """Wrap every traced function of the loaded ``ktq`` package."""
    # the package re-exports the function homology(), which shadows the
    # submodule as an attribute of ktq, so modules come from import_module
    ktq = SimpleNamespace(**{
        name: importlib.import_module("ktq." + name)
        for name in ("algebra", "chains", "cli", "diagram", "homology", "intlinalg", "invariants")
    })
    snf_count = _count_matrix_arg("intlinalg.snf")
    hnf_count = _count_matrix_arg("intlinalg.column_hnf")
    kernel_mod_count = _count_matrix_arg("intlinalg.snf", ncols_pos=2)
    checker = ktq.homology.HomologyClassChecker
    solver = ktq.intlinalg.LatticeSolver
    # (span name, counter, [(owner, attribute), ...]); every attribute of one
    # entry must hold the same function object
    table = [
        ("algebra.parse", None, [(ktq.cli, "parse_algebra")]),
        ("algebra.classify", None, [(ktq.cli, "classify")]),
        ("algebra.enumerate", None, [(ktq.cli, "enumerate_ktqs")]),
        ("algebra.check_a3", _count_a3, [(ktq.algebra, "check_a3")]),
        ("algebra.canonical_form", None, [(ktq.algebra, "canonical_form")]),
        ("algebra.derive_divisions", None, [(ktq.algebra, "derive_divisions")]),
        ("chains.boundary_tuple", None,
         [(ktq.homology, "boundary_tuple"), (ktq.chains, "boundary_tuple")]),
        ("chains.boundary", None, [(ktq.homology, "boundary"), (ktq.diagram, "boundary")]),
        ("chains.relator_generators", None, [(ktq.homology, "relator_generators")]),
        ("homology.homology", None, [(ktq.cli, "homology")]),
        ("homology.boundary_matrix", _count_boundary_matrix, [(ktq.homology, "boundary_matrix")]),
        ("homology.relator_columns", None, [(ktq.homology, "relator_columns")]),
        ("homology.two_cocycles", None, [(ktq.cli, "two_cocycles")]),
        ("homology.checker_init", None, [(checker, "__init__")]),
        ("homology.checker_equal", None, [(checker, "equal")]),
        ("intlinalg.column_hnf", hnf_count, [(ktq.intlinalg, "column_hnf")]),
        ("intlinalg.lattice_basis", None, [(ktq.homology, "lattice_basis")]),
        ("intlinalg.kernel_int", None, [(ktq.homology, "kernel_int")]),
        ("intlinalg.cokernel", None, [(ktq.homology, "cokernel")]),
        ("intlinalg.snf", snf_count, [(ktq.intlinalg, "snf_diagonal")]),
        ("intlinalg.snf", snf_count, [(ktq.intlinalg, "smith_normal_form")]),
        ("intlinalg.snf", kernel_mod_count, [(ktq.intlinalg, "kernel_mod")]),
        ("intlinalg.solver_init", None, [(solver, "__init__")]),
        ("intlinalg.solve", _count_solve, [(solver, "solve")]),
        ("intlinalg.contains", None, [(solver, "contains")]),
        ("diagram.parse", None, [(ktq.cli, "parse_diagram")]),
        ("diagram.parse", None, [(ktq.cli, "parse_correspondence")]),
        ("diagram.colorings", _count_colorings,
         [(ktq.cli, "colorings"), (ktq.diagram, "colorings"), (ktq.invariants, "colorings")]),
        ("diagram.matched_colorings", _count_matched, [(ktq.invariants, "matched_colorings")]),
        ("diagram.associated_chain", None, [(ktq.invariants, "associated_chain")]),
        ("invariants.state_sum", None, [(ktq.invariants, "state_sum"), (ktq.cli, "state_sum")]),
        ("invariants.report", None, [(ktq.cli, "invariant_report")]),
    ]
    for name, count, targets in table:
        fns = {id(getattr(owner, attr)) for owner, attr in targets}
        if len(fns) != 1:
            raise RuntimeError("%s: patched names hold different functions" % name)
        traced = tracer.wrap(name, getattr(*targets[0]), count)
        for owner, attr in targets:
            setattr(owner, attr, traced)
