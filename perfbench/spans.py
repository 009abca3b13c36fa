"""Span recorder for the traced benchmark pass.

``Recorder.install`` wraps the public functions listed in ``TIMED`` in every
loaded ``principal_subspaces`` module that holds them.  Patching only the
defining module would miss calls made through names imported with
``from .linalg import rank`` and the like, so each module attribute that *is*
the original function is replaced.  The program itself is not modified.

A span is ``[name, start_ns, end_ns, parent, run_id, counts]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``run_id`` numbers the
``cli.main`` calls of one process, and ``counts`` holds numbers read from the
call's arguments and return value only, never from private program state.
Spans stay in memory until ``dump``, which writes them together with the
recorder's own cost per span (``span_cost_ns``); ``layer_metrics`` turns that
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "principal_subspaces"
TIMED = {
    "cli": ("main",),
    "verify": ("eval_matrix", "piece_report", "oracle_weight_total"),
    "fock": ("apply_monomial", "check_square_zero"),
    "linalg": ("rref", "kernel_basis", "span_dim", "rank", "subspace_leq"),
    "relations": ("ideal_piece",),
    "poly": ("enumerate_monomials", "coordinates"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rref_counts(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    return [m.n_rows * m.n_cols, len(result.matrix.entries)]


def _eval_matrix_counts(args, kwargs, result):
    piece = [_arg(args, kwargs, i, n) for i, n in enumerate(("tag", "weight", "charge"))]
    return [piece, len(result.entries)]


# name -> function of (args, kwargs, result) giving the span's counts
COUNTERS = {
    "linalg.rref": _rref_counts,
    "verify.eval_matrix": _eval_matrix_counts,
    "relations.ideal_piece": lambda args, kwargs, result: [len(result)],
    "verify.piece_report": lambda args, kwargs, result: [result.dim_ideal_piece],
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._open = -1

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._open
            span = [name, 0, 0, parent, self.run_id, None]
            self._open = len(self.spans)
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open = parent
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module_name, function_names in TIMED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for function_name in function_names:
                original = getattr(home, function_name)
                timed = self.wrap(f"{module_name}.{function_name}", original)
                for module in modules:
                    if getattr(module, function_name, None) is original:
                        setattr(module, function_name, timed)

    def dump(self, path: str) -> None:
        trace = {"span_ns": span_cost_ns(), "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, separators=(",", ":"))


def _noop():
    return None


def span_cost_ns(calls: int = 50_000, repeats: int = 5) -> float:
    """What recording one span adds to a call, in ns: the fastest of
    ``repeats`` loops of ``calls`` calls to a wrapped no-op, minus the fastest
    such loop of the bare no-op, per call.  Timed in the traced process right
    after its work, so a host that runs slower or faster at the time moves
    both the cost and the work it is compared with."""
    best = {"bare": float("inf"), "wrapped": float("inf")}
    for _ in range(repeats):
        for kind in best:
            fn = _noop if kind == "bare" else Recorder().wrap("noop", _noop)
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            best[kind] = min(best[kind], time.perf_counter_ns() - start)
    return max(best["wrapped"] - best["bare"], 0) / calls


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no such work on this workload."""
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one process's ``dump``.

    Self time is a span's duration minus the durations of its direct child
    spans, which the call stack nests inside it.  ``trace.overhead_frac`` is
    traced over untraced time, minus 1, where the traced time is that of the
    top-level spans (the ``cli.main`` calls) and the untraced time is that
    minus ``span_ns`` for every span recorded.
    """
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = {f"{m}.{f}": 0 for m, fs in TIMED.items() for f in fs}
    self_ns = dict.fromkeys(calls, 0)
    cells_in = nnz_out = matrix_nnz = polys = 0
    pieces = set()
    dim_ideal = piece_polys = 0
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if name == "linalg.rref":
            cells_in += counts[0]
            nnz_out += counts[1]
        elif name == "verify.eval_matrix":
            pieces.add(tuple(counts[0]))
            matrix_nnz += counts[1]
        elif name == "relations.ideal_piece":
            polys += counts[0]
            if parent >= 0 and spans[parent][0] == "verify.piece_report":
                piece_polys += counts[0]
        elif name == "verify.piece_report":
            dim_ideal += counts[0]

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out["linalg.rref.cells_in"] = cells_in
    out["linalg.rref.fill_out"] = _ratio(nnz_out, cells_in)
    out["verify.eval_matrix.nnz"] = matrix_nnz
    out["verify.eval_matrix.distinct_frac"] = _ratio(len(pieces), calls["verify.eval_matrix"])
    out["relations.ideal_piece.polys"] = polys
    out["relations.ideal_piece.useful_frac"] = _ratio(dim_ideal, piece_polys)
    traced_ns = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)
    overhead_ns = len(spans) * trace["span_ns"]
    out["trace.overhead_frac"] = _ratio(overhead_ns, traced_ns - overhead_ns)
    return out
