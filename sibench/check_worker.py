"""One batch checking process: ``check_worker.py --trace 0|1 HISTORY``.

Started by ``batch.py`` once per input history, so each check runs in a
fresh process whose peak resident set is that check's alone.  It prints
two JSON lines: ``{"ready": true}`` once the checker is imported and the
history is loaded (the batch restart-to-ready point), then its result.

``--trace 0`` times ``repro.check`` from history file to ``Report``.
``--trace 1`` loads and checks through the façade once, then runs the
pipeline's public functions one by one, timing each layer, and requires
the staged run to reach the façade's verdict with the same counts.
"""

import argparse
import json
import sys
import time

import repro
from repro.api import adapt_result
from repro.core.axioms import check_axioms
from repro.core.checker import CheckResult, static_induced_cycle
from repro.core.encoding import encode_polygraph
from repro.core.polygraph import build_polygraph
from repro.core.pruning import prune_constraints
from repro.histories.codec import load_history
from repro.utils.closure import resolve_closure_backend
from repro.utils.reachability import transitive_closure_bits

from common import vm_hwm_mb


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def _counts(report) -> dict:
    solver = report.stats.get("solver", {})
    pruning = report.stats.get("pruning", {})
    return {"verdict": report.verdict, "decided_by": report.decided_by,
            "decisions": solver.get("decisions", 0),
            "pruned": pruning.get("pruned", 0)}


def facade_check(path: str) -> dict:
    t0 = time.perf_counter()
    history = load_history(path)
    report = repro.check(history, trace=False)
    check_s = time.perf_counter() - t0
    return {"check_s": check_s, "txns": len(history), **_counts(report)}


def staged_check(path: str) -> dict:
    """The batch pipeline layer by layer, as ``PolySIChecker.check`` runs
    it, ending in the façade's ``adapt_result``."""
    layers = {}

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        layers[name] = time.perf_counter() - t0
        return out

    history = timed("codec.load_s", load_history, path)
    result = CheckResult()
    backend = resolve_closure_backend(None).name
    result.stats["closure_backend"] = backend
    anomalies = timed("axioms.time_s", check_axioms, history)
    graph = None
    if anomalies:
        result.satisfies_si, result.decided_by = False, "axioms"
        result.anomalies = anomalies
    else:
        t0 = time.perf_counter()
        graph, anomalies = build_polygraph(history, compact=True)
        result.polygraph = graph.copy()
        layers["polygraph.build_s"] = time.perf_counter() - t0
        layers["polygraph.vertices"] = graph.num_vertices
        layers["polygraph.constraints"] = len(graph.constraints)
        if anomalies:
            result.satisfies_si, result.decided_by = False, "axioms"
            result.anomalies = anomalies
            graph = None
    if graph is not None:
        _staged_cycles(graph, result, backend, timed, layers)
    report = timed("api.adapt_s", adapt_result, result, isolation="si",
                   mode="batch", engine="polysi")
    return {"layers": layers, **_counts(report)}


def _staged_cycles(graph, result, backend, timed, layers) -> None:
    """Prune, decompose, encode and solve (``check_polygraph``)."""
    prune = timed("pruning.time_s", prune_constraints, graph,
                  closure=transitive_closure_bits, backend=backend)
    result.prune_result = prune
    layers["pruning.iterations"] = prune.iterations
    layers["pruning.resolved_ratio"] = (
        prune.pruned / prune.constraints_before
        if prune.constraints_before else 0.0)
    layers["pruning.constraints_left"] = prune.constraints_after
    if not prune.ok:
        result.satisfies_si, result.decided_by = False, "pruning"
        result.cycle = prune.violation_cycle
        return

    t0 = time.perf_counter()
    components, constraints_of = graph.constrained_components()
    constrained = [bool(cons) for cons in constraints_of]
    layers["polygraph.solver_components"] = constrained.count(True)
    cycle = None
    if False in constrained:
        pure, _ = graph.subgraph([v for ci, comp in enumerate(components)
                                  if not constrained[ci] for v in comp])
        cycle = static_induced_cycle(pure)
    enc_graph = graph
    if cycle is None and graph.constraints and False in constrained:
        enc_graph, _ = graph.subgraph([
            v for ci, comp in enumerate(components)
            if constrained[ci] for v in comp])
    layers["polygraph.decompose_s"] = time.perf_counter() - t0
    if cycle is not None:
        result.satisfies_si, result.decided_by = False, "encoding"
        return
    if not graph.constraints:
        result.decided_by = "static"
        return

    encoding = timed("encoding.time_s", encode_polygraph, enc_graph)
    size = encoding.stats()
    layers["encoding.vars"] = size["vars"]
    layers["encoding.clauses"] = size["clauses"]
    if encoding.static_cycle:
        result.satisfies_si, result.decided_by = False, "encoding"
        return
    acyclic = timed("solver.time_s", encoding.solver.solve)
    stats = encoding.solver.stats.as_dict()
    result.solver_stats = stats
    for name in ("decisions", "conflicts", "propagations"):
        layers[f"solver.{name}"] = stats[name]
    result.satisfies_si, result.decided_by = acyclic, "solving"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("history")
    args = parser.parse_args()
    load_history(args.history)
    _emit({"ready": True})
    if not args.trace:
        out = facade_check(args.history)
        out["peak_rss_mb"] = vm_hwm_mb()
        _emit(out)
        return 0
    facade = facade_check(args.history)
    t0 = time.perf_counter()
    staged = staged_check(args.history)
    staged["staged_s"] = time.perf_counter() - t0
    staged["facade"] = facade
    _emit(staged)
    return 0


if __name__ == "__main__":
    sys.exit(main())
