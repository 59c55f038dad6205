"""Per-layer tracing from outside the program.

The tracer replaces functions of the ``obg`` modules with wrappers that
record a span (name, start, end, parent) per call, plus counts taken
from the arguments and results at the same boundary.  It patches every
``obg`` module that binds the wrapped function object, so a name
imported into several modules (``solve_values`` into ``parity`` and
``obligations``, ``tarjan_scc`` into ``parity``, ``chains`` and
``obligations``) is traced wherever it is called from.  A function
missing from the program is reported as absent for the metrics that
need it and never fails the run, so private helpers can be renamed or
removed without touching the benchmark.

Spans are kept in memory; ``layer_metrics`` turns them into the
per-layer metrics, ``write_spans`` writes them out and ``reset`` starts
a new phase of recording.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# (module, function) -> optional hook(args, result) -> {counter: amount}
Hook = Optional[Callable[[tuple, Any], dict]]


def _linalg_sizes(args, result) -> dict:
    matrix, rhs = args[0], args[1]
    return {"linalg.dim": len(rhs),
            "linalg.nonzeros": sum(1 for row in matrix for entry in row if entry)}


def _monitor_nodes(args, result) -> dict:
    return {"chains.monitor_nodes": len(result.product.names)}


def _gamma_configs(args, result) -> dict:
    return {"obligations.gamma_configs": len(result[0].names)}


def _metset(args, result) -> dict:
    return {"obligations.metset_found": int(result is not None)}


def _witness_choices(args, result) -> dict:
    return {"parity.witness_choices": len(result.choices)}


def _product(args, result) -> dict:
    game = result[0]
    return {"pautomata.product_configs": len(game.names),
            "pautomata.product_obligations":
                sum(1 for ob in game.obligation if ob is not None)}


def _parse_bytes(args, result) -> dict:
    return {"io_formats.parse_bytes": len(args[0].encode("utf-8"))}


WRAPPED: dict[tuple[str, str], Hook] = {
    ("linalg", "solve_linear_system"): _linalg_sizes,
    ("chains", "reach_probability"): None,
    ("chains", "parity_measure"): None,
    ("chains", "min_priority_monitor_product"): _monitor_nodes,
    ("graphs", "tarjan_scc"): None,
    ("parity", "solve_values"): None,
    ("parity", "_pos_attr"): None,
    ("parity", "_sure_safe"): None,
    ("parity", "_as_region"): None,
    ("parity", "_initial_sigma"): None,
    ("parity", "_climb"): None,
    ("parity", "_best_response_values"): None,
    ("parity", "_mdp_max_reach"): None,
    ("parity", "_max_end_components"): None,
    ("parity", "_enumerate_side"): None,
    ("parity", "_canonical_strategy"): _witness_choices,
    ("model", "restrict_choice"): None,
    ("model", "dual_game"): None,
    ("obligations", "gamma_value"): None,
    ("obligations", "build_gamma_game"): _gamma_configs,
    ("obligations", "_feasible_assignment"): _metset,
    ("obligations", "find_odd_cycle"): None,
    ("obligations", "values_given_dependency"): None,
    ("pautomata", "build_product_game"): _product,
    ("pautomata", "accepts_layered"): None,
    ("pautomata", "_solve_class"): None,
    ("io_formats", "parse_game_document"): _parse_bytes,
    ("io_formats", "parse_chain_document"): _parse_bytes,
    ("io_formats", "parse_automaton_document"): _parse_bytes,
    ("io_formats", "parse_dependency_document"): _parse_bytes,
}

ATTRACTORS = ("parity._as_region", "parity._pos_attr", "parity._sure_safe")
# Metrics counting calls of one span made directly from another: absent
# when either is.  Every other metric is absent only when all it reads are.
PARENT_CHILD = ("parity.policy_evaluations", "parity.witness_resolves")
PARSERS = tuple(f"io_formats.{f}" for m, f in WRAPPED if m == "io_formats")

# Metrics of the work a traced round does after its timed calls (the
# layered p-automaton solve and the in-process CLI runs).  Every other
# metric describes the timed calls alone.
AFTER_CALLS = ("pautomata.layered_s", "pautomata.layered_classes",
               "io_formats.parse_s", "io_formats.parse_bytes")

# metric -> (unit, better, spans or counters it needs)
METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "linalg.calls": ("count", "lower", ("linalg.solve_linear_system",)),
    "linalg.dim_sum": ("count", "lower", ("linalg.solve_linear_system",)),
    "linalg.dim_max": ("count", "lower", ("linalg.solve_linear_system",)),
    "linalg.nonzeros": ("count", "lower", ("linalg.solve_linear_system",)),
    "linalg.self_s": ("s", "lower", ("linalg.solve_linear_system",)),
    "chains.reach_calls": ("count", "lower", ("chains.reach_probability",)),
    "chains.reach_self_s": ("s", "lower", ("chains.reach_probability",)),
    "chains.parity_measure_calls": ("count", "lower", ("chains.parity_measure",)),
    "chains.monitor_calls": ("count", "lower", ("chains.min_priority_monitor_product",)),
    "chains.monitor_nodes": ("count", "lower", ("chains.min_priority_monitor_product",)),
    "chains.monitor_s": ("s", "lower", ("chains.min_priority_monitor_product",)),
    "graphs.scc_calls": ("count", "lower", ("graphs.tarjan_scc",)),
    "graphs.scc_s": ("s", "lower", ("graphs.tarjan_scc",)),
    "parity.solve_values_calls": ("count", "lower", ("parity.solve_values",)),
    "parity.solve_values_distinct": ("count", "lower", ("parity.solve_values",)),
    "parity.solve_values_self_s": ("s", "lower", ("parity.solve_values",)),
    "parity.attractor_calls": ("count", "lower", ("parity._pos_attr", "parity._sure_safe")),
    "parity.attractor_s": ("s", "lower", ATTRACTORS),
    "parity.initial_sigma_s": ("s", "lower", ("parity._initial_sigma",)),
    "parity.best_responses": ("count", "lower", ("parity._best_response_values",)),
    "parity.climb_s": ("s", "lower", ("parity._climb",)),
    "parity.mdp_reach_s": ("s", "lower", ("parity._mdp_max_reach",)),
    "parity.policy_evaluations": ("count", "lower",
                                  ("parity._mdp_max_reach", "chains.reach_probability")),
    "parity.end_component_s": ("s", "lower", ("parity._max_end_components",)),
    "parity.enumerations": ("count", "lower", ("parity._enumerate_side",)),
    "parity.witness_s": ("s", "lower", ("parity._canonical_strategy",)),
    "parity.witness_resolves": ("count", "lower",
                                ("parity._canonical_strategy", "parity.solve_values")),
    "parity.witness_choices": ("count", "higher", ("parity._canonical_strategy",)),
    "model.restrict_choice_calls": ("count", "lower", ("model.restrict_choice",)),
    "model.dual_game_calls": ("count", "lower", ("model.dual_game",)),
    "obligations.gamma_calls": ("count", "lower", ("obligations.gamma_value",)),
    "obligations.gamma_distinct": ("count", "lower", ("obligations.gamma_value",)),
    "obligations.gamma_s": ("s", "lower", ("obligations.gamma_value",)),
    "obligations.gamma_configs": ("count", "lower", ("obligations.build_gamma_game",)),
    "obligations.metset_tries": ("count", "lower", ("obligations._feasible_assignment",)),
    "obligations.metset_found": ("count", "higher", ("obligations._feasible_assignment",)),
    "obligations.odd_cycle_calls": ("count", "lower", ("obligations.find_odd_cycle",)),
    "obligations.values_s": ("s", "lower", ("obligations.values_given_dependency",)),
    "pautomata.product_s": ("s", "lower", ("pautomata.build_product_game",)),
    "pautomata.product_configs": ("count", "lower", ("pautomata.build_product_game",)),
    "pautomata.product_obligations": ("count", "lower", ("pautomata.build_product_game",)),
    "pautomata.layered_s": ("s", "lower", ("pautomata.accepts_layered",)),
    "pautomata.layered_classes": ("count", "lower", ("pautomata._solve_class",)),
    "io_formats.parse_s": ("s", "lower", PARSERS),
    "io_formats.parse_bytes": ("count", "lower", PARSERS),
}


def _gamma_key(args):
    pairs = args[2] if len(args) > 2 else None
    if not isinstance(pairs, (set, frozenset, tuple, list)):
        return None
    return (args[0], args[1], frozenset(pairs))


DISTINCT: dict[str, Callable[[tuple], Any]] = {
    "parity.solve_values": lambda args: args[0] if args else None,
    "obligations.gamma_value": _gamma_key,
}

class Tracer:
    """Records spans and counts for the wrapped ``obg`` functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []          # [name id, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "obg" or name.startswith("obg."))]
        for (module_name, func), hook in WRAPPED.items():
            span = f"{module_name}.{func}"
            home = sys.modules.get(f"obg.{module_name}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrapper(span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrapper(self, span: str, original: Callable, hook: Hook) -> Callable:
        name_id = len(self.names)
        self.names.append(span)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        distinct = self.distinct[span] if span in DISTINCT else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if distinct is not None:
                key = DISTINCT[span](args)
                if key is not None:
                    distinct.add(key)
            if hook is not None:
                for counter, amount in hook(args, result).items():
                    self.counts[counter] += amount
                    self.maxima[counter] = max(self.maxima[counter], amount)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", span)
        return wrapper

    def reset(self) -> None:
        """Forget what was recorded; the wrappers stay installed."""
        assert not self._stack, "reset inside a traced call"
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        for keys in self.distinct.values():
            keys.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for name_id, start, end, parent in self.spans:
                out.write(f"[{name_id},{start:.9f},{end:.9f},{parent}]\n")

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of everything recorded, and the absent ones."""
        names, spans = self.names, self.spans
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        for i, (name_id, start, end, parent) in enumerate(spans):
            calls[names[name_id]] += 1
            if parent >= 0:
                child_time[parent] += end - start
        by_parent: dict[tuple[str, str], int] = defaultdict(int)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                by_parent[(names[spans[parent][0]], names[name_id])] += 1
        for i, (name_id, start, end, _) in enumerate(spans):
            self_time[names[name_id]] += end - start - child_time[i]

        def outer(group: tuple[str, ...]) -> float:
            """Wall time inside the group, nested calls counted once."""
            member = {i for i, n in enumerate(names) if n in group}
            inside = [False] * len(spans)
            total = 0.0
            for i, (name_id, start, end, parent) in enumerate(spans):
                covered = parent >= 0 and (inside[parent] or spans[parent][0] in member)
                inside[i] = covered
                if name_id in member and not covered:
                    total += end - start
            return total

        c = self.counts
        values = {
            "linalg.calls": calls["linalg.solve_linear_system"],
            "linalg.dim_sum": c["linalg.dim"],
            "linalg.dim_max": self.maxima["linalg.dim"],
            "linalg.nonzeros": c["linalg.nonzeros"],
            "linalg.self_s": self_time["linalg.solve_linear_system"],
            "chains.reach_calls": calls["chains.reach_probability"],
            "chains.reach_self_s": self_time["chains.reach_probability"],
            "chains.parity_measure_calls": calls["chains.parity_measure"],
            "chains.monitor_calls": calls["chains.min_priority_monitor_product"],
            "chains.monitor_nodes": c["chains.monitor_nodes"],
            "chains.monitor_s": outer(("chains.min_priority_monitor_product",)),
            "graphs.scc_calls": calls["graphs.tarjan_scc"],
            "graphs.scc_s": outer(("graphs.tarjan_scc",)),
            "parity.solve_values_calls": calls["parity.solve_values"],
            "parity.solve_values_distinct": len(self.distinct["parity.solve_values"]),
            "parity.solve_values_self_s": self_time["parity.solve_values"],
            "parity.attractor_calls": calls["parity._pos_attr"] + calls["parity._sure_safe"],
            "parity.attractor_s": outer(ATTRACTORS),
            "parity.initial_sigma_s": outer(("parity._initial_sigma",)),
            "parity.best_responses": calls["parity._best_response_values"],
            "parity.climb_s": outer(("parity._climb",)),
            "parity.mdp_reach_s": outer(("parity._mdp_max_reach",)),
            "parity.policy_evaluations":
                by_parent[("parity._mdp_max_reach", "chains.reach_probability")],
            "parity.end_component_s": outer(("parity._max_end_components",)),
            "parity.enumerations": calls["parity._enumerate_side"],
            "parity.witness_s": outer(("parity._canonical_strategy",)),
            "parity.witness_resolves":
                by_parent[("parity._canonical_strategy", "parity.solve_values")],
            "parity.witness_choices": c["parity.witness_choices"],
            "model.restrict_choice_calls": calls["model.restrict_choice"],
            "model.dual_game_calls": calls["model.dual_game"],
            "obligations.gamma_calls": calls["obligations.gamma_value"],
            "obligations.gamma_distinct": len(self.distinct["obligations.gamma_value"]),
            "obligations.gamma_s": outer(("obligations.gamma_value",)),
            "obligations.gamma_configs": c["obligations.gamma_configs"],
            "obligations.metset_tries": calls["obligations._feasible_assignment"],
            "obligations.metset_found": c["obligations.metset_found"],
            "obligations.odd_cycle_calls": calls["obligations.find_odd_cycle"],
            "obligations.values_s": outer(("obligations.values_given_dependency",)),
            "pautomata.product_s": outer(("pautomata.build_product_game",)),
            "pautomata.product_configs": c["pautomata.product_configs"],
            "pautomata.product_obligations": c["pautomata.product_obligations"],
            "pautomata.layered_s": outer(("pautomata.accepts_layered",)),
            "pautomata.layered_classes": calls["pautomata._solve_class"],
            "io_formats.parse_s": outer(PARSERS),
            "io_formats.parse_bytes": c["io_formats.parse_bytes"],
        }
        missing = set(self.absent)
        absent = sorted(
            metric for metric, (_, _, needs) in METRICS.items()
            if (any if metric in PARENT_CHILD else all)(n in missing for n in needs))
        for metric in absent:
            values[metric] = 0
        return values, absent

