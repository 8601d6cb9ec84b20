"""Spans and per-layer counters for the benchmark's traced run.

Spans are recorded from the benchmark's side of each layer boundary.
While a traced pass runs, every entry point in :data:`ENTRY_POINTS` is
replaced by a thin wrapper, in each loaded ``repro`` module that holds a
reference to it, and the originals are put back afterwards.  A span
holds its name, layer, start, end, parent span and unit id; spans stay
in memory until the run ends.

A layer's self time is the time its spans cover minus the time their
child spans cover.  The pass itself is the root span (layer ``bench``),
so the self times of all layers add up to the traced pass's wall time.
Work done inside pool workers is not spanned: the parent sees it as
time spent waiting in the ``campaign`` layer, and the workers' share of
each layer comes from the counter deltas the orchestrator ships home.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute, layer, units)``: the entry points spanned in a
#: traced pass.  ``units`` (optional) maps a call's arguments to a count
#: added to the layer counter named after the entry point.
ENTRY_POINTS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.experiments.engine", "SweepRunner.run", "experiments", None),
    ("repro.optimize.evaluate", "evaluate_cell", "optimize", None),
    ("repro.optimize.pareto", "pareto_frontier", "optimize", None),
    ("repro.optimize.pareto", "classify_fallbacks", "optimize", None),
    ("repro.optimize.pareto", "recommend_policy", "optimize", None),
    ("repro.analytic.capacity", "capacity_distribution", "capacity", None),
    ("repro.analytic.capacity", "capacity_distribution_expanded", "capacity", None),
    ("repro.analytic.capacity", "capacity_distribution_exponential", "capacity", None),
    ("repro.analytic.capacity", "capacity_transient", "capacity", None),
    ("repro.analytic.capacity", "capacity_cross_check", "capacity", None),
    ("repro.analytic.capacity", "expanded_capacity_summary", "capacity", None),
    ("repro.analytic.capacity", "assemble_capacity_topology", "capacity", None),
    ("repro.analytic.capacity", "capacity_distribution_simulated", "montecarlo", None),
    ("repro.analytic.qos_model", "conditional_distribution", "qos_model", None),
    ("repro.analytic.qos_model", "conditional_distribution_general", "qos_model", None),
    ("repro.simulation.qos_montecarlo", "simulate_conditional_distribution", "montecarlo", None),
    ("repro.simulation.qos_montecarlo", "simulate_conditional_distribution_protocol", "montecarlo", None),
    ("repro.simulation.plane_process", "simulate_capacity_distribution", "montecarlo", None),
    ("repro.simulation.vector", "sample_levels_vector", "vector", None),
    ("repro.simulation.batch", "ScenarioTemplate.__init__", "batch", None),
    (
        "repro.simulation.batch",
        "ScenarioTemplate.sample_levels",
        "batch",
        # Scalar runs only: the vector engine's rows are counted by
        # vector_batch_stats().
        lambda args, kwargs: len(args[2]) if kwargs.get("engine", "batch") == "batch" else 0,
    ),
    ("repro.simulation.batch", "ScenarioTemplate.replicate", "batch", None),
    ("repro.simulation.batch", "Replication.run", "batch", lambda args, kwargs: 1),
    ("repro.simulation.batch", "Replication.run_level", "batch", lambda args, kwargs: 1),
    ("repro.protocol.runner", "CenterlineScenario.run", "batch", lambda args, kwargs: 1),
    ("repro.faults.campaign", "Campaign.run", "faults", None),
    # The campaign's row function: per-seed probe draws, failure_times
    # and StalePeerView, around the batch layer's replicate/run.
    ("repro.faults.campaign", "_evaluate_batch", "faults", None),
    ("repro.campaign.orchestrator", "CampaignRunner.run", "campaign", None),
    ("repro.scenarios.generator", "generate_corpus", "scenarios", None),
    ("repro.scenarios.runner", "run_corpus", "scenarios", None),
    ("repro.scenarios.runner", "run_case", "scenarios", None),
]

#: Layers reported as ``self.<layer>_s``; ``bench`` is the benchmark's
#: own code between calls into the program.
LAYERS = (
    "bench",
    "experiments",
    "optimize",
    "capacity",
    "qos_model",
    "montecarlo",
    "vector",
    "batch",
    "faults",
    "campaign",
    "scenarios",
)

#: Spans that start a unit of work (a design cell, a protocol cell, a
#: campaign batch, a paper section): each span's unit id is the index of
#: the nearest such span enclosing it, or -1 outside any.
UNIT_SPANS = ("evaluate_cell", "simulate_conditional_distribution_protocol", "_evaluate_batch", "section")

#: Modules whose references to the entry points are replaced.
_HOLDERS = ("repro", "workloads")

#: Entry points whose return values the per-layer metrics read.
_CAPTURED = ("CampaignRunner.run",)


class Tracer:
    """In-memory span recorder (single-threaded: the benchmark's parent
    process makes every spanned call from its main thread)."""

    def __init__(self) -> None:
        # [name, layer, start, end, parent index, unit id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.captured: Dict[str, list] = defaultdict(list)

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name in UNIT_SPANS:
            unit = index
        else:
            unit = self.spans[parent][5] if parent >= 0 else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, unit])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, layer: str, units: Optional[Callable]):
        tracer = self
        capture = name in _CAPTURED

        def traced(*args, **kwargs):
            if units is not None:
                tracer.counts[name] += units(args, kwargs)
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if capture:
                tracer.captured[name].append(result)
            return result

        # Keep the original's identity attributes so pickling by
        # reference (pool row functions) still resolves.
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per layer not covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for index, (name, layer, start, end, parent, unit) in enumerate(self.spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[index]
        return totals

    def inclusive(self, *names: str) -> float:
        """Seconds inside spans of ``names``, counting nested spans of
        those names once."""
        wanted = set(names)
        total = 0.0
        for name, layer, start, end, parent, unit in self.spans:
            if name not in wanted:
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] not in wanted:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                total += end - start
        return total

    def calls(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for span in self.spans if span[0] in wanted)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace every entry point by its traced wrapper for the duration
    of the block; the originals are restored on exit."""
    patches = []
    try:
        for module_name, path, layer, units in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = tracer.wrap(original, path, layer, units)
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(original, path, layer, units)
            # Every module that imported the function by name holds its
            # own reference, the benchmark's workloads included; replace
            # each of them.
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith(_HOLDERS):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
CORPUS_FAMILIES = (
    "duration-models",
    "fault-mix",
    "small-exact",
    "spare-policy",
    "walker-reference",
    "walker-scale",
)

#: Experiment ids of the ``paper-full`` sections, in run order.
SECTIONS = (
    "table1", "eq2-M", "text-4.3", "fig7", "fig8", "fig9", "tau-sweep",
    "mu-sweep", "robustness", "aging", "multiplane", "mc-validate",
    "mc-validate-capacity", "protocol", "geoloc", "orbits",
    "orbits-latitude", "ablation-phases", "scaled-capacity",
    "calibration", "faults", "corpus",
)

#: Every per-layer metric and its unit; workloads that do not touch a
#: layer report 0 for it.
PER_LAYER = {
    "capacity.assemble_s": "s",
    "capacity.refine_s": "s",
    "capacity.quotient_s": "s",
    "capacity.rerate_s": "s",
    "capacity.solve_s": "s",
    "capacity.transient_s": "s",
    "capacity.solves": "count",
    "capacity.topology_builds": "count",
    "capacity.topology_hit_ratio": "ratio",
    "capacity.unfold_builds": "count",
    "capacity.gmres_iterations_per_solve": "count",
    "capacity.warm_start_ratio": "ratio",
    "capacity.solver_fallbacks": "count",
    "capacity.structure_fallbacks": "count",
    "qos_model.conditional_s": "s",
    "qos_model.general_s": "s",
    "qos_model.calls": "count",
    "vector.s": "s",
    "vector.fallback_s": "s",
    "vector.replications": "count",
    "vector.fallback_fraction": "ratio",
    "vector.replications_per_busy_s": "1/s",
    "batch.template_s": "s",
    "batch.replicate_s": "s",
    "batch.run_s": "s",
    "batch.runs": "count",
    "faults.evaluate_s": "s",
    "campaign.chunks": "count",
    "campaign.submissions": "count",
    "campaign.stolen": "count",
    "campaign.retried": "count",
    "campaign.duplicate_ratio": "ratio",
    "campaign.worker_busy_ratio": "ratio",
    "campaign.journal_records": "count",
    "campaign.journal_bytes": "bytes",
    "optimize.evaluate_s": "s",
    "optimize.pareto_s": "s",
    **{f"corpus.{family}_s": "s" for family in CORPUS_FAMILIES},
    **{f"section.{section}_s": "s" for section in SECTIONS},
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "process.import_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def sample_counters() -> dict:
    """The program's own cumulative counters (zeroed at pass start)."""
    from repro.analytic.capacity import (
        capacity_cache_stats,
        capacity_solver_stats,
        capacity_stage_timings,
    )
    from repro.simulation.batch import batch_stage_timings
    from repro.simulation.vector import vector_batch_stats

    return {
        "stage": capacity_stage_timings(),
        "solver": capacity_solver_stats(),
        "cache": {
            name: {"hits": stats.hits, "misses": stats.misses}
            for name, stats in capacity_cache_stats().items()
        },
        "batch": batch_stage_timings(),
        "vector": vector_batch_stats(),
    }


def _add_worker_counters(counters: dict, campaigns: list) -> None:
    """Fold the counter deltas pool workers shipped home into the
    parent's (inline chunks are already in the parent's counters)."""
    for result in campaigns:
        for kind, values in (
            ("stage", result.worker_stage_timings()),
            ("batch", result.worker_batch_timings()),
            ("solver", result.worker_counter_sums("solver_stats")),
            ("vector", result.worker_counter_sums("vector_stats")),
        ):
            for key, value in values.items():
                counters[kind][key] = counters[kind].get(key, 0) + value
        for chunk in result.chunks:
            if chunk.in_worker:
                for name, delta in chunk.cache_deltas.items():
                    bucket = counters["cache"].setdefault(name, {"hits": 0, "misses": 0})
                    for key in ("hits", "misses"):
                        bucket[key] += delta.get(key, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters: dict, extras: dict) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: {value, unit}}``."""
    campaigns = tracer.captured["CampaignRunner.run"]
    _add_worker_counters(counters, campaigns)
    stage, solver, batch, vector = (counters[k] for k in ("stage", "solver", "batch", "vector"))
    assemble = counters["cache"].get("assemble", {"hits": 0, "misses": 0})
    solves = solver.get("direct", 0) + solver.get("iterative", 0)
    replications = vector.get("replications", 0)
    self_times = tracer.self_times()

    worker_rows_s = sum(c.seconds for r in campaigns for c in r.chunks if c.in_worker)
    worker_batch_s = sum(
        c.batch_timings.get(k, 0.0)
        for r in campaigns
        for c in r.chunks
        if c.in_worker
        for k in ("template", "replicate", "run", "vector", "vector_fallback")
    )
    chunks = sum(r.stats["chunks"] for r in campaigns)
    submissions = sum(r.stats["submissions"] for r in campaigns)
    pool_capacity = sum(
        r.stats["workers"] * (end - start)
        for r, (start, end) in zip(
            campaigns,
            [(s[2], s[3]) for s in tracer.spans if s[0] == "CampaignRunner.run"],
        )
    )

    values = {name: 0.0 for name in PER_LAYER}
    values.update(
        {
            "capacity.assemble_s": stage.get("assemble", 0.0),
            "capacity.refine_s": stage.get("refine", 0.0),
            "capacity.quotient_s": stage.get("quotient", 0.0),
            "capacity.rerate_s": stage.get("rerate", 0.0),
            "capacity.solve_s": stage.get("solve", 0.0),
            "capacity.transient_s": tracer.inclusive("capacity_transient"),
            "capacity.solves": solves,
            "capacity.topology_builds": assemble["misses"],
            "capacity.topology_hit_ratio": _ratio(assemble["hits"], assemble["hits"] + assemble["misses"]),
            "capacity.unfold_builds": counters["cache"].get("unfold", {}).get("misses", 0),
            "capacity.gmres_iterations_per_solve": _ratio(solver.get("gmres_iterations", 0), solves),
            "capacity.warm_start_ratio": _ratio(solver.get("warm_started", 0), solves),
            "capacity.solver_fallbacks": solver.get("solver_fallbacks", 0),
            "capacity.structure_fallbacks": solver.get("structure_fallbacks", 0),
            "qos_model.conditional_s": tracer.inclusive("conditional_distribution"),
            "qos_model.general_s": tracer.inclusive("conditional_distribution_general"),
            "qos_model.calls": tracer.calls("conditional_distribution", "conditional_distribution_general"),
            "vector.s": batch.get("vector", 0.0),
            "vector.fallback_s": batch.get("vector_fallback", 0.0),
            "vector.replications": replications,
            "vector.fallback_fraction": _ratio(vector.get("fallbacks", 0), replications),
            "vector.replications_per_busy_s": _ratio(replications, batch.get("vector", 0.0)),
            "batch.template_s": batch.get("template", 0.0),
            "batch.replicate_s": batch.get("replicate", 0.0),
            "batch.run_s": batch.get("run", 0.0),
            "batch.runs": sum(
                tracer.counts[name]
                for name in ("ScenarioTemplate.sample_levels", "Replication.run", "Replication.run_level", "CenterlineScenario.run")
            ),
            # The faults layer's own time: in the parent its self time,
            # in pool workers the row time left after the batch stages.
            "faults.evaluate_s": self_times.get("faults", 0.0) + worker_rows_s - worker_batch_s,
            "campaign.chunks": chunks,
            "campaign.submissions": submissions,
            "campaign.stolen": sum(r.stats["stolen"] for r in campaigns),
            "campaign.retried": sum(r.stats["retried"] for r in campaigns),
            "campaign.duplicate_ratio": _ratio(submissions - chunks, submissions),
            "campaign.worker_busy_ratio": _ratio(worker_rows_s, pool_capacity),
            "optimize.evaluate_s": tracer.inclusive("evaluate_cell"),
            "optimize.pareto_s": tracer.inclusive("pareto_frontier", "classify_fallbacks", "recommend_policy"),
        }
    )
    values.update({f"self.{layer}_s": seconds for layer, seconds in self_times.items()})
    values.update(extras)
    return {name: {"value": value, "unit": PER_LAYER.get(name, "s")} for name, value in values.items()}
