"""The benchmark's workloads: inputs, one timed pass, output checks.

Each workload builds its inputs once (:meth:`Workload.build`, the part
``setup_s`` times after ``import repro``), then runs passes of
identical work (:meth:`Workload.run_pass`), each from cold program
caches.  :meth:`Workload.check` compares a pass's outputs with the
references under ``perfbench/refs`` (written by ``make_refs.py``) and
returns the units that failed.  Statistical checks hold each pass to a
family-wise false-alarm rate of :data:`ALPHA`, split evenly over the
pass's interval tests, so a correct engine that draws its randomness
differently still passes.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.experiments import optimize_exp
from repro.experiments.report import _format_value
from repro.faults.campaign import Campaign
from repro.faults.stats import wilson_interval
from repro.faults.validation import fail_silent_reference
from repro.optimize.design import design_grid
from repro.optimize.pareto import classify_fallbacks
from repro.simulation.batch import ScenarioTemplate
from repro.simulation.qos_montecarlo import (
    draw_signal_variates,
    simulate_conditional_distribution_protocol,
)
from repro.simulation.vector import draw_protocol_tapes, scalar_reference_levels

REFS = Path(__file__).resolve().parent / "refs"

#: Family-wise false-alarm rate of one pass's statistical checks.
ALPHA = 1e-4

#: Slack for interval endpoints that are exactly 0 or 1 in theory.
EPS = 1e-12

LEVELS = (QoSLevel.SINGLE, QoSLevel.SEQUENTIAL_DUAL, QoSLevel.SIMULTANEOUS_DUAL)

Span = Callable[[str, str], contextlib.AbstractContextManager]


def no_span(name: str, layer: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def load_ref(name: str) -> dict:
    with open(REFS / name) as handle:
        return json.load(handle)


def wilson(successes: int, trials: int, tests: int):
    return wilson_interval(successes, trials, confidence=1.0 - ALPHA / tests)


def contains(interval, value: float) -> bool:
    return interval.low - EPS <= value <= interval.high + EPS


def overlaps(a, b) -> bool:
    return a.low - EPS <= b.high and b.low - EPS <= a.high


def at_least_counts(counts: Sequence[int]) -> List[int]:
    """``[#(Y >= 1), #(Y >= 2), #(Y >= 3)]`` from per-level counts 0..3."""
    return [sum(counts[level:]) for level in (1, 2, 3)]


class Workload:
    """One named workload.  ``seeded`` says whether ``--seed`` changes
    the inputs; ``unit`` names what ``units_per_s`` counts."""

    name = ""
    seeded = True
    unit = ""

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        """Build the inputs every pass reuses."""

    def units(self) -> int:
        """Units one pass attempts."""
        raise NotImplementedError

    def run_pass(self, scratch: Path, span: Span = no_span):
        """Run the workload once; returns its outputs."""
        raise NotImplementedError

    def check(self, outputs) -> Tuple[int, List[str]]:
        """Failed units of one pass, with a message per failure."""
        raise NotImplementedError

    def post_check(self) -> Tuple[int, int, List[str]]:
        """Checks run once, outside the timed passes: ``(attempted,
        failed, messages)``."""
        return 0, 0, []

    def layer_extras(self, outputs) -> Dict[str, float]:
        """Per-layer values only this workload's outputs carry."""
        return {}


# ----------------------------------------------------------------------
class OptimizeGrid(Workload):
    """Whole topology groups of ``design_grid(scales=(1,))`` through
    ``optimize_exp.run(stages=6, n_jobs=1)``."""

    name = "optimize-grid"
    seeded = False
    unit = "design cells"

    #: One group per policy kind, all with two in-orbit spares; the
    #: threshold group is one whose GMRES solves fall back (explained)
    #: to the direct solver.
    GROUPS = (
        (1, 14, 2, "combined", 10, True),
        (1, 14, 2, "scheduled", 10, True),
        (1, 14, 2, "threshold", 8, True),
    )
    STAGES = 6
    FIELDS = ("expected_k", "availability", "qos_alert", "cost")
    TOLERANCE = 1e-9

    def build(self) -> None:
        self.cells = [
            cell
            for cell in design_grid(scales=(1,))
            if cell.topology_group() in self.GROUPS
        ]

    def units(self) -> int:
        return len(self.cells)

    def run_pass(self, scratch: Path, span: Span = no_span):
        with span("optimize_exp.run", "experiments"):
            result = optimize_exp.run(cells=self.cells, stages=self.STAGES, n_jobs=1)
        return result.metadata["cells"]

    @staticmethod
    def cell_key(row) -> str:
        return "|".join(
            repr(row[field])
            for field in ("spares", "policy", "eta", "phi_hours", "latency_hours", "lambda", "rho")
        )

    def check(self, rows) -> Tuple[int, List[str]]:
        reference = load_ref("optimize_grid.json")["cells"]
        if len(rows) != len(reference):
            return len(self.cells), [f"{len(rows)} rows, expected {len(reference)}"]
        failed: Dict[int, str] = {}
        for index, (row, expected) in enumerate(zip(rows, reference)):
            if self.cell_key(row) != expected["key"]:
                failed[index] = f"cell {index}: {self.cell_key(row)} != {expected['key']}"
                continue
            for field in self.FIELDS:
                # Written so that NaN fails.
                if not abs(row[field] - expected[field]) <= self.TOLERANCE:
                    failed[index] = (
                        f"cell {index} {field}: {row[field]!r} != {expected[field]!r}"
                    )
        for entry in classify_fallbacks(rows)["unexplained"]:
            failed.setdefault(entry["cell"], f"cell {entry['cell']}: {entry['reason']}")
        return len(failed), list(failed.values())


# ----------------------------------------------------------------------
class ProtocolMC(Workload):
    """``simulate_conditional_distribution_protocol(engine="vector")``
    for k = 8..16 x {OAQ, BAQ} x two deadlines, 10^6 replications per
    cell, per-cell seeds derived from the workload seed."""

    name = "protocol-mc"
    unit = "protocol replications"

    #: The reference deadline, and a longer one that deepens the tapes.
    DEADLINES = (5.0, 15.0)
    CAPACITIES = tuple(range(8, 17))
    SCHEMES = (Scheme.OAQ, Scheme.BAQ)
    REPLICATIONS = 1_000_000
    #: Cells compared row by row with the scalar oracle after the timed
    #: passes: both branches, both schemes, both deadlines.
    SUBSET = ((5.0, 9, Scheme.OAQ), (5.0, 12, Scheme.OAQ), (15.0, 10, Scheme.OAQ), (15.0, 13, Scheme.BAQ))
    SUBSET_ROWS = 400

    def build(self) -> None:
        self.cells = []
        for deadline in self.DEADLINES:
            params = EvaluationParams(deadline_minutes=deadline)
            for k in self.CAPACITIES:
                geometry = params.constellation.plane_geometry(k)
                for scheme in self.SCHEMES:
                    self.cells.append((deadline, k, scheme, params, geometry))
        states = np.random.SeedSequence(self.seed).generate_state(len(self.cells), dtype=np.uint64)
        self.seeds = [int(state) for state in states]

    def units(self) -> int:
        return len(self.cells) * self.REPLICATIONS

    def run_pass(self, scratch: Path, span: Span = no_span):
        counts = []
        for (deadline, k, scheme, params, geometry), seed in zip(self.cells, self.seeds):
            distribution = simulate_conditional_distribution_protocol(
                geometry, params, scheme, samples=self.REPLICATIONS, seed=seed, engine="vector"
            )
            counts.append(
                [round(distribution.at_least(level) * self.REPLICATIONS) for level in LEVELS]
            )
        return counts

    @staticmethod
    def closed_form_exact(scheme: Scheme, geometry, level: QoSLevel) -> bool:
        """The closed forms neglect crosslink delay and computation time,
        which only enter OAQ's coordination chain on underlapping planes
        (level 2); there the committed reference alone applies."""
        return not (
            scheme is Scheme.OAQ and not geometry.overlapping and level is QoSLevel.SEQUENTIAL_DUAL
        )

    def check(self, counts) -> Tuple[int, List[str]]:
        if len(counts) != len(self.cells):
            return self.units(), [f"{len(counts)} cells, expected {len(self.cells)}"]
        reference = load_ref("protocol_mc.json")
        tests = 2 * len(self.cells) * len(LEVELS)
        messages: Dict[int, str] = {}
        for index, ((deadline, k, scheme, params, geometry), cell_counts, expected) in enumerate(
            zip(self.cells, counts, reference["cells"])
        ):
            where = f"deadline={deadline} k={k} {scheme.name}"
            if (expected["deadline"], expected["k"], expected["scheme"]) != (deadline, k, scheme.name):
                messages[index] = f"{where}: reference is for another cell"
                continue
            closed = conditional_distribution(geometry, params, scheme)
            for level, count, ref_count in zip(LEVELS, cell_counts, expected["at_least"]):
                interval = wilson(count, self.REPLICATIONS, tests)
                if not overlaps(interval, wilson(ref_count, expected["runs"], tests)):
                    messages[index] = f"{where} P(Y>={int(level)}): {count} vs reference {ref_count}/{expected['runs']}"
                if self.closed_form_exact(scheme, geometry, level) and not contains(
                    interval, closed.at_least(level)
                ):
                    messages[index] = f"{where} P(Y>={int(level)}): {count} vs closed form {closed.at_least(level)}"
        return len(messages) * self.REPLICATIONS, list(messages.values())

    def subset_levels(self, index: int):
        """``(vector, oracle)`` level/detection arrays of one subset cell
        on shared tapes: twin generators replay the same variates."""
        deadline, k, scheme = self.SUBSET[index]
        params = EvaluationParams(deadline_minutes=deadline)
        geometry = params.constellation.plane_geometry(k)
        template = ScenarioTemplate(geometry, params, scheme=scheme)
        child = np.random.SeedSequence(self.seed, spawn_key=(1, index))
        rng_vector = np.random.default_rng(child)
        rng_oracle = np.random.default_rng(child)
        onsets, durations, _ = draw_signal_variates(geometry, params, self.SUBSET_ROWS, rng_vector)
        draw_signal_variates(geometry, params, self.SUBSET_ROWS, rng_oracle)
        vector = template.sample_levels(rng_vector, onsets, durations, engine="vector")
        tapes = draw_protocol_tapes(template, rng_oracle, self.SUBSET_ROWS)
        oracle = scalar_reference_levels(template, onsets, durations, tapes)
        return vector, oracle

    def post_check(self, perturb=None) -> Tuple[int, int, List[str]]:
        failed, messages = 0, []
        for index in range(len(self.SUBSET)):
            (levels, detected), (oracle_levels, oracle_detected) = self.subset_levels(index)
            if perturb is not None:
                perturb(index, levels)
            mismatched = int(np.count_nonzero((levels != oracle_levels) | (detected != oracle_detected)))
            if mismatched:
                failed += mismatched
                messages.append(f"subset {self.SUBSET[index]}: {mismatched} rows differ from the scalar oracle")
        return len(self.SUBSET) * self.SUBSET_ROWS, failed, messages


# ----------------------------------------------------------------------
class FaultCampaign(Workload):
    """``Campaign`` over ``faults_exp.plan_battery()`` x {OAQ, BAQ} at
    k = 9 on the scalar engine, two workers, journaled."""

    name = "fault-campaign"
    unit = "scenario runs"

    CAPACITY = 9
    RUNS = 4000
    BATCH_SIZE = 50
    JOBS = 2
    SCHEMES = (Scheme.OAQ, Scheme.BAQ)

    def build(self) -> None:
        from repro.experiments.faults_exp import plan_battery

        self.params = EvaluationParams(signal_termination_rate=0.2)
        self.geometry = self.params.constellation.plane_geometry(self.CAPACITY)
        self.plans = plan_battery()
        self.jobs = min(self.JOBS, os.cpu_count() or 1)
        self.analytic = {
            "fault-free": lambda scheme: conditional_distribution(self.geometry, self.params, scheme),
            "successors-fail-all": lambda scheme: fail_silent_reference(self.geometry, self.params, scheme),
        }
        self.passes = 0

    def units(self) -> int:
        return len(self.plans) * len(self.SCHEMES) * self.RUNS

    def run_pass(self, scratch: Path, span: Span = no_span):
        self.passes += 1
        journal = scratch / f"campaign-{self.passes}.jsonl"
        campaign = Campaign(
            self.params,
            capacity=self.CAPACITY,
            plans=self.plans,
            schemes=self.SCHEMES,
            runs=self.RUNS,
            seed=self.seed,
            batch_size=self.BATCH_SIZE,
            n_jobs=self.jobs,
            journal=str(journal),
            engine="batch",
        )
        outcomes = campaign.run().outcomes
        with open(journal, "rb") as handle:
            records = handle.read()
        journal.unlink()
        return {"outcomes": outcomes, "journal_records": records.count(b"\n"), "journal_bytes": len(records)}

    def check(self, outputs) -> Tuple[int, List[str]]:
        reference = {
            (cell["plan"], cell["scheme"]): cell for cell in load_ref("fault_campaign.json")["cells"]
        }
        outcomes = outputs["outcomes"]
        tests = len(outcomes) * len(LEVELS)
        failed, messages = 0, []
        if len(outcomes) != len(self.plans) * len(self.SCHEMES):
            return self.units(), [f"{len(outcomes)} cells, expected {len(self.plans) * len(self.SCHEMES)}"]
        for outcome in outcomes:
            where = f"{outcome.plan.name} {outcome.scheme.name}"
            problems = []
            if outcome.runs != self.RUNS:
                problems.append(f"{outcome.runs} runs")
            counts = at_least_counts(outcome.level_counts)
            analytic = self.analytic.get(outcome.plan.name)
            expected = reference.get((outcome.plan.name, outcome.scheme.name))
            for level, count in zip(LEVELS, counts):
                interval = wilson(count, outcome.runs, tests)
                if analytic is not None:
                    value = analytic(outcome.scheme).at_least(level)
                    if not contains(interval, value):
                        problems.append(f"P(Y>={int(level)}) {count}/{outcome.runs} vs analytic {value:.6f}")
                elif expected is None:
                    problems.append("no reference")
                else:
                    ref_count = expected["at_least"][int(level) - 1]
                    if not overlaps(interval, wilson(ref_count, expected["runs"], tests)):
                        problems.append(
                            f"P(Y>={int(level)}) {count}/{outcome.runs} vs reference {ref_count}/{expected['runs']}"
                        )
            if problems:
                failed += outcome.runs
                messages.append(f"{where}: " + "; ".join(problems))
        return failed, messages

    def layer_extras(self, outputs) -> Dict[str, float]:
        return {
            # Every run executes in a pool worker, out of the parent's sight.
            "batch.runs": sum(outcome.runs for outcome in outputs["outcomes"]),
            "campaign.journal_records": outputs["journal_records"],
            "campaign.journal_bytes": outputs["journal_bytes"],
        }


# ----------------------------------------------------------------------
def _check_mc_validate(result) -> List[str]:
    """Rule-based MC holds the closed form in its Wilson interval; the
    protocol MC, which adds crosslink delay and computation time, stays
    within the section's stated few percent of it."""
    from repro.experiments import montecarlo_exp

    samples = inspect.signature(montecarlo_exp.run_conditional_validation).parameters["samples"].default
    problems = []
    for row in result.rows:
        closed, rule, protocol = row["closed form"], row["rule-based MC"], row["protocol MC"]
        interval = wilson(round(rule * samples), samples, len(result.rows))
        if not contains(interval, closed):
            problems.append(f"k={row['k']} {row['scheme']} y={row['level']}: rule-based {rule} vs {closed}")
        if not abs(protocol - closed) <= 0.03:
            problems.append(f"k={row['k']} {row['scheme']} y={row['level']}: protocol {protocol} vs {closed}")
    return problems


def _check_capacity_des(result) -> List[str]:
    distance = 0.5 * sum(abs(row["SAN (Erlang unfold)"] - row["independent DES"]) for row in result.rows)
    return [] if distance <= 0.05 else [f"total variation SAN vs DES {distance:.4f} > 0.05"]


def _check_protocol(result) -> List[str]:
    from repro.experiments import protocol_exp

    samples = inspect.signature(protocol_exp.run).parameters["samples"].default
    problems = []
    for row in result.rows:
        detected, delivered, timely = row["detected"], row["alerts delivered"], row["timely (<= tau)"]
        if not (timely <= delivered <= detected <= samples):
            problems.append(f"{row['configuration']}: counts out of order")
        if row["max timely chain"] > row["chain bound M[k]"]:
            problems.append(f"{row['configuration']}: chain exceeds M[k]")
        if row["configuration"].startswith("done-propagation") and delivered != detected:
            problems.append(f"{row['configuration']}: delivered != detected")
    return problems


def _check_geoloc(result) -> List[str]:
    errors = {row["QoS level"]: row["median error (km)"] for row in result.rows}
    if errors.get(2, math.inf) * 10 < errors.get(1, 0) and errors.get(3, math.inf) * 10 < errors.get(1, 0):
        return []
    return [f"dual coverage not an order of magnitude better than single: {errors}"]


def _check_ablation(result) -> List[str]:
    problems = []
    for row in result.rows:
        lumped = row["max |dP| lumped"]
        if lumped != "-" and not float(lumped) <= 1e-12:
            problems.append(f"stages={row['stages']}: lumped vs counted {lumped}")
        if not row["TV vs exact DES"] <= 0.1:
            problems.append(f"stages={row['stages']}: TV vs DES {row['TV vs exact DES']}")
    return problems


def _check_faults(result) -> List[str]:
    problems = []
    for row in result.rows:
        analytic = row["analytic P(Y>=2)"]
        if isinstance(analytic, float) and not row["ci low"] - EPS <= analytic <= row["ci high"] + EPS:
            problems.append(f"{row['plan']} {row['scheme']}: analytic {analytic} outside CI")
    return problems


def _check_corpus(result) -> List[str]:
    problems = [
        f"family {row['family']}: {row['fail']} failed, {row['error']} errors"
        for row in result.rows
        if row["fail"] or row["error"] or row["pass"] != row["cells"]
    ]
    unexplained = result.metadata["scorecard_summary"]["unexplained_fallbacks"]
    if unexplained:
        problems.append(f"{unexplained} unexplained solver fallbacks")
    return problems


class PaperFull(Workload):
    """The ``--full`` registry minus ``optimize_exp.run``: every section
    run and rendered in order."""

    name = "paper-full"
    seeded = False
    unit = "experiment sections"

    #: Sections whose numbers come from seeded Monte-Carlo or timing:
    #: these columns are left out of the rendering comparison and the
    #: section's own statistical check judges them instead.
    STATISTICAL: Dict[str, Tuple[Tuple[str, ...], Callable]] = {
        "mc-validate": (("rule-based MC", "protocol MC"), _check_mc_validate),
        "mc-validate-capacity": (("independent DES",), _check_capacity_des),
        "protocol": (("detected", "alerts delivered", "timely (<= tau)", "max timely chain"), _check_protocol),
        "geoloc": (("median error (km)", "estimated 1-sigma (km)"), _check_geoloc),
        "ablation-phases": (("TV vs exact DES", "max |dP| lumped"), _check_ablation),
        "faults": (("P(Y>=1)", "P(Y>=2)", "ci low", "ci high", "mean level"), _check_faults),
        "corpus": (("seconds",), _check_corpus),
    }

    def build(self) -> None:
        from repro.experiments.__main__ import FULL_SECTIONS, QUICK_SECTIONS

        self.sections = [fn for fn in QUICK_SECTIONS + FULL_SECTIONS if fn is not optimize_exp.run]

    def units(self) -> int:
        return len(self.sections)

    def run_pass(self, scratch: Path, span: Span = no_span):
        outputs = []
        for fn in self.sections:
            start = time.perf_counter()
            try:
                with span("section", "experiments"):
                    result = fn()
                    result.render()
                error = None
            except Exception:
                result, error = None, traceback.format_exc()
            outputs.append((result, error, time.perf_counter() - start))
        return outputs

    @staticmethod
    def table(result) -> dict:
        return {
            "id": result.experiment_id,
            "title": result.title,
            "headers": list(result.headers),
            "rows": [[_format_value(row.get(header, "")) for header in result.headers] for row in result.rows],
        }

    def check(self, outputs) -> Tuple[int, List[str]]:
        reference = load_ref("paper_full.json")["sections"]
        if len(outputs) != len(reference):
            return len(self.sections), [f"{len(outputs)} sections, expected {len(reference)}"]
        failed, messages = 0, []
        for (result, error, seconds), expected in zip(outputs, reference):
            problems = [error] if error else self.section_problems(result, expected)
            if problems:
                failed += 1
                messages.append(f"section {expected['id']}: " + "; ".join(problems))
        return failed, messages

    def section_problems(self, result, expected) -> List[str]:
        table = self.table(result)
        for key in ("id", "title", "headers"):
            if table[key] != expected[key]:
                return [f"{key} {table[key]!r} != {expected[key]!r}"]
        if len(table["rows"]) != len(expected["rows"]):
            return [f"{len(table['rows'])} rows, expected {len(expected['rows'])}"]
        exempt, statistical_check = self.STATISTICAL.get(result.experiment_id, ((), None))
        compared = [i for i, header in enumerate(table["headers"]) if header not in exempt]
        problems = [
            f"row {r} {table['headers'][i]!r}: {row[i]} != {expected_row[i]}"
            for r, (row, expected_row) in enumerate(zip(table["rows"], expected["rows"]))
            for i in compared
            if row[i] != expected_row[i]
        ]
        if statistical_check is not None:
            problems += statistical_check(result)
        return problems

    def layer_extras(self, outputs) -> Dict[str, float]:
        extras: Dict[str, float] = {}
        for result, error, seconds in outputs:
            if result is None:
                continue
            extras[f"section.{result.experiment_id}_s"] = seconds
            if result.experiment_id == "corpus":
                for row in result.rows:
                    extras[f"corpus.{row['family']}_s"] = row["seconds"]
        return extras


WORKLOADS = {workload.name: workload for workload in (OptimizeGrid, ProtocolMC, FaultCampaign, PaperFull)}
