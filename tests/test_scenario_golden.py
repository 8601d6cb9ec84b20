"""Golden pin of the scalar protocol engine, run by run.

``tests/golden/scenario_outcomes.json`` holds one entry per cell of a
fixed grid: capacity ``k`` in {8, 9, 10, 12, 14} (underlap and
overlap), both schemes, both messaging variants, and twelve cases --
five direct :class:`~repro.protocol.runner.CenterlineScenario`
configurations (default, i.i.d. loss 0.2, ``horizon=tau``, an explicit
onset and duration, ``S2`` fail-silent at t = 0) plus every plan of
the fault experiment's battery through
:func:`~repro.faults.injector.faulty_scenario`.  Each cell runs seeds
0..39 and stores the achieved-level counts, the detection count and a
sha256 over the canonical JSON of every run's record: level, detection
time, duplicates, signal duration, each alert's sender, send time,
chain and estimate, and the full message log.

The file was recorded from the per-sample eager scheduler that built a
fresh simulator, network and roster for every run (commit c55ea02).
The one scalar engine (:class:`~repro.simulation.batch.ScenarioTemplate`,
with ``CenterlineScenario`` as its per-run facade) must reproduce it
on every cell, and the fault campaign's batch evaluator must reproduce
its level and detection counts.

Floats enter the record rounded to 12 significant digits as plain
Python floats, so the digest does not depend on how a numpy version
prints ``np.float64``.  To record the file again after a deliberate
model change::

    PYTHONPATH=src python -m tests.test_scenario_golden --write
"""

import dataclasses
import enum
import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.experiments.faults_exp import plan_battery
from repro.faults.campaign import _evaluate_batch
from repro.faults.injector import faulty_scenario
from repro.protocol.runner import CenterlineScenario
from repro.protocol.satellite import MessagingVariant

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "scenario_outcomes.json"
PARAMS = EvaluationParams(signal_termination_rate=0.2)
CAPACITIES = (8, 9, 10, 12, 14)
SCHEMES = (Scheme.OAQ, Scheme.BAQ)
VARIANTS = tuple(MessagingVariant)
SEEDS = range(40)

#: Direct scenario cases: ``(name, constructor overrides, run overrides)``.
SCENARIO_CASES = (
    ("plain", {}, {}),
    ("loss-0.2", {"crosslink_loss_probability": 0.2}, {}),
    ("horizon-tau", {}, {"horizon": PARAMS.tau}),
    ("explicit-signal", {"onset_position": 1.0, "signal_duration": 4.0}, {}),
    ("fail-S2", {"fail_silent": {"S2": 0.0}}, {}),
)
COMBOS = [
    (capacity, scheme, variant)
    for capacity in CAPACITIES
    for scheme in SCHEMES
    for variant in VARIANTS
]


def _canonical(value):
    """JSON-ready form of ``value`` that prints the same under every
    supported numpy version."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if dataclasses.is_dataclass(value):
        record = {"type": type(value).__name__}
        for field in dataclasses.fields(value):
            record[field.name] = _canonical(getattr(value, field.name))
        return record
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def run_record(outcome):
    """Everything observable about one run, in canonical form."""
    return _canonical(
        {
            "level": int(outcome.achieved_level),
            "detection_time": outcome.detection_time,
            "duplicates": outcome.duplicates,
            "duration": outcome.signal.duration,
            "alerts": [
                {
                    "sent_by": alert.sent_by,
                    "sent_at": alert.sent_at,
                    "chain": alert.chain,
                    "estimate": alert.estimate,
                }
                for alert in outcome.all_alerts
            ],
            "log": [
                (
                    record.time_sent,
                    record.time_delivered,
                    record.source,
                    record.destination,
                    record.message,
                )
                for record in outcome.message_log
            ],
        }
    )


def cell_summary(outcomes):
    """Level counts, detection count and digest of one cell's runs."""
    levels = [0, 0, 0, 0]
    detected = 0
    records = []
    for outcome in outcomes:
        levels[int(outcome.achieved_level)] += 1
        detected += outcome.detection_time is not None
        records.append(run_record(outcome))
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return {
        "levels": levels,
        "detected": detected,
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def cell_key(capacity, scheme, variant, case):
    return f"k={capacity}/{scheme.name}/{variant.name}/{case}"


def scenario_cells(capacity, scheme, variant):
    """``{cell key: summary}`` of the direct-scenario cases."""
    geometry = PARAMS.constellation.plane_geometry(capacity)
    cells = {}
    for case, overrides, run_kwargs in SCENARIO_CASES:
        outcomes = [
            CenterlineScenario(
                geometry,
                PARAMS,
                scheme=scheme,
                variant=variant,
                seed=seed,
                **overrides,
            ).run(**run_kwargs)
            for seed in SEEDS
        ]
        cells[cell_key(capacity, scheme, variant, case)] = cell_summary(outcomes)
    return cells


def plan_cells(capacity, scheme, variant):
    """``{cell key: summary}`` of the fault-plan cases."""
    geometry = PARAMS.constellation.plane_geometry(capacity)
    cells = {}
    for plan in plan_battery():
        outcomes = [
            faulty_scenario(
                geometry, PARAMS, plan, scheme=scheme, variant=variant, seed=seed
            ).run()
            for seed in SEEDS
        ]
        key = cell_key(capacity, scheme, variant, f"plan:{plan.name}")
        cells[key] = cell_summary(outcomes)
    return cells


@functools.lru_cache(maxsize=None)
def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _combo_id(combo):
    capacity, scheme, variant = combo
    return f"k{capacity}-{scheme.name}-{variant.name}"


def test_golden_covers_the_grid():
    golden = load_golden()
    cases = len(SCENARIO_CASES) + len(plan_battery())
    assert golden["seeds"] == len(SEEDS)
    assert len(golden["cells"]) == len(COMBOS) * cases


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
def test_scenario_facade_matches_golden(combo):
    for key, summary in scenario_cells(*combo).items():
        assert summary == load_golden()["cells"][key], key


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
def test_faulty_scenario_matches_golden(combo):
    for key, summary in plan_cells(*combo).items():
        assert summary == load_golden()["cells"][key], key


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
def test_campaign_batch_counts_match_golden(combo):
    """The campaign's per-seed evaluator reports the golden level and
    detection counts for every plan cell."""
    capacity, scheme, variant = combo
    for plan in plan_battery():
        result = _evaluate_batch(
            {
                "cell": 0,
                "plan": plan,
                "scheme": scheme,
                "variant": variant,
                "params": PARAMS,
                "capacity": capacity,
                "seeds": tuple(SEEDS),
            }
        )
        pinned = load_golden()["cells"][
            cell_key(capacity, scheme, variant, f"plan:{plan.name}")
        ]
        assert list(result["counts"]) == pinned["levels"], plan.name
        assert result["detected"] == pinned["detected"], plan.name


def _write_golden():
    cells = {}
    for combo in COMBOS:
        cells.update(scenario_cells(*combo))
        cells.update(plan_cells(*combo))
    # One cell per line keeps the file small and its diffs readable.
    lines = [
        f"  {json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]
    GOLDEN_PATH.write_text(
        f'{{"seeds": {len(SEEDS)}, "cells": {{\n' + ",\n".join(lines) + "\n}}\n"
    )
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_scenario_golden --write")
    _write_golden()
