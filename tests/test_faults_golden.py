"""Golden regression for the ``faults`` experiment.

``tests/golden/faults_golden.json`` pins the full-precision rows of the
default fault-injection campaign (k=9, 250 runs/cell, seed 2026).  The
campaign is seeded Monte Carlo dispatched through the process-pool
engine, so this doubles as a determinism check: any drift in seed
derivation, batch aggregation order or the protocol stack shows up as
a diff here.  (The ``faults`` table is not part of the recorded
``tests/golden/experiments_output.txt``, so there is no
render-precision cross-check like the one in
``test_experiments_golden.py``.)
"""

import json
import pathlib

import pytest

from repro.experiments import faults_exp

_GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "faults_golden.json"


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)["faults"]


@pytest.fixture(scope="module")
def result():
    return faults_exp.run()


def test_faults_experiment_matches_golden_to_1e9(golden, result):
    assert result.headers == golden["headers"]
    assert len(result.rows) == len(golden["rows"])
    for index, (row, expected_row) in enumerate(
        zip(result.rows, golden["rows"])
    ):
        for header in golden["headers"]:
            value, pinned = row[header], expected_row[header]
            where = f"faults row {index} column {header!r}"
            if isinstance(pinned, float):
                assert value == pytest.approx(pinned, abs=1e-9), where
            else:
                assert value == pinned, where


def test_golden_covers_every_plan_and_scheme(golden, result):
    cells = {(row["plan"], row["scheme"]) for row in result.rows}
    pinned = {(row["plan"], row["scheme"]) for row in golden["rows"]}
    assert cells == pinned
    plans = {plan.name for plan in faults_exp.plan_battery()}
    assert {plan for plan, _ in cells} == plans
    assert {scheme for _, scheme in cells} == {"OAQ", "BAQ"}
