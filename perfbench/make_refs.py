"""Write the references the benchmark's checks read (``perfbench/refs``).

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py [optimize-grid] [protocol-mc] [fault-campaign] [paper-full]

The optimize-grid and paper-full references are the outputs of the
program at the commit they were recorded at; rewrite them only for an
intended change of results.  The protocol-mc and fault-campaign
references are high-replication Monte-Carlo estimates from a seed of
their own (:data:`REFERENCE_SEED`), so a correct engine that draws its
randomness differently still matches them statistically.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from run import reset_program_state  # noqa: E402

REFERENCE_SEED = 20261017
#: Protocol-MC reference: this many 10^6-replication chunks per cell.
PROTOCOL_CHUNKS = 10
FAULT_RUNS = 100_000


def write(name: str, payload: dict) -> None:
    workloads.REFS.mkdir(exist_ok=True)
    with open(workloads.REFS / name, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.REFS / name}")


def optimize_grid() -> None:
    workload = workloads.OptimizeGrid(0)
    workload.build()
    reset_program_state()
    rows = workload.run_pass(ROOT)
    write(
        "optimize_grid.json",
        {
            "groups": [list(group) for group in workload.GROUPS],
            "stages": workload.STAGES,
            "cells": [
                {"key": workload.cell_key(row), **{field: row[field] for field in workload.FIELDS}}
                for row in rows
            ],
        },
    )


def protocol_mc() -> None:
    workload = workloads.ProtocolMC(0)
    workload.build()
    states = np.random.SeedSequence(REFERENCE_SEED).generate_state(
        len(workload.cells) * PROTOCOL_CHUNKS, dtype=np.uint64
    )
    cells = []
    for index, (deadline, k, scheme, params, geometry) in enumerate(workload.cells):
        totals = [0, 0, 0]
        for chunk in range(PROTOCOL_CHUNKS):
            distribution = workloads.simulate_conditional_distribution_protocol(
                geometry,
                params,
                scheme,
                samples=workload.REPLICATIONS,
                seed=int(states[index * PROTOCOL_CHUNKS + chunk]),
                engine="vector",
            )
            for position, level in enumerate(workloads.LEVELS):
                totals[position] += round(distribution.at_least(level) * workload.REPLICATIONS)
        cells.append(
            {
                "deadline": deadline,
                "k": k,
                "scheme": scheme.name,
                "runs": PROTOCOL_CHUNKS * workload.REPLICATIONS,
                "at_least": totals,
            }
        )
        print(cells[-1], flush=True)
    write("protocol_mc.json", {"seed": REFERENCE_SEED, "cells": cells})


def fault_campaign() -> None:
    workload = workloads.FaultCampaign(REFERENCE_SEED)
    workload.build()
    result = workloads.Campaign(
        workload.params,
        capacity=workload.CAPACITY,
        plans=workload.plans,
        schemes=workload.SCHEMES,
        runs=FAULT_RUNS,
        seed=REFERENCE_SEED,
        batch_size=1000,
        n_jobs=min(2, os.cpu_count() or 1),
        engine="batch",
    ).run()
    write(
        "fault_campaign.json",
        {
            "seed": REFERENCE_SEED,
            "cells": [
                {
                    "plan": outcome.plan.name,
                    "scheme": outcome.scheme.name,
                    "runs": outcome.runs,
                    "at_least": workloads.at_least_counts(outcome.level_counts),
                }
                for outcome in result.outcomes
            ],
        },
    )


def paper_full() -> None:
    workload = workloads.PaperFull(0)
    workload.build()
    reset_program_state()
    outputs = workload.run_pass(ROOT)
    for result, error, seconds in outputs:
        if error:
            raise SystemExit(error)
    write("paper_full.json", {"sections": [workload.table(result) for result, _, _ in outputs]})


MAKERS = {
    "optimize-grid": optimize_grid,
    "protocol-mc": protocol_mc,
    "fault-campaign": fault_campaign,
    "paper-full": paper_full,
}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(MAKERS):
        MAKERS[name]()
