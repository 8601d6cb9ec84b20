"""Benchmark ``protocol-batch``: the batched-replication acceptance
guard.

The protocol-level QoS sampler must be at least **3x faster** through
the batched :class:`~repro.simulation.batch.ScenarioTemplate` path --
one template per (k, scheme) cell, replayed with a shared generator
and early-stopped at the first ground alert -- than one
``CenterlineScenario(..., seed=child).run()`` per sample (a one-shot
template each, seeded from ``SeedSequence(SEED).spawn`` children),
aggregated over the four protocol branches (k=9/k=12 x OAQ/BAQ).  The
batched distribution must stay statistically consistent with the
per-sample runs: every per-sample level frequency inside the batch
estimate's 99.9% Wilson interval
(the shared-generator path is not draw-order compatible with per-seed
scenarios, so the pin is statistical, not bitwise -- see
``docs/SIMULATION.md``).

The per-run numbers (times, aggregate speedup, per-cell ratios, stage
timings) are written to ``BENCH_protocol_batch.json`` at the
repository root so CI can archive them as an artifact.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.faults.stats import wilson_interval
from repro.protocol.runner import CenterlineScenario
from repro.simulation.batch import (
    batch_stage_timings,
    reset_batch_stage_timings,
)
from repro.simulation.qos_montecarlo import (
    simulate_conditional_distribution_protocol,
)

#: Samples per (k, scheme) cell -- enough to amortise the template
#: build and give the Wilson consistency check statistical teeth.
SAMPLES = 2_000
SEED = 1337
CELLS = [
    (capacity, scheme)
    for capacity in (9, 12)
    for scheme in (Scheme.OAQ, Scheme.BAQ)
]

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bench_protocol_batch_speedup_vs_per_sample_scenarios(run_once):
    """Acceptance guard: batched sampler >= 3x the per-sample path
    aggregated over all four branches, distributions Wilson-consistent."""
    params = EvaluationParams(signal_termination_rate=0.2)

    legacy = {}
    legacy_seconds = 0.0
    for capacity, scheme in CELLS:
        geometry = params.constellation.plane_geometry(capacity)
        start = time.perf_counter()
        counts = {level: 0 for level in QoSLevel}
        for child in np.random.SeedSequence(SEED).spawn(SAMPLES):
            outcome = CenterlineScenario(
                geometry, params, scheme=scheme, seed=child
            ).run()
            counts[outcome.achieved_level] += 1
        legacy[(capacity, scheme)] = {
            level: count / SAMPLES for level, count in counts.items()
        }
        legacy_seconds += time.perf_counter() - start

    reset_batch_stage_timings()

    def batched_sweep():
        results = {}
        cell_seconds = {}
        for capacity, scheme in CELLS:
            geometry = params.constellation.plane_geometry(capacity)
            start = time.perf_counter()
            results[(capacity, scheme)] = (
                simulate_conditional_distribution_protocol(
                    geometry, params, scheme, samples=SAMPLES, seed=SEED
                )
            )
            cell_seconds[(capacity, scheme)] = time.perf_counter() - start
        return results, cell_seconds

    start = time.perf_counter()
    batched, cell_seconds = run_once(batched_sweep)
    batched_seconds = time.perf_counter() - start

    speedup = legacy_seconds / batched_seconds
    stage_timings = batch_stage_timings()

    consistent = True
    for cell, batch_distribution in batched.items():
        for level in QoSLevel:
            count = round(batch_distribution[level] * SAMPLES)
            interval = wilson_interval(count, SAMPLES, confidence=0.999)
            legacy_rate = legacy[cell][level]
            slack = 0.03  # the legacy estimate's own sampling noise
            if not (
                interval.low - slack <= legacy_rate <= interval.high + slack
            ):
                consistent = False

    payload = {
        "samples_per_cell": SAMPLES,
        "cells": [f"k={capacity}/{scheme.name}" for capacity, scheme in CELLS],
        "legacy_s": round(legacy_seconds, 4),
        "batched_s": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "per_cell_batched_s": {
            f"k={capacity}/{scheme.name}": round(seconds, 4)
            for (capacity, scheme), seconds in cell_seconds.items()
        },
        "stage_timings": {k: round(v, 4) for k, v in stage_timings.items()},
        "wilson_consistent": consistent,
    }
    (REPO_ROOT / "BENCH_protocol_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\nper-sample scenarios {legacy_seconds:.2f}s vs batched "
        f"{batched_seconds:.2f}s -> {speedup:.1f}x over "
        f"{len(CELLS)} cells x {SAMPLES} samples"
    )
    print(f"batch stage timings: {payload['stage_timings']}")

    # Correctness before speed: the batched estimate must agree with
    # the per-sample reference on every cell and level.
    assert consistent, "batched distribution outside legacy Wilson bounds"
    assert speedup >= 3.0, (
        f"batched speedup {speedup:.2f}x below the 3x floor "
        f"(legacy {legacy_seconds:.3f}s, batched {batched_seconds:.3f}s)"
    )
