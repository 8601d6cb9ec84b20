"""Experiment ``protocol``: behavioural properties of the OAQ
coordination protocol (paper Figures 3-4).

Runs batches of full protocol scenarios and reports the properties the
paper argues for:

* the alert is always sent within the deadline when a signal is
  detected (timeliness guarantee);
* the coordination chain never exceeds the Eq. (2) bound ``M[k]``;
* with the done-propagation ("backward messaging") variant the alert
  survives a fail-silent successor; with successor-responsibility it
  does not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.opportunity import max_chain_length
from repro.core.schemes import Scheme
from repro.experiments.report import ExperimentResult
from repro.faults.injector import resolve_seed
from repro.faults.plan import FaultPlan
from repro.protocol.satellite import MessagingVariant
from repro.simulation.batch import ScenarioTemplate

__all__ = ["run"]


def _batch(
    geometry,
    params,
    *,
    variant: MessagingVariant,
    fail_successor: bool,
    samples: int,
    rng: np.random.Generator,
):
    # One template per configuration; each sample replays it.  The
    # per-sample seed chain (and therefore every outcome) is identical
    # to the per-sample CenterlineScenario construction this replaced.
    template = ScenarioTemplate(
        geometry, params, scheme=Scheme.OAQ, variant=variant, record_log=False
    )
    next_fails = FaultPlan.successors_fail_silent(0.0, count=1)
    detected = 0
    timely = 0
    max_timely_chain = 0
    delivered = 0
    for _ in range(samples):
        seed = int(rng.integers(0, 2**63 - 1))
        fail_silent = None
        if fail_successor:
            # Fail the *detector's* successor (S3 when the signal starts
            # in the coverage gap and S2 detects); the resolution
            # replays the replication's own signal draws for this seed.
            fail_silent = resolve_seed(
                geometry, params, next_fails, template.names, seed
            ).failure_times
        outcome = template.replicate(seed, fail_silent=fail_silent).run()
        if outcome.detection_time is not None:
            detected += 1
            if outcome.official_alert is not None:
                delivered += 1
                if outcome.alert_latency <= params.tau + 1e-9:
                    timely += 1
                    max_timely_chain = max(
                        max_timely_chain, outcome.chain_length
                    )
    return detected, delivered, timely, max_timely_chain


def run(
    *,
    samples: int = 400,
    capacity: int = 9,
    seed: Optional[int] = 4242,
) -> ExperimentResult:
    """Protocol-property statistics over random signals (underlapping
    plane, where the coordination chain actually forms)."""
    params = EvaluationParams(signal_termination_rate=0.2)
    geometry = params.constellation.plane_geometry(capacity)
    bound = max_chain_length(geometry, params)
    rng = np.random.default_rng(seed)
    headers = [
        "configuration",
        "detected",
        "alerts delivered",
        "timely (<= tau)",
        "max timely chain",
        "chain bound M[k]",
    ]
    rows = []
    for label, variant, fail in (
        ("done-propagation, healthy", MessagingVariant.DONE_PROPAGATION, False),
        ("done-propagation, successor fail-silent", MessagingVariant.DONE_PROPAGATION, True),
        (
            "successor-responsibility, healthy",
            MessagingVariant.SUCCESSOR_RESPONSIBILITY,
            False,
        ),
        (
            "successor-responsibility, successor fail-silent",
            MessagingVariant.SUCCESSOR_RESPONSIBILITY,
            True,
        ),
    ):
        detected, delivered, timely, max_chain = _batch(
            geometry,
            params,
            variant=variant,
            fail_successor=fail,
            samples=samples,
            rng=rng,
        )
        rows.append(
            {
                "configuration": label,
                "detected": detected,
                "alerts delivered": delivered,
                "timely (<= tau)": timely,
                "max timely chain": max_chain,
                "chain bound M[k]": bound,
            }
        )
    return ExperimentResult(
        experiment_id="protocol",
        title=f"OAQ protocol properties (k={capacity}, {samples} signals/case)",
        headers=headers,
        rows=rows,
        notes=[
            "Done-propagation keeps delivered == detected -- and timely -- "
            "even with a fail-silent successor (Figure 4).  Successor-"
            "responsibility loses those alerts under failure, and even "
            "healthy it delivers late whenever the invited successor's "
            "footprint arrives after the deadline: the Section 3.2 "
            "trade-off, quantified.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
