"""Per-cell evaluation: quotient solve, Eq. (3) QoS, cost model.

Every design cell is solved through
:func:`~repro.analytic.capacity.capacity_distribution_expanded` on the
symmetry-lumped quotient chain -- the whole point of the optimizer is
that the ~1000x quotient speedup makes brute-force search cheap.  The
capacity solver's fallback counters are sampled around each solve, so
a cell that silently fell off the quotient path (a ``ModelError``
downgrade to the unlumped chain) is visible *per cell* in the results
and classified by :func:`repro.optimize.pareto.classify_fallbacks`.

Objectives
----------

* **availability** -- ``P(K >= k_min)`` with ``k_min`` the scaled
  10-of-14 floor (:func:`repro.optimize.design.minimum_capacity`);
* **alert QoS** -- the Eq. (3) composition ``P(Y >= 2) = sum_k
  P(Y >= 2 | k) P(k)`` under the OAQ scheme, evaluated over the *full*
  capacity distribution (no truncation or renormalisation: ``k = 0``
  simply contributes nothing, unlike
  :func:`repro.analytic.composition.compose` which renormalises a
  truncated ``P(k)``).  The closed-form conditionals cover at most
  pairwise footprint overlap, so capacities beyond ``2 * theta / Tc``
  (20 for the reference geometry) are evaluated at that saturation
  point -- beyond it extra satellites only deepen an overlap the model
  (and the paper) does not distinguish;
* **spare cost** -- a yearly provisioning composite (see
  :func:`spare_cost` and ``docs/OPTIMIZE.md``): in-orbit spare capex
  plus net replacement-launch tempo plus scheduled-campaign tempo.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro import obs
from repro.analytic.capacity import capacity_distribution_expanded
from repro.analytic.qos_model import conditional_distribution
from repro.analytic.solve_cache import LRUSolveCache
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.optimize.design import DesignPoint, minimum_capacity

__all__ = [
    "composed_alert_qos",
    "evaluate_cell",
    "minimum_capacity",
    "spare_cost",
]

#: Cost-model weights (dimensionless "launch equivalents per year"):
#: one resident in-orbit spare, one replacement launch per year, one
#: scheduled batch campaign per year.  A campaign is priced above a
#: single launch (it carries several spares); the exact ratio only
#: shifts the frontier's cost axis, not which cells are dominated
#: along the other axes.
SPARE_WEIGHT = 1.0
LAUNCH_WEIGHT = 1.0
CAMPAIGN_WEIGHT = 2.0

HOURS_PER_YEAR = 8760.0

#: Keyed on the frozen ``params`` *value*, so equal parameters built
#: per call share entries and distinct ones (another deadline) never
#: alias; bounded like the capacity caches.
_CONDITIONAL_CACHE = LRUSolveCache(maxsize=256, name="optimize-alert")


def _alert_probability(k: int, params: EvaluationParams, scheme: Scheme) -> float:
    """``P(Y >= SEQUENTIAL_DUAL | k)`` for ``k >= 1``, cached."""

    def compute() -> float:
        geometry = params.constellation.plane_geometry(k)
        distribution = conditional_distribution(geometry, params, scheme)
        return distribution.at_least(QoSLevel.SEQUENTIAL_DUAL)

    return _CONDITIONAL_CACHE.get_or_compute((k, params, scheme), compute)


def composed_alert_qos(
    capacity_probabilities: Mapping[int, float],
    *,
    params: Optional[EvaluationParams] = None,
    scheme: Scheme = None,
) -> float:
    """Eq. (3) alert QoS ``P(Y >= 2)`` over a full ``P(k)``.

    Unlike :func:`repro.analytic.composition.compose` this takes the
    *complete* capacity distribution (sums to 1) and does not
    renormalise: ``k = 0`` contributes probability zero of any alert,
    and capacities beyond the pairwise-overlap domain bound
    ``floor(2 * theta / Tc)`` are evaluated at the bound (coverage
    saturation -- the closed forms model at most two simultaneous
    footprints, and QoS cannot degrade with more satellites).
    """
    if params is None:
        params = EvaluationParams()
    if scheme is None:
        scheme = Scheme.OAQ
    constellation = params.constellation
    k_saturation = int(
        math.floor(
            2.0
            * constellation.orbit_period_minutes
            / constellation.coverage_time_minutes
        )
    )
    total = 0.0
    for k, probability in capacity_probabilities.items():
        if probability <= 0.0 or k < 1:
            continue
        total += probability * _alert_probability(
            min(int(k), k_saturation), params, scheme
        )
    return total


def spare_cost(point: DesignPoint, expected_capacity: float) -> float:
    """Yearly provisioning cost of a design cell (launch equivalents).

    ``SPARE_WEIGHT * spares`` prices the resident in-orbit spares,
    ``LAUNCH_WEIGHT * consumption`` the net ground-spare consumption
    rate -- every failure eventually consumes one ground spare (a
    threshold launch or a slot in a scheduled batch), minus the
    failures undone by on-orbit repair::

        consumption = max(0, lambda * 8760 * E[K] - rho * 8760 * E[down])

    -- and ``CAMPAIGN_WEIGHT * campaigns`` the scheduled batch tempo
    ``8760 / phi`` (zero for the pure threshold policy).
    """
    policy = point.policy
    failures_per_year = (
        point.failure_rate_per_hour * HOURS_PER_YEAR * expected_capacity
    )
    repairs_per_year = 0.0
    if policy.repair_rate_per_hour is not None:
        expected_down = point.full_capacity - expected_capacity
        repairs_per_year = (
            policy.repair_rate_per_hour * HOURS_PER_YEAR * expected_down
        )
    consumption = max(0.0, failures_per_year - repairs_per_year)
    campaigns = 0.0
    if policy.kind in ("combined", "scheduled"):
        campaigns = HOURS_PER_YEAR / policy.scheduled_period_hours
    return (
        SPARE_WEIGHT * policy.in_orbit_spares
        + LAUNCH_WEIGHT * consumption
        + CAMPAIGN_WEIGHT * campaigns
    )


def evaluate_cell(
    point: DesignPoint,
    *,
    stages: int = 6,
    params: Optional[EvaluationParams] = None,
) -> Dict[str, object]:
    """Solve one design cell on the quotient chain and score it.

    Returns the experiment row: the design coordinates, the three
    objectives (``cost`` down, ``availability`` and ``qos_alert`` up),
    ``expected_k``, and the per-cell fallback deltas
    (``structure_fallbacks`` / ``solver_fallbacks``) sampled around the
    solve -- zero on the healthy quotient path, and the raw material of
    the run's fallback scorecard.
    """
    config = point.config()
    before = obs.snapshot()
    pk = capacity_distribution_expanded(config, stages=stages, lump=True)
    counters = obs.delta(before, obs.snapshot())
    expected_k = sum(k * p for k, p in pk.items())
    k_min = point.k_min
    availability = sum(p for k, p in pk.items() if k >= k_min)
    qos = composed_alert_qos(pk, params=params)
    policy = point.policy
    return {
        "scale": point.plane_scale,
        "full": point.full_capacity,
        "spares": policy.in_orbit_spares,
        "policy": policy.kind,
        "eta": policy.threshold,
        "phi_hours": policy.scheduled_period_hours,
        "latency_hours": policy.replacement_latency_hours,
        "lambda": point.failure_rate_per_hour,
        "rho": (
            "none"
            if policy.repair_rate_per_hour is None
            else policy.repair_rate_per_hour
        ),
        "k_min": k_min,
        "expected_k": expected_k,
        "availability": availability,
        "qos_alert": qos,
        "cost": spare_cost(point, expected_k),
        "structure_fallbacks": counters["capacity.solver.structure_fallbacks"],
        "solver_fallbacks": counters["capacity.solver.solver_fallbacks"],
    }
