"""Monte-Carlo estimation of the conditional QoS distribution
``P(Y = y | k)``.

Two estimators, both independent of the closed forms in
:mod:`repro.analytic.qos_model` and used to cross-validate them:

* :func:`simulate_conditional_distribution` -- a fast sampler that
  applies the model's success rules directly (onset uniform over the
  cycle, exponential duration and computation time, Theorem 1/2
  windows).  The rules are evaluated by the fully vectorised
  :func:`classify_qos_levels` over ``(onset, duration, computation)``
  arrays; the scalar :func:`sample_qos_level` is kept as the readable
  specification and cross-tested against it.
* :func:`simulate_conditional_distribution_protocol` -- the heavyweight
  check: every sample runs the *full* OAQ message-passing protocol on
  one :class:`~repro.simulation.batch.ScenarioTemplate` per cell (the
  scalar protocol engine) or on the vector engine.  Small systematic
  differences vs the analytic model (the crosslink delay ``delta`` and
  computation bound ``Tg``, which it ignores) are bounded by the test
  tolerances.

Variance reduction (all validated against the closed forms in the test
suite):

* **Common random numbers** -- :func:`simulate_paired_conditional_distributions`
  evaluates several schemes on the *same* ``(onset, duration,
  computation)`` draws, collapsing the variance of scheme-vs-scheme
  differences (the faults campaign applies the same pairing across
  fault plans).
* **Stratified onsets** -- ``onset_sampling="stratified"`` allocates
  onset draws proportionally over the cycle's alpha/beta (or
  alpha/gamma) interval structure instead of sampling the cycle
  position freely, removing the between-strata component of the
  variance.
* **Antithetic draws** -- ``antithetic=True`` pairs each sample with
  its inverse-transform mirror (onset ``L1 - x``, duration and
  computation flipped through the exponential CDF).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.geometry.plane import PlaneGeometry

__all__ = [
    "simulate_conditional_distribution",
    "simulate_conditional_distribution_protocol",
    "simulate_paired_conditional_distributions",
    "classify_qos_levels",
    "sample_qos_level",
    "draw_signal_variates",
]


def sample_qos_level(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    rng: np.random.Generator,
) -> QoSLevel:
    """Draw one signal and classify the QoS level it achieves under the
    model's assumptions (scalar specification; see
    :func:`classify_qos_levels` for the batched form)."""
    cycle = FootprintCycle(geometry)
    onset = float(rng.uniform(0.0, geometry.l1))
    duration = float(rng.exponential(1.0 / params.mu))
    computation = float(rng.exponential(1.0 / params.nu))
    tau = params.tau
    kind = cycle.interval_at(onset).kind

    if geometry.overlapping:
        # Always covered; detection at onset.  Level 3 requires reaching
        # (or starting inside) a double-coverage interval in time and
        # finishing the computation by the deadline.
        wait = cycle.wait_until_double_coverage(onset)
        if scheme is Scheme.BAQ and wait > 0.0:
            return QoSLevel.SINGLE
        if wait > 0.0 and duration <= wait:
            return QoSLevel.SINGLE  # signal died before the opportunity
        if wait + computation <= tau:
            return QoSLevel.SIMULTANEOUS_DUAL
        return QoSLevel.SINGLE

    # Underlapping plane.
    if kind is CoverageKind.GAP:
        time_to_coverage = cycle.wait_until_covered(onset)
        if duration <= time_to_coverage:
            return QoSLevel.MISSED
        # Detected late; the next revisit is a full cycle away, beyond
        # the deadline (Theorem 2's second condition cannot hold for
        # tau <= L1), so a single-coverage result is the ceiling.
        return QoSLevel.SINGLE
    # Onset inside alpha: detected immediately.
    if scheme.supports_sequential_coverage:
        wait = cycle.wait_until_next_satellite(onset)
        if duration > wait and wait + computation <= tau:
            return QoSLevel.SEQUENTIAL_DUAL
    return QoSLevel.SINGLE


def classify_qos_levels(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    onset: np.ndarray,
    duration: np.ndarray,
    computation: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`sample_qos_level`: classify the QoS level of
    every ``(onset, duration, computation)`` triple at once.

    Covers all four branches (overlap/underlap x OAQ/BAQ) and returns
    an integer array of QoS levels.  Element-for-element identical to
    the scalar rules -- the test suite pins the equivalence.
    """
    onset = np.asarray(onset, dtype=float)
    duration = np.asarray(duration, dtype=float)
    computation = np.asarray(computation, dtype=float)
    if not onset.shape == duration.shape == computation.shape:
        raise ConfigurationError(
            "onset, duration and computation arrays must share a shape"
        )
    tau = params.tau
    alpha_length = geometry.single_coverage_length
    levels = np.full(onset.shape, int(QoSLevel.SINGLE))

    if geometry.overlapping:
        wait = np.where(onset < alpha_length, alpha_length - onset, 0.0)
        reachable = wait + computation <= tau
        survives = (wait == 0.0) | (duration > wait)
        eligible = reachable & survives
        if scheme is Scheme.BAQ:
            eligible &= wait == 0.0
        levels[eligible] = int(QoSLevel.SIMULTANEOUS_DUAL)
    else:
        in_gap = onset >= alpha_length
        time_to_coverage = geometry.l1 - onset
        missed = in_gap & (duration <= time_to_coverage)
        levels[missed] = int(QoSLevel.MISSED)
        if scheme.supports_sequential_coverage:
            wait = geometry.l1 - onset
            sequential = (
                ~in_gap & (duration > wait) & (wait + computation <= tau)
            )
            levels[sequential] = int(QoSLevel.SEQUENTIAL_DUAL)
    return levels


def _distribution_from_counts(counts: Dict[QoSLevel, int], samples: int) -> QoSDistribution:
    return QoSDistribution(
        {level: counts.get(level, 0) / samples for level in QoSLevel}
    )


def _distribution_from_levels(levels: np.ndarray, samples: int) -> QoSDistribution:
    return QoSDistribution(
        {
            level: int(np.count_nonzero(levels == int(level))) / samples
            for level in QoSLevel
        }
    )


def _stratified_onsets(
    geometry: PlaneGeometry, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Onset positions stratified over the cycle's interval structure.

    Each cycle interval (alpha, then beta or gamma) receives a sample
    allocation proportional to its length -- largest remainders break
    the rounding ties -- and positions are drawn uniformly *within*
    their stratum, eliminating the between-strata variance of plain
    uniform onset sampling.  The concatenated array is shuffled so
    downstream pairing (CRN across schemes, antithetic mirrors) sees no
    ordering artefact.
    """
    cycle = FootprintCycle(geometry)
    intervals = cycle.intervals
    lengths = np.array([interval.length for interval in intervals])
    quotas = samples * lengths / geometry.l1
    allocation = np.floor(quotas).astype(int)
    shortfall = samples - int(allocation.sum())
    if shortfall > 0:
        for index in np.argsort(quotas - np.floor(quotas))[::-1][:shortfall]:
            allocation[index] += 1
    parts = [
        rng.uniform(interval.start, interval.end, size=int(count))
        for interval, count in zip(intervals, allocation)
        if count > 0
    ]
    onsets = np.concatenate(parts) if parts else np.empty(0)
    rng.shuffle(onsets)
    return onsets


def draw_signal_variates(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    samples: int,
    rng: np.random.Generator,
    *,
    onset_sampling: str = "uniform",
    antithetic: bool = False,
):
    """Draw the per-signal randomness ``(onset, duration, computation)``
    shared by the fast and protocol samplers.

    ``onset_sampling`` is ``"uniform"`` (the Poisson-arrival default)
    or ``"stratified"`` (see :func:`_stratified_onsets`).
    ``antithetic=True`` draws ``ceil(samples/2)`` base variates and
    mirrors them through the inverse transform: onsets reflect across
    the cycle (``L1 - x``), durations and computation times flip their
    uniform through the exponential CDF.  Both knobs preserve the
    marginal distributions exactly; they only introduce negative
    correlation between paired samples.
    """
    if onset_sampling not in ("uniform", "stratified"):
        raise ConfigurationError(
            f"onset_sampling must be 'uniform' or 'stratified', got "
            f"{onset_sampling!r}"
        )
    l1 = geometry.l1
    if antithetic:
        half = (samples + 1) // 2
        if onset_sampling == "stratified":
            base_onset = _stratified_onsets(geometry, half, rng)
        else:
            base_onset = rng.uniform(0.0, l1, size=half)
        u_duration = rng.random(half)
        u_computation = rng.random(half)
        # Inverse-transform exponentials so the mirror 1-u maps to a
        # valid draw of the same marginal.
        onset = np.concatenate([base_onset, l1 - base_onset])[:samples]
        duration = -np.log1p(
            -np.concatenate([u_duration, 1.0 - u_duration])[:samples]
        ) / params.mu
        computation = -np.log1p(
            -np.concatenate([u_computation, 1.0 - u_computation])[:samples]
        ) / params.nu
        return onset, duration, computation
    if onset_sampling == "stratified":
        onset = _stratified_onsets(geometry, samples, rng)
    else:
        onset = rng.uniform(0.0, l1, size=samples)
    duration = rng.exponential(1.0 / params.mu, size=samples)
    computation = rng.exponential(1.0 / params.nu, size=samples)
    return onset, duration, computation


def simulate_conditional_distribution(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    *,
    samples: int = 100_000,
    seed: Optional[int] = None,
    vectorized: bool = True,
    onset_sampling: str = "uniform",
    antithetic: bool = False,
) -> QoSDistribution:
    """Monte-Carlo estimate of ``P(Y = y | k)``.

    The default path draws ``(onset, duration, computation)`` arrays
    and classifies them with :func:`classify_qos_levels`;
    ``vectorized=False`` runs the scalar :func:`sample_qos_level` loop
    instead (the readable specification, ~100x slower).  Both are
    bit-reproducible under a fixed ``seed``.  ``onset_sampling`` and
    ``antithetic`` enable variance reduction (vectorised path only).
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    if not vectorized:
        if onset_sampling != "uniform" or antithetic:
            raise ConfigurationError(
                "variance-reduction options require the vectorized path"
            )
        counts: Dict[QoSLevel, int] = {}
        for _ in range(samples):
            level = sample_qos_level(geometry, params, scheme, rng)
            counts[level] = counts.get(level, 0) + 1
        return _distribution_from_counts(counts, samples)
    onset, duration, computation = draw_signal_variates(
        geometry,
        params,
        samples,
        rng,
        onset_sampling=onset_sampling,
        antithetic=antithetic,
    )
    levels = classify_qos_levels(
        geometry, params, scheme, onset, duration, computation
    )
    return _distribution_from_levels(levels, samples)


def simulate_paired_conditional_distributions(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    schemes: Sequence[Scheme],
    *,
    samples: int = 100_000,
    seed: Optional[int] = None,
    onset_sampling: str = "uniform",
    antithetic: bool = False,
) -> Dict[Scheme, QoSDistribution]:
    """Common-random-numbers estimate of ``P(Y = y | k)`` for several
    schemes: every scheme is classified over the *same* ``(onset,
    duration, computation)`` draws, so scheme-vs-scheme differences
    (e.g. the OAQ-BAQ level-2/3 gain the paper reports) carry sampling
    noise only where the schemes actually disagree.  Extends the fault
    campaign's paired-seed design to the QoS estimators.
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    if not schemes:
        raise ConfigurationError("at least one scheme is required")
    rng = np.random.default_rng(seed)
    onset, duration, computation = draw_signal_variates(
        geometry,
        params,
        samples,
        rng,
        onset_sampling=onset_sampling,
        antithetic=antithetic,
    )
    return {
        scheme: _distribution_from_levels(
            classify_qos_levels(
                geometry, params, scheme, onset, duration, computation
            ),
            samples,
        )
        for scheme in schemes
    }


def simulate_conditional_distribution_protocol(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    *,
    samples: int = 2_000,
    seed: Optional[int] = None,
    engine: str = "batch",
    onset_sampling: str = "uniform",
    antithetic: bool = False,
) -> QoSDistribution:
    """Monte-Carlo estimate of ``P(Y = y | k)`` where each sample runs
    the full message-passing protocol.

    Builds one :class:`~repro.simulation.batch.ScenarioTemplate` for
    the cell and replays it per sample with one generator seeded from
    ``SeedSequence(seed)``: signal variates first (see
    :func:`draw_signal_variates`), protocol draws after (deterministic
    under a fixed ``seed``, pinned statistically against per-seed
    scenarios -- see ``docs/SIMULATION.md``).  ``engine="vector"``
    hands the whole cell to the struct-of-arrays engine of
    :mod:`repro.simulation.vector` instead (~100x the scalar
    throughput; same marginal distribution, different draw order, so
    per-seed results differ sample-for-sample but remain deterministic
    and exact against the scalar oracle).
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    from repro.simulation.batch import ScenarioTemplate

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    onsets, durations, _ = draw_signal_variates(
        geometry,
        params,
        samples,
        rng,
        onset_sampling=onset_sampling,
        antithetic=antithetic,
    )
    template = ScenarioTemplate(geometry, params, scheme=scheme)
    levels, _ = template.sample_levels(rng, onsets, durations, engine=engine)
    return _distribution_from_levels(levels, samples)
