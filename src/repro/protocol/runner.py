"""Scenario runner: the OAQ protocol for one signal on the centre line
of one plane's footprint trajectory (the paper's worst-case evaluation
setting).

:class:`CenterlineScenario` is the per-run API.  It draws the signal
(onset cycle position, then duration) from its seed and runs it on the
one scalar protocol engine,
:class:`~repro.simulation.batch.ScenarioTemplate`, which schedules the
footprint arrivals, double-coverage onsets and fail-silence injections
and lets the satellites run the Section 3.2 protocol over the simulated
crosslinks.  Monte-Carlo estimators replicate one template many times
instead of building a scenario per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

import numpy as np

from repro.analytic.distributions import Distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.desim.kernel import Simulator
from repro.desim.network import MessageRecord
from repro.errors import ConfigurationError
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.geometry.plane import PlaneGeometry
from repro.protocol.accuracy_model import AccuracyModel
from repro.protocol.messages import AlertMessage
from repro.protocol.satellite import MessagingVariant
from repro.protocol.signal import Signal

__all__ = [
    "ScenarioOutcome",
    "CenterlineScenario",
    "normalise_onset_position",
    "resolve_satellite_count",
]


def normalise_onset_position(geometry: PlaneGeometry, onset_position: float) -> float:
    """Validate a cycle position against ``[0, L1)`` and wrap the
    half-open boundary.

    The cycle is periodic, so a position equal to ``L1`` (reached
    exactly, or through floating-point tolerance) is the start of the
    next cycle and wraps to ``0.0``; anything beyond is rejected.
    Shared by :class:`CenterlineScenario` and the replication engine so
    both accept exactly the same inputs.
    """
    if not 0.0 <= onset_position <= geometry.l1 + 1e-12:
        raise ConfigurationError(
            f"onset_position must be in [0, L1={geometry.l1}), got "
            f"{onset_position}"
        )
    if onset_position >= geometry.l1:
        return 0.0
    return onset_position


def resolve_satellite_count(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    satellite_count: Optional[int] = None,
) -> int:
    """Chain capacity: ``satellite_count`` if given (at least one
    satellite), else enough visits to span the deadline window plus
    margin."""
    if satellite_count is None:
        return 3 + int(
            math.ceil((params.tau + geometry.coverage_time) / geometry.l1)
        )
    if not satellite_count >= 1:
        raise ConfigurationError(
            f"satellite_count must be >= 1, got {satellite_count}"
        )
    return satellite_count


@dataclass
class ScenarioOutcome:
    """Everything a test or experiment needs from one protocol run."""

    signal: Signal
    achieved_level: QoSLevel
    official_alert: Optional[AlertMessage]
    all_alerts: List[AlertMessage]
    duplicates: int
    message_log: List[MessageRecord]
    detection_time: Optional[float]

    @property
    def alert_latency(self) -> Optional[float]:
        """Minutes from detection to the official alert's send time."""
        return self.official_alert.latency if self.official_alert else None

    @property
    def chain_length(self) -> int:
        """Satellites in the official alert's coordination chain."""
        return len(self.official_alert.chain) if self.official_alert else 0


class CenterlineScenario:
    """One signal, one plane, full protocol execution.

    Parameters
    ----------
    geometry:
        Plane geometry (``k``, ``theta``, ``Tc``).
    params:
        Evaluation parameters (``tau``, ``delta``, ``Tg``, TC-1
        threshold, ...).
    onset_position:
        Signal onset's cycle position ``x`` in ``[0, L1)``; sampled
        uniformly when None (the Poisson-arrival assumption).  The
        cycle is periodic, so a position equal to ``L1`` (up to
        floating-point tolerance) wraps to ``0.0``; anything beyond is
        rejected.
    signal_duration:
        Emission length in minutes; sampled from ``Exp(mu)`` when None.
    scheme / variant:
        OAQ or BAQ; done-propagation or successor-responsibility.
    fail_silent:
        Mapping satellite name -> failure time (minutes, ``>= 0``); the
        node goes fail-silent then.
    crosslink_loss_probability:
        i.i.d. chance that any message (crosslink or downlink) is lost
        in flight -- fault injection beyond the paper's fail-silent
        model.
    link_loss_fn:
        Per-message loss hook ``(now, source, destination) ->
        probability`` combined independently with
        ``crosslink_loss_probability`` (see
        :class:`~repro.desim.network.Network`); the fault-injection
        campaign engine uses it for per-link loss rates and downlink
        blackout windows.
    next_peer_override:
        Replaces the default "next satellite in visit order" peer
        selection -- e.g. a group-membership view that skips satellites
        known to have failed (see
        :mod:`repro.protocol.membership`).  Receives a satellite name,
        returns the peer to invite (or None to stop the chain).
    satellite_count:
        Chain capacity (see :func:`resolve_satellite_count`).
    """

    def __init__(
        self,
        geometry: PlaneGeometry,
        params: EvaluationParams,
        *,
        scheme: Scheme = Scheme.OAQ,
        variant: MessagingVariant = MessagingVariant.DONE_PROPAGATION,
        onset_position: Optional[float] = None,
        signal_duration: Optional[float] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        computation_time: Optional[Distribution] = None,
        fail_silent: Optional[Mapping[str, float]] = None,
        crosslink_loss_probability: float = 0.0,
        link_loss_fn: Optional[Callable[[float, str, str], float]] = None,
        next_peer_override: Optional[Callable[[str], Optional[str]]] = None,
        satellite_count: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        self.geometry = geometry
        self.params = params
        self.scheme = scheme
        self.variant = variant
        self.accuracy_model = accuracy_model
        self.computation_time = computation_time
        self.fail_silent = dict(fail_silent or {})
        self.crosslink_loss_probability = crosslink_loss_probability
        self.link_loss_fn = link_loss_fn
        self.next_peer_override = next_peer_override
        self.rng = np.random.default_rng(seed)
        self.cycle = FootprintCycle(geometry)
        #: The DES kernel of the most recent :meth:`run` (None before
        #: the first run).  Fault-injection hooks that need the current
        #: simulation time (e.g. stale membership views) read it here.
        self.simulator: Optional[Simulator] = None
        if onset_position is None:
            onset_position = float(self.rng.uniform(0.0, geometry.l1))
        self.onset_position = normalise_onset_position(geometry, onset_position)
        if signal_duration is None:
            signal_duration = float(self.rng.exponential(1.0 / params.mu))
        self.signal = Signal("signal-0", 0.0, signal_duration)
        self.satellite_count = resolve_satellite_count(
            geometry, params, satellite_count
        )

    def covered_at_onset(self) -> bool:
        """Whether the target is covered when the signal starts."""
        return (
            self.cycle.interval_at(self.onset_position).kind
            is not CoverageKind.GAP
        )

    def run(self, *, horizon: Optional[float] = None) -> ScenarioOutcome:
        """Run the signal to quiescence on a one-shot template and
        adjudicate; the protocol's draws continue this scenario's
        generator."""
        # Imported here: repro.simulation.batch imports this module.
        from repro.simulation.batch import ScenarioTemplate

        template = ScenarioTemplate(
            self.geometry,
            self.params,
            scheme=self.scheme,
            variant=self.variant,
            accuracy_model=self.accuracy_model,
            computation_time=self.computation_time,
            satellite_count=self.satellite_count,
            crosslink_loss_probability=self.crosslink_loss_probability,
            link_loss_fn=self.link_loss_fn,
            record_log=True,
        )
        self.simulator = template.simulator
        return template.replicate(
            self.rng,
            onset_position=self.onset_position,
            signal_duration=self.signal.duration,
            fail_silent=self.fail_silent,
            next_peer_override=self.next_peer_override,
        ).run(horizon=horizon)
