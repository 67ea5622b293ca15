"""Simulator of the synchronous CONGEST model and its sleeping variant.

Two execution engines share the :class:`NodeAlgorithm`/:class:`Context`/
:class:`Inbox` API: the synchronous :class:`Runner` (lock-step rounds, the
model the paper's guarantees are stated in) and the asynchronous
:class:`EventRunner` (a :class:`Runner` subclass on the same engine loop:
virtual-time event heap, per-edge latency models, bandwidth/duration
stopping conditions).  Under the default unit latency
model the two are differentially identical; :func:`make_runner` plus the
:func:`simulation_engine` context select the engine library-wide.

Both engines honor the seeded fault plane of :mod:`repro.sim.faults`
(message drop/duplication, node crash-restart) — installed per run via
``simulation_engine(..., faults=...)`` and metered into :class:`Metrics`.
"""

from .metrics import Metrics
from .runner import Context, Inbox, Mode, NodeAlgorithm, Runner, SimulationError
from .reference import ReferenceRunner
from .trace import TracingMetrics
from .faults import FaultModel, canonical_fault, parse_fault_model
from .events import (
    EdgeTableLatency,
    EngineStats,
    EventRunner,
    LatencyModel,
    RandomDelayLatency,
    UniformLatency,
    canonical_latency,
    current_engine,
    current_faults,
    fault_horizon_factor,
    latency_bound,
    make_runner,
    parse_latency_model,
    simulation_engine,
)

__all__ = [
    "Metrics",
    "TracingMetrics",
    "Context",
    "Inbox",
    "Mode",
    "NodeAlgorithm",
    "Runner",
    "ReferenceRunner",
    "SimulationError",
    "EventRunner",
    "LatencyModel",
    "UniformLatency",
    "RandomDelayLatency",
    "EdgeTableLatency",
    "parse_latency_model",
    "canonical_latency",
    "FaultModel",
    "parse_fault_model",
    "canonical_fault",
    "EngineStats",
    "simulation_engine",
    "current_engine",
    "current_faults",
    "fault_horizon_factor",
    "latency_bound",
    "make_runner",
]
