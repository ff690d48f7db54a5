"""Simulation layer: discrete-event engine and beaconing drivers."""

from .engine import SimulationClock, Simulator
from .metrics import InterfaceStats, TrafficMetrics
from .beaconing import (
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)

__all__ = [
    "SimulationClock",
    "Simulator",
    "InterfaceStats",
    "TrafficMetrics",
    "BeaconingConfig",
    "BeaconingMode",
    "BeaconingSimulation",
    "baseline_factory",
    "diversity_factory",
]
