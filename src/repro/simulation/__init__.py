"""Simulation layer: discrete-event engine and beaconing drivers."""

from .engine import Event, EventQueue, SimulationClock, Simulator
from .metrics import InterfaceSnapshot, InterfaceStats, TrafficMetrics
from .beaconing import (
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    BeaconServerSim,
    algorithm_factory,
    baseline_factory,
    diversity_factory,
)

__all__ = [
    "Event",
    "EventQueue",
    "SimulationClock",
    "Simulator",
    "InterfaceSnapshot",
    "InterfaceStats",
    "TrafficMetrics",
    "BeaconingConfig",
    "BeaconingMode",
    "BeaconingSimulation",
    "BeaconServerSim",
    "algorithm_factory",
    "baseline_factory",
    "diversity_factory",
]
