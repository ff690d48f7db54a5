"""repro — reproduction of "Deployment and Scalability of an Inter-Domain
Multi-Path Routing Infrastructure" (CoNEXT 2021).

A from-scratch Python implementation of the SCION control plane (beaconing
with the baseline and path-diversity-based path construction algorithms,
path servers, revocation), data plane (packet-carried forwarding state,
segment combination), deployment models, and the BGP/BGPsec comparison
substrate, together with experiment harnesses regenerating every table and
figure of the paper's evaluation.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.topology` — AS-level multigraphs, CAIDA formats, generators;
* :mod:`repro.core` — PCBs, beacon stores, the two path construction
  algorithms (the paper's contribution), parameter tuning;
* :mod:`repro.simulation` — beaconing drivers and the discrete-event core;
* :mod:`repro.control` — segments, path servers, revocation, and the
  full-stack :class:`~repro.control.ScionNetwork`;
* :mod:`repro.dataplane` — hop fields, packets, border routers, path
  combination;
* :mod:`repro.deployment` — §3 deployment models (ISP links, SIGs, IXPs);
* :mod:`repro.bgp` — BGP/BGPsec simulation and message sizing;
* :mod:`repro.analysis` — max-flow path quality and overhead statistics;
* :mod:`repro.experiments` — one harness per table/figure
  (``python -m repro.experiments <name>``).
"""

from .control import ScionNetwork
from .topology import Relationship, Topology

__version__ = "1.0.0"

__all__ = [
    "ScionNetwork",
    "Relationship",
    "Topology",
    "__version__",
]
