"""Quantum Max Cut: moment-matrix relaxation, circuit rounding, certification."""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    alpha_gw,
    build_certificate,
    cut_probability_audit,
    monogamy_audit,
    per_edge_ratio_audit,
    ratio_constant,
    sweep_alpha0,
)
from .energy import EdgeEnergyReport, edge_energy_bound, total_energy
from .graph import Graph, GraphError, InputError, generate, parse_graph, serialize_graph
from .oracle import (
    QubitLimitError,
    SpectrumResult,
    exact_opt,
    expectation,
    simulate,
)
from .rounding import (
    Assignment,
    Circuit,
    EdgeParameters,
    build_circuit,
    compute_gammas,
    sample_assignment,
    sample_cuts,
    theta_map,
)
from .sdp import (
    GramIndex,
    GramSolution,
    SdpModel,
    SolverConfig,
    SolverError,
    VectorSolution,
    build_index,
    build_model,
    extract_vectors,
    solve,
)

__all__ = [
    "Assignment",
    "Certificate",
    "Circuit",
    "EdgeEnergyReport",
    "EdgeParameters",
    "Graph",
    "GraphError",
    "GramIndex",
    "GramSolution",
    "InputError",
    "QubitLimitError",
    "SdpModel",
    "SolverConfig",
    "SolverError",
    "SpectrumResult",
    "VectorSolution",
    "alpha_gw",
    "build_certificate",
    "build_circuit",
    "build_index",
    "build_model",
    "compute_gammas",
    "cut_probability_audit",
    "edge_energy_bound",
    "exact_opt",
    "expectation",
    "extract_vectors",
    "generate",
    "monogamy_audit",
    "parse_graph",
    "per_edge_ratio_audit",
    "ratio_constant",
    "sample_assignment",
    "sample_cuts",
    "serialize_graph",
    "simulate",
    "solve",
    "sweep_alpha0",
    "theta_map",
    "total_energy",
]
