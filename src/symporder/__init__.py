"""Bi-invariant order, winding quasimorphism and growth on symplectic paths.

The package works with identity-based paths in Sp(2n, R) sampled on a time
grid over [0, 1].  Windings are reported in radians: the full rotation loop
in Sp(2) scores 2*pi.  A parallel set of tools covers fiber-shift plus
leaf-function elements of prequantized torus dynamics, where the analogous
order, growth and distance quantities have closed forms.

``import symporder`` loads no submodule: each exported name is bound on first
use, by importing the module it lives in (PEP 562), so a command line call
imports only the modules its subcommand reads.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "errors": ("ComputationError", "InputError", "ResolutionError"),
    "generators": (
        "commuting_unitary_pair", "diagonal_unitary_path", "random_positive_diagonal_target",
        "random_symplectic_path", "random_unitary_path", "rotation_loop", "rotation_path",
        "uniform_times", "unitary_loop",
    ),
    "growth": (
        "Estimate", "GrowthEstimate", "ZPoint", "gamma_closed_symplectic",
        "gamma_n_bruteforce", "growth_estimate", "mu_tilde", "pseudo_distance_k",
        "z_coordinate",
    ),
    "io": (
        "load_grid", "load_hermitian", "load_matrix", "load_path", "load_quant_element",
        "save_grid", "save_path", "save_quant_element",
    ),
    "maslov": (
        "MaslovResult", "RedistributedSpectrum", "defect_constant", "homogenize",
        "maslov_index", "maslov_via_trace", "positive_path_to", "redistribute_eigenvalues",
        "unitary_endpoint",
    ),
    "matrices": (
        "complex_to_real", "exp_i_hermitian", "real_to_complex", "standard_j",
        "symplectic_defect", "symplectic_inverse", "unitary_polar_factor",
    ),
    "paths": (
        "ConeStatus", "ConeVerdict", "SampledPath", "classify_cone", "compose",
        "embed_block", "extract_hamiltonian", "invert", "order_leq", "pointwise_power",
        "refine", "resample",
    ),
    "prequant": (
        "HoferProfile", "LeafFunction", "QuantElement", "RotationCurveDistance",
        "calabi_weinstein", "embed_into_z", "fiber_rotation", "gamma_n_quant_bruteforce",
        "gamma_quant", "hofer_norms", "k_quant", "normalize_leaf", "order_bridge",
        "rotation_curve_distance", "torus_grid",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
