"""Simulator for qubits encoded in the transverse position of a light beam.

A logical qubit lives in the two-dimensional span of a fundamental Gaussian
mode and a displaced copy of it.  The package models state preparation,
phase-space (Wigner) representations, free-space and fiber propagation, a
synthetic CCD bench, and the keying/key-exchange protocols built on top.

``import tmcat`` loads none of its modules: each exported name imports its
module on first access (PEP 562) and is then an ordinary package attribute.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The exported names, under the module that defines each.
_EXPORTS = {
    "applications": """BASIS_SCHEMES BasisSet ChannelModel ProtocolStats SweepPoint
        build_basis dephased_mixture expected_qber profile_sweep psk_link_simulate
        qkd_simulate rotate_cat_phase""",
    "errors": "FitError NumericsError SimulationError ValidationError",
    "propagation": """BeamParams FiberSpec LensSystem PropagatedField RayMatrix
        beam_params_at compose gi_fiber_evolve kernel_step propagate_analytic
        propagate_kernel ray_free ray_lens""",
    "states": """C_LIGHT HBAR TYPICAL_KINDS BlochVector CoherentTerm ModeFrame
        OverlapAngle QubitParams SuperpositionState bloch_to_params cat_coefficients
        coherent_overlap inner_product make_qubit_state make_typical_state
        normalization_factor params_to_bloch quadrature_moments rotate_phase_space
        signed_phase wrap_phase""",
    "virtual_lab": """LAB_FOCAL_LENGTH LAB_FRAME LAB_THETA_D CcdConfig CcdImage
        GaussianFit PlaneTag ScenarioPanel estimate_relative_phase
        fit_gaussian_profile focal_waist momentum_plane position_plane
        profile_from_image render_ccd scenario_reports""",
    "wigner": "PhaseSpaceGrid WignerMap negativity_scan wigner_map wigner_of_state",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, e.g. tmcat.states after a bare import
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # cached, so later lookups are plain attribute reads
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
