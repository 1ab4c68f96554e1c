"""The package namespace: one export table, each name loaded on first access."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tmcat

# The exported names as the package listed them by hand, before the table.
_SURFACE = """
    BASIS_SCHEMES BasisSet BeamParams BlochVector C_LIGHT CcdConfig CcdImage
    ChannelModel CoherentTerm FiberSpec FitError GaussianFit HBAR
    LAB_FOCAL_LENGTH LAB_FRAME LAB_THETA_D LensSystem ModeFrame NumericsError
    OverlapAngle PhaseSpaceGrid PlaneTag PropagatedField ProtocolStats QubitParams
    RayMatrix ScenarioPanel SimulationError SuperpositionState SweepPoint
    TYPICAL_KINDS ValidationError WignerMap beam_params_at bloch_to_params
    build_basis cat_coefficients coherent_overlap compose dephased_mixture
    estimate_relative_phase expected_qber fit_gaussian_profile focal_waist
    gi_fiber_evolve inner_product kernel_step make_qubit_state make_typical_state
    momentum_plane negativity_scan normalization_factor params_to_bloch
    position_plane profile_from_image profile_sweep propagate_analytic
    propagate_kernel psk_link_simulate qkd_simulate quadrature_moments ray_free
    ray_lens render_ccd rotate_cat_phase rotate_phase_space scenario_reports
    signed_phase wigner_map wigner_of_state wrap_phase
""".split()
_MODULES = ("applications", "errors", "propagation", "states", "virtual_lab", "wigner")


def _fresh(code: str) -> list[str]:
    """The words that ``code`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(tmcat.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def _loaded_after(statement: str) -> list[str]:
    """The tmcat modules and numpy that a fresh interpreter holds after ``statement``."""
    return _fresh(
        f"import sys; {statement}\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tmcat.')))"
    )


def test_import_loads_no_module():
    assert _loaded_after("import tmcat") == []
    # the CLI still imports every module it runs, up front
    assert _loaded_after("import tmcat.cli") == [
        "numpy", *(f"tmcat.{m}" for m in ("applications", "cli", "errors", "fileio",
                                          "propagation", "states", "virtual_lab", "wigner"))
    ]
    # a name loads its own module and the modules that one imports
    assert _loaded_after("from tmcat import ValidationError") == ["tmcat.errors"]


@pytest.mark.parametrize("module", ["wigner", "propagation", "virtual_lab", "applications"])
def test_physics_modules_import_only_the_state_layer(module):
    assert _loaded_after(f"import tmcat.{module}") == sorted(
        ["numpy", f"tmcat.{module}", "tmcat.states", "tmcat.errors"]
    )


def test_every_name_is_its_modules_object():
    assert tmcat.__all__ == sorted(_SURFACE) and len(set(tmcat.__all__)) == 71
    assert sorted(tmcat._EXPORTS) == sorted(_MODULES)
    for name in tmcat.__all__:
        owner = importlib.import_module(f"tmcat.{tmcat._OWNER[name]}")
        value = getattr(tmcat, name)
        assert value is getattr(owner, name)
        # a class or function is listed under the module that defines it
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == owner.__name__
        # cached: the next lookup finds the name in the package itself
        assert vars(tmcat)[name] is getattr(tmcat, name)
    namespace = {}
    exec("from tmcat import *", namespace)
    assert {name: namespace[name] for name in tmcat.__all__} == {
        name: getattr(tmcat, name) for name in tmcat.__all__
    }
    assert set(tmcat.__all__) <= set(dir(tmcat)) and "__version__" in dir(tmcat)
    # a bare import binds no public name beyond the table's
    public = "print(*(n for n in dir(tmcat) if not n.startswith('_')))"
    assert _fresh(f"import tmcat; {public}") == tmcat.__all__


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="^module 'tmcat' has no attribute 'no_such_name'$"):
        tmcat.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from tmcat import no_such_name  # noqa: F401
    code = "import tmcat; print(type(tmcat.states).__name__, tmcat.states.__name__)"
    assert _fresh(code) == ["module", "tmcat.states"]
    for module in _MODULES:
        assert getattr(tmcat, module) is importlib.import_module(f"tmcat.{module}")


def test_readme_python_blocks_run_and_count_the_names(capsys):
    """Each fenced python block of README runs as written, and the library
    tour's table names as many exported names as ``__all__`` holds."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
    (count,) = re.findall(r"one table of the (\d+) exported names", text)
    assert int(count) == len(tmcat.__all__)
