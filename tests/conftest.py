import math

import pytest
from hypothesis import settings

from tmcat import ModeFrame, OverlapAngle

# Property tests draw from a fixed seed and a bounded example budget, so a
# tier-1 run is deterministic and stays fast on a small host.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def frame() -> ModeFrame:
    """The bench frame: 0.12 mm waist, 780 nm light."""
    return ModeFrame(w0=0.12e-3, wavelength=780e-9)


@pytest.fixture(scope="session")
def angle_w0(frame) -> OverlapAngle:
    """Overlap angle at separation d = w0 (alpha = 1/sqrt(2))."""
    return OverlapAngle.from_displacement(frame.w0, frame.w0)


@pytest.fixture(scope="session")
def angle_far(frame) -> OverlapAngle:
    """Deep orthogonal regime, d = 12 w0; overlaps ~ 1e-32."""
    return OverlapAngle.from_alpha(12.0 / math.sqrt(2.0))


@pytest.fixture(scope="session")
def angle_bench() -> OverlapAngle:
    """The operating point theta_d = 0.4 pi."""
    return OverlapAngle.from_theta(0.4 * math.pi)
