"""Hypothesis strategy shared by the property tests: random 1-4 term states
with complex coefficients and complex amplitudes on both axes (Im(alpha)
tilts the beam), pure unless a coherence strategy is given."""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from tmcat import CoherentTerm, ModeFrame, SuperpositionState, ValidationError

BENCH_FRAME = ModeFrame(w0=0.12e-3, wavelength=780e-9)
_unit = st.floats(-1.0, 1.0)


@st.composite
def superpositions(draw, max_terms=4, shared_y=False, coherence=None):
    """A well-conditioned pure state; with ``coherence``, a strategy of floats
    in [0, 1], the same terms at a drawn coherence instead."""
    terms = [
        CoherentTerm(
            coeff=draw(st.floats(0.1, 1.0)) * np.exp(1j * math.pi * draw(_unit)),
            alpha_x=complex(1.5 * draw(_unit), draw(_unit)),
            alpha_y=0j if shared_y else complex(0.5 * draw(_unit), 0.5 * draw(_unit)),
        )
        for _ in range(draw(st.integers(1, max_terms)))
    ]
    try:
        state = SuperpositionState.from_terms(BENCH_FRAME, terms)
    except ValidationError:
        assume(False)
    # a norm far below sum |c|^2 comes from cancellation, which no pair sum
    # evaluates to 1e-12; keep to well-conditioned superpositions
    assume(state.norm >= 0.05 * sum(abs(t.coeff) ** 2 for t in terms))
    if coherence is None:
        return state
    return SuperpositionState.from_terms(BENCH_FRAME, terms, draw(coherence))
