"""The virtual-state data of the phase-error derivation at one p_z.

The library forms the six term coefficients from ``pair_coeffs`` alone,
since the p_z-dependent preparation probabilities and outcome weights
reduce to the closed forms of ``phase_error.phase_weights``.  The full
data stay here as the tests' reference for that reduction.
"""

from dataclasses import dataclass

import numpy as np

from qkd_keyrate.qubit_model import FilteredQubit, pair_coeffs


@dataclass(frozen=True)
class VirtualStateCoeffs:
    """Decomposition data of the virtual states built from the two Z states.

    ``overlap``, ``c`` and ``w`` are those of ``pair_coeffs``;
    ``probs[c]`` the preparation probabilities of the five
    virtual-protocol states, and ``q[omega]`` the outcome weights of the
    collective measurement.
    """

    overlap: float
    c: np.ndarray
    w: tuple[float, float]
    probs: dict[int, float]
    q: dict[int, float]


def virtual_state_coeffs(
    s0z: FilteredQubit,
    s1z: FilteredQubit,
    a_inv: np.ndarray,
    p_z: float,
) -> VirtualStateCoeffs:
    if not (0.0 < p_z < 1.0):
        raise ValueError("p_z must lie strictly in (0, 1)")
    p_x = 1.0 - p_z
    overlap, c, w = pair_coeffs(s0z, s1z, a_inv)
    probs = {
        1: p_z**2 * (1.0 + overlap) / 2.0,
        2: p_z**2 * (1.0 - overlap) / 2.0,
        3: p_z * p_x / 2.0,
        4: p_z * p_x / 2.0,
        5: p_x,
    }
    q = {
        1: probs[1],
        2: probs[2],
        3: probs[3],
        4: probs[4],
        5: p_x * probs[5],
        6: p_z * probs[5],
    }
    return VirtualStateCoeffs(overlap=overlap, c=c, w=w, probs=probs, q=q)
