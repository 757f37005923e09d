"""Single-photon source characterisation.

Alice's three states (two Z-basis states and one X-basis state) are
emitted with the proportional encoding flaw delta = xi * theta / pi and
balanced pulses, so their single-photon parts are pure qubits whose Bloch
vectors lie in the X-Z plane.  The filter of the filtered protocol is the
identity on that plane.  An eigendecomposition of each filtered state,
which also takes the mixed states of a vector inside the unit disc, and
the inversion of the transmission-rate matrix built from the three states
provide everything the phase-error estimator needs.

All amplitudes are real: filtered states live in the X-Z plane by
construction, and the eigenvector convention fixes the |1_z> component to be
nonnegative so that cross products between eigenvectors of different states
are well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEGENERACY_THRESHOLD",
    "DegenerateStatesError",
    "FilteredQubit",
    "TransmissionMatrix",
    "bloch_of_state",
    "apply_filter",
    "build_transmission_matrix",
    "pair_coeffs",
]

DEGENERACY_THRESHOLD = 1e-12

# nominal encoding angles of the three states
THETA_0Z = 0.0
THETA_1Z = math.pi
THETA_0X = math.pi / 2


class DegenerateStatesError(ValueError):
    """The three filtered states are collinear in the X-Z plane."""


@dataclass(frozen=True)
class FilteredQubit:
    """A filtered state in the X-Z plane with its eigendecomposition.

    ``p0``/``p1`` are the eigenvalue weights ``(1 -+ |r|)/2`` and
    ``(a_i, b_i)`` the real eigenvector components in the computational
    basis, with ``b_i >= 0``.
    """

    r_x: float
    r_z: float
    p0: float
    p1: float
    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self) -> None:
        # the one unit-disc check of a filtered state; products, unlike
        # **2, do not raise OverflowError on a huge component
        if self.r_x * self.r_x + self.r_z * self.r_z > 1.0 + 1e-12:
            raise ValueError("filtered Bloch vector leaves the unit disc")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("eigenvalue weights must sum to 1")
        for a, b in ((self.a0, self.b0), (self.a1, self.b1)):
            if abs(a * a + b * b - 1.0) > 1e-12:
                raise ValueError("eigenvectors must be normalised")


@dataclass(frozen=True)
class TransmissionMatrix:
    """Stacked transmission-rate rows of the three states and the inverse."""

    a: np.ndarray
    a_inv: np.ndarray
    q: float


def bloch_of_state(theta_a: float, xi: float) -> tuple[float, float]:
    """In-plane Bloch vector ``(r_x, r_z)`` of the single-photon part of
    the state with angle theta_a, encoded with the flaw
    delta = xi * theta_a / pi."""
    phi = theta_a + xi * theta_a / math.pi
    return math.sin(phi), math.cos(phi)


def _eigvec(c: float, r_x: float) -> tuple[float, float]:
    # direction (c, r_x), sign-fixed so the |1_z> component is positive;
    # pre-scaled so subnormal components still normalise accurately
    m = max(abs(c), abs(r_x))
    cs, rs = c / m, r_x / m
    norm = math.hypot(cs, rs)
    a, b = cs / norm, rs / norm
    if b < 0:
        a, b = -a, -b
    return a, b


def apply_filter(r_x: float, r_z: float) -> FilteredQubit:
    """The filtered state of the in-plane Bloch vector ``(r_x, r_z)`` and
    its eigendecomposition.

    The filter is the identity on the X-Z plane, so the state stays
    ``(I + r_x sigma_X + r_z sigma_Z)/2``; a vector outside the unit disc
    raises ValueError (``FilteredQubit``'s check).
    """
    r_norm = min(math.hypot(r_x, r_z), 1.0)
    p0 = (1.0 - r_norm) / 2.0
    p1 = (1.0 + r_norm) / 2.0
    if r_x != 0.0:
        # eigenvectors depend only on the direction of r: rescale by the
        # largest component so subnormal inputs keep full relative accuracy
        m = max(abs(r_x), abs(r_z))
        sx, sz = r_x / m, r_z / m
        sn = math.hypot(sx, sz)
        # roots c_i = s_z - (-1)^i |s| satisfy c_0 c_1 = -s_x^2; derive the
        # small root from the large one to avoid cancellation
        if sz > 0.0:
            c1 = sz + sn
            c0 = -sx * (sx / c1)
        else:
            c0 = sz - sn
            c1 = -sx * (sx / c0)
        a0, b0 = _eigvec(c0, sx)
        a1, b1 = _eigvec(c1, sx)
    elif r_z < 0.0:
        (a0, b0), (a1, b1) = (1.0, 0.0), (0.0, 1.0)  # |i_z>
    elif r_z > 0.0:
        (a0, b0), (a1, b1) = (0.0, 1.0), (1.0, 0.0)  # |i+1_z>
    else:
        # maximally mixed: any orthonormal pair works; use the computational basis
        (a0, b0), (a1, b1) = (1.0, 0.0), (0.0, 1.0)
    return FilteredQubit(r_x, r_z, p0, p1, a0, b0, a1, b1)


def build_transmission_matrix(
    s0z: FilteredQubit, s1z: FilteredQubit, s0x: FilteredQubit
) -> TransmissionMatrix:
    """Assemble the 3x3 transmission-rate matrix of the filtered states.

    Each row maps Pauli transmission rates (identity, X, Z) to the
    transmission rate of one filtered state.  The inverse is obtained by
    direct numeric inversion; ``q`` is the closed-form determinant scale
    whose magnitude signals degeneracy.
    """
    a = np.array(
        [[0.5, s.r_x / 2.0, s.r_z / 2.0] for s in (s0z, s1z, s0x)], dtype=float
    )
    q = (
        s1z.r_x * (s0x.r_z - s0z.r_z)
        + s0x.r_x * (s0z.r_z - s1z.r_z)
        + s0z.r_x * (s1z.r_z - s0x.r_z)
    )
    if abs(q) < DEGENERACY_THRESHOLD:
        raise DegenerateStatesError(
            f"filtered states are collinear in the X-Z plane (q = {q!r})"
        )
    a_inv = np.linalg.inv(a)
    if np.max(np.abs(a @ a_inv - np.eye(3))) > 1e-10:
        raise DegenerateStatesError("transmission matrix is numerically singular")
    return TransmissionMatrix(a=a, a_inv=a_inv, q=q)


def pair_coeffs(
    s0z: FilteredQubit, s1z: FilteredQubit, a_inv: np.ndarray
) -> tuple[float, np.ndarray, tuple[float, float]]:
    """The p_z-free decomposition data of the virtual states built from
    the two filtered Z states: the inner product ``overlap`` of the
    purified Z states, the coefficients ``c[t][l]`` that express the
    virtual transmission rates through the three physical ones, and the
    geometric-mean eigenvalue weights ``w[t]`` = sqrt(P_t^{0z} P_t^{1z})
    that multiply them."""
    pairs = [
        (s0z.a0, s0z.b0, s1z.a0, s1z.b0, s0z.p0, s1z.p0),
        (s0z.a1, s0z.b1, s1z.a1, s1z.b1, s0z.p1, s1z.p1),
    ]
    overlap = 0.0
    c = np.zeros((2, 3))
    w = [0.0, 0.0]
    for t, (a, b, ap, bp, p, pp) in enumerate(pairs):
        w[t] = math.sqrt(p * pp)
        overlap += w[t] * (a * ap + b * bp)
        for l in range(3):
            c[t, l] = (
                (a * ap + b * bp) * a_inv[0, l]
                + (a * bp + b * ap) * a_inv[1, l]
                + (a * ap - b * bp) * a_inv[2, l]
            )
    return overlap, c, (w[0], w[1])
