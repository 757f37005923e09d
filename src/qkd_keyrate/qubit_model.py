"""Single-photon source characterisation.

Alice's three states (two Z-basis states and one X-basis state) are emitted
with encoding flaws, so their single-photon parts are mixed qubits described
by Bloch vectors.  A filter projection onto the X-Z plane of the Bloch
sphere, an eigendecomposition of each filtered state, and the inversion of
the transmission-rate matrix built from the three states provide everything
the phase-error estimator needs.

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
    "EncodingFlawModel",
    "BlochVector",
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
class EncodingFlawModel:
    """Distribution of the phase-encoding error angle.

    Either a fixed list of point masses ``(delta, weight)`` independent of
    the target angle, or the proportional model ``delta = xi * theta / pi``
    (a single theta-dependent point mass).  Exactly one of the two must be
    given.
    """

    point_masses: tuple[tuple[float, float], ...] = ()
    model_xi: float | None = None

    def __post_init__(self) -> None:
        if (self.model_xi is None) == (len(self.point_masses) == 0):
            raise ValueError("specify exactly one of point_masses or model_xi")
        if self.point_masses:
            total = sum(w for _, w in self.point_masses)
            if any(w < 0 for _, w in self.point_masses):
                raise ValueError("weights must be nonnegative")
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1, got {total!r}")

    @classmethod
    def exact(cls) -> "EncodingFlawModel":
        """Flawless encoding (delta identically zero)."""
        return cls(point_masses=((0.0, 1.0),))

    def masses_at(self, theta_a: float) -> tuple[tuple[float, float], ...]:
        """Point masses of the error angle for a state with angle theta_a."""
        if self.model_xi is not None:
            return ((self.model_xi * theta_a / math.pi, 1.0),)
        return self.point_masses


@dataclass(frozen=True)
class BlochVector:
    v_x: float
    v_y: float
    v_z: float

    def __post_init__(self) -> None:
        norm2 = self.v_x**2 + self.v_y**2 + self.v_z**2
        if norm2 > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector norm exceeds 1: |v|^2 = {norm2!r}")


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
        if self.r_x**2 + self.r_z**2 > 1.0 + 1e-12:
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


def bloch_of_state(
    theta_a: float, flaw: EncodingFlawModel, gamma: float = 1.0
) -> BlochVector:
    """Bloch vector of the single-photon part of the state with angle theta_a.

    ``gamma`` is the amplitude ratio of the two interfering pulses; a
    balanced source has gamma = 1, which puts the state in the X-Z plane.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    g2 = gamma * gamma
    weight = 2.0 * gamma / (1.0 + g2)
    v_z = v_x = 0.0
    for delta, w in flaw.masses_at(theta_a):
        v_z += w * math.cos(theta_a + delta)
        v_x += w * math.sin(theta_a + delta)
    return BlochVector(weight * v_x, (1.0 - g2) / (1.0 + g2), weight * v_z)


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


def apply_filter(v: BlochVector) -> FilteredQubit:
    """Project a Bloch vector onto the X-Z plane of the filtered protocol.

    The filter succeeds with a Y-dependent probability, leaving the state
    ``(I + r_x sigma_X + r_z sigma_Z)/2`` with ``r = (v_x, v_z)/sqrt(1-v_y^2)``.
    Raises for ``|v_y|`` within 1e-12 of 1, where the filter is undefined.
    """
    if abs(v.v_y) >= 1.0 - 1e-12:
        raise ValueError("filter undefined: |v_y| too close to 1")
    f = 1.0 / math.sqrt(1.0 - v.v_y**2)
    r_x, r_z = v.v_x * f, v.v_z * f
    r_norm = math.hypot(r_x, r_z)
    if r_norm > 1.0 + 1e-12:
        raise ValueError("filtered vector leaves the unit disc")
    r_norm = min(r_norm, 1.0)
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
