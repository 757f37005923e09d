"""Batch-of-one views of the batch estimators, for single-point tests.

Every array these return keeps its leading batch axis of length one, so
the results chain into the next batch function unchanged.
"""

import numpy as np

from qkd_keyrate.decoy import (
    CELLS,
    BoundBatch,
    CellBoundsBatch,
    CountsBatch,
    IntensityBatch,
    decoy_bounds_batch,
)
from qkd_keyrate.key_length import key_length_batch
from qkd_keyrate.phase_error import PhaseErrorBatch, n_ph_upper_batch, phase_terms


def one(value):
    return np.array([value], dtype=float)


def bound(value, failure=0.0):
    """A decoy bound of one point."""
    return BoundBatch(one(value), one(failure))


def phase(e_ph, failure=0.0):
    """A phase-error bound of one point with rate ``e_ph``."""
    return PhaseErrorBatch(one(0.0), one(0.0), one(e_ph), one(failure))


def decoy_bounds(counts, intens, budget, mode):
    """m0, m1 and the cell bounds of one ObservedCounts and IntensitySet."""
    return decoy_bounds_batch(
        CountsBatch.of(counts), IntensityBatch.of(intens), budget, mode
    )


def cell(cells, a, y, b, y1):
    """The lower0, lower1 and upper1 bounds of one cell, (B,) arrays."""
    i = CELLS.index((a, y, b, y1))
    return CellBoundsBatch(
        *(BoundBatch(part.value[:, i], part.failure_prob[:, i]) for part in cells)
    )


def phase_bound(qm, cells, m1, budget):
    """The phase-error bound of one point with source ``qm``."""
    return n_ph_upper_batch(np.array([phase_terms(qm)]), cells, m1, budget)


def key_length(m0, m1, eph, lam_ec, budget, *, n_total, e_z=0.0, z_ks_size=0.0):
    """The key length of one point, as a KeyRateResult."""
    return key_length_batch(
        m0, m1, eph, one(lam_ec), budget,
        n_total=n_total, e_z=one(e_z), z_ks_size=one(z_ks_size),
    ).result(0)
