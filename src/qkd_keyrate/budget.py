"""Failure-probability bookkeeping for the composable security claim.

The secrecy parameter splits as eps_sec = eps_c + eps_s, and the smoothing
slice eta < eps_s^2 is treated as a fixed budget that the many statistical
estimates spend.  By default eta = eps_s^2 / 2 (so the secrecy log term
becomes log2(4/eps_s^2)) and is divided equally over a static list of named
allocations that depends only on the intensity-control mode, keeping the
deviation terms independent of the observed data.

Allocation names:

- ``m0.final`` / ``m1.final``: the outer mean-to-count deviations of the
  vacuum and single-photon estimates.
- ``z.<int>.<use>.<dir>``: mean estimates of the Z-basis aggregate counts
  per intensity (``d1``/``d2``/``s``), use (``vac``/``sin``) and direction
  (``lo``/``hi``); a trailing ``.H`` names the Hoeffding helper epsilon of
  the multiplicative-Chernoff route (exact mode only).
- ``ph.az.<o>.<om>``: martingale deviations of the phase-error estimator
  for Bob outcome ``o`` and collective-measurement outcome ``om``.
- ``cell.<id>.<int>.<dir>``: mean estimates for the per-cell decoy bounds,
  with ``<id>`` like ``Z0X1`` (sender state, receiver basis and outcome).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = ["CELL_IDS", "EpsilonBudget", "allocation_names"]

SENDER_LABELS = ("Z0", "Z1", "X0", "X1")
RECEIVER_LABELS = ("Z0", "Z1", "X0", "X1")
CELL_IDS = tuple(s + r for s in SENDER_LABELS for r in RECEIVER_LABELS)

_AGGREGATE = (
    ("z.d2.vac.lo", "z.d1.vac.hi"),  # vacuum estimate means
    ("z.d1.sin.lo", "z.d2.sin.hi", "z.s.sin.hi"),  # single-photon estimate means
)
_PHASE_AZUMA = tuple(
    f"ph.az.{o}.{om}" for o, om in
    ((1, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5))
)
_CELL_ESTIMATES = ("d1.lo", "d1.hi", "d2.lo", "d2.hi", "s.hi")


def allocation_names(mode: str) -> tuple[str, ...]:
    """Static allocation list for ``mode`` in {"exact", "fluct"}.

    Exact mode pairs every mean estimate with a Hoeffding helper epsilon
    (the multiplicative-Chernoff route may consume it); fluctuation mode
    uses martingale bounds that need no helper.
    """
    if mode not in ("exact", "fluct"):
        raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")
    names = ["m0.final", "m1.final"]
    for group in _AGGREGATE:
        for base in group:
            names.append(base)
            if mode == "exact":
                names.append(base + ".H")
    names.extend(_PHASE_AZUMA)
    for cell in CELL_IDS:
        for est in _CELL_ESTIMATES:
            names.append(f"cell.{cell}.{est}")
            if mode == "exact":
                names.append(f"cell.{cell}.{est}.H")
    return tuple(names)


@dataclass(frozen=True)
class EpsilonBudget:
    """Frozen epsilon split for one key-rate evaluation."""

    eps_sec: float
    eps_c: float
    eps_s: float
    eta: float
    allocations: Mapping[str, float] = field(repr=False)
    _tables: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_c < self.eps_sec):
            raise ValueError("need 0 < eps_c < eps_sec")
        if abs(self.eps_s - (self.eps_sec - self.eps_c)) > 1e-30:
            raise ValueError("eps_s must equal eps_sec - eps_c")
        if not (0.0 < self.eta < self.eps_s**2):
            raise ValueError(
                "eta must lie strictly between 0 and eps_s^2; "
                f"got eta={self.eta!r}, eps_s^2={self.eps_s**2!r}"
            )
        total = sum(self.allocations.values())
        if abs(total - self.eta) > 1e-9 * self.eta:
            raise ValueError("allocations must sum to eta")

    @classmethod
    def build(
        cls,
        eps_sec: float,
        eps_c: float,
        mode: str,
        eta_frac: float = 0.5,
        overrides: Mapping[str, float] | None = None,
    ) -> "EpsilonBudget":
        """Equal split of eta = eta_frac * eps_s^2 over the static names.

        ``overrides`` replaces individual allocations by name; eta is then
        the sum of the final values and must stay below eps_s^2.
        """
        if not (0.0 < eta_frac < 1.0):
            raise ValueError("eta_frac must lie in (0, 1)")
        eps_s = eps_sec - eps_c
        if eps_s <= 0:
            raise ValueError("eps_sec must exceed eps_c")
        names = allocation_names(mode)
        eta = eta_frac * eps_s * eps_s
        alloc = {name: eta / len(names) for name in names}
        if overrides:
            unknown = set(overrides) - set(names)
            if unknown:
                raise ValueError(f"unknown allocation names: {sorted(unknown)}")
            for name, value in overrides.items():
                if value <= 0:
                    raise ValueError("allocations must be positive")
                alloc[name] = value
            eta = sum(alloc.values())
        return cls(
            eps_sec=eps_sec,
            eps_c=eps_c,
            eps_s=eps_s,
            eta=eta,
            allocations=MappingProxyType(alloc),
        )

    def alloc(self, name: str) -> float:
        """Allocation for ``name``; unknown names are a programming error."""
        return self.allocations[name]

    def alloc_table(self, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Allocations for ``names`` and their ln(1/eps), as arrays.

        Memoized per name tuple, since the batch estimators ask for the
        same tuples at every evaluation.  ln(1/eps) is formed with
        ``math``, as the scalar deviation functions form it.
        """
        table = self._tables.get(names)
        if table is None:
            eps = [self.alloc(name) for name in names]
            table = (np.array(eps), np.array([-math.log(e) for e in eps]))
            self._tables[names] = table
        return table
