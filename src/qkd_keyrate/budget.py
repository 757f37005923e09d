"""Failure-probability bookkeeping for the composable security claim.

A budget is the value of (eps_sec, eps_c, mode), and everything else is
derived from it: the secrecy parameter splits as eps_sec = eps_c + eps_s,
and the smoothing slice eta = eps_s^2 / 2 is divided equally over a
static list of named allocations that depends only on the
intensity-control mode, keeping the deviation terms independent of the
observed data.  Each statistical estimate is charged to its own named
allocation, and since the split is equal, every estimate takes its
deviation from the one ln(1/eps) that ``EpsilonBudget.log_inv`` returns.
The key length charges the whole committed eta once, in the secrecy log
term log2(2/(eps_s^2 - eta)) = log2(4/eps_s^2), whichever estimates a
run ends up using.

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

__all__ = ["CELL_IDS", "EpsilonBudget", "allocation_names"]

SENDER_LABELS = ("Z0", "Z1", "X0", "X1")
RECEIVER_LABELS = ("Z0", "Z1", "X0", "X1")
# the cell ids like "Z0X1", in the order of decoy.CELLS
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

    Exact mode pairs every mean estimate with a Hoeffding helper epsilon,
    for the multiplicative-Chernoff route whose validity rests on a
    Hoeffding event; fluctuation mode uses martingale bounds that need
    no helper.  The X1-sender cells, which are always empty, keep their
    allocations too: the equal split, and so every deviation, depends
    on the number of names.
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
    """Frozen epsilon split for one key-rate evaluation: eps_s = eps_sec -
    eps_c, eta = eps_s^2 / 2 and the equal share eta / n of each of the
    n ``allocation_names(mode)``, all derived from the three fields."""

    eps_sec: float
    eps_c: float
    mode: str
    eps_s: float = field(init=False)
    eta: float = field(init=False)
    _names: frozenset = field(init=False, repr=False, compare=False)
    _share: float = field(init=False, repr=False, compare=False)
    _tables: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        names = allocation_names(self.mode)
        if not (0.0 < self.eps_c < self.eps_sec):
            raise ValueError("need 0 < eps_c < eps_sec")
        eps_s = self.eps_sec - self.eps_c
        eta = 0.5 * eps_s * eps_s
        if not (0.0 < eta < eps_s**2):
            raise ValueError(
                "eta must lie strictly between 0 and eps_s^2; "
                f"got eta={eta!r}, eps_s^2={eps_s**2!r}"
            )
        share = eta / len(names)
        # a subnormal share may round away more than a rounding error of
        # eta: then the shares would not add up to the eta charged
        if abs(share * len(names) - eta) > 1e-9 * eta:
            raise ValueError(f"the equal split of eta={eta!r} underflows")
        for name, value in (("eps_s", eps_s), ("eta", eta),
                            ("_names", frozenset(names)), ("_share", share)):
            object.__setattr__(self, name, value)

    @property
    def log_terms(self) -> float:
        """The secrecy and correctness terms of the key length in bits,
        log2(2/(eps_s^2 - eta)) + log2(2/eps_c): the one charge of eta."""
        return math.log2(2.0 / (self.eps_s**2 - self.eta)) + math.log2(2.0 / self.eps_c)

    def alloc(self, name: str) -> float:
        """Allocation for ``name``; unknown names are a programming error."""
        if name not in self._names:
            raise KeyError(name)
        return self._share

    def log_inv(self, names: tuple[str, ...]) -> float:
        """ln(1/eps) of the allocations of ``names``, one float, since the
        split is equal; an unknown name raises KeyError.  Memoized per
        name tuple, since the estimators ask for the same tuples at every
        evaluation."""
        return self.memo(_log_inv, names)

    def memo(self, build, *args):
        """``build(self, *args)`` for a module-level ``build`` and hashable
        ``args`` (the key), formed once per budget: constants derived from
        the allocations."""
        key = (build, *args) if args else build
        value = self._tables.get(key)
        if value is None:
            value = self._tables[key] = build(self, *args)
        return value


def _log_inv(budget: EpsilonBudget, names: tuple[str, ...]) -> float:
    """``budget.log_inv(names)``, formed once per budget and name tuple."""
    for name in names:
        budget.alloc(name)
    return -math.log(budget._share)
