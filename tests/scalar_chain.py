"""The scalar estimation chain, frozen as the reference for the batch path.

These are the one-point decoy, phase-error and key-length functions that
``evaluate_rate`` chained before the batch functions replaced them,
copied unchanged apart from the imports, together with the dict-keyed
``ObservedCounts`` they read, the ``best_mean_bound`` and
``observed_error_rate`` they called, and ``observed_counts``, which
turns one row of a ``CountsBatch`` into ``ObservedCounts``.
``tests/test_batch.py`` asserts that the batch path reproduces them
(key length and abort reason exactly, floats to 1e-12 relative).
Nothing in the library calls them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.concentration import _log_inv, azuma_dev, hoeffding_dev
from qkd_keyrate.decoy import CELLS, K_LABELS, CountsBatch, IntensitySet
from qkd_keyrate.key_length import (
    ABORT_COUNTS,
    ABORT_EPS_BUDGET,
    ABORT_PHASE,
    KeyRateResult,
    _log_terms,
    _pa_penalty,
    eph_threshold,
)
from qkd_keyrate.qubit_model import VirtualStateCoeffs

# ---------------------------------------------------------------------------
# the dict-keyed counts layout

# cell key: (sender basis, sender bit, receiver basis, receiver bit, intensity label)
CellKey = tuple[str, int, str, int, str]
# config key: (sender basis, sender bit, receiver basis)
ConfigKey = tuple[str, int, str]


@dataclass
class ObservedCounts:
    """Sifted detection statistics of one protocol run.

    ``z_by_k`` holds the Z-basis coincidence counts per intensity label;
    ``cells`` maps (sender basis, sender bit, receiver basis, receiver
    bit, intensity label) to a count; ``trials_by_config`` maps (sender
    basis, sender bit, receiver basis) to the number of trials with that
    setting combination, which is what the martingale deviations range
    over.  Counts may be real-valued (expected statistics) or integer
    (sampled).
    """

    z_by_k: Mapping[str, float]
    cells: Mapping[CellKey, float]
    n_z: float
    n_total: float
    trials_by_config: Mapping[ConfigKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_z < 0 or self.n_total < 0 or self.n_z > self.n_total:
            raise ValueError("need 0 <= n_z <= n_total")
        for label, count in self.z_by_k.items():
            if label not in K_LABELS:
                raise ValueError(f"unknown intensity label {label!r}")
            if count < 0:
                raise ValueError("counts must be nonnegative")
        if any(c < 0 for c in self.cells.values()):
            raise ValueError("counts must be nonnegative")

    @property
    def z_tot(self) -> float:
        return sum(self.z_by_k.values())

    def z_k(self, label: str) -> float:
        return self.z_by_k.get(label, 0.0)

    def cell(self, a: str, y: int, b: str, y1: int, k: str) -> float:
        return self.cells.get((a, y, b, y1, k), 0.0)

    def config_trials(self, a: str, y: int, b: str) -> float:
        return self.trials_by_config.get((a, y, b), 0.0)


def observed_counts(batch: CountsBatch, n_total: float, i: int = 0) -> ObservedCounts:
    """Row ``i`` of a CountsBatch as ObservedCounts."""
    cells = batch.cells[i].tolist()
    trials = batch.trials[i].tolist()
    return ObservedCounts(
        z_by_k=dict(zip(K_LABELS, batch.z_by_k[i].tolist())),
        cells={
            (*cell, k): count
            for k, row in zip(K_LABELS, cells)
            for cell, count in zip(CELLS, row)
        },
        n_z=float(batch.n_z[i]),
        n_total=n_total,
        trials_by_config={(a, y, b): t for (a, y, b, _), t in zip(CELLS, trials)},
    )


def observed_error_rate(counts: ObservedCounts) -> float:
    """Z-basis bit error rate of the signal intensity from raw cells."""
    gain = sum(
        counts.cell("Z", i, "Z", j, "s") for i in (0, 1) for j in (0, 1)
    )
    if gain <= 0.0:
        return 0.0
    err = counts.cell("Z", 0, "Z", 1, "s") + counts.cell("Z", 1, "Z", 0, "s")
    return err / gain


# ---------------------------------------------------------------------------
# concentration.py


def best_mean_bound(
    observed: float,
    total: float,
    eps: float,
    direction: str,
    eps_h: float | None = None,
) -> tuple[float, float]:
    """Tightest available bound on the mean of a Bernoulli sum.

    Compares the Hoeffding deviation over the total trial count (failure
    ``eps``) against the multiplicative-Chernoff deviation built from the
    observed count itself (failure ``eps + eps_h``) and returns ``(bound,
    failure_prob)`` for the smaller of the two deviations.  The selection is
    an unconditional magnitude min: the multiplicative form depends only on
    the observed count, and the Hoeffding term is the always-valid backstop.
    ``direction`` is "lower" for ``mean >= bound`` and "upper" for ``mean <=
    bound``.  The returned bound is not clamped; a lower bound may be
    negative for tiny counts.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    if observed < 0:
        raise ValueError("observed must be nonnegative")
    if eps_h is None:
        eps_h = eps
    dev_h = hoeffding_dev(total, eps)
    log16 = math.log(16.0)
    if direction == "lower":
        dev_m = math.sqrt(3.0 * observed * _log_inv(eps))
    else:
        dev_m = math.sqrt(2.0 * observed * (4.0 * _log_inv(eps) + log16))
    if dev_m < dev_h:
        dev, failure = dev_m, eps + eps_h
    else:
        dev, failure = dev_h, eps
    bound = observed - dev if direction == "lower" else observed + dev
    return bound, failure


# ---------------------------------------------------------------------------
# decoy.py


class BoundKind(enum.Enum):
    VAC_LOWER = "vac_lower"
    SINGLE_LOWER = "single_lower"
    SINGLE_UPPER = "single_upper"


@dataclass(frozen=True)
class DecoyBound:
    """A decoy bound with its failure-probability bookkeeping.

    ``value`` is the count-level bound, clamped to [0, cap] where cap is
    the observed signal-intensity total of the estimated population.
    ``mu`` is the mean-level bound before the final mean-to-count
    deviation and ``mean_failure`` the failure probability of the mean
    estimates alone; downstream formulas that reuse ``mu`` accumulate
    ``mean_failure`` rather than ``failure_prob``.
    """

    value: float
    failure_prob: float
    kind: BoundKind
    mu: float = 0.0
    mean_failure: float = 0.0

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("bound value must be clamped to >= 0")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must lie in [0, 1)")


@dataclass(frozen=True)
class CellBounds:
    lower0: DecoyBound
    lower1: DecoyBound
    upper1: DecoyBound


def _count_lower(mu: float, eps: float, fallback_trials: float) -> float:
    """Count lower bound from a mean lower bound, m >= mu - dev.

    The multiplicative deviation sqrt(2 mu ln(1/eps)) applies only while
    the mean dominates 2 ln(1/eps); below that the additive (Hoeffding)
    deviation over the trial count takes over.
    """
    if mu <= 0.0:
        return 0.0
    log_inv = -math.log(eps)
    if mu > 2.0 * log_inv:
        dev = math.sqrt(2.0 * mu * log_inv)
    else:
        dev = hoeffding_dev(fallback_trials, eps)
    return max(0.0, mu - dev)


def _mean_exact(
    counts: ObservedCounts,
    budget: EpsilonBudget | None,
    observed: float,
    total: float,
    direction: str,
    name: str,
) -> tuple[float, float]:
    if budget is None:
        return observed, 0.0
    return best_mean_bound(
        observed, total, budget.alloc(name), direction, budget.alloc(name + ".H")
    )


def _mean_fluct(
    budget: EpsilonBudget | None,
    observed: float,
    trials: float,
    direction: str,
    name: str,
) -> tuple[float, float]:
    if budget is None:
        return observed, 0.0
    eps = budget.alloc(name)
    dev = azuma_dev(trials, eps)
    return (observed - dev if direction == "lower" else observed + dev), eps


def m0_lower_exact(
    counts: ObservedCounts, intens: IntensitySet, budget: EpsilonBudget | None
) -> DecoyBound:
    """Lower bound on the vacuum contribution to the signal Z key (exact mode).

    mu_0^L combines a lower estimate of the weak-decoy Z mean with an
    upper estimate of the strong-decoy one; the final step subtracts the
    mean-to-count deviation.
    """
    k_s, k_d1, k_d2 = intens.s.nominal, intens.d1.nominal, intens.d2.nominal
    z_tot = counts.z_tot
    zm_d2, f_d2 = _mean_exact(
        counts, budget, counts.z_k("d2"), z_tot, "lower", "z.d2.vac.lo"
    )
    zp_d1, f_d1 = _mean_exact(
        counts, budget, counts.z_k("d1"), z_tot, "upper", "z.d1.vac.hi"
    )
    mu = (
        intens.s.prob
        * math.exp(-k_s)
        / (k_d1 - k_d2)
        * (
            k_d1 * math.exp(k_d2) / intens.d2.prob * zm_d2
            - k_d2 * math.exp(k_d1) / intens.d1.prob * zp_d1
        )
    )
    mu = max(0.0, mu)
    mean_failure = f_d2 + f_d1
    if budget is None:
        return DecoyBound(mu, 0.0, BoundKind.VAC_LOWER, mu=mu)
    eps_final = budget.alloc("m0.final")
    value = min(_count_lower(mu, eps_final, counts.n_z), counts.z_k("s"))
    return DecoyBound(
        value, mean_failure + eps_final, BoundKind.VAC_LOWER, mu=mu,
        mean_failure=mean_failure,
    )


def m1_lower_exact(
    counts: ObservedCounts,
    intens: IntensitySet,
    budget: EpsilonBudget | None,
    m0_bound: DecoyBound,
) -> DecoyBound:
    """Lower bound on the single-photon contribution (exact mode).

    Uses the two-decoy closed form; the vacuum mean bound mu_0^L enters
    through ``m0_bound.mu``, and its mean-estimate failures are carried
    into the accumulated failure probability.
    """
    k_s, k_d1, k_d2 = intens.s.nominal, intens.d1.nominal, intens.d2.nominal
    z_tot = counts.z_tot
    zm_d1, f_d1 = _mean_exact(
        counts, budget, counts.z_k("d1"), z_tot, "lower", "z.d1.sin.lo"
    )
    zp_d2, f_d2 = _mean_exact(
        counts, budget, counts.z_k("d2"), z_tot, "upper", "z.d2.sin.hi"
    )
    zp_s, f_s = _mean_exact(
        counts, budget, counts.z_k("s"), z_tot, "upper", "z.s.sin.hi"
    )
    p_s_vac = intens.s.prob * math.exp(-k_s)
    mu = (
        intens.s.prob
        * k_s**2
        * math.exp(-k_s)
        / ((k_d1 - k_d2) * (k_s - k_d1 - k_d2))
        * (
            math.exp(k_d1) / intens.d1.prob * zm_d1
            - math.exp(k_d2) / intens.d2.prob * zp_d2
            + (k_d1**2 - k_d2**2)
            / k_s**2
            * (m0_bound.mu / p_s_vac - math.exp(k_s) / intens.s.prob * zp_s)
        )
    )
    mu = max(0.0, mu)
    mean_failure = m0_bound.mean_failure + f_d1 + f_d2 + f_s
    if budget is None:
        return DecoyBound(mu, 0.0, BoundKind.SINGLE_LOWER, mu=mu)
    eps_final = budget.alloc("m1.final")
    value = min(_count_lower(mu, eps_final, counts.n_z), counts.z_k("s"))
    return DecoyBound(
        value, mean_failure + eps_final, BoundKind.SINGLE_LOWER, mu=mu,
        mean_failure=mean_failure,
    )


def m0_lower_fluct(
    counts: ObservedCounts, intens: IntensitySet, budget: EpsilonBudget | None
) -> DecoyBound:
    """Vacuum lower bound when only intensity ranges are known.

    Worst-case range endpoints replace the nominal intensities, and the
    Z means are estimated by martingale deviations over the N_z basis
    coincidences, so no independence between trials is assumed.
    """
    zm_d2, f_d2 = _mean_fluct(
        budget, counts.z_k("d2"), counts.n_z, "lower", "z.d2.vac.lo"
    )
    zp_d1, f_d1 = _mean_fluct(
        budget, counts.z_k("d1"), counts.n_z, "upper", "z.d1.vac.hi"
    )
    mu = (
        intens.p_s_and_vacuum_lo()
        / (intens.d1.lo - intens.d2.hi)
        * (
            intens.d1.lo * math.exp(intens.d2.lo) / intens.d2.prob * zm_d2
            - intens.d2.hi * math.exp(intens.d1.hi) / intens.d1.prob * zp_d1
        )
    )
    mu = max(0.0, mu)
    mean_failure = f_d2 + f_d1
    if budget is None:
        return DecoyBound(mu, 0.0, BoundKind.VAC_LOWER, mu=mu)
    eps_final = budget.alloc("m0.final")
    value = min(_count_lower(mu, eps_final, counts.n_z), counts.z_k("s"))
    return DecoyBound(
        value, mean_failure + eps_final, BoundKind.VAC_LOWER, mu=mu,
        mean_failure=mean_failure,
    )


def m1_lower_fluct(
    counts: ObservedCounts,
    intens: IntensitySet,
    budget: EpsilonBudget | None,
    m0_bound: DecoyBound,
) -> DecoyBound:
    """Single-photon lower bound for the intensity-fluctuation case."""
    s, d1, d2 = intens.s, intens.d1, intens.d2
    zm_d1, f_d1 = _mean_fluct(
        budget, counts.z_k("d1"), counts.n_z, "lower", "z.d1.sin.lo"
    )
    zp_d2, f_d2 = _mean_fluct(
        budget, counts.z_k("d2"), counts.n_z, "upper", "z.d2.sin.hi"
    )
    zp_s, f_s = _mean_fluct(
        budget, counts.z_k("s"), counts.n_z, "upper", "z.s.sin.hi"
    )
    mu = (
        intens.p_s_and_single_lo()
        * s.lo
        / ((d1.hi - d2.lo) * (s.lo - d1.hi - d2.lo))
        * (
            math.exp(d1.lo) / d1.prob * zm_d1
            - math.exp(d2.hi) / d2.prob * zp_d2
            - (d1.hi**2 - d2.lo**2)
            / s.lo**2
            * (
                math.exp(s.hi) / s.prob * zp_s
                - m0_bound.mu / intens.p_s_and_vacuum_lo()
            )
        )
    )
    mu = max(0.0, mu)
    mean_failure = m0_bound.mean_failure + f_d1 + f_d2 + f_s
    if budget is None:
        return DecoyBound(mu, 0.0, BoundKind.SINGLE_LOWER, mu=mu)
    eps_final = budget.alloc("m1.final")
    value = min(_count_lower(mu, eps_final, counts.n_z), counts.z_k("s"))
    return DecoyBound(
        value, mean_failure + eps_final, BoundKind.SINGLE_LOWER, mu=mu,
        mean_failure=mean_failure,
    )


def decoy_cell_bounds(
    cell: tuple[str, int, str, int],
    counts: ObservedCounts,
    intens: IntensitySet,
    budget: EpsilonBudget | None,
    mode: str,
) -> CellBounds:
    """Generalized decoy bounds for one (sender state, receiver outcome) cell.

    Returns (lower0, lower1, upper1): a lower bound on the vacuum count,
    and lower/upper bounds on the single-photon count, all restricted to
    signal-intensity emissions within the cell.  The exact and fluct
    modes differ only in which endpoints and mean estimators are used;
    exact mode has lo == hi so the endpoint choice is vacuous there.
    """
    if mode not in ("exact", "fluct"):
        raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")
    a, y, b, y1 = cell
    cell_id = f"{a}{y}{b}{y1}"
    obs = {k: counts.cell(a, y, b, y1, k) for k in K_LABELS}
    cap = obs["s"]
    s, d1, d2 = intens.s, intens.d1, intens.d2

    def mean(label: str, direction: str, est: str) -> tuple[float, float]:
        name = f"cell.{cell_id}.{est}"
        if mode == "exact":
            return _mean_exact(
                counts, budget, obs[label], sum(obs.values()), direction, name
            )
        trials = counts.config_trials(a, y, b)
        return _mean_fluct(budget, obs[label], trials, direction, name)

    c_d2_lo, f_d2_lo = mean("d2", "lower", "d2.lo")
    c_d1_hi, f_d1_hi = mean("d1", "upper", "d1.hi")
    c_d1_lo, f_d1_lo = mean("d1", "lower", "d1.lo")
    c_d2_hi, f_d2_hi = mean("d2", "upper", "d2.hi")
    c_s_hi, f_s_hi = mean("s", "upper", "s.hi")

    p_vac = intens.p_s_and_vacuum_lo()
    mu0 = (
        p_vac
        / (d1.lo - d2.hi)
        * (
            d1.lo * math.exp(d2.lo) / d2.prob * c_d2_lo
            - d2.hi * math.exp(d1.hi) / d1.prob * c_d1_hi
        )
    )
    low0 = min(max(0.0, mu0), cap)
    lower0 = DecoyBound(
        low0, f_d2_lo + f_d1_hi, BoundKind.VAC_LOWER, mu=low0,
        mean_failure=f_d2_lo + f_d1_hi,
    )

    mu1 = (
        intens.p_s_and_single_lo()
        * s.lo
        / ((d1.hi - d2.lo) * (s.lo - d1.hi - d2.lo))
        * (
            math.exp(d1.lo) / d1.prob * c_d1_lo
            - math.exp(d2.hi) / d2.prob * c_d2_hi
            + (d1.hi**2 - d2.lo**2)
            / s.lo**2
            * (lower0.value / p_vac - math.exp(s.hi) / s.prob * c_s_hi)
        )
    )
    low1 = min(max(0.0, mu1), cap)
    f_low1 = lower0.failure_prob + f_d1_lo + f_d2_hi + f_s_hi
    lower1 = DecoyBound(
        low1, f_low1, BoundKind.SINGLE_LOWER, mu=low1, mean_failure=f_low1
    )

    mu1_up = (
        intens.p_s_and_single_hi()
        / (d1.lo - d2.hi)
        * (
            math.exp(d1.hi) / d1.prob * c_d1_hi
            - math.exp(d2.lo) / d2.prob * c_d2_lo
        )
    )
    up1 = min(max(0.0, mu1_up), cap)
    upper1 = DecoyBound(
        up1, f_d1_hi + f_d2_lo, BoundKind.SINGLE_UPPER, mu=up1,
        mean_failure=f_d1_hi + f_d2_lo,
    )
    return CellBounds(lower0, lower1, upper1)


# ---------------------------------------------------------------------------
# phase_error.py

Cell = tuple[str, int, str, int]

# collective outcome -> (sender basis, sender bit); the receiver side is
# the X basis with the outcome chosen per half
_OMEGA_CELL = {3: ("Z", 0), 4: ("Z", 1), 5: ("X", 0)}


@dataclass(frozen=True)
class PhaseErrorBound:
    """Phase-error bound with diagnostics.

    ``e_ph_upper`` is ``n_ph_upper / m1`` clamped to [0, 1]; 1.0 doubles
    as the abort signal when the single-photon bound is empty or the
    phase bound exceeds it.  ``term_log`` records every summand.
    """

    n_ph_upper: float
    n1_upper: float
    e_ph_upper: float
    failure_prob: float
    term_log: tuple[dict, ...]


def n1_upper(cell_bounds: Mapping[Cell, CellBounds]) -> float:
    """Sum of the per-cell ``upper1`` bounds, the N_1 of the deviations.

    Each ``upper1`` bounds the signal-intensity single-photon detection
    events of one (sender state, receiver basis/outcome) cell, so the sum
    over all sixteen cells bounds the detected signal single-photon
    events, not the emissions; cells the protocol never populates
    contribute zero.
    """
    total = 0.0
    for a in ("Z", "X"):
        for y in (0, 1):
            for b in ("Z", "X"):
                for y1 in (0, 1):
                    cb = cell_bounds.get((a, y, b, y1))
                    if cb is not None:
                        total += cb.upper1.value
    return total


def n_mxs(
    omega: int,
    s: int,
    sign: int,
    cell_bounds: Mapping[Cell, CellBounds],
    q: float,
    eps: float | None,
) -> float:
    """Worst-case normalized count for collective outcome ``omega``.

    ``s`` is the receiver's X-basis outcome selecting the cell, ``q`` the
    outcome weight Q(omega).  ``sign`` (+1/-1) is the sign of the
    coefficient this term carries in the phase-error sum: a positive
    coefficient takes the upper decoy bound plus its deviation, a
    negative one the lower decoy bound minus it (floored at zero, a
    count cannot be negative).  ``eps=None`` disables the deviation.
    """
    if omega not in _OMEGA_CELL:
        raise ValueError(f"omega must be 3, 4 or 5, got {omega!r}")
    if s not in (0, 1):
        raise ValueError("s must be a bit")
    if q <= 0.0:
        raise ValueError("outcome weight q must be positive")
    a, y = _OMEGA_CELL[omega]
    cb = cell_bounds.get((a, y, "X", s))
    if cb is None:
        raise KeyError(f"missing cell bounds for {(a, y, 'X', s)!r}")
    dev = 0.0 if eps is None else azuma_dev(n1_upper(cell_bounds), eps)
    if sign > 0:
        return (cb.upper1.value + dev) / q
    return max(0.0, cb.lower1.value - dev) / q


def _alloc(budget: EpsilonBudget | None, name: str) -> float | None:
    return None if budget is None else budget.alloc(name)


def _dev(budget: EpsilonBudget | None, n1: float, name: str) -> float:
    eps = _alloc(budget, name)
    return 0.0 if eps is None else azuma_dev(n1, eps)


def n_ph_upper_general(
    qm: VirtualStateCoeffs,
    cell_bounds: Mapping[Cell, CellBounds],
    m1: DecoyBound,
    budget: EpsilonBudget | None,
) -> PhaseErrorBound:
    """Phase-error bound for an arbitrary characterised source.

    For each half s the coefficients of the three collective outcomes
    are 1 + (-1)^s sum_t w_t C_{t,0}, 1 + (-1)^s sum_t w_t C_{t,1} and
    (-1)^s sum_t w_t C_{t,2}; the prefactor P(s+1)/(2(1 +- overlap))
    reduces algebraically to p_z^2/4.  The receiver outcome feeding half
    s is s XOR 1, which also tags the deviation epsilons.
    """
    n1 = n1_upper(cell_bounds)
    sums = [
        qm.w[0] * qm.c[0, l] + qm.w[1] * qm.c[1, l] for l in range(3)
    ]
    n_ph = 0.0
    log: list[dict] = []
    failure = 0.0
    for s in (0, 1):
        o = s ^ 1
        sgn = 1.0 if s == 0 else -1.0
        denom = 2.0 * (1.0 + sgn * qm.overlap)
        if abs(denom) > 1e-12:
            pref = qm.probs[s + 1] / denom
        else:
            # both virtual states collapse onto one; the ratio's limit
            pref = (qm.probs[1] + qm.probs[2]) / 4.0
        coeffs = {3: 1.0 + sgn * sums[0], 4: 1.0 + sgn * sums[1], 5: sgn * sums[2]}
        for omega in (3, 4, 5):
            coef = coeffs[omega]
            name = f"ph.az.{o}.{omega}"
            if budget is not None:
                failure += budget.alloc(name)
            if coef == 0.0:
                continue
            sign = 1 if coef > 0.0 else -1
            value = n_mxs(omega, o, sign, cell_bounds, qm.q[omega], _alloc(budget, name))
            n_ph += pref * coef * value
            a, y = _OMEGA_CELL[omega]
            cb = cell_bounds[(a, y, "X", o)]
            used = cb.upper1 if sign > 0 else cb.lower1
            failure += used.failure_prob
            log.append(
                {
                    "s": s,
                    "omega": omega,
                    "outcome": o,
                    "coefficient": pref * coef,
                    "bound": "upper" if sign > 0 else "lower",
                    "value": value,
                    "contribution": pref * coef * value,
                }
            )
        tail_name = f"ph.az.{o}.{s + 1}"
        tail = _dev(budget, n1, tail_name)
        if budget is not None:
            failure += budget.alloc(tail_name)
        n_ph += tail
        log.append(
            {"s": s, "omega": s + 1, "outcome": o, "coefficient": 1.0,
             "bound": "azuma", "value": tail, "contribution": tail}
        )
    n_ph = max(0.0, n_ph)
    if m1.value <= 0.0:
        e_ph = 1.0
    else:
        e_ph = min(1.0, n_ph / m1.value)
    return PhaseErrorBound(
        n_ph_upper=n_ph,
        n1_upper=n1,
        e_ph_upper=e_ph,
        failure_prob=min(failure, 1.0 - 1e-300),
        term_log=tuple(log),
    )


# ---------------------------------------------------------------------------
# key_length.py


def key_length(
    m0: DecoyBound,
    m1: DecoyBound,
    eph: PhaseErrorBound,
    lam_ec: float,
    budget: EpsilonBudget | None,
    *,
    n_total: float,
    e_z: float = 0.0,
    z_ks_size: float = 0.0,
) -> KeyRateResult:
    """Extractable key length and rate for one protocol run.

    Aborts are returned, never raised: an epsilon split with no secrecy
    margin, a phase-error bound at or past the zero-key threshold, and a
    nonpositive floored length all yield ell = 0 with a reason.
    """
    if n_total <= 0.0:
        raise ValueError("n_total must be positive")

    def result(ell: int, reason: str | None) -> KeyRateResult:
        return KeyRateResult(
            ell=ell,
            rate=ell / n_total,
            m0_l=m0.value,
            m1_l=m1.value,
            e_ph_u=eph.e_ph_upper,
            lambda_ec=lam_ec,
            e_z=e_z,
            z_ks_size=z_ks_size,
            aborted=ell == 0,
            abort_reason=reason,
        )

    # failure probability actually consumed by the three estimates; the
    # secrecy margin eps_s^2 must exceed it or no key can be claimed
    eta_used = m0.failure_prob + m1.failure_prob + eph.failure_prob
    if budget is not None and budget.eps_s**2 - eta_used <= 0.0:
        return result(0, ABORT_EPS_BUDGET)
    if m1.value <= 0.0:
        return result(0, ABORT_COUNTS)

    threshold = eph_threshold(m0.value, m1.value, lam_ec, budget, eta_used)
    if threshold == 0.0:
        # even a flawless phase-error estimate extracts nothing
        return result(0, ABORT_COUNTS)
    if threshold < 0.5 and eph.e_ph_upper >= threshold:
        # at the 0.5 cap the length stays positive for every rate, so
        # only an interior threshold can trigger the abort
        return result(0, ABORT_PHASE)

    logs = 0.0 if budget is None else _log_terms(budget, eta_used)
    raw = m0.value + m1.value * (1.0 - _pa_penalty(eph.e_ph_upper)) - logs - lam_ec
    ell = max(0, math.floor(raw))
    return result(ell, ABORT_COUNTS if ell == 0 else None)
