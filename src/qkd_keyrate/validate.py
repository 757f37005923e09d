"""Validation suites: bound coverage, decoy sandwich, estimator cross-check.

Everything here is deterministic for a fixed seed, so a report can be
regenerated byte-for-byte.  The coverage suite draws seeded Monte-Carlo
samples and checks that each concentration bound fails no more often
than its epsilon promises; the sandwich suite checks the decoy bounds
against exactly computed vacuum/single-photon truths; the cross-check
suite compares the two independent phase-error estimators.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import EpsilonBudget
from .channel import ChannelConfig, ChannelModel, _quadrature
from .concentration import azuma_dev, chernoff_dev, hoeffding_dev, mult_chernoff_dev
from .decoy import (
    CELLS,
    K_LABELS,
    CountsBatch,
    aggregate_bounds,
    cell_bounds,
    poisson_pk,
)
from .phase_error import lower_terms, n_ph_appendixE, n_ph_upper_batch, phase_weights
from .pipeline import ParamBatch, ProtocolParams, prepare_batch, source_coeffs

__all__ = [
    "coverage_suite",
    "sandwich_suite",
    "crosscheck_suite",
    "run_validation",
]

# the cells of the three sender states the protocol emits (no X1)
_POPULATED = tuple(i for i, (a, y, _, _) in enumerate(CELLS) if (a, y) != ("X", 1))
_ZZ = tuple(CELLS.index(("Z", y, "Z", y1)) for y in (0, 1) for y1 in (0, 1))


def _record(bound: str, n: int, eps: float, side: str, violations: int,
            trials: int) -> dict:
    freq = violations / trials
    return {
        "bound": bound,
        "n": n,
        "eps": eps,
        "side": side,
        "violations": violations,
        "frequency": freq,
        "pass": freq <= eps,
    }


def coverage_suite(
    seed: int,
    trials: int = 100_000,
    ns: tuple[int, ...] = (1_000, 10_000),
    eps_values: tuple[float, ...] = (1e-2, 1e-3),
) -> dict:
    """Empirical violation frequency of every concentration bound.

    Binomial draws cover the independent-trials bounds; the martingale
    bound is exercised on an adversarially adaptive sequence whose click
    probability flips against the sign of the running deviation, which
    breaks independence but not the martingale property.  The bounds
    are the ``concentration`` functions the estimation chain calls.
    """
    rng = np.random.default_rng(seed)
    p = 0.1
    checks: list[dict] = []

    for n in ns:
        mu = n * p
        x = rng.binomial(n, p, size=trials)

        for eps in eps_values:
            log_inv = -math.log(eps)
            checks.append(_record(
                "chernoff", n, eps, "below",
                int(np.sum(x < mu - chernoff_dev(mu, log_inv, False))), trials,
            ))
            checks.append(_record(
                "chernoff", n, eps, "above",
                int(np.sum(x > mu + chernoff_dev(mu, log_inv, True))), trials,
            ))

            checks.append(_record(
                "mult_chernoff", n, eps, "mean_above_upper",
                int(np.sum(mu > x + mult_chernoff_dev(x, log_inv, True))), trials,
            ))
            checks.append(_record(
                "mult_chernoff", n, eps, "mean_below_lower",
                int(np.sum(mu < x - mult_chernoff_dev(x, log_inv, False))), trials,
            ))

            hd = hoeffding_dev(n, log_inv)
            checks.append(_record(
                "hoeffding", n, eps, "below",
                int(np.sum(x < mu - hd)), trials,
            ))
            checks.append(_record(
                "hoeffding", n, eps, "above",
                int(np.sum(x > mu + hd)), trials,
            ))

        # adaptive sequence: probability jumps with the deviation sign
        dev_sum = np.zeros(trials)
        for _ in range(n):
            p_t = np.where(dev_sum > 0.0, 0.8, 0.2)
            clicks = rng.random(trials) < p_t
            dev_sum += clicks - p_t
        for eps in eps_values:
            ad = azuma_dev(n, -math.log(eps))
            checks.append(_record(
                "azuma_adaptive", n, eps, "above",
                int(np.sum(dev_sum > ad)), trials,
            ))
            checks.append(_record(
                "azuma_adaptive", n, eps, "below",
                int(np.sum(dev_sum < -ad)), trials,
            ))

    return {
        "trials": trials,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _photon_weights(k: float, r: float, max_n: int) -> np.ndarray:
    """P(n photons) for intensity k, quadrature-averaged when r > 0."""
    if r == 0.0:
        return np.array([poisson_pk(n, k) for n in range(max_n)])
    nodes, weight, half = (a[0] for a in _quadrature([k], r))
    return np.array([
        float(weight @ np.array([poisson_pk(n, kk) for kk in nodes.tolist()])) * half[0]
        for n in range(max_n)
    ])


def sandwich_suite(
    distances: tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0),
    rs: tuple[float, ...] = (0.0, 0.02, 0.05),
) -> dict:
    """Decoy bounds against exact vacuum/single-photon truths.

    Synthetic expected statistics are produced from per-cell photon-number
    yield curves, so the true n-photon contributions are known exactly;
    every lower bound must sit below its truth and every upper bound above.
    Each r is one batch over the distances.
    """
    by_r = {r: _sandwich_points(distances, r) for r in rs}
    points = [by_r[r][j] for j in range(len(distances)) for r in rs]
    return {
        "points": points,
        "cells_per_point": len(_POPULATED),
        "pass": all(pt["pass"] for pt in points),
    }


def _sandwich_points(distances: tuple[float, ...], r: float) -> list[dict]:
    p_z, p_ks, p_kd1 = 0.7, 0.6, 0.3
    k_s, k_d1, k_d2 = 0.5, 0.1, 2e-4
    n_total = 1e12
    max_n = 80
    p_label = {"s": p_ks, "d1": p_kd1, "d2": 1.0 - p_ks - p_kd1}
    state_prob = {("Z", 0): 0.5 * p_z, ("Z", 1): 0.5 * p_z, ("X", 0): 1.0 - p_z}
    basis_prob = {"Z": p_z, "X": 1.0 - p_z}

    mode = "exact" if r == 0.0 else "fluct"
    count = len(distances)
    factors = prepare_batch(
        ParamBatch(*(np.full(count, v) for v in (p_z, p_ks, p_kd1, k_s, k_d1, k_d2))),
        mode, r,
    ).factors
    weights = {
        lab: _photon_weights(k, r, max_n) for lab, k in zip(K_LABELS, (k_s, k_d1, k_d2))
    }
    cells = np.zeros((count, 3, 16))
    trials = np.zeros((count, 16))
    z_by_k = np.zeros((count, 3))
    # per point and cell: the true vacuum and single-photon counts
    truth = np.zeros((count, 2, 16))
    for j, dist in enumerate(distances):
        eta = 0.15 * 10.0 ** (-0.2 * dist / 10.0)
        base = 1.0 - (1.0 - 5e-7) * (1.0 - eta) ** np.arange(max_n)
        for idx, i in enumerate(_POPULATED):
            a, y, b, _ = CELLS[i]
            n_ayb = n_total * state_prob[(a, y)] * basis_prob[b]
            trials[j, i] = n_ayb
            yields = (0.15 + 0.05 * idx) * base  # cell-to-cell spread
            for li, lab in enumerate(K_LABELS):
                cells[j, li, i] = n_ayb * p_label[lab] * float(weights[lab] @ yields)
            for n in (0, 1):
                truth[j, n, i] = n_ayb * p_label["s"] * weights["s"][n] * yields[n]
        for li in range(3):
            z_by_k[j, li] = sum(cells[j, li, i] for i in _ZZ)
    counts = CountsBatch(
        cells=cells,
        trials=trials,
        z_by_k=z_by_k,
        z_tot=np.array([sum(row) for row in z_by_k.tolist()]),
        n_z=np.full(count, n_total * p_z * p_z),
    )
    budget = EpsilonBudget(1e-10, 1e-15, mode)
    m0, m1 = aggregate_bounds(counts, factors, budget)
    bounds = cell_bounds(counts, factors, budget)

    slack = 1e-9 * n_total  # float roundoff on 1e12-scale counts
    points = []
    for j, dist in enumerate(distances):
        truth0_z = sum(truth[j, 0, i] for i in _ZZ)
        truth1_z = sum(truth[j, 1, i] for i in _ZZ)
        violations = []
        if m0[j] > truth0_z + slack:
            violations.append("m0_lower")
        if m1[j] > truth1_z + slack:
            violations.append("m1_lower")
        margins = [truth0_z - m0[j], truth1_z - m1[j]]
        for i in _POPULATED:
            t0, t1 = truth[j, :, i]
            low0, low1 = bounds.lower0[j, i], bounds.lower1[j, i]
            up1 = bounds.upper1[j, i]
            label = "".join(str(part) for part in CELLS[i])
            if low0 > t0 + slack:
                violations.append(f"cell.{label}.lower0")
            if low1 > t1 + slack:
                violations.append(f"cell.{label}.lower1")
            if up1 < t1 - slack:
                violations.append(f"cell.{label}.upper1")
            margins.extend([t0 - low0, t1 - low1, up1 - t1])
        points.append({
            "distance_km": dist,
            "r": r,
            "violations": violations,
            "min_margin": float(min(margins)),
            "pass": not violations,
        })
    return points


def _phase_bounds(
    cfg: ChannelConfig, params: ParamBatch, budget: EpsilonBudget, n_total: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The general and the closed-form phase-error bounds of the feasible
    exact-mode points ``params`` on link ``cfg``, and their m1, (B,)
    arrays.

    The general bound is the chain's: ``n_ph_upper_batch`` with the
    source's ``lower_terms`` and the matching restricted ``cell_bounds``,
    as ``pipeline.stage_two`` forms it.  The closed form reads every
    cell's bounds.
    """
    prepared = prepare_batch(params, "exact", 0.0)
    counts, _ = ChannelModel(cfg).expected_counts(prepared.layout, n_total)
    _, m1 = aggregate_bounds(counts, prepared.factors, budget)
    coeffs, p_z = source_coeffs(cfg.xi), prepared.layout.p_z
    terms, lower = lower_terms(coeffs)
    general = n_ph_upper_batch(
        phase_weights(coeffs, p_z),
        cell_bounds(counts, prepared.factors, budget, lower), m1, budget, terms,
    ).n_ph_upper
    cells = cell_bounds(counts, prepared.factors, budget)
    return general, n_ph_appendixE(cfg.xi, p_z, cells, budget), m1


def crosscheck_suite(tolerance: float = 1e-9) -> dict:
    """Agreement of the two phase-error estimators on a 50-point grid.

    The general coefficient path and the closed form are independent
    derivations of the same bound; any disagreement beyond roundoff
    means one of them is wrong, so the tolerance is tight.  Each (xi,
    distance) is one batch over p_z (``_phase_bounds``).
    """
    xis = (0.0, 0.03675, 0.0735, 0.11025, 0.147)
    pzs = (0.35, 0.5, 0.65, 0.8, 0.9)
    dists = (30.0, 90.0)
    budget = EpsilonBudget(1e-10, 1e-15, "exact")
    params = ParamBatch.of([
        ProtocolParams(p_z=p_z, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1) for p_z in pzs
    ])

    points = []
    worst = 0.0
    for xi in xis:
        for dist in dists:
            cfg = ChannelConfig(
                distance_km=dist, det_eff=0.15, dark_prob=5e-7,
                e_mis=0.01, fluct_r=0.0, xi=xi, atten_db_per_km=0.2,
            )
            general, closed, _ = _phase_bounds(cfg, params, budget, 1e12)
            rel = np.abs(general - closed) / np.maximum(np.abs(closed), 1e-300)
            for p_z, rel_diff in zip(pzs, rel.tolist()):
                worst = max(worst, rel_diff)
                points.append({
                    "xi": xi, "p_z": p_z, "distance_km": dist,
                    "rel_diff": rel_diff, "pass": rel_diff <= tolerance,
                })
    return {
        "points": points,
        "max_rel_diff": worst,
        "tolerance": tolerance,
        "pass": all(pt["pass"] for pt in points),
    }


def run_validation(seed: int = 0, trials: int = 100_000) -> dict:
    """All three suites plus an overall verdict, as one JSON-ready dict."""
    coverage = coverage_suite(seed, trials)
    sandwich = sandwich_suite()
    crosscheck = crosscheck_suite()
    return {
        "seed": seed,
        "coverage": coverage,
        "decoy_sandwich": sandwich,
        "phase_crosscheck": crosscheck,
        "passed": coverage["pass"] and sandwich["pass"] and crosscheck["pass"],
    }
