"""The batch pipeline against the scalar chain, and the optimizer's answers.

``scalar_rate`` is the one-point chain as ``evaluate_rate`` ran it before
the batch path existed: the scalar decoy, phase-error and key-length
functions of ``scalar_chain``, one call per cell.  The batch path must
give the same key length and abort reason at every point, and floats
within REL relative: it forms its factors with numpy ufuncs and sums
in numpy's order, where the reference uses ``math`` and Python's order.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig, ChannelModel
from qkd_keyrate.decoy import CELLS, BoundBatch, IntensityBatch
from qkd_keyrate.key_length import (
    KeyRateResult,
    eph_threshold,
    key_length_batch,
    lambda_ec,
)
from qkd_keyrate.optimize import GRID_CHUNK, SearchSpace, optimize_rate
from qkd_keyrate.pipeline import (
    ParamBatch,
    ProtocolParams,
    build_source_model,
    evaluate_batch,
    evaluate_rate,
)
from qkd_keyrate.phase_error import PhaseErrorBatch

from one_point import expected_counts
from scalar_chain import (
    BoundKind,
    DecoyBound,
    PhaseErrorBound,
    decoy_cell_bounds,
    key_length,
    m0_lower_exact,
    m0_lower_fluct,
    m1_lower_exact,
    m1_lower_fluct,
    n_ph_upper_general,
    observed_counts,
    observed_error_rate,
)

REL = 1e-12
FIELDS = ("rate", "m0_l", "m1_l", "e_ph_u", "lambda_ec", "e_z", "z_ks_size")


def channel(dist, r=0.0, xi=0.147):
    return ChannelConfig(distance_km=dist, det_eff=0.15, dark_prob=5e-7,
                         e_mis=0.01, fluct_r=r, xi=xi)


def scalar_rate(cfg, params, budget, n_total, mode, f_ec=1.16, counts=None):
    intens = params.intensities(mode, cfg.fluct_r)
    if counts is None:
        batch, e_z = expected_counts(cfg, intens, params.p_z, n_total)
        counts = observed_counts(batch, n_total)
    else:
        e_z = observed_error_rate(counts)
    if mode == "exact":
        m0 = m0_lower_exact(counts, intens, budget)
        m1 = m1_lower_exact(counts, intens, budget, m0)
    else:
        m0 = m0_lower_fluct(counts, intens, budget)
        m1 = m1_lower_fluct(counts, intens, budget, m0)
    cells = {c: decoy_cell_bounds(c, counts, intens, budget, mode) for c in CELLS}
    eph = n_ph_upper_general(build_source_model(cfg.xi, params.p_z), cells, m1, budget)
    z_ks = counts.z_k("s")
    return key_length(m0, m1, eph, lambda_ec(z_ks, e_z, f_ec), budget,
                      n_total=n_total, e_z=e_z, z_ks_size=z_ks)


def assert_same(res, ref, rel=REL):
    assert res.ell == ref.ell
    assert res.abort_reason == ref.abort_reason
    for name in FIELDS:
        a, b = getattr(res, name), getattr(ref, name)
        assert a == b or abs(a - b) <= rel * abs(b), (name, a, b)


# (population, mode, fluctuation, n_total, budget mode or None)
POPULATIONS = {
    "exact": ("exact", 0.0, 1e12, "exact"),
    "fluct": ("fluct", 0.05, 1e14, "fluct"),
    "asymptotic": ("exact", 0.0, 1e12, None),
}
DISTANCES = (0.0, 90.0, 180.0)


@pytest.mark.parametrize("population", sorted(POPULATIONS))
def test_batch_matches_scalar_chain(population):
    mode, r, n_total, budget_mode = POPULATIONS[population]
    budget = None if budget_mode is None else EpsilonBudget.build(1e-10, 1e-15, budget_mode)
    rng = np.random.default_rng(2014 + len(population))
    space = SearchSpace()
    feasible_points = aborts = 0
    reasons = set()
    for dist in DISTANCES:
        cfg = channel(dist, r)
        # one grid-sized chunk per distance
        points = space.params_batch(rng.uniform(0.0, 1.0, size=(GRID_CHUNK, 5)))
        feasible, batch = evaluate_batch(cfg, points, budget, n_total, mode=mode)
        slot = np.cumsum(feasible) - 1
        for i in range(GRID_CHUNK):
            params = points.point(i)
            try:
                ref = scalar_rate(cfg, params, budget, n_total, mode)
            except ValueError:
                assert not feasible[i]
                continue
            assert feasible[i]
            res = batch.result(slot[i])
            assert_same(res, ref)
            feasible_points += 1
            aborts += res.aborted
            reasons.add(res.abort_reason)
    assert feasible_points >= 300
    # both keyed and aborted points were compared
    assert 0 < aborts < feasible_points
    assert None in reasons and len(reasons) >= 2


def test_single_point_is_a_batch_of_one():
    cfg = channel(80.0)
    budget = EpsilonBudget.build(1e-10, 1e-15, "exact")
    params = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)
    feasible, batch = evaluate_batch(cfg, ParamBatch.of([params] * 3), budget, 1e12)
    assert feasible.tolist() == [True] * 3
    single = evaluate_rate(cfg, params, budget, 1e12)
    for i in range(3):
        assert batch.result(i) == single
    assert_same(single, scalar_rate(cfg, params, budget, 1e12, "exact"))


@pytest.mark.parametrize("mode, r", [("exact", 0.0), ("fluct", 0.05)])
def test_sampled_counts_match_scalar_chain(mode, r):
    # integer Monte-Carlo counts, fed to a batch of one
    cfg = channel(25.0, r)
    budget = EpsilonBudget.build(1e-10, 1e-15, mode)
    params = ProtocolParams(p_z=0.85, p_ks=0.7, p_kd1=0.2, k_s=0.5, k_d1=0.1)
    intens = params.intensities(mode, r)
    for seed in range(5):
        counts = ChannelModel(cfg).sample(
            IntensityBatch.of(intens), np.array([params.p_z]), 10**10, seed
        )
        res = evaluate_rate(cfg, params, budget, 1e10, mode=mode, counts=counts)
        ref = observed_counts(counts, 1e10)
        assert_same(res, scalar_rate(cfg, params, budget, 1e10, mode, counts=ref))


def test_infeasible_points_are_masked():
    cfg = channel(40.0, 0.05)
    budget = EpsilonBudget.build(1e-10, 1e-15, "fluct")
    good = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.1, k_s=0.46, k_d1=0.11)
    overlap = dataclasses.replace(good, k_s=0.1, k_d1=0.099)
    simplex = dataclasses.replace(good, p_kd1=0.3)
    feasible, batch = evaluate_batch(
        cfg, ParamBatch.of([overlap, good, simplex]), budget, 1e12, mode="fluct"
    )
    assert feasible.tolist() == [False, True, False]
    assert batch.result(0) == evaluate_rate(cfg, good, budget, 1e12, mode="fluct")
    feasible, batch = evaluate_batch(
        cfg, ParamBatch.of([overlap]), budget, 1e12, mode="fluct"
    )
    assert feasible.tolist() == [False] and len(batch.ell) == 0
    with pytest.raises(ValueError):
        evaluate_batch(cfg, ParamBatch.of([good]), budget, 1e12, mode="bogus")


@pytest.mark.parametrize("asymptotic", [False, True])
def test_key_length_at_the_phase_threshold(asymptotic):
    # phase-error rates around the zero-key threshold, where the batch
    # must fall back on the root search: same length and abort reason
    budget = None if asymptotic else EpsilonBudget.build(1e-10, 1e-15, "exact")
    fail = 0.0 if asymptotic else budget.eta / 10.0
    cases = []
    for m0, m1, lam in ((2.6e5, 2.0e9, 4.3e8), (0.0, 3.2e10, 4.8e9), (12.0, 900.0, 80.0)):
        root = eph_threshold(m0, m1, lam, budget, 3 * fail)
        for e_ph in (root, *np.nextafter(root, [0.0, 1.0]), root * (1 - 1e-14),
                     root * (1 + 1e-14), root * 0.9, min(0.5, root * 1.1), 0.7):
            cases.append((m0, m1, lam, float(e_ph)))
    bound = lambda v: DecoyBound(v, fail, BoundKind.SINGLE_LOWER)
    ref = [
        key_length(bound(m0), bound(m1), PhaseErrorBound(0.0, 0.0, e, fail, ()), lam,
                   budget, n_total=1e12)
        for m0, m1, lam, e in cases
    ]
    m0, m1, lam, e_ph = (np.array(col) for col in zip(*cases))
    fails = np.full(len(cases), fail)
    batch = key_length_batch(
        BoundBatch(m0, fails), BoundBatch(m1, fails),
        PhaseErrorBatch(None, None, e_ph, fails), lam, budget,
        n_total=1e12, e_z=np.zeros(len(cases)), z_ks_size=np.zeros(len(cases)),
    )
    for i, r in enumerate(ref):
        assert (batch.ell[i], batch.abort_reason[i]) == (r.ell, r.abort_reason)
    reasons = {r.abort_reason for r in ref}
    assert reasons >= {None, "phase_error_threshold"}


def test_grid_is_chunked():
    assert GRID_CHUNK == 256
    # grid_points=4 gives 1 + 4**5 = 1025 points, five chunks
    out = optimize_rate(channel(60.0), EpsilonBudget.build(1e-10, 1e-15, "exact"),
                        1e12, strategy="grid", grid_points=4)
    assert out.evaluations == 1 + 4**5
    assert evaluate_rate(channel(60.0), out.best_params,
                         EpsilonBudget.build(1e-10, 1e-15, "exact"), 1e12) == out.best


# Recorded from optimize_rate at 60 km, grid_points=3, seed 0, when the
# Nelder-Mead polish was replaced by the batched compass search (the
# seed has no effect since).  The grid part of each trace is the one
# recorded from the one-call-per-point optimizer before the grid was
# batched.
GOLDEN = json.loads((Path(__file__).parent / "optimizer_golden.json").read_text())


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_optimizer_golden(mode):
    gold = GOLDEN[mode]
    out = optimize_rate(channel(60.0, gold["r"]),
                        EpsilonBudget.build(1e-10, 1e-15, mode), gold["n_total"],
                        seed=0, grid_points=3, mode=mode)
    assert out.best_params == ProtocolParams(*gold["params"])
    assert_same(out.best, KeyRateResult(**gold["best"]))
    assert out.evaluations == gold["evaluations"]
    trace = [[[p.p_z, p.p_ks, p.p_kd1, p.k_s, p.k_d1], rate] for p, rate in out.trace]
    assert trace == gold["trace"]
