"""Tests for the lossy-channel statistics model.

Frozen values were computed with mpmath at 60 digits from the threshold
detector model with independent dark counts per port.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qkd_keyrate.channel import (
    ChannelConfig,
    ChannelModel,
    FluctuationDensity,
    _interference_factors,
    apply_misalignment,
    click_probs,
    gauss_expect,
    resolve_double_clicks,
)
from qkd_keyrate.decoy import CELLS, K_LABELS, IntensityBatch, IntensitySet

from one_point import expected_counts

REL = 1e-12

# 1 - (1 - 5e-7) exp(-0.015 * 0.5) at D = 50 km, eta_det = 0.15 (mpmath)
P_CLICK_SIGNAL_50KM = 0.007472441444888979


def make_cfg(**kw):
    base = dict(distance_km=50.0, det_eff=0.15, dark_prob=5e-7,
                e_mis=0.01, fluct_r=0.0, xi=0.0)
    base.update(kw)
    return ChannelConfig(**base)


def make_intens(r=0.0):
    return IntensitySet.fluctuating(k_s=0.5, k_d1=0.1, k_d2=2e-4,
                                    p_s=0.6, p_d1=0.3, r=r)


def sample_counts(cfg, intens, p_z, n_total, seed, draws=1):
    """``draws`` Monte-Carlo draws of one point, one per row."""
    batch = IntensityBatch.of(intens).take(np.zeros(draws, dtype=int))
    return ChannelModel(cfg).sample(batch, np.full(draws, p_z), n_total, seed)


def outcome_pairs(row):
    """The (P0, P1) outcome probabilities of each configuration of a click
    table row, in CELLS order."""
    return list(zip(row[0:16:2], row[1:16:2]))


# the Z-sender, Z-receiver cells
ZZ = [CELLS.index(("Z", i, "Z", j)) for i in (0, 1) for j in (0, 1)]


def test_attenuation():
    cfg = make_cfg()
    assert cfg.eta_ch == pytest.approx(0.1, rel=REL)
    assert cfg.eta_sy == pytest.approx(0.015, rel=REL)


def test_click_prob_frozen():
    cfg = make_cfg()
    p0, p1 = click_probs(cfg, make_intens().s, ("Z", "Z"), 0)
    # constructive port sees the full pulse, the empty port only darks
    assert p0 == pytest.approx(P_CLICK_SIGNAL_50KM, rel=REL)
    assert p1 == pytest.approx(5e-7, rel=REL)


def test_double_click_resolution():
    assert resolve_double_clicks(0.2, 0.3) == pytest.approx(0.17, rel=REL)
    assert resolve_double_clicks(0.3, 0.2) == pytest.approx(0.27, rel=REL)
    # the two exclusive outcomes and the no-click event partition unit mass
    total = resolve_double_clicks(0.2, 0.3) + resolve_double_clicks(0.3, 0.2)
    assert total + (1 - 0.2) * (1 - 0.3) == pytest.approx(1.0, rel=REL)


def test_misalignment():
    pc, pw = apply_misalignment(0.5, 0.1, 0.01)
    assert pc == pytest.approx(0.495, rel=REL)
    assert pw == pytest.approx(0.105, rel=REL)
    assert pc + pw == pytest.approx(0.6, rel=REL)


def test_gauss_expect_matches_quad():
    dens = FluctuationDensity.for_intensity(0.5, 0.05)
    f = lambda k: 1.0 - math.exp(-0.8 * k)
    sigma = math.sqrt(dens.sigma2)
    num, _ = quad(
        lambda k: f(k) * dens.norm * math.exp(-0.5 * ((k - dens.mean) / sigma) ** 2),
        dens.lo, dens.hi, epsabs=1e-14, epsrel=1e-13,
    )
    assert gauss_expect(f, dens) == pytest.approx(num, rel=1e-9)


def test_gauss_expect_point_mass():
    dens = FluctuationDensity.for_intensity(0.5, 0.0)
    assert gauss_expect(lambda k: k * k, dens) == 0.25


def test_density_normalised():
    dens = FluctuationDensity.for_intensity(0.5, 0.05)
    sigma = math.sqrt(dens.sigma2)
    mass, _ = quad(
        lambda k: dens.norm * math.exp(-0.5 * ((k - dens.mean) / sigma) ** 2),
        dens.lo, dens.hi, epsabs=1e-14,
    )
    assert mass == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("distance", [0.0, 100.0, 200.0])
@pytest.mark.parametrize("xi", [0.0, 0.147, 0.3])
@pytest.mark.parametrize("r", [0.0, 0.05])
def test_outcome_probs_are_probabilities(distance, xi, r):
    cfg = make_cfg(distance_km=distance, xi=xi, fluct_r=r)
    model = ChannelModel(cfg)
    intens = make_intens(r=r)
    for lab in K_LABELS:
        for p0, p1 in outcome_pairs(model._entry(intens.level(lab).nominal)):
            assert 0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0
            assert p0 + p1 <= 1.0 + 1e-12


def test_expected_linearity():
    cfg = make_cfg(xi=0.147)
    intens = make_intens()
    c1, ez1 = expected_counts(cfg, intens, 0.5, 1e8)
    c2, ez2 = expected_counts(cfg, intens, 0.5, 2e8)
    assert ez1 == ez2
    assert c2.cells == pytest.approx(2 * c1.cells, rel=1e-14)
    assert c2.z_by_k == pytest.approx(2 * c1.z_by_k, rel=1e-14)


def test_count_bookkeeping():
    cfg = make_cfg(xi=0.147)
    n = 1e10
    p_z = 0.7
    counts, _ = expected_counts(cfg, make_intens(), p_z, n)
    cells, trials = counts.cells[0], counts.trials[0]
    assert counts.n_z[0] == pytest.approx(n * p_z**2, rel=REL)
    # each configuration's trials sit at both of its outcome cells, and
    # the configurations share all N trials
    assert (trials[0::2] == trials[1::2]).all()
    assert trials[0::2].sum() == pytest.approx(n, rel=REL)
    # Z aggregates are the ZZ cell totals
    for k in range(len(K_LABELS)):
        assert counts.z_by_k[0, k] == pytest.approx(cells[k, ZZ].sum(), rel=REL)
    assert counts.z_tot[0] == pytest.approx(counts.z_by_k[0].sum(), rel=REL)
    # the second X-basis sender state never fires
    x1 = [i for i, c in enumerate(CELLS) if c[:2] == ("X", 1)]
    assert (cells[:, x1] == 0.0).all()
    # detections cannot exceed trials per configuration
    det = cells.sum(axis=0)
    assert (det[0::2] + det[1::2] <= trials[0::2] * (1 + 1e-12)).all()


def test_error_rate_dominated_by_misalignment():
    # short link, flawless encoding: dark counts are negligible and the
    # bit error rate collapses to e_mis
    cfg = make_cfg(distance_km=0.0, e_mis=0.01, xi=0.0)
    _, e_z = expected_counts(cfg, make_intens(), 0.5, 1e8)
    assert e_z == pytest.approx(0.01, abs=1e-5)


def test_error_rate_grows_with_encoding_flaw():
    cfg0 = make_cfg(distance_km=0.0, xi=0.0)
    cfg1 = make_cfg(distance_km=0.0, xi=0.147)
    _, ez0 = expected_counts(cfg0, make_intens(), 0.5, 1e8)
    _, ez1 = expected_counts(cfg1, make_intens(), 0.5, 1e8)
    assert ez1 > ez0


def test_fluctuation_continuity_at_zero_width():
    intens0 = make_intens(r=0.0)
    intens1 = make_intens(r=1e-6)
    c0, _ = expected_counts(make_cfg(), intens0, 0.5, 1e10)
    c1, _ = expected_counts(make_cfg(fluct_r=1e-6), intens1, 0.5, 1e10)
    fired = c0.cells > 0
    assert fired.any()
    assert c1.cells[fired] == pytest.approx(c0.cells[fired], rel=1e-8)


def test_sample_is_deterministic():
    cfg = make_cfg(xi=0.147)
    intens = make_intens()
    s1 = sample_counts(cfg, intens, 0.5, 10**6, seed=7)
    s2 = sample_counts(cfg, intens, 0.5, 10**6, seed=7)
    for a, b in zip(s1, s2):
        assert (a == b).all()
    s3 = sample_counts(cfg, intens, 0.5, 10**6, seed=8)
    assert (s3.cells != s1.cells).any()


def test_sample_matches_expectation():
    cfg = make_cfg(distance_km=10.0, xi=0.147)
    intens = make_intens()
    n = 10**7
    exp, _ = expected_counts(cfg, intens, 0.5, float(n))
    samp = sample_counts(cfg, intens, 0.5, n, seed=123)
    mean = exp.cells[0]
    big = mean >= 10.0
    assert big.sum() >= 12
    assert (np.abs(samp.cells[0] - mean)[big] <= 5.0 * np.sqrt(mean[big]) + 1.0).all()


def test_sample_counts_are_integers():
    samp = sample_counts(make_cfg(), make_intens(), 0.5, 10**5, seed=1)
    for field in samp:
        assert (field == np.round(field)).all()


def test_sample_bookkeeping():
    # a point that appears three times is drawn three times; every draw
    # spends its N trials and keeps the aggregates of its own cells
    n = 10**6
    samp = sample_counts(make_cfg(xi=0.147), make_intens(), 0.7, n, seed=3, draws=3)
    assert samp.cells.shape == (3, 3, 16)
    assert (samp.cells[0] != samp.cells[1]).any()
    assert (samp.cells[1] != samp.cells[2]).any()
    assert (samp.trials[:, 0::2] == samp.trials[:, 1::2]).all()
    assert (samp.trials[:, 0::2].sum(axis=1) == n).all()
    assert (samp.z_by_k == samp.cells[:, :, ZZ].sum(axis=2)).all()
    assert (samp.z_tot == samp.z_by_k.sum(axis=1)).all()
    assert (samp.n_z == samp.trials[:, 0] + samp.trials[:, 4]).all()
    det = samp.cells.sum(axis=1)
    assert (det[:, 0::2] + det[:, 1::2] <= samp.trials[:, 0::2]).all()


def test_sample_empty_run():
    samp = sample_counts(make_cfg(), make_intens(), 0.5, 0, seed=1)
    assert samp.n_z[0] == 0
    assert (samp.trials == 0).all()
    assert (samp.cells == 0).all()


def test_expected_rejects_empty_run():
    with pytest.raises(ValueError):
        expected_counts(make_cfg(), make_intens(), 0.5, 0.0)


# the six sender/receiver configurations of a click table
CONFIGS = (("Z", 0, "Z"), ("Z", 0, "X"), ("Z", 1, "Z"), ("Z", 1, "X"),
           ("X", 0, "Z"), ("X", 0, "X"))


def click_probs_per_port(cfg, level, basis_pair, bit_in):
    """click_probs as one gauss_expect per port, the reference for the
    shared quadrature."""
    a, b = basis_pair
    dens = FluctuationDensity.for_intensity(level.nominal, cfg.fluct_r)
    eta, pd = cfg.eta_sy, cfg.dark_prob

    def port(frac):
        if dens.lo == dens.hi:
            return 1.0 - (1.0 - pd) * math.exp(-eta * dens.mean * frac)
        return gauss_expect(
            lambda k: 1.0 - (1.0 - pd) * np.exp(-eta * k * frac), dens, vectorized=True
        )

    f0, f1 = _interference_factors(cfg.xi, a, bit_in, b)
    return port(f0), port(f1)


def table_from_click_probs(cfg, level, click):
    """A click table from six separate click-probability calls."""
    table = {}
    for a, y, b in CONFIGS:
        p0, p1 = click(cfg, level, (a, b), y)
        q0, q1 = resolve_double_clicks(p0, p1), resolve_double_clicks(p1, p0)
        if a == b:
            if (y if a == "Z" else 0) == 0:
                q0, q1 = apply_misalignment(q0, q1, cfg.e_mis)
            else:
                q1, q0 = apply_misalignment(q1, q0, cfg.e_mis)
        table[(a, y, b)] = (q0, q1)
    return table


@pytest.mark.parametrize("distance", [0.0, 80.0, 160.0])
@pytest.mark.parametrize("r", [0.0, 0.02, 0.05])
def test_table_matches_separate_click_probs(distance, r):
    # one quadrature per table must not move a single bit
    cfg = make_cfg(distance_km=distance, xi=0.147, fluct_r=r)
    rng = np.random.default_rng(int(distance) + int(1000 * r))
    for k_s, k_d1 in [(0.5, 0.1)] + [(u, 0.3 * u) for u in rng.uniform(0.05, 1.0, 5)]:
        intens = IntensitySet.fluctuating(k_s=k_s, k_d1=k_d1, k_d2=2e-4,
                                          p_s=0.6, p_d1=0.3, r=r)
        model = ChannelModel(cfg)
        for lab in K_LABELS:
            level = intens.level(lab)
            row = model._entry(level.nominal)
            # the X1 sender state is never sent
            assert row[12:16] == [0.0] * 4
            for click in (click_probs_per_port, click_probs):
                table = table_from_click_probs(cfg, level, click)
                assert outcome_pairs(row)[:6] == [table[c] for c in CONFIGS]
