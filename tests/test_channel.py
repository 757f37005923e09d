"""Tests for the lossy-channel statistics model.

Frozen values were computed with mpmath at 60 digits from the threshold
detector model with independent dark counts per port.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qkd_keyrate import channel
from qkd_keyrate.channel import (
    ChannelConfig,
    ChannelModel,
    _NODES,
    _WEIGHTS,
    _port_click_probs,
    _quadrature,
    _spread,
)
from qkd_keyrate.decoy import CELLS, K_LABELS
from qkd_keyrate.optimize import SearchSpace
from qkd_keyrate.pipeline import ProtocolParams, prepare_batch

from one_point import expected_counts
from scalar_chain import IntensitySet

REL = 1e-12

# 1 - (1 - 5e-7) exp(-0.015 * 0.5) at D = 50 km, eta_det = 0.15 (mpmath)
P_CLICK_SIGNAL_50KM = 0.007472441444888979


def make_cfg(**kw):
    base = dict(distance_km=50.0, det_eff=0.15, dark_prob=5e-7,
                e_mis=0.01, fluct_r=0.0, xi=0.0)
    base.update(kw)
    return ChannelConfig(**base)


def make_intens(r=0.0):
    params = ProtocolParams(p_z=0.5, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1, k_d2=2e-4)
    return params.intensities("fluct", r)


def sample_counts(cfg, intens, p_z, n_total, seed, draws=1):
    """``draws`` Monte-Carlo draws of one point, one per row."""
    batch = tuple(a[:, np.zeros(draws, dtype=int)] for a in intens)
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


@pytest.mark.parametrize("name, value", [
    ("xi", math.nan), ("xi", math.inf), ("xi", -math.inf),
    ("atten_db_per_km", math.nan), ("atten_db_per_km", math.inf),
    ("atten_db_per_km", -0.2),
])
def test_config_rejects_bad_link(name, value):
    with pytest.raises(ValueError, match=name):
        make_cfg(**{name: value})


@pytest.mark.parametrize("fluct_r", [1e-17, 2.0**-53])
def test_config_rejects_unresolvable_fluctuation(fluct_r):
    # (1 + r) mu would round to mu, and _spread would divide by a zero mass
    with pytest.raises(ValueError, match="fluct_r"):
        make_cfg(fluct_r=fluct_r)


def test_click_prob_frozen():
    # Z0 sent, Z measured at xi = 0: the constructive port sees the full
    # pulse, the empty port only darks
    [[p0, p1]] = _port_click_probs(make_cfg(), make_intens()[0][0], (1.0, 0.0))
    assert p0 == pytest.approx(P_CLICK_SIGNAL_50KM, rel=REL)
    assert p1 == pytest.approx(5e-7, rel=REL)


def patch_ports(monkeypatch, ports):
    """Make every level's 12 ports click with the probabilities ``ports``."""
    monkeypatch.setattr(channel, "_port_click_probs", lambda *_: [list(ports)])


def pairs_with_ports(monkeypatch, p0, p1):
    """The outcome pairs of the click table that ``_click_tables`` builds
    (at e_mis = 0.01) when port 0 of every configuration clicks with
    probability p0 and port 1 with p1."""
    patch_ports(monkeypatch, [p0, p1] * 6)
    return outcome_pairs(ChannelModel(make_cfg(e_mis=0.01))._tables([0.5])[0])


def test_double_click_resolution(monkeypatch):
    # Z0 sent, X measured: a cross-basis configuration, not misaligned
    q0, q1 = pairs_with_ports(monkeypatch, 0.2, 0.3)[1]
    assert q0 == pytest.approx(0.17, rel=REL)
    assert q1 == pytest.approx(0.27, rel=REL)
    # the two exclusive outcomes and the no-click event partition unit mass
    assert q0 + q1 + (1 - 0.2) * (1 - 0.3) == pytest.approx(1.0, rel=REL)


def test_misalignment(monkeypatch):
    # ports whose exclusive outcomes are (0.5, 0.1): p0 - p0 p1 / 2 = 0.5
    # and p1 - p0 p1 / 2 = 0.1, so p0 = p1 + 0.4 and p1^2 - 1.6 p1 + 0.2 = 0
    p1 = 0.8 - math.sqrt(0.44)
    pairs = pairs_with_ports(monkeypatch, p1 + 0.4, p1)
    assert pairs[1] == pytest.approx((0.5, 0.1), rel=REL)
    # Z0 -> Z and X0 -> X leak 1% of outcome 0 into outcome 1
    for pc, pw in (pairs[0], pairs[5]):
        assert pc == pytest.approx(0.495, rel=REL)
        assert pw == pytest.approx(0.105, rel=REL)
        assert pc + pw == pytest.approx(0.6, rel=REL)
    # Z1 -> Z leaks 1% of outcome 1 into outcome 0
    assert pairs[2] == pytest.approx((0.501, 0.099), rel=REL)
    # ports that never click leave a zero gain and a zero error rate
    patch_ports(monkeypatch, [0.0] * 12)
    assert ChannelModel(make_cfg())._tables([0.5])[0].tolist() == [0.0] * 17


def test_gauss_expect_matches_quad():
    # the expectation that _quadrature's nodes and weights form, against
    # an adaptive quadrature of the truncated-Gaussian density
    mean, lo, hi, sigma2, norm = _spread(0.5, 0.05)
    f = lambda k: 1.0 - np.exp(-0.8 * k)
    sigma = math.sqrt(sigma2)
    num, _ = quad(
        lambda k: f(k) * norm * math.exp(-0.5 * ((k - mean) / sigma) ** 2),
        lo, hi, epsabs=1e-14, epsrel=1e-13,
    )
    k, weight, half = _quadrature([0.5], 0.05)
    assert float(weight[0] @ f(k[0])) * half[0, 0] == pytest.approx(num, rel=1e-9)


def test_quadrature_literals_are_roots_legendre():
    # the mirrored literals are scipy's 64-node rule bit for bit
    special = pytest.importorskip("scipy.special")
    nodes, weights = special.roots_legendre(64)
    assert _NODES.dtype == nodes.dtype and _NODES.tobytes() == nodes.tobytes()
    assert _WEIGHTS.dtype == weights.dtype and _WEIGHTS.tobytes() == weights.tobytes()


def test_density_normalised():
    mean, lo, hi, sigma2, norm = _spread(0.5, 0.05)
    sigma = math.sqrt(sigma2)
    mass, _ = quad(
        lambda k: norm * math.exp(-0.5 * ((k - mean) / sigma) ** 2),
        lo, hi, epsabs=1e-14,
    )
    assert mass == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("distance", [0.0, 100.0, 200.0])
@pytest.mark.parametrize("xi", [0.0, 0.147, 0.3])
@pytest.mark.parametrize("r", [0.0, 0.05])
def test_outcome_probs_are_probabilities(distance, xi, r):
    cfg = make_cfg(distance_km=distance, xi=xi, fluct_r=r)
    model = ChannelModel(cfg)
    nominal, _, _, _ = make_intens(r=r)
    for k in nominal[:, 0].tolist():
        for p0, p1 in outcome_pairs(model._tables([k])[0]):
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


@pytest.mark.parametrize("n_total", [10**19, 2**63, 2.0**63, 1.5, -1, math.inf, math.nan])
def test_sample_rejects_bad_trial_counts(n_total):
    # numpy's multinomial overflows past a C long and truncates fractions
    with pytest.raises(ValueError, match="n_total"):
        sample_counts(make_cfg(), make_intens(), 0.5, n_total, seed=1)


@pytest.mark.parametrize("p_z", [0.0, 1.0, math.nan])
def test_sample_rejects_p_z_outside_the_unit_interval(p_z):
    # a prepared batch's p_z passed the feasibility rule; sample takes
    # its caller's p_z and tests it itself
    with pytest.raises(ValueError, match="p_z"):
        sample_counts(make_cfg(), make_intens(), p_z, 10**6, seed=1)


def test_sample_accepts_integral_floats():
    samp = sample_counts(make_cfg(), make_intens(), 0.5, 1e12, seed=1)
    assert (samp.trials[:, 0::2].sum(axis=1) == 10**12).all()


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


# frozen copies of the scalar helpers the click tables were once built
# from, kept as the reference for _click_tables


def interference_factors(xi, a, y, b):
    """Fraction of the pulse reaching Bob's port 0 and port 1."""
    if a == "X" and y != 0:
        raise ValueError("the X basis only encodes bit 0")
    if (a, y, b) == ("Z", 0, "Z"):
        overlap = 1.0
    elif (a, y, b) == ("Z", 1, "Z"):
        overlap = -math.cos(xi)
    elif (a, y, b) == ("X", 0, "X"):
        overlap = math.cos(xi)
    elif (a, y, b) == ("Z", 0, "X"):
        overlap = math.sin(xi / 2.0)
    elif (a, y, b) == ("Z", 1, "X"):
        overlap = -math.sin(3.0 * xi / 2.0)
    elif (a, y, b) == ("X", 0, "Z"):
        overlap = -math.sin(xi / 2.0)
    else:
        raise ValueError(f"unknown configuration {(a, y, b)!r}")
    return (1.0 + overlap) / 2.0, (1.0 - overlap) / 2.0


def resolve_double_clicks(p_j, p_jother):
    """P(outcome j and not the other) with double clicks split at random."""
    if not (0.0 <= p_j <= 1.0 and 0.0 <= p_jother <= 1.0):
        raise ValueError("click probabilities must lie in [0, 1]")
    return p_j * (1.0 - p_jother) + 0.5 * p_j * p_jother


def apply_misalignment(p_correct, p_wrong, e_mis):
    """Leak a fraction e_mis of the correct-outcome mass into the wrong one."""
    if not 0.0 <= e_mis <= 1.0:
        raise ValueError("e_mis must lie in [0, 1]")
    return p_correct * (1.0 - e_mis), p_correct * e_mis + p_wrong


def click_probs_per_port(cfg, level, basis_pair, bit_in):
    """The two ports' click probabilities as one quadrature per port, the
    reference for the shared quadrature."""
    a, b = basis_pair
    mean, r = level.nominal, cfg.fluct_r
    eta, pd = cfg.eta_sy, cfg.dark_prob

    def port(frac):
        if r == 0.0 or mean == 0.0:
            return 1.0 - (1.0 - pd) * math.exp(-eta * mean * frac)
        k, weight, half = (a[0] for a in _quadrature([mean], r))
        return float(weight @ (1.0 - (1.0 - pd) * np.exp(-eta * k * frac))) * half[0]

    f0, f1 = interference_factors(cfg.xi, a, bit_in, b)
    return port(f0), port(f1)


def click_probs_per_config(cfg, level, basis_pair, bit_in):
    """The two ports' click probabilities from one shared quadrature per
    configuration."""
    a, b = basis_pair
    fracs = interference_factors(cfg.xi, a, bit_in, b)
    return tuple(_port_click_probs(cfg, [level.nominal], fracs)[0])


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
    # a point-mass table is the per-port closed form bit for bit; a
    # quadrature table's dot products sum in the batched matmul's order,
    # within a few ulps of a separate quadrature per port
    rel = 0.0 if r == 0.0 else REL
    cfg = make_cfg(distance_km=distance, xi=0.147, fluct_r=r)
    rng = np.random.default_rng(int(distance) + int(1000 * r))
    for k_s, k_d1 in [(0.5, 0.1)] + [(u, 0.3 * u) for u in rng.uniform(0.05, 1.0, 5)]:
        intens = IntensitySet.fluctuating(k_s=k_s, k_d1=k_d1, k_d2=2e-4,
                                          p_s=0.6, p_d1=0.3, r=r)
        levels = [intens.level(lab) for lab in K_LABELS]
        # the three levels' tables in one pass
        rows = ChannelModel(cfg)._tables([level.nominal for level in levels])
        for level, row in zip(levels, rows):
            # the X1 sender state is never sent
            assert (row[12:16] == 0.0).all()
            for click in (click_probs_per_port, click_probs_per_config):
                table = table_from_click_probs(cfg, level, click)
                expect = [q for c in CONFIGS for q in table[c]]
                assert row[:12].tolist() == pytest.approx(expect, rel=rel, abs=0.0)


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_table_rows_do_not_depend_on_the_batch(r):
    # 300 levels built together give the floats of each built alone;
    # at r > 0 the zero level is a point mass among quadratures
    cfg = make_cfg(distance_km=80.0, xi=0.147, fluct_r=r)
    nominal = [0.0] + np.random.default_rng(3).uniform(1e-4, 1.0, 299).tolist()
    together = ChannelModel(cfg)._tables(nominal)
    alone = np.array([ChannelModel(cfg)._tables([k])[0] for k in nominal])
    assert together.tobytes() == alone.tobytes()


def test_each_missing_table_is_built_once(monkeypatch):
    built = []

    def spy(cfg, nominal, fracs):
        built.append(list(nominal))
        return click_tables(cfg, nominal, fracs)

    click_tables = channel._click_tables
    monkeypatch.setattr(channel, "_click_tables", spy)
    model = ChannelModel(make_cfg(fluct_r=0.05))
    first = model._tables([0.1, 0.2, 0.3])
    # hits are looked up, and only the new key of a batch is built
    again = model._tables([0.2, 0.3, 0.4])
    model._tables([0.1, 0.4])
    assert built == [[0.1, 0.2, 0.3], [0.4]]
    assert again[:2].tobytes() == first[1:].tobytes()
    # another model keeps its own tables
    ChannelModel(make_cfg(fluct_r=0.05))._tables([0.1])
    assert built[-1] == [0.1]


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_z_and_cell_counts_match_expected_counts(r):
    # the two halves of expected_counts a screened batch forms: the Z
    # fields of every point, then the cells and trials of some points,
    # each bit for bit those of expected_counts
    cfg = make_cfg(distance_km=60.0, xi=0.147, fluct_r=r)
    units = np.random.default_rng(4).random((200, 5))
    prepared = prepare_batch(SearchSpace().params_batch(units), "fluct", r)
    full, e_z = ChannelModel(cfg).expected_counts(prepared.layout, 1e13)
    z, z_e = ChannelModel(cfg).z_counts(prepared.layout, 1e13)
    assert z.cells is None and z.trials is None
    for name in ("z_by_k", "z_tot", "n_z"):
        assert getattr(z, name).tobytes() == getattr(full, name).tobytes()
    assert z_e.tobytes() == e_z.tobytes()
    rows = np.array([7, 3, 150, 151, 0])
    part = ChannelModel(cfg).cell_counts(prepared.layout, 1e13, rows)
    assert part.cells.tobytes() == full.cells[rows].tobytes()
    assert part.trials.tobytes() == full.trials[rows].tobytes()
    with pytest.raises(ValueError, match="n_total"):
        ChannelModel(cfg).z_counts(prepared.layout, math.inf)
    with pytest.raises(ValueError, match="n_total"):
        ChannelModel(cfg).cell_counts(prepared.layout, math.inf, rows)
