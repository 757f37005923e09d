"""Acceptance gate for the whole pipeline.

Eight behaviour-level checks, one test each, ordered a1..a8: the
figure-level distance sweep and its runtime, flaw insensitivity,
the intensity-fluctuation regime contrast, the asymptotic fluctuation
distance shifts, the closed-form phase-bound crosscheck, concentration
coverage, the decoy sandwich, and the algebraic identity batteries.
A guard beside a1 holds the optimizer to the key lengths of the
Nelder-Mead polish it replaced.  Run with
``pytest -v tests/test_acceptance.py`` for one line per check.
"""

import math
import time

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.cli import run_sweep
from qkd_keyrate.config import parse_config, with_overrides
from qkd_keyrate.optimize import optimize_rate
from qkd_keyrate.pipeline import ProtocolParams, evaluate_rate
from qkd_keyrate.qubit_model import build_transmission_matrix
from qkd_keyrate.validate import coverage_suite, crosscheck_suite, sandwich_suite

from one_point import bound, filtered_states, key_length, phase
from virtual_states import virtual_state_coeffs

SWEEP_TEMPLATE = """\
[source]
xi = {xi}
[optimizer]
grid_points = 5
workers = 1
"""


def timed_sweep(text):
    t0 = time.monotonic()
    rows = run_sweep(parse_config(text))
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def sweep_flawed():
    return timed_sweep(SWEEP_TEMPLATE.format(xi=0.147))


@pytest.fixture(scope="module")
def sweep_clean():
    return timed_sweep(SWEEP_TEMPLATE.format(xi=0.0))


def rate_by_distance(rows):
    return {row["distance_km"]: row["rate"] for row in rows}


def test_a1_sweep_positive_at_150_zero_by_200(sweep_flawed, sweep_clean):
    for rows, elapsed in (sweep_flawed, sweep_clean):
        rates = rate_by_distance(rows)
        assert set(rates) == set(float(d) for d in range(0, 201, 10))
        assert rates[150.0] > 0.0
        assert rates[200.0] == 0.0
        assert elapsed <= 300.0


# Key lengths of the a1 sweeps with the Nelder-Mead polish and seed 0, at
# every distance that gives a key (commit 9c73a1b).
NELDER_MEAD_ELL = {
    "flawed": {
        0: 20013412640, 10: 11920671774, 20: 7058887317, 30: 4164349144,
        40: 2442756674, 50: 1421927449, 60: 819552069, 70: 466448982,
        80: 261241279, 90: 123187935, 100: 76460189, 110: 39345617,
        120: 19284829, 130: 8664275, 140: 3316568, 150: 933034, 160: 55601,
    },
    "clean": {
        0: 22132372063, 10: 13143821556, 20: 7790986364, 30: 4600095044,
        40: 2700531804, 50: 1573359690, 60: 907785917, 70: 517355950,
        80: 290261560, 90: 159578565, 100: 86024249, 110: 44770109,
        120: 22140125, 130: 10103919, 140: 3994878, 150: 1148869, 160: 127722,
    },
}


def test_a1_polish_keeps_the_nelder_mead_rates(sweep_flawed, sweep_clean):
    """The compass polish loses no key against the Nelder-Mead polish it
    replaced, to the benchmark's OPTIMUM_REL (1e-6) and ELL_SLACK_BITS (2)."""
    for name, (rows, _) in (("flawed", sweep_flawed), ("clean", sweep_clean)):
        ell = {row["distance_km"]: row["ell"] for row in rows}
        for d, ref in NELDER_MEAD_ELL[name].items():
            assert ell[float(d)] >= ref * (1 - 1e-6) - 2, (name, d, ell[float(d)], ref)


def test_a2_flaw_insensitivity_below_120km(sweep_flawed, sweep_clean):
    flawed = rate_by_distance(sweep_flawed[0])
    clean = rate_by_distance(sweep_clean[0])
    compared = 0
    for d in sorted(clean):
        if d > 120.0 or clean[d] <= 0.0 or flawed[d] <= 0.0:
            continue
        gap = abs(math.log10(flawed[d]) - math.log10(clean[d]))
        assert gap <= 0.3, f"flaw penalty {gap:.3f} dex at {d} km"
        compared += 1
    assert compared >= 10


FLUCT_TEMPLATE = """\
[run]
mode = fluctuating
n_total = 1e14
eps_sec = {eps}
[source]
fluct_r = 0.05
[sweep]
step_km = 20
[optimizer]
grid_points = 4
workers = 1
"""


def test_a3_fluct_regime_needs_weaker_secrecy():
    """In the fluctuating regime secrecy costs key, most where counts are scarce.

    eps_sec enters the martingale bounds only through sqrt(ln 1/eps) and
    the log2(1/eps) terms, so a 100x tighter eps_sec lowers the rate
    gradually: never to zero where the looser setting keys, and by a
    larger fraction at the farthest keying distance than at 0 km.
    """
    tight_cfg = parse_config(FLUCT_TEMPLATE.format(eps="1e-10"))
    loose_cfg = parse_config(FLUCT_TEMPLATE.format(eps="1e-8"))
    tight = rate_by_distance(run_sweep(tight_cfg))
    loose_rows = run_sweep(loose_cfg)
    loose = rate_by_distance(loose_rows)
    assert any(rate > 0.0 for rate in loose.values())

    keying = [d for d in sorted(loose) if loose[d] > 0.0]
    for d in sorted(loose):
        if loose[d] == 0.0:
            assert tight[d] == 0.0, f"tight sweep keys at {d} km, loose does not"
    for d in sorted(tight):
        if tight[d] > 0.0:
            assert tight[d] < loose[d], (d, tight[d], loose[d])
    cost = {d: 1.0 - tight[d] / loose[d] for d in keying}
    assert 0.0 in cost, "loose sweep has no key at 0 km"
    assert cost[keying[-1]] > cost[0.0], cost

    # the loose optimum re-evaluated at three eps_sec values, no re-optimizing
    eps_mid = math.sqrt(loose_cfg.eps_sec * tight_cfg.eps_sec)
    budgets = [
        cfg.budget()
        for cfg in (loose_cfg, with_overrides(loose_cfg, eps_sec=eps_mid), tight_cfg)
    ]
    for row in loose_rows:
        if row["rate"] <= 0.0:
            continue
        d = row["distance_km"]
        params = ProtocolParams(
            **{k: row[k] for k in ("p_z", "p_ks", "p_kd1", "k_s", "k_d1")}
        )
        ells = [
            evaluate_rate(
                loose_cfg.channel(d), params, budget, loose_cfg.n_total,
                mode=loose_cfg.bound_mode, f_ec=loose_cfg.f_ec,
            ).ell
            for budget in budgets
        ]
        assert ells[0] == pytest.approx(row["ell"], rel=1e-9), (d, ells, row["ell"])
        assert ells[0] > ells[1] > ells[2] > 0, (d, ells)


RATE_FLOOR = 1e-8


def asymptotic_crossing(r, mode):
    """First distance (1 km resolution) where the optimized rate, with
    statistical deviations disabled, falls to the plotting floor."""

    def rate_at(d):
        cfg = ChannelConfig(distance_km=float(d), det_eff=0.15,
                            dark_prob=5e-7, e_mis=0.01, fluct_r=r, xi=0.147)
        out = optimize_rate(cfg, None, 1e12, mode=mode, grid_points=4)
        return out.best.rate

    d, prev = 170.0, None
    assert rate_at(d) > RATE_FLOOR
    while d < 240.0:
        d += 4.0
        if rate_at(d) <= RATE_FLOOR:
            prev = d - 4.0
            break
    assert prev is not None, f"no cutoff below 240 km at r={r}"
    mid = prev + 2.0
    return mid + 1.0 if rate_at(mid) > RATE_FLOOR else prev + 1.0


def test_a4_asymptotic_fluct_distance_shifts():
    d_exact = asymptotic_crossing(0.0, "exact")
    d_r002 = asymptotic_crossing(0.02, "fluct")
    d_r005 = asymptotic_crossing(0.05, "fluct")
    shift_small = d_exact - d_r002
    shift_large = d_exact - d_r005
    assert 5.0 <= shift_small <= 15.0, f"r=0.02 shift {shift_small} km"
    assert 13.0 <= shift_large <= 27.0, f"r=0.05 shift {shift_large} km"


def test_a5_phase_bound_crosscheck():
    out = crosscheck_suite(tolerance=1e-9)
    assert len(out["points"]) == 50
    assert out["max_rel_diff"] <= 1e-9
    assert out["pass"] is True


def test_a6_concentration_coverage():
    t0 = time.monotonic()
    out = coverage_suite(seed=0, trials=100_000)
    elapsed = time.monotonic() - t0
    assert out["pass"] is True
    for check in out["checks"]:
        assert check["frequency"] <= check["eps"], check
    bounds = {c["bound"] for c in out["checks"]}
    assert bounds == {"chernoff", "mult_chernoff", "hoeffding", "azuma_adaptive"}
    ns = {c["n"] for c in out["checks"]}
    assert ns == {1_000, 10_000}
    epses = {c["eps"] for c in out["checks"]}
    assert epses == {1e-2, 1e-3}
    assert elapsed <= 120.0


def test_a7_decoy_sandwich():
    out = sandwich_suite()
    assert out["pass"] is True
    dists = {p["distance_km"] for p in out["points"]}
    assert dists == {0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0}
    rs = {p["r"] for p in out["points"]}
    assert rs == {0.0, 0.02, 0.05}
    for point in out["points"]:
        assert point["violations"] == [], point


def test_a8_algebraic_batteries():
    eye = np.eye(3)
    for xi in (0.0, 0.05, 0.147, 0.3):
        states = filtered_states(xi)
        tm = build_transmission_matrix(*states)
        assert np.max(np.abs(tm.a @ tm.a_inv - eye)) <= 1e-10
        assert np.max(np.abs(tm.a_inv @ tm.a - eye)) <= 1e-10

        for st in states:
            rho = 0.5 * np.array([[1.0 + st.r_z, st.r_x],
                                  [st.r_x, 1.0 - st.r_z]])
            v0 = np.array([st.a0, st.b0])
            v1 = np.array([st.a1, st.b1])
            rebuilt = st.p0 * np.outer(v0, v0) + st.p1 * np.outer(v1, v1)
            assert np.max(np.abs(rebuilt - rho)) <= 1e-10

        for p_z in (0.35, 0.6, 0.9):
            qm = virtual_state_coeffs(states[0], states[1], tm.a_inv, p_z)
            assert abs(sum(qm.probs.values()) - 1.0) <= 1e-12

    # key length responds monotonically to each input
    budget = EpsilonBudget(1e-10, 1e-15, "exact")

    def ell(m0=1e4, m1=1e6, e_ph=0.05, lam=2e5):
        return key_length(
            bound(m0), bound(m1), phase(e_ph), lam, budget, n_total=1e12
        ).ell

    base = ell()
    for m0 in (2e4, 5e4):
        assert ell(m0=m0) > base
    for m1 in (2e6, 4e6):
        assert ell(m1=m1) > base
    for e_ph in (0.08, 0.2, 0.4):
        assert ell(e_ph=e_ph) < base
    for lam in (3e5, 6e5):
        assert ell(lam=lam) < base
    prev = None
    for e_ph in np.linspace(0.0, 0.45, 10):
        cur = ell(e_ph=float(e_ph))
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_a8_optimized_rate_monotone(sweep_flawed):
    rates = rate_by_distance(sweep_flawed[0])
    dists = sorted(rates)
    for a, b in zip(dists, dists[1:]):
        assert rates[b] <= rates[a] * 1.05 + 1e-15, (a, b)

    def best(n_total):
        cfg = ChannelConfig(distance_km=50.0, det_eff=0.15, dark_prob=5e-7,
                            e_mis=0.01, fluct_r=0.0, xi=0.147)
        bud = EpsilonBudget(1e-10, 1e-15, "exact")
        return optimize_rate(cfg, bud, n_total, grid_points=3).best.rate

    assert best(1e11) < best(1e12)
