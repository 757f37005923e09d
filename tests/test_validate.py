"""Structure and determinism of the validation suites."""

import numpy as np

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.pipeline import ParamBatch, ProtocolParams, evaluate_batch
from qkd_keyrate.validate import (
    _phase_bounds,
    coverage_suite,
    crosscheck_suite,
    run_validation,
    sandwich_suite,
)


def test_coverage_structure():
    out = coverage_suite(seed=1, trials=2000)
    assert out["trials"] == 2000
    assert out["pass"] is True
    kinds = {c["bound"] for c in out["checks"]}
    assert kinds == {"chernoff", "mult_chernoff", "hoeffding", "azuma_adaptive"}
    for check in out["checks"]:
        assert check["frequency"] <= check["eps"]
        assert check["pass"] is True
        assert check["n"] in (1_000, 10_000)


def test_coverage_deterministic():
    assert coverage_suite(seed=4, trials=1500) == coverage_suite(seed=4, trials=1500)


def test_sandwich_margins():
    out = sandwich_suite()
    assert out["pass"] is True
    assert len(out["points"]) == 7 * 3
    for point in out["points"]:
        assert point["pass"] is True
        assert point["violations"] == []
        assert point["min_margin"] >= 0.0


def test_crosscheck_agreement_and_fail_path():
    out = crosscheck_suite()
    assert out["pass"] is True
    assert out["max_rel_diff"] < 1e-12
    assert len(out["points"]) == 50
    # a tolerance below the achieved agreement must flip the flag
    broken = crosscheck_suite(tolerance=1e-17)
    assert broken["pass"] is False


def test_crosscheck_checks_the_chains_phase_error_rate():
    # at one of the crosscheck's (xi, distance) pairs, its general bound
    # over m1 is the phase-error rate the chain's evaluations use
    cfg = ChannelConfig(distance_km=30.0, det_eff=0.15, dark_prob=5e-7,
                        e_mis=0.01, fluct_r=0.0, xi=0.147, atten_db_per_km=0.2)
    params = ParamBatch.of([
        ProtocolParams(p_z=p_z, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1)
        for p_z in (0.35, 0.5, 0.65, 0.8, 0.9)
    ])
    budget = EpsilonBudget(1e-10, 1e-15, "exact")
    general, _, m1 = _phase_bounds(cfg, params, budget, 1e12)
    feasible, res = evaluate_batch(cfg, params, budget, 1e12)
    assert feasible.all() and (m1 > 0.0).all()
    assert (np.minimum(general / m1, 1.0) == res.e_ph_u).all()


def test_run_validation_aggregates():
    report = run_validation(seed=2, trials=1500)
    assert set(report) == {"seed", "coverage", "decoy_sandwich",
                           "phase_crosscheck", "passed"}
    assert report["passed"] is True
    assert report == run_validation(seed=2, trials=1500)
