"""Tests for the epsilon budget construction and allocation table, and
for the one rule that charges it: the key length pays the whole eta
once, and every allocation the chain asks for is part of it."""

import hashlib
import math
import pickle
from dataclasses import FrozenInstanceError, dataclass, field, fields

import numpy as np
import pytest

from qkd_keyrate.budget import CELL_IDS, EpsilonBudget, allocation_names
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.decoy import CELLS
from qkd_keyrate.key_length import binary_entropy
from qkd_keyrate.pipeline import (
    ParamBatch,
    ProtocolParams,
    evaluate_batch,
    evaluate_rate,
)

EPS_SEC = 1e-10
EPS_C = 1e-15


def test_static_allocation_counts():
    # 12 aggregate + 8 martingale + 16 cells * 5 estimates * 2 (Hoeffding pair)
    assert len(allocation_names("exact")) == 180
    # 7 aggregate + 8 martingale + 16 cells * 5 estimates
    assert len(allocation_names("fluct")) == 95


def test_names_are_unique():
    for mode in ("exact", "fluct"):
        names = allocation_names(mode)
        assert len(set(names)) == len(names)


def test_cell_ids_cover_all_sixteen():
    assert len(CELL_IDS) == 16
    assert "Z0X1" in CELL_IDS
    assert "X1Z0" in CELL_IDS
    # the allocation names follow the cell axis of every batch
    assert CELL_IDS == tuple(f"{a}{y}{b}{y1}" for a, y, b, y1 in CELLS)


def test_equal_split():
    b = EpsilonBudget(EPS_SEC, EPS_C, mode="exact")
    eps_s = EPS_SEC - EPS_C
    assert b.eps_s == pytest.approx(eps_s, rel=1e-12)
    assert b.eta == pytest.approx(0.5 * eps_s**2, rel=1e-12)
    per = b.eta / 180
    assert b.alloc("m0.final") == pytest.approx(per, rel=1e-12)
    assert b.alloc("cell.Z0X1.d1.lo") == pytest.approx(per, rel=1e-12)
    names = allocation_names("exact")
    assert sum(b.alloc(name) for name in names) == pytest.approx(b.eta, rel=1e-12)
    # every estimate takes the one ln(1/eps) of the equal split
    assert b.log_inv(names) == -math.log(per)


# sha256 of every allocation (in allocation_names order), log_terms,
# eps_s and eta as float64 bytes; (1e-155, 1e-170) has a subnormal
# equal share, 2.78e-313 in exact mode
BUDGET_BYTES = {
    (1e-10, 1e-15, "exact"): "cf6f49c45d71f792318eab918d4e8f2f8ac4cd1035ffd197df3017f406cd4968",
    (1e-08, 1e-15, "exact"): "9f843991847087089e3e379105cf9ff42819400f786dd33ee9d2a0d7fa03ce3b",
    (1e-155, 1e-170, "exact"): "f18da164992363021b8b08a4cf063aac3e13ee3e92237a9f1ad3c82ec7f9d3b2",
    (1e-10, 1e-15, "fluct"): "a7ad4026b7b223e2d1676ae1beccfacc81f0bec1e79c53f88c7e51ecdfaa1fad",
    (1e-08, 1e-15, "fluct"): "fd7031ee70054e4e94d917d67065bf55ec602dc34b4ae7909e5f7660fe572a4a",
    (1e-155, 1e-170, "fluct"): "d5b6a5c96237ad7a765209b8a29c4b751d62ff8ae9e3220e8cf29978cc40918e",
}


@pytest.mark.parametrize("key", sorted(BUDGET_BYTES, key=str))
def test_budget_bytes(key):
    eps_sec, eps_c, mode = key
    b = EpsilonBudget(eps_sec, eps_c, mode)
    names = allocation_names(mode)
    values = [b.alloc(name) for name in names] + [b.log_terms, b.eps_s, b.eta]
    assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == BUDGET_BYTES[key]
    assert b.log_inv(names) == -math.log(b.alloc(names[0]))


def test_exact_mode_has_hoeffding_pairs():
    b = EpsilonBudget(EPS_SEC, EPS_C, mode="exact")
    assert b.alloc("z.d2.vac.lo.H") == b.alloc("cell.X0X0.s.hi.H") == b.eta / 180


def test_fluct_mode_has_no_hoeffding_pairs():
    b = EpsilonBudget(EPS_SEC, EPS_C, mode="fluct")
    assert not any(name.endswith(".H") for name in allocation_names("fluct"))
    assert b.alloc("z.d2.vac.lo") == b.eta / 95
    with pytest.raises(KeyError):
        b.alloc("z.d2.vac.lo.H")


def test_phase_martingale_names():
    # one epsilon per (receiver outcome, collective outcome) pair in use
    expected = {
        "ph.az.1.1", "ph.az.0.2",
        "ph.az.0.3", "ph.az.0.4", "ph.az.0.5",
        "ph.az.1.3", "ph.az.1.4", "ph.az.1.5",
    }
    for mode in ("exact", "fluct"):
        assert expected <= set(allocation_names(mode))


def test_unknown_alloc_is_error():
    b = EpsilonBudget(EPS_SEC, EPS_C, mode="exact")
    with pytest.raises(KeyError):
        b.alloc("z.d1.vac")
    # log_inv checks every name, before and after a tuple is memoized
    for _ in range(2):
        with pytest.raises(KeyError):
            b.log_inv(("m0.final", "z.d1.vac"))
    assert b.log_inv(("m0.final",)) == -math.log(b.alloc("m0.final"))


def test_allocations_read_only():
    # the allocations are derived from the frozen (eps_sec, eps_c, mode)
    b = EpsilonBudget(EPS_SEC, EPS_C, mode="exact")
    for name in ("eps_sec", "mode", "eps_s", "eta"):
        with pytest.raises(FrozenInstanceError):
            setattr(b, name, 1e-30)
    assert [f.name for f in fields(b) if f.init] == ["eps_sec", "eps_c", "mode"]


def test_pickles_with_read_only_allocations():
    b = EpsilonBudget(EPS_SEC, EPS_C, "exact")
    names = ("m0.final", "m1.final")
    log_inv = b.log_inv(names)
    again = pickle.loads(pickle.dumps(b))
    assert again == b
    assert (again.eps_s, again.eta) == (b.eps_s, b.eta)
    assert again.log_inv(names) == log_inv
    with pytest.raises(FrozenInstanceError):
        again.eta = 1.0


def test_validation():
    with pytest.raises(ValueError):
        EpsilonBudget(1e-15, 1e-15, mode="exact")  # eps_s = 0
    with pytest.raises(ValueError):
        allocation_names("other")


# splits float arithmetic cannot keep, and bad fields: (1e-160, 1e-170)
# has a subnormal equal share whose n copies miss eta by far more than
# a rounding error, (inf, 1e-15) fails eta < eps_s^2 and (1e-200,
# 1e-210) squares to 0
REJECTED = [
    (1e-160, 1e-170, "exact"), (1e-160, 1e-170, "fluct"),
    (math.inf, 1e-15, "exact"), (math.inf, 1e-15, "fluct"),
    (1e-200, 1e-210, "exact"), (1e-200, 1e-210, "fluct"),
    (1e-15, 1e-15, "exact"), (1e-15, 1e-10, "fluct"),
    (1e-10, 0.0, "exact"), (1e-10, -1e-15, "exact"),
    (math.nan, 1e-15, "exact"), (1e-10, math.nan, "fluct"),
    (1e-10, 1e-15, "other"),
]


@pytest.mark.parametrize("eps_sec, eps_c, mode", REJECTED)
def test_rejects_bad_splits(eps_sec, eps_c, mode):
    with pytest.raises(ValueError):
        EpsilonBudget(eps_sec, eps_c, mode)


@dataclass(frozen=True)
class RecordingBudget(EpsilonBudget):
    """An EpsilonBudget that records every allocation name asked of it."""

    asked: set = field(default_factory=set, repr=False, compare=False)

    def alloc(self, name):
        self.asked.add(name)
        return super().alloc(name)

    def log_inv(self, names):
        self.asked.update(names)
        return super().log_inv(names)


def charged_ell(res, budget):
    """The key length of a result's terms with the budget's eta charged
    once: floor(m0 + m1 (1 - h(e_ph)) - lambda_EC - log2(2/(eps_s^2 - eta))
    - log2(2/eps_c))."""
    return math.floor(
        res.m0_l + res.m1_l * (1.0 - binary_entropy(res.e_ph_u)) - res.lambda_ec
        - math.log2(2.0 / (budget.eps_s**2 - budget.eta))
        - math.log2(2.0 / budget.eps_c)
    )


# per mode: fluctuation and N; and two points that key in both at 20 km
GUARDED = {"exact": (0.0, 1e12), "fluct": (0.05, 1e14)}
KEYED = (
    ProtocolParams(p_z=0.8, p_ks=0.6, p_kd1=0.2, k_s=0.55, k_d1=0.03),
    ProtocolParams(p_z=0.85, p_ks=0.6, p_kd1=0.25, k_s=0.5, k_d1=0.05),
)


@pytest.mark.parametrize("mode", sorted(GUARDED))
def test_every_estimate_is_charged_once(mode):
    r, n_total = GUARDED[mode]
    cfg = ChannelConfig(distance_km=20.0, det_eff=0.15, dark_prob=5e-7,
                        e_mis=0.01, fluct_r=r, xi=0.147)
    one = RecordingBudget(EPS_SEC, EPS_C, mode)
    res = evaluate_rate(cfg, KEYED[0], one, n_total, mode=mode)
    many = RecordingBudget(EPS_SEC, EPS_C, mode)
    feasible, batch = evaluate_batch(cfg, ParamBatch.of(KEYED), many, n_total, mode=mode)
    assert feasible.all()
    for budget in (one, many):
        names = set(allocation_names(mode))
        # everything asked for is allocated, and the allocations are eta
        assert budget.asked <= names
        shares = [EpsilonBudget.alloc(budget, name) for name in names]  # unrecorded
        assert sum(shares) == pytest.approx(budget.eta, rel=1e-12)
        # only the Hoeffding helpers of exact mode go unasked: the
        # multiplicative-Chernoff route rests on their events
        assert names - budget.asked == {n for n in names if n.endswith(".H")}
    assert one.asked == many.asked
    for result in (res, batch.result(0), batch.result(1)):
        assert not result.aborted
        assert result.ell == charged_ell(result, one)
