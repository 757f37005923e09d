"""Tests for the epsilon budget construction and allocation table, and
for the one rule that charges it: the key length pays the whole eta
once, and every allocation the chain asks for is part of it."""

import math
import pickle
from dataclasses import dataclass, field

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
    b = EpsilonBudget.build(EPS_SEC, EPS_C, mode="exact")
    eps_s = EPS_SEC - EPS_C
    assert b.eps_s == pytest.approx(eps_s, rel=1e-12)
    assert b.eta == pytest.approx(0.5 * eps_s**2, rel=1e-12)
    per = b.eta / 180
    assert b.alloc("m0.final") == pytest.approx(per, rel=1e-12)
    assert b.alloc("cell.Z0X1.d1.lo") == pytest.approx(per, rel=1e-12)
    assert sum(b.allocations.values()) == pytest.approx(b.eta, rel=1e-12)


def test_exact_mode_has_hoeffding_pairs():
    b = EpsilonBudget.build(EPS_SEC, EPS_C, mode="exact")
    assert "z.d2.vac.lo.H" in b.allocations
    assert "cell.X0X0.s.hi.H" in b.allocations


def test_fluct_mode_has_no_hoeffding_pairs():
    b = EpsilonBudget.build(EPS_SEC, EPS_C, mode="fluct")
    assert not any(name.endswith(".H") for name in b.allocations)
    assert "z.d2.vac.lo" in b.allocations


def test_phase_martingale_names():
    # one epsilon per (receiver outcome, collective outcome) pair in use
    expected = {
        "ph.az.1.1", "ph.az.0.2",
        "ph.az.0.3", "ph.az.0.4", "ph.az.0.5",
        "ph.az.1.3", "ph.az.1.4", "ph.az.1.5",
    }
    for mode in ("exact", "fluct"):
        b = EpsilonBudget.build(EPS_SEC, EPS_C, mode=mode)
        assert expected <= set(b.allocations)


def test_unknown_alloc_is_error():
    b = EpsilonBudget.build(EPS_SEC, EPS_C, mode="exact")
    with pytest.raises(KeyError):
        b.alloc("z.d1.vac")


def test_allocations_read_only():
    b = EpsilonBudget.build(EPS_SEC, EPS_C, mode="exact")
    with pytest.raises(TypeError):
        b.allocations["m0.final"] = 1e-30


def test_pickles_with_read_only_allocations():
    b = EpsilonBudget.build(EPS_SEC, EPS_C, "exact")
    names = ("m0.final", "m1.final")
    table = b.log_inv(names)
    again = pickle.loads(pickle.dumps(b))
    assert again == b
    assert again.log_inv(names).tolist() == table.tolist()
    with pytest.raises(TypeError):
        again.allocations["m0.final"] = 1.0


def test_validation():
    with pytest.raises(ValueError):
        EpsilonBudget.build(1e-15, 1e-15, mode="exact")  # eps_s = 0
    # eta must leave a secrecy gap: this guard is why the key length
    # needs no abort for an exhausted budget
    b = EpsilonBudget.build(EPS_SEC, EPS_C, mode="exact")
    with pytest.raises(ValueError):
        EpsilonBudget(b.eps_sec, b.eps_c, b.eps_s, b.eps_s**2, {"all": b.eps_s**2})
    with pytest.raises(ValueError):
        allocation_names("other")


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
    one = RecordingBudget.build(EPS_SEC, EPS_C, mode)
    res = evaluate_rate(cfg, KEYED[0], one, n_total, mode=mode)
    many = RecordingBudget.build(EPS_SEC, EPS_C, mode)
    feasible, batch = evaluate_batch(cfg, ParamBatch.of(KEYED), many, n_total, mode=mode)
    assert feasible.all()
    for budget in (one, many):
        names = set(budget.allocations)
        # everything asked for is allocated, and the allocations are eta
        assert budget.asked <= names
        assert sum(budget.allocations.values()) == pytest.approx(budget.eta, rel=1e-12)
        # only the Hoeffding helpers of exact mode go unasked: the
        # multiplicative-Chernoff route rests on their events
        assert names - budget.asked == {n for n in names if n.endswith(".H")}
    assert one.asked == many.asked
    for result in (res, batch.result(0), batch.result(1)):
        assert not result.aborted
        assert result.ell == charged_ell(result, one)
