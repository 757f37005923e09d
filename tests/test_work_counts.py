"""Work-count guards: counts, not timings, of what an evaluation does.

A distance past the key's edge should cost its grid batches and nothing
else: one ``stage_one`` batch per grid block, one click-table build per
block that brings a nominal intensity the link has no table for yet,
and ``stage_two`` batches of at most GRID_CHUNK points for the points
the screen passes.  A keyed distance adds one batch per two decisions of
the polish's tracks: one ``evaluate_batch`` call, with at most one
click-table build, and one block of rows per state the live tracks are
at, so tracks that have met poll one block, on every grid.  A point and
a batch enter the chain through one ``prepare_batch`` call each.
"""

import functools

import numpy as np
import pytest

from qkd_keyrate import channel, optimize, pipeline
from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelModel
from qkd_keyrate.config import parse_config
from qkd_keyrate.optimize import GRID_CHUNK, SearchSpace, optimize_rate
from qkd_keyrate.pipeline import ParamBatch, ProtocolParams
from one_event_polish import one_event_polish

# the benchmark's sweep-exact settings (the a1 sweep on a 50 km grid)
SWEEP_EXACT = """\
[run]
n_total = 1e12
eps_sec = 1e-10
[source]
xi = 0.147
[sweep]
step_km = 50
[optimizer]
grid_points = 5
workers = 1
"""
# the benchmark's sweep-fluct settings (the a3 sweep at eps_sec = 1e-8)
SWEEP_FLUCT = """\
[run]
mode = fluctuating
n_total = 1e14
eps_sec = 1e-8
[source]
fluct_r = 0.05
[sweep]
step_km = 20
[optimizer]
grid_points = 4
workers = 1
"""


def counting(monkeypatch, events):
    """Record a stage-1 batch as ("one", points), a stage-2 batch as
    ("two", points) and a click-table build as ("tables", intensities)
    in ``events``."""
    stage_one, stage_two = optimize.stage_one, optimize.stage_two
    click_tables = channel._click_tables

    def counted_one(model, prepared, *args):
        events.append(("one", len(prepared.feasible)))
        return stage_one(model, prepared, *args)

    def counted_two(model, prepared, one, rows, *args):
        events.append(("two", len(rows)))
        return stage_two(model, prepared, one, rows, *args)

    def counted_build(link, nominal, fracs):
        events.append(("tables", list(nominal)))
        return click_tables(link, nominal, fracs)

    monkeypatch.setattr(optimize, "stage_one", counted_one)
    monkeypatch.setattr(optimize, "stage_two", counted_two)
    monkeypatch.setattr(channel, "_click_tables", counted_build)


@pytest.mark.parametrize("distance", [80.0, 100.0, 120.0, 160.0, 200.0])
def test_keyless_distance_costs_its_grid_batches(distance, monkeypatch):
    cfg = parse_config(SWEEP_FLUCT)
    events = []
    counting(monkeypatch, events)
    out = optimize_rate(cfg.channel(distance), cfg.budget(), cfg.n_total,
                        mode=cfg.bound_mode, f_ec=cfg.f_ec, grid_points=cfg.grid_points)
    assert out.best.ell == 0
    # the grid's 1025 points are one block: one stage-1 batch, which
    # builds every table the block needs at once
    [block] = optimize._grid_blocks(SearchSpace(), cfg.grid_points, "fluct", cfg.fluct_r)
    assert len(block.units) == 1025
    assert events[:2] == [("one", 1025),
                          ("tables", block.prepared.layout.nominal.tolist())]
    # then the points the screen passes, GRID_CHUNK per stage-2 batch: at
    # 100 km 195 points, one batch
    passed = len(block.prepared.idx) - out.grid_screened
    twos = [n for name, n in events[2:] if name == "two"]
    assert len(twos) == len(events) - 2
    assert twos == [GRID_CHUNK] * (passed // GRID_CHUNK) + [passed % GRID_CHUNK] * (
        passed % GRID_CHUNK > 0)
    if distance == 100.0:
        assert twos == [195]


def test_keyed_distance_polls_one_batch_each(monkeypatch):
    cfg = parse_config(SWEEP_EXACT)
    args = (cfg.channel(100.0), cfg.budget(), cfg.n_total)
    kwargs = {"mode": cfg.bound_mode, "f_ec": cfg.f_ec, "grid_points": cfg.grid_points}
    # formed before counting: a sweep forms the grid's blocks once
    blocks = optimize._grid_blocks(SearchSpace(), cfg.grid_points, "exact", cfg.fluct_r)
    events = []
    counting(monkeypatch, events)
    evaluate_batch = optimize.evaluate_batch

    def counted_poll(cfg, params, *args, **kwargs):
        events.append(("poll", len(params.p_z)))
        return evaluate_batch(cfg, params, *args, **kwargs)

    monkeypatch.setattr(optimize, "evaluate_batch", counted_poll)
    out = optimize_rate(*args, **kwargs)
    assert out.best.ell > 0
    names = [name for name, _ in events]
    polls = [size for name, size in events if name == "poll"]
    assert len(polls) == out.polish_batches == 24
    # the grid polls nothing: 3,126 points in four blocks, one stage-1
    # batch and at most one table build each, and stage-2 batches of at
    # most GRID_CHUNK points
    first = names.index("poll")
    grid = events[:first]
    assert [n for name, n in grid if name == "one"] == [1025, 1024, 1024, 53]
    assert len(blocks) == 4
    assert names[:first].count("tables") <= len(blocks)
    assert all(0 < n <= GRID_CHUNK for name, n in grid if name == "two")
    assert {"one", "two", "tables"} >= set(names[:first])
    # then each polish batch is one evaluate_batch call with at most one
    # click-table build
    poll, per_poll = [], []
    for name in names[first:] + ["poll"]:
        if name == "poll" and poll:
            per_poll.append(tuple(poll))
            poll = []
        poll.append(name)
    assert len(per_poll) == len(polls)
    assert set(per_poll) <= {("poll",), ("poll", "tables")}
    # the one-decision polish took 49 batches for the same decisions.
    # Until the tracks meet, batch k makes their decisions 2k and 2k + 1
    # and holds 80 rows per track; from then on one block serves both,
    # 70 rows once the track left is at its last halving
    one_event = []
    monkeypatch.setattr(optimize, "_polish", functools.partial(one_event_polish,
                                                              polls=one_event))
    ref = optimize_rate(*args, **kwargs)
    assert ref.polish_batches == len(one_event) == 49
    assert out.polish_evaluations == ref.polish_evaluations
    assert polls == [160] * 4 + [80] * 19 + [70]


# per keyed sweep-exact distance, the polish's rows and batches; the
# tracks meet at each, and without sharing rows they took 4,760, 4,280,
# 3,820 and 2,880 rows in 31, 28, 25 and 18 batches
POLISH_WORK = {0.0: (2940, 31), 50.0: (2540, 28), 100.0: (2230, 24), 150.0: (1600, 18)}
# the same per keyed sweep-fluct distance, 11,200 rows in all: the tracks
# meet at 0, 20 and 60 km, and settle in two optima at 40 km; without
# sharing rows they took 3,590, 5,160, 3,260 and 3,960 rows in 23, 34, 22
# and 27 batches
POLISH_WORK_FLUCT = {0.0: (2310, 23), 20.0: (3180, 33), 40.0: (3260, 22),
                     60.0: (2450, 26)}


def polish_work(monkeypatch, text: str) -> dict:
    """Per keyed distance of the sweep ``text``, the rows and batches
    of its polish."""
    cfg = parse_config(text)
    evaluate_batch = optimize.evaluate_batch
    rows = []

    def counted_poll(cfg, params, *args, **kwargs):
        rows.append(len(params.p_z))
        return evaluate_batch(cfg, params, *args, **kwargs)

    monkeypatch.setattr(optimize, "evaluate_batch", counted_poll)
    work = {}
    for d in cfg.distances():
        rows.clear()
        out = optimize_rate(cfg.channel(d), cfg.budget(), cfg.n_total,
                            mode=cfg.bound_mode, f_ec=cfg.f_ec,
                            grid_points=cfg.grid_points)
        assert len(rows) == out.polish_batches
        if rows:
            work[d] = (sum(rows), out.polish_batches)
    return work


def test_polish_rows_per_distance(monkeypatch):
    assert polish_work(monkeypatch, SWEEP_EXACT) == POLISH_WORK


def test_fluctuating_polish_rows_per_distance(monkeypatch):
    work = polish_work(monkeypatch, SWEEP_FLUCT)
    assert work == POLISH_WORK_FLUCT
    assert sum(rows for rows, _ in work.values()) == 11_200


POINT = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)


@pytest.mark.parametrize("call", ["evaluate_rate", "evaluate_rate counts", "evaluate_batch"])
def test_one_prepare_batch_per_evaluation(call, monkeypatch):
    cfg = parse_config("").channel(80.0)
    budget = EpsilonBudget(1e-10, 1e-15, "exact")
    draw = ChannelModel(cfg).sample(
        POINT.intensities("exact", 0.0), np.array([POINT.p_z]), 10**12, seed=1
    )
    prepared, prepare_batch = [], pipeline.prepare_batch

    def counted(*args, **kwargs):
        prepared.append(1)
        return prepare_batch(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_batch", counted)
    if call == "evaluate_batch":
        pipeline.evaluate_batch(cfg, ParamBatch.of([POINT] * 3), budget, 1e12)
    else:
        counts = draw if call.endswith("counts") else None
        pipeline.evaluate_rate(cfg, POINT, budget, 1e12, counts=counts)
    assert len(prepared) == 1
