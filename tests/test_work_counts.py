"""Work-count guards: counts, not timings, of what an evaluation does.

A distance past the key's edge should cost its grid batches and nothing
else: one ``screen_batch`` call per grid chunk, and one click-table
build per chunk that brings a nominal intensity the link has no table
for yet.  A keyed distance adds one batch per poll of the polish: one
``prepare_batch`` and one ``screen_batch`` call, with at most one
click-table build.  A point and a batch enter the chain through one
``prepare_batch`` call each.
"""

import numpy as np
import pytest

from qkd_keyrate import channel, optimize, pipeline
from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelModel
from qkd_keyrate.config import parse_config
from qkd_keyrate.optimize import SearchSpace, optimize_rate
from qkd_keyrate.pipeline import ParamBatch, ProtocolParams

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


@pytest.mark.parametrize("distance", [80.0, 120.0, 160.0, 200.0])
def test_keyless_distance_costs_its_grid_batches(distance, monkeypatch):
    cfg = parse_config(SWEEP_FLUCT)
    screens, builds = [], []
    screen_batch, click_tables = optimize.screen_batch, channel._click_tables

    def counted_screen(*args, **kwargs):
        screens.append(1)
        return screen_batch(*args, **kwargs)

    def counted_build(link, nominal, fracs):
        builds.append(list(nominal))
        return click_tables(link, nominal, fracs)

    monkeypatch.setattr(optimize, "screen_batch", counted_screen)
    monkeypatch.setattr(channel, "_click_tables", counted_build)
    out = optimize_rate(cfg.channel(distance), cfg.budget(), cfg.n_total,
                        mode=cfg.bound_mode, f_ec=cfg.f_ec, grid_points=cfg.grid_points)
    assert out.best.ell == 0
    chunks = optimize._grid_chunks(SearchSpace(), cfg.grid_points, "fluct", cfg.fluct_r)
    assert len(screens) == len(chunks)
    # the chunks that bring a new nominal intensity, each built once
    seen, expected = set(), []
    for _, _, prepared in chunks:
        new = [k for k in prepared.layout.nominal.tolist() if k not in seen]
        seen.update(new)
        if new:
            expected.append(new)
    assert builds == expected


def test_keyed_distance_polls_one_batch_each(monkeypatch):
    cfg = parse_config(SWEEP_EXACT)
    # formed before counting: a sweep forms the grid's batches once
    chunks = optimize._grid_chunks(SearchSpace(), cfg.grid_points, "exact", cfg.fluct_r)
    events = []
    prepare_batch, screen_batch = optimize.prepare_batch, optimize.screen_batch
    click_tables = channel._click_tables

    def counted_prepare(params, *args):
        events.append(("prepare", len(params.p_z)))
        return prepare_batch(params, *args)

    def counted_screen(*args, **kwargs):
        events.append(("screen", 0))
        return screen_batch(*args, **kwargs)

    def counted_build(*args):
        events.append(("tables", 0))
        return click_tables(*args)

    monkeypatch.setattr(optimize, "prepare_batch", counted_prepare)
    monkeypatch.setattr(optimize, "screen_batch", counted_screen)
    monkeypatch.setattr(channel, "_click_tables", counted_build)
    out = optimize_rate(cfg.channel(100.0), cfg.budget(), cfg.n_total,
                        mode=cfg.bound_mode, f_ec=cfg.f_ec, grid_points=cfg.grid_points)
    assert out.best.ell > 0
    names = [name for name, _ in events]
    polls = [size for name, size in events if name == "prepare"]
    assert polls and sum(polls) == out.polish_evaluations
    assert names.count("screen") == len(chunks) + len(polls)
    # the grid prepares nothing; then each poll is one prepared batch,
    # screened once, with at most one click-table build
    first = names.index("prepare")
    assert names[:first].count("screen") == len(chunks)
    poll, per_poll = [], []
    for name in names[first:] + ["prepare"]:
        if name == "prepare" and poll:
            per_poll.append(tuple(poll))
            poll = []
        poll.append(name)
    assert len(per_poll) == len(polls)
    assert set(per_poll) <= {("prepare", "screen"), ("prepare", "screen", "tables")}


POINT = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)


@pytest.mark.parametrize("call", ["evaluate_rate", "evaluate_rate counts", "evaluate_batch"])
def test_one_prepare_batch_per_evaluation(call, monkeypatch):
    cfg = parse_config("").channel(80.0)
    budget = EpsilonBudget.build(1e-10, 1e-15, "exact")
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
