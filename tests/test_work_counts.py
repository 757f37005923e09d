"""Work-count guards: counts, not timings, of what an optimization does.

A distance past the key's edge should cost its grid batches and nothing
else: one ``screen_batch`` call per grid chunk, and one click-table
build per chunk that brings a nominal intensity the link has no table
for yet.
"""

import pytest

from qkd_keyrate import channel, optimize
from qkd_keyrate.config import parse_config
from qkd_keyrate.optimize import SearchSpace, optimize_rate

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
