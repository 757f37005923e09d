"""The two-decision polish against the one-decision polish it replaced.

``optimize_rate`` is run twice per case: as it is, and with
``optimize._polish`` replaced by the frozen one-decision loop of
``tests/one_event_polish.py``.  The grid is the same code in both runs,
so the best parameters, the best result, the trace and the polish's
evaluations must agree with ``==``, and the two-decision polish must
take at most half the one-decision batches, rounded up: fewer where its
tracks meet and share rows.  The cases are those
``tests/grid_pin.json`` does not pin: grid sizes other than the
benchmark sweeps' 4 and 5, the asymptotic limit, a box whose best
point lies on its edge, so that the stencil clips, and tracks that meet
in fluctuating mode, on grids whose grid_points - 1 is not a power of
two, or with track 0 behind track 1.
"""

import functools

import pytest

from qkd_keyrate import optimize
from qkd_keyrate.config import parse_config
from qkd_keyrate.optimize import POLISH_HALVINGS, SearchSpace, optimize_rate
from one_event_polish import one_event_polish
from test_sweep_golden import SWEEPS


def both(monkeypatch, name, distance, budget=True, states=None, **kwargs):
    """``optimize_rate`` with the settings of the sweep ``name`` at one
    distance, then with the one-decision polish: both results and the
    one-decision polish's per-batch live tracks and halvings (and, into
    ``states``, its per-batch track states)."""
    cfg = parse_config(SWEEPS[name])
    kwargs = {"mode": cfg.bound_mode, "f_ec": cfg.f_ec,
              "grid_points": cfg.grid_points, **kwargs}
    args = (cfg.channel(distance), cfg.budget() if budget else None, cfg.n_total)
    new = optimize_rate(*args, **kwargs)
    polls = []
    monkeypatch.setattr(optimize, "_polish", functools.partial(
        one_event_polish, polls=polls, states=states))
    ref = optimize_rate(*args, **kwargs)
    return new, ref, polls


def assert_same(new, ref):
    assert new.polish_evaluations > 0
    assert new.best_params == ref.best_params
    assert new.best == ref.best
    assert new.trace == ref.trace
    assert new.polish_evaluations == ref.polish_evaluations
    assert new.evaluations == ref.evaluations
    assert new.polish_batches <= -(-ref.polish_batches // 2)


def meeting(states):
    """Where the one-decision polish's tracks first meet: (round, track)
    of the first track to reach a state the other reached before, and
    (round, track) of the other's arrival there; None if they never do."""
    seen = {}
    for round_, batch in enumerate(states):
        for t, key in batch:
            first = seen.setdefault(key, (round_, t))
            if first[1] != t:
                return (round_, t), first
    return None


@pytest.mark.parametrize("grid_points", [3, 6, 7])
def test_other_grid_sizes(grid_points, monkeypatch):
    new, ref, _ = both(monkeypatch, "sweep-exact", 50.0, grid_points=grid_points)
    assert_same(new, ref)


@pytest.mark.parametrize("budget", [True, False], ids=["finite", "asymptotic"])
@pytest.mark.parametrize("name, distance", [("sweep-exact", 100.0),
                                            ("sweep-fluct", 40.0)])
def test_both_modes_with_and_without_budget(name, distance, budget, monkeypatch):
    new, ref, _ = both(monkeypatch, name, distance, budget=budget)
    assert_same(new, ref)


@pytest.mark.parametrize("distance", [0.0, 20.0, 40.0, 60.0])
def test_fluctuating_tracks_that_meet(distance, monkeypatch):
    # grid 5: the tracks reach one lattice state; at 20 km both arrive in
    # the same round and share rows
    states = []
    new, ref, _ = both(monkeypatch, "sweep-fluct", distance, states=states,
                       grid_points=5)
    assert meeting(states) is not None
    assert_same(new, ref)


@pytest.mark.parametrize("name, distance, grid_points", [
    ("sweep-fluct", 20.0, 4), ("sweep-fluct", 60.0, 4), ("sweep-exact", 50.0, 7),
])
def test_tracks_meet_on_other_grids(name, distance, grid_points, monkeypatch):
    # grid_points - 1 is not a power of two, so a grid step is no dyadic
    # fraction of the box, but the lattice keeps both paths to a point
    # the same integers
    states = []
    new, ref, _ = both(monkeypatch, name, distance, states=states,
                       grid_points=grid_points)
    assert meeting(states) is not None
    assert_same(new, ref)


def test_track_zero_follows_track_one(monkeypatch):
    # at sweep-exact's 150 km track 0 reaches the state track 1 left a
    # round earlier: it repeats track 1's decisions, none of which may
    # enter the improvements a second time
    states = []
    new, ref, _ = both(monkeypatch, "sweep-exact", 150.0, states=states)
    (_, follower), (_, leader) = meeting(states)
    assert (follower, leader) == (0, 1)
    assert_same(new, ref)


def test_best_point_on_the_box_edge(monkeypatch):
    # the best p_z lies above this box, so every polish point has p_z's
    # unit coordinate at 1: its + steps clip, and its back points are
    # not the track's point
    space = SearchSpace(p_z=(0.30, 0.60))
    new, ref, _ = both(monkeypatch, "sweep-exact", 50.0, space=space)
    assert new.best_params.p_z == 0.60
    assert_same(new, ref)


def test_one_track_ends_before_the_other(monkeypatch):
    new, ref, polls = both(monkeypatch, "sweep-exact", 50.0)
    assert_same(new, ref)
    # a batch where one track is at its last halving and the other is
    # not, and later batches that poll one track only
    last = POLISH_HALVINGS - 1
    assert any(len(h) == 2 and (last in h) and min(h) < last for _, h in polls)
    assert any(len(live) == 1 for live, _ in polls)
