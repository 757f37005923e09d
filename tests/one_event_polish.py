"""The one-decision compass polish, frozen as the reference for the
two-decision polish of ``optimize_rate``.

This is the polish loop ``optimize_rate`` ran before each of its batches
made two decisions per track: every batch polls each live track's ten
neighbours u +- step*e_i, and each track then moves or halves once.  It
is copied unchanged apart from the frame of ``optimize._polish``: the
same arguments and the same return value, so a test can put it in
``_polish``'s place and compare the whole ``optimize_rate`` result;
and, as the library's polish does, it holds its points and steps on the
integer lattice of ``POLISH_LATTICE_BITS`` and scores a point at its
coordinates times the lattice unit.
``polls``, if given, receives per batch the live tracks and their
halvings at its start, and ``states`` per batch each live track's
(point, step) as bytes, in the order the tracks decide.
``tests/test_two_event_polish.py`` asserts that the library's polish
gives the same answers to the last bit.
Nothing in the library calls it.
"""

from __future__ import annotations

import numpy as np

from qkd_keyrate.optimize import POLISH_FIRST_STEPS, POLISH_HALVINGS, POLISH_LATTICE_BITS

# the ten polling directions +- e_i of the compass
_COMPASS = np.concatenate([np.eye(5), -np.eye(5)])


def one_event_polish(space, score, best_u, best_rate, grid_points, polls=None,
                     states=None):
    """The compass polish from the grid point ``best_u`` of rate
    ``best_rate``, one decision per track and batch: the improvements as
    (params, result) pairs, the evaluations and the batches."""
    found = []
    polish_evaluations = batches = 0
    # every track still polling contributes its ten neighbours to one
    # batch; a track moves or halves on its own rate, not the best
    top = float((grid_points - 1) << POLISH_LATTICE_BITS)
    steps = np.array(POLISH_FIRST_STEPS) * (1 << POLISH_LATTICE_BITS)
    track_u = np.tile(np.rint(best_u * top), (len(steps), 1))
    track_rate = np.full(len(steps), best_rate)
    halvings = np.zeros(len(steps), dtype=int)
    while (live := np.flatnonzero(halvings < POLISH_HALVINGS)).size:
        if polls is not None:
            polls.append((live.tolist(), halvings[live].tolist()))
        if states is not None:
            states.append([(t, track_u[t].tobytes() + steps[t].tobytes())
                           for t in live.tolist()])
        stencil = track_u[live, None] + steps[live, None, None] * _COMPASS
        stencil = np.minimum(np.maximum(stencil.reshape(-1, 5), 0.0), top)
        points = space.params_batch(stencil * (1.0 / top))
        rates, batch, scored = score(points)
        batches += 1
        polish_evaluations += len(stencil)
        picks = rates.reshape(len(live), len(_COMPASS)).argmax(axis=1)
        for k, (t, pick) in enumerate(zip(live, picks)):
            i = k * len(_COMPASS) + pick
            if not rates[i] > track_rate[t]:
                steps[t] /= 2.0
                halvings[t] += 1
                continue
            track_u[t], track_rate[t] = stencil[i], rates[i]
            if rates[i] > best_rate:
                best_params = points.point(i)
                best_res = batch.result(np.count_nonzero(scored[:i]))
                best_rate = best_res.rate
                found.append((best_params, best_res))
    return found, polish_evaluations, batches
