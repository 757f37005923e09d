"""Layer tracing from outside the package.

The hooks replace the module attributes through which one layer calls
the next (for example ``pipeline.decoy_cell_bounds``), so nothing under
``src/`` changes.  Spans are aggregated in memory as they close: per
name a call count, the inclusive time and the self time (inclusive
minus the time covered by nested spans).  Storing every span would cost
millions of records per sweep.

A hook whose target no longer exists is recorded in ``absent`` and its
layer reads zero; the run goes on.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name); attribute paths with a dot patch a
# class attribute.  The same function reached through two modules reports
# under one span name.
SPAN_HOOKS = (
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "optimize_rate", "cli.optimize_rate"),
    ("optimize", "minimize", "optimize.minimize"),
    ("optimize", "evaluate_rate", "pipeline.evaluate_rate"),
    ("pipeline", "evaluate_rate", "pipeline.evaluate_rate"),
    ("optimize", "build_source_model", "qubit_model.build_source_model"),
    ("pipeline", "build_source_model", "qubit_model.build_source_model"),
    ("channel", "ChannelModel.expected", "channel.expected"),
    ("channel", "click_probs", "channel.click_probs"),
    ("pipeline", "decoy_cell_bounds", "decoy.cells"),
    ("pipeline", "m0_lower_exact", "decoy.aggregate"),
    ("pipeline", "m0_lower_fluct", "decoy.aggregate"),
    ("pipeline", "m1_lower_exact", "decoy.aggregate"),
    ("pipeline", "m1_lower_fluct", "decoy.aggregate"),
    ("pipeline", "n_ph_upper_general", "phase_error"),
    ("pipeline", "key_length", "key_length"),
)

# microsecond calls: counted only, a timer would cost more than the call
COUNT_HOOKS = (
    ("decoy", "azuma_dev", "concentration"),
    ("decoy", "best_mean_bound", "concentration"),
    ("decoy", "hoeffding_dev", "concentration"),
    ("phase_error", "azuma_dev", "concentration"),
    ("phase_error", "n1_upper", "phase_error.n1_upper"),
    ("channel", "ChannelModel.outcome_probs", "channel.table_lookups"),
)

# hooks the untraced run keeps: one timer per distance
TIMING_HOOKS = (("cli", "optimize_rate", "cli.optimize_rate"),)
# where the untraced run reads the probe when it is due, between
# evaluations
TICK_HOOKS = (("optimize", "evaluate_rate"),)


class Tracer:
    """Installs hooks on the package, aggregates spans, removes the hooks.

    ``full=False`` installs only the per-distance timer that the
    end-to-end metrics need; with a ``timeline`` it also ticks the
    timeline after each of the optimizer's evaluations (see probe.py).
    Use as a context manager so the original attributes always come
    back.
    """

    def __init__(self, full: bool, timeline=None):
        self.full = full
        self.timeline = timeline
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.excl: dict[str, float] = defaultdict(float)
        self.events: dict[str, int] = defaultdict(int)
        self.phase_s: dict[str, float] = defaultdict(float)
        self.distance_spans: list[tuple[float, float]] = []
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        # optimizer phase of the evaluation in progress: None outside
        # optimize_rate, else "grid" or "nm"
        self._phase: str | None = None
        self._phase_start = 0.0

    def __enter__(self) -> "Tracer":
        try:
            if self.full:
                for module, attr, name in SPAN_HOOKS:
                    self._patch(module, attr, lambda fn, n=name: self._span(n, fn))
                for module, attr, name in COUNT_HOOKS:
                    self._patch(module, attr, lambda fn, n=name: self._count(n, fn))
            else:
                for module, attr, name in TIMING_HOOKS:
                    self._patch(module, attr, lambda fn, n=name: self._span(n, fn))
                if self.timeline is not None:
                    for module, attr in TICK_HOOKS:
                        self._patch(module, attr, self._tick)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(f"qkd_keyrate.{module}")
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        # read the raw class attribute so methods are re-bound normally
        raw = vars(owner).get(leaf, original) if isinstance(owner, type) else original
        setattr(owner, leaf, make(raw))
        self._patches.append((owner, leaf, raw))

    def _restore(self) -> None:
        while self._patches:
            owner, leaf, raw = self._patches.pop()
            setattr(owner, leaf, raw)

    def _span(self, name: str, fn):
        on_enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        on_exit = getattr(self, "_exit_" + name.replace(".", "_"), None)
        stack = self._stack
        calls, incl, excl = self.calls, self.incl, self.excl

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            stack.append(0.0)
            t0 = perf_counter()
            result = None
            raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                incl[name] += dt
                excl[name] += dt - child
                if stack:
                    stack[-1] += dt
                if on_exit is not None:
                    on_exit(dt, result, raised)

        return wrapper

    def _tick(self, fn):
        tick = self.timeline.tick

        def ticking(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tick()

        return ticking

    def _count(self, name: str, fn):
        calls = self.calls
        if name == "channel.table_lookups":
            # a lookup that computes click probabilities builds a table
            def lookup(*args, **kwargs):
                before = calls["channel.click_probs"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls[name] += 1
                    if calls["channel.click_probs"] != before:
                        calls["channel.table_builds"] += 1

            return lookup

        def counter(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counter

    # per-span side effects; looked up by name in _span

    def _enter_cli_optimize_rate(self) -> None:
        self._phase = "grid"
        self._phase_start = perf_counter()

    def _exit_cli_optimize_rate(self, dt, result, raised) -> None:
        now = perf_counter()
        self.phase_s[self._phase] += now - self._phase_start
        self._phase = None
        self.distance_spans.append((now - dt, now))

    def _enter_optimize_minimize(self) -> None:
        if self._phase == "grid":
            now = perf_counter()
            self.phase_s["grid"] += now - self._phase_start
            self._phase, self._phase_start = "nm", now

    def _exit_pipeline_evaluate_rate(self, dt, result, raised) -> None:
        feasible = not isinstance(raised, ValueError)
        if not feasible:
            self.events["pipeline.infeasible"] += 1
        if self._phase is not None:
            self.events[f"optimize.{self._phase}.evals"] += 1
            if feasible:
                self.events["optimize.feasible"] += 1

    def _exit_key_length(self, dt, result, raised) -> None:
        if getattr(result, "aborted", False):
            self.events["key_length.aborted"] += 1
