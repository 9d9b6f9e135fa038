"""Spans and counters recorded from outside the volsurf package.

The CLI imports its collaborators inside each handler, so it looks module
attributes up at call time.  Replacing those attributes (and the names one
module binds from another, such as ``volsurf.market_data.implied_vol``)
with timing wrappers therefore sees every call without touching the
package.  Spans are kept in memory and written out when the traced
repetition ends.  Span times are CPU seconds of the (single-threaded)
process, like the benchmark's stage timings.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str


class Recorder:
    """Per-run span stack, counters and the attribute patches that feed them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; the span is kept even on error."""
        span_id = len(self.spans)
        span = Span(span_id, self._stack[-1] if self._stack else None, name, 0.0, 0.0,
                    self.run_id)
        self.spans.append(span)
        self._stack.append(span_id)
        span.start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.process_time()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_span(self, owner, attr: str, name: str, on_call=None) -> None:
        """Time every call of owner.attr as a span; on_call(args, kwargs, result)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without a span, for hot scalar leaves."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, calls by caller.

        Self time is a span's duration minus the time its direct children
        cover; the process is single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "callers": {}}
            )
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[span.span_id]
            caller = self.spans[span.parent].name if span.parent is not None else ""
            row["callers"][caller] = row["callers"].get(caller, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
        }


class MessageCounter(logging.Handler):
    """Counts log records whose message contains a fixed fragment."""

    def __init__(self, fragment: str):
        super().__init__(level=logging.WARNING)
        self.fragment = fragment
        self.hits = 0

    def emit(self, record: logging.LogRecord) -> None:
        if self.fragment in record.getMessage():
            self.hits += 1


def instrument(rec: Recorder) -> None:
    """Wrap the module boundaries the per-layer metrics are read from."""
    from volsurf import (
        backtest,
        black_scholes,
        gp_price_surface,
        local_vol,
        market_data,
        nn_iv,
        serialize,
        ssvi,
    )

    def frame_built(args, kwargs, frame):
        rec.count("market_data.quotes_rejected", len(frame.rejected))

    rec.wrap_span(market_data, "load_quotes", "market_data.load_quotes")
    rec.wrap_span(market_data, "build_frame", "market_data.build_frame", frame_built)

    # one function, three bindings: the defining module and two importers
    for owner in (black_scholes, market_data, backtest):
        rec.wrap_span(owner, "implied_vol", "black_scholes.implied_vol")
    # implied_vol reaches put_price through its own module global
    for owner in (black_scholes, backtest):
        rec.wrap_count(owner, "put_price", "black_scholes.put_price")

    for attr in ("fit_hyperparameters", "fit_map", "posterior_factors", "sample_posterior"):
        rec.wrap_span(gp_price_surface, attr, f"gp_price_surface.{attr}")
    rec.wrap_span(gp_price_surface, "chol_with_jitter", "constrained_sampling.chol_with_jitter")
    rec.wrap_span(gp_price_surface, "solve_qp", "constrained_sampling.solve_qp")

    def hmc_drawn(args, kwargs, result):
        rec.count("constrained_sampling.hmc_draws",
                  int(kwargs.get("n_samples", 0)) + int(kwargs.get("burn_in", 100)))

    rec.wrap_span(gp_price_surface, "sample_truncated", "constrained_sampling.sample_truncated",
                  hmc_drawn)

    rec.wrap_span(nn_iv, "train", "nn_iv.train")
    rec.wrap_count(nn_iv.NnIvModel, "sigma", "nn_iv.sigma")

    rec.wrap_span(ssvi, "calibrate", "ssvi.calibrate")
    rec.wrap_count(ssvi, "interpolate_slice", "ssvi.interpolate_slice")

    rec.wrap_span(local_vol, "dupire_fd", "local_vol.dupire_fd")
    rec.wrap_span(local_vol, "dupire_iv", "local_vol.dupire_iv")
    rec.wrap_span(local_vol.LocalVolGrid, "lookup", "local_vol.lookup")

    def cn_solved(args, kwargs, solution):
        rec.count("backtest.cn_negatives_clamped",
                  int(solution.diagnostics.get("negative_values_clamped", 0)))
        rec.count("backtest.cn_steps", int(solution.t_axis.size) - 1)

    def mc_priced(args, kwargs, result):
        rec.count("backtest.mc_paths", int(kwargs.get("n_paths", 100_000)))

    rec.wrap_span(backtest, "price_cn", "backtest.price_cn", cn_solved)
    rec.wrap_span(backtest, "price_mc", "backtest.price_mc", mc_priced)
    rec.wrap_span(backtest, "cn_option_prices", "backtest.cn_option_prices")
    rec.wrap_span(backtest, "report", "backtest.report")

    def json_written(args, kwargs, result):
        rec.count("serialize.bytes_written", os.path.getsize(args[1]))

    rec.wrap_span(serialize, "dump_json", "serialize.dump_json", json_written)
