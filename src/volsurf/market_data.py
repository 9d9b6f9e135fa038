"""Quote ingestion, curve handling, reduced-price transforms and unit-square rescaling.

The calibration methods all work on "reduced" put prices

    p(T, k) = exp(int_0^T q) * P(T, K),      k = K * exp(-int_0^T (r - q)),

which strips the drift terms out of the Dupire equation, and on inputs
rescaled to the unit square so neither coordinate dominates a fit.
``load_quotes`` reads a quote table, a dict of float arrays keyed by
QUOTE_COLUMNS, and ``backtest.generate_synthetic`` makes one.  ``build_frame``
is the one place a quote is checked: it drops bad rows by row and reason and
turns the rest into a ``MarketFrame``: one read-only float column per quote
field, plus the unit-square scaling, the curves and the rejected rows.  Each
model's ``put_prices(frame)`` reads those columns.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import black_scholes

# implied_vol stays a public name of this module for callers that import it from here
from .black_scholes import implied_vol, implied_vol_array  # noqa: F401

log = logging.getLogger(__name__)

# the quote table's columns, named as in the CSV header; iv is optional there
QUOTE_COLUMNS = ("maturity", "strike", "bid", "ask", "iv")

# build_frame drops quotes shorter than MIN_MATURITY, and quotes whose listed
# iv differs from the mid-price iv by more than IV_GAP_TOL of the listed iv
MIN_MATURITY = 0.055
IV_GAP_TOL = 0.05

# the last knot of a flat curve, which is flat beyond it anyway
FLAT_CURVE_HORIZON = 50.0


class SchemaError(ValueError):
    """Input table does not carry the expected columns."""


class EmptyInputError(ValueError):
    """No usable rows survived loading or filtering."""


class Curve:
    """Piecewise-linear tenor -> value curve, flat beyond its knots.

    Integrals are exact for the piecewise-linear interpolant (trapezoid on the
    knots), which is all the accuracy the smooth input curves warrant.
    """

    def __init__(self, tenors, values):
        tenors = np.asarray(tenors, dtype=float)
        values = np.asarray(values, dtype=float)
        if tenors.ndim != 1 or tenors.size == 0 or tenors.shape != values.shape:
            raise ValueError("curve needs matching 1-d tenor/value arrays")
        if not (np.isfinite(tenors).all() and np.isfinite(values).all()):
            raise ValueError("curve tenors and values must be finite")
        if np.any(np.diff(tenors) <= 0.0):
            raise ValueError("curve tenors must be strictly increasing")
        self.tenors = tenors
        self.values = values

    @classmethod
    def flat(cls, value: float) -> "Curve":
        return cls([0.0, FLAT_CURVE_HORIZON], [value, value])

    def value(self, t):
        return np.interp(t, self.tenors, self.values)

    def integral(self, t):
        """int_0^t of the curve, vectorized over t >= 0."""
        t = np.asarray(t, dtype=float)
        knots = self.tenors
        vals = self.values
        if knots[0] > 0.0:
            knots = np.concatenate([[0.0], knots])
            vals = np.concatenate([[vals[0]], vals])
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(knots))])
        idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
        t0 = knots[idx]
        v0 = vals[idx]
        slope = (vals[idx + 1] - vals[idx]) / (knots[idx + 1] - knots[idx])
        inside = cum[idx] + (t - t0) * v0 + 0.5 * slope * (t - t0) ** 2
        beyond = cum[-1] + (t - knots[-1]) * vals[-1]
        out = np.where(t > knots[-1], beyond, inside)
        return float(out) if out.ndim == 0 else out

    @property
    def max_tenor(self) -> float:
        return float(self.tenors[-1])


@dataclass(frozen=True)
class CurveSet:
    """Spot plus continuously-compounded rate and dividend-yield curves."""

    spot: float
    rate_curve: Curve
    dividend_curve: Curve

    def __post_init__(self) -> None:
        if self.spot <= 0.0:
            raise ValueError(f"spot must be positive, got {self.spot}")

    def discount(self, t):
        return np.exp(-self.rate_curve.integral(t))

    def growth(self, t):
        """exp(int_0^t q): the factor taking raw put prices to reduced prices."""
        return np.exp(self.dividend_curve.integral(t))

    def carry(self, t):
        """int_0^t (r - q)."""
        return self.rate_curve.integral(t) - self.dividend_curve.integral(t)

    def forward(self, t):
        return self.spot * np.exp(self.carry(t))

    def reduced_strike(self, strike, t):
        """k = K * exp(-int (r - q))."""
        return strike * np.exp(-self.carry(t))


@dataclass(frozen=True)
class AffineScaling:
    """Affine maps sending the data bounding box in (T, k) onto [0, 1]^2."""

    t_min: float
    t_max: float
    k_min: float
    k_max: float

    def __post_init__(self) -> None:
        if self.t_max <= self.t_min or self.k_max <= self.k_min:
            raise ValueError("degenerate bounding box for unit-square scaling")

    def to_unit(self, t, k):
        u = (np.asarray(t, dtype=float) - self.t_min) / (self.t_max - self.t_min)
        v = (np.asarray(k, dtype=float) - self.k_min) / (self.k_max - self.k_min)
        return u, v

    def from_unit(self, u, v):
        t = self.t_min + np.asarray(u, dtype=float) * (self.t_max - self.t_min)
        k = self.k_min + np.asarray(v, dtype=float) * (self.k_max - self.k_min)
        return t, k


@dataclass(frozen=True, eq=False)
class MarketFrame:
    """Preprocessed dataset shared by all calibration methods. Immutable.

    One read-only float column per quote field (COLUMNS), all of one length:
    maturity T, strike K, reduced strike k, log-moneyness log(k / spot),
    reduced bid, ask and mid prices, and the mid implied volatility.  The
    frame copies the columns it is given.  ``rejected`` holds the
    (quote-table row index from 0, reason) pairs of the rows build_frame
    dropped; for a table read by load_quotes the index counts CSV data rows,
    blank lines not included.  Frames compare by identity.
    """

    COLUMNS: ClassVar[tuple[str, ...]] = (
        "maturity", "strike", "reduced_strike", "log_moneyness",
        "reduced_bid", "reduced_ask", "reduced_mid", "mid_iv",
    )

    maturity: np.ndarray
    strike: np.ndarray
    reduced_strike: np.ndarray
    log_moneyness: np.ndarray
    reduced_bid: np.ndarray
    reduced_ask: np.ndarray
    reduced_mid: np.ndarray
    mid_iv: np.ndarray
    scaling: AffineScaling
    curves: CurveSet
    rejected: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in self.COLUMNS:
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.maturity.size

    def subset(self, index) -> "MarketFrame":
        """The quotes at index (an index array or slice), same scaling and curves."""
        return replace(self, **{name: getattr(self, name)[index] for name in self.COLUMNS})

    def put_prices_at(self, iv):
        """Currency Black-Scholes put prices of the quotes at implied vols iv."""
        t = self.maturity
        return black_scholes.put_price(
            self.curves.forward(t), self.strike, t, iv, self.curves.discount(t)
        )


def load_quotes(path) -> dict[str, np.ndarray]:
    """Read the quote table from a CSV file with header maturity,strike,bid,ask[,iv].

    Only the file's shape is checked here: a missing required column raises
    SchemaError, an entirely empty file raises EmptyInputError, and a
    header-only file gives zero-length columns with a warning.  A blank or
    unreadable field reads as NaN, and so does the whole iv column of a file
    without one; ``build_frame`` rejects or ignores such rows.  A blank line
    is skipped (csv.DictReader does), so row i of the table is the file's
    i-th non-blank data line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyInputError(f"{path}: file is empty")
        missing = [c for c in QUOTE_COLUMNS[:4] if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        rows = [[_float_or_nan(row.get(c)) for c in QUOTE_COLUMNS] for row in reader]

    if not rows:
        log.warning("%s: no quote rows found", path)
    columns = np.array(rows, dtype=float).reshape(-1, len(QUOTE_COLUMNS)).T.copy()
    return dict(zip(QUOTE_COLUMNS, columns))


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def load_curve(path) -> Curve:
    """Read a `tenor,value` CSV into a Curve; a bad curve is a ValueError naming the file."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"tenor", "value"} <= set(reader.fieldnames):
            raise SchemaError(f"{path}: expected header tenor,value")
        rows = [(row["tenor"], row["value"]) for row in reader]
    if not rows:
        raise EmptyInputError(f"{path}: no curve rows")
    try:  # a short row reads its missing field as None
        return Curve([float(t) for t, _ in rows], [float(v) for _, v in rows])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def build_frame(quotes: dict[str, np.ndarray], curves: CurveSet) -> MarketFrame:
    """Check a quote table (QUOTE_COLUMNS) and preprocess its good rows into a MarketFrame.

    Each rejected row gets one reason, the first of these that applies:
    a non-finite maturity, strike, bid or ask; maturity or strike not
    positive; a negative bid; a crossed quote (ask below bid); a maturity
    below MIN_MATURITY; a mid price outside the no-arbitrage band (no
    implied volatility under these curves); a listed iv more than
    IV_GAP_TOL relative from the mid-price iv.  A listed iv that is NaN,
    infinite or not positive counts as no listed iv.  ``rejected`` holds
    (row index from 0, reason) pairs, and each is logged once; on a table
    from load_quotes the index counts non-blank CSV data rows.  Computes
    reduced prices, reduced strikes and log-moneyness for the survivors and
    fits the unit-square scaling to their bounding box.  Raises ValueError
    if the curves end before the longest maturity that passes the first
    four checks or the rate curve discounts by more than 1 at a maturity
    that passes the first five, and EmptyInputError if no row survives.
    """
    maturity, strike, bid, ask, listed_iv = (
        np.asarray(quotes[name], dtype=float) for name in QUOTE_COLUMNS
    )
    reasons: dict[int, str] = {}
    keep = np.ones(maturity.size, dtype=bool)

    def reject(mask, reason: str) -> None:
        for index in np.flatnonzero(keep & mask).tolist():
            reasons[index] = reason
        keep[mask] = False

    reject(~(np.isfinite(maturity) & np.isfinite(strike) & np.isfinite(bid) & np.isfinite(ask)),
           "non-numeric field")
    reject((maturity <= 0.0) | (strike <= 0.0), "maturity or strike not positive")
    reject(bid < 0.0, "negative bid")
    reject(ask < bid, "crossed quote")
    max_t = maturity[keep].max(initial=0.0)
    if min(curves.rate_curve.max_tenor, curves.dividend_curve.max_tenor) < max_t:
        raise ValueError("curves do not cover the longest quote maturity")
    reject(maturity < MIN_MATURITY, "below minimum maturity")

    idx = np.flatnonzero(keep)
    t = maturity[idx]
    discount = curves.discount(t)
    if np.any(discount > 1.0):
        raise ValueError("the rate curve gives a discount factor above 1 (a negative rate) "
                         "at a quote maturity; negative rates are not supported")
    with np.errstate(invalid="ignore"):  # inf - inf in a row rejected above
        mid = 0.5 * (bid + ask)
    mid_iv = np.full(maturity.size, math.nan)
    mid_iv[idx] = implied_vol_array(mid[idx], curves.forward(t), strike[idx], t, discount)
    reject(np.isnan(mid_iv), "mid price outside arbitrage band")
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(listed_iv - mid_iv) / listed_iv
    reject(np.isfinite(listed_iv) & (listed_iv > 0.0) & (gap > IV_GAP_TOL),
           "listed iv inconsistent with mid price")
    rejected = tuple(sorted(reasons.items()))
    for index, reason in rejected:
        log.warning("row %d rejected: %s", index, reason)

    if not keep.any():
        raise EmptyInputError("all quotes were filtered out")
    t, strike, mid_iv = maturity[keep], strike[keep], mid_iv[keep]
    growth = curves.growth(t)
    ks = curves.reduced_strike(strike, t)

    def _bounds(lo: float, hi: float) -> tuple[float, float]:
        # a single-maturity (or single-strike) book still needs an invertible map
        if hi - lo < 1e-12 * max(1.0, abs(hi)):
            pad = max(0.1 * abs(hi), 1e-3)
            return lo - pad, hi + pad
        return lo, hi

    t_lo, t_hi = _bounds(float(t.min()), float(t.max()))
    k_lo, k_hi = _bounds(float(ks.min()), float(ks.max()))
    scaling = AffineScaling(t_min=t_lo, t_max=t_hi, k_min=k_lo, k_max=k_hi)
    return MarketFrame(
        maturity=t, strike=strike, reduced_strike=ks,
        # math.log, not np.log: the two differ in the last bit on some strikes
        log_moneyness=[math.log(k / curves.spot) for k in ks.tolist()],
        reduced_bid=growth * bid[keep], reduced_ask=growth * ask[keep],
        reduced_mid=growth * mid[keep], mid_iv=mid_iv,
        scaling=scaling, curves=curves, rejected=rejected,
    )
