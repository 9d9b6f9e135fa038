"""Quote ingestion, curve handling, reduced-price transforms and unit-square rescaling.

The calibration methods all work on "reduced" put prices

    p(T, k) = exp(int_0^T q) * P(T, K),      k = K * exp(-int_0^T (r - q)),

which strips the drift terms out of the Dupire equation, and on inputs
rescaled to the unit square so neither coordinate dominates a fit.
``build_frame`` turns quotes into a ``MarketFrame``: one read-only float
column per quote field, plus the unit-square scaling, the curves and the
rejected rows.  Each model's ``put_prices(frame)`` reads those columns.
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


@dataclass(frozen=True)
class QuoteRecord:
    """One market put quote."""

    maturity: float
    strike: float
    bid: float
    ask: float
    listed_iv: float | None = None

    def __post_init__(self) -> None:
        if self.maturity <= 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.strike <= 0.0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.bid < 0.0:
            raise ValueError(f"bid must be nonnegative, got {self.bid}")
        if self.ask < self.bid:
            raise ValueError(f"crossed quote: bid {self.bid} > ask {self.ask}")
        if self.listed_iv is not None and self.listed_iv <= 0.0:
            raise ValueError(f"listed iv must be positive, got {self.listed_iv}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


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
    frame copies the columns it is given.  Frames compare by identity.
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


def load_quotes(path) -> list[QuoteRecord]:
    """Read quotes from a CSV file with header maturity,strike,bid,ask[,iv].

    Rows with non-numeric or non-positive maturity/strike, negative bids or
    crossed quotes are rejected; each rejection is logged with its row index.
    A missing required column raises SchemaError, an entirely empty file
    raises EmptyInputError, a header-only file returns [] with a warning.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyInputError(f"{path}: file is empty")
        required = ["maturity", "strike", "bid", "ask"]
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        has_iv = "iv" in reader.fieldnames

        quotes: list[QuoteRecord] = []
        for index, row in enumerate(reader):
            try:
                maturity, strike, bid, ask = (float(row[c]) for c in required)
            except (TypeError, ValueError):
                log.warning("row %d rejected: non-numeric field", index)
                continue
            listed_iv = None
            if has_iv:
                raw = (row["iv"] or "").strip()
                if raw:
                    try:
                        listed_iv = float(raw)
                    except ValueError:
                        log.warning("row %d: unreadable iv ignored", index)
                    if listed_iv is not None and listed_iv <= 0.0:
                        listed_iv = None
            try:
                quotes.append(
                    QuoteRecord(
                        maturity=maturity, strike=strike, bid=bid, ask=ask, listed_iv=listed_iv
                    )
                )
            except ValueError as exc:
                reason = "crossed quote" if bid > ask else str(exc)
                log.warning("row %d rejected: %s", index, reason)

    if not quotes:
        log.warning("%s: no quote rows found", path)
    return quotes


def load_curve(path) -> Curve:
    """Read a `tenor,value` CSV into a Curve."""
    tenors, values = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"tenor", "value"} <= set(reader.fieldnames):
            raise SchemaError(f"{path}: expected header tenor,value")
        for row in reader:
            tenors.append(float(row["tenor"]))
            values.append(float(row["value"]))
    if not tenors:
        raise EmptyInputError(f"{path}: no curve rows")
    return Curve(tenors, values)


def build_frame(quotes: list[QuoteRecord], curves: CurveSet) -> MarketFrame:
    """Preprocess quotes into a MarketFrame.

    Drops quotes below MIN_MATURITY, and quotes whose listed implied
    volatility differs from the mid-price implied volatility (computed with
    these curves) by more than IV_GAP_TOL relative.  Computes reduced
    prices, reduced strikes and log-moneyness for the survivors and fits the
    unit-square scaling to their bounding box.
    """
    max_t = max((q.maturity for q in quotes), default=0.0)
    if quotes and min(curves.rate_curve.max_tenor, curves.dividend_curve.max_tenor) < max_t:
        raise ValueError("curves do not cover the longest quote maturity")

    maturity, strike, bid, ask = (
        np.array([getattr(q, name) for q in quotes], dtype=float)
        for name in ("maturity", "strike", "bid", "ask")
    )
    listed_iv = np.array(
        [math.nan if q.listed_iv is None else q.listed_iv for q in quotes], dtype=float
    )
    reasons: dict[int, str] = {}
    for index in np.flatnonzero(maturity < MIN_MATURITY).tolist():
        reasons[index] = "below minimum maturity"

    idx = np.flatnonzero(maturity >= MIN_MATURITY)
    t, strike, bid, ask, listed_iv = (a[idx] for a in (maturity, strike, bid, ask, listed_iv))
    mid = 0.5 * (bid + ask)
    mid_iv = implied_vol_array(mid, curves.forward(t), strike, t, curves.discount(t))
    for index in idx[np.isnan(mid_iv)].tolist():
        reasons[index] = "mid price outside arbitrage band"
    with np.errstate(invalid="ignore"):
        inconsistent = np.abs(listed_iv - mid_iv) / listed_iv > IV_GAP_TOL
    for index in idx[inconsistent].tolist():
        reasons[index] = "listed iv inconsistent with mid price"
    rejected = tuple(sorted(reasons.items()))

    keep = ~np.isnan(mid_iv) & ~inconsistent
    if not keep.any():
        raise EmptyInputError("all quotes were filtered out")
    t, strike, mid_iv = t[keep], strike[keep], mid_iv[keep]
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
