"""Black-Scholes put analytics: pricing, vega, total variance and implied-vol inversion.

Everything is stated in forward terms: a put on forward F with strike K,
maturity T, volatility sigma and discount factor df is worth

    df * (K * N(-d2) - F * N(-d1)),   d1 = (ln(F/K) + sigma^2 T / 2) / (sigma sqrt(T))

which keeps rates and dividends out of the formulas entirely.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr


# the Newton stopping rule |price(vol) - price| <= PRICE_TOL (1 + |price|), and
# the cap on the doubled upper bracket
PRICE_TOL = 1e-12
MAX_VOL = 20.0


class InversionDomainError(ValueError):
    """Raised when a price lies outside the no-arbitrage band (df*(K-F)+, df*K)."""


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def put_price(forward, strike, maturity, vol, discount=1.0):
    """Black-Scholes put price; vectorized; vol=0 returns discounted intrinsic."""
    forward = np.asarray(forward, dtype=float)
    strike = np.asarray(strike, dtype=float)
    maturity = np.asarray(maturity, dtype=float)
    vol = np.asarray(vol, dtype=float)
    discount = np.asarray(discount, dtype=float)

    stddev = vol * np.sqrt(maturity)
    intrinsic = discount * np.maximum(strike - forward, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(forward / strike) + 0.5 * stddev * stddev) / stddev
        d2 = d1 - stddev
        live = discount * (strike * ndtr(-d2) - forward * ndtr(-d1))
    out = np.where(stddev > 0.0, live, intrinsic)
    if out.ndim == 0:
        return float(out)
    return out


def put_vega(forward, strike, maturity, vol, discount=1.0):
    """dPrice/dVol of the Black-Scholes put; vectorized."""
    forward = np.asarray(forward, dtype=float)
    stddev = np.asarray(vol, dtype=float) * np.sqrt(np.asarray(maturity, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(forward / np.asarray(strike, dtype=float)) + 0.5 * stddev * stddev) / stddev
    out = np.where(
        stddev > 0.0,
        np.asarray(discount, dtype=float) * forward * _norm_pdf(d1) * np.sqrt(maturity),
        0.0,
    )
    if out.ndim == 0:
        return float(out)
    return out


def _band(forward, strike, discount):
    """The open no-arbitrage band (df*(K-F)+, df*K) of a put price."""
    return discount * np.maximum(strike - forward, 0.0), discount * strike


def implied_vol_array(price, forward, strike, maturity, discount=1.0) -> np.ndarray:
    """Invert put prices to Black-Scholes volatilities, element by element.

    Each element follows the same steps: double the upper bracket from 1.0
    until it prices above the target (capped at MAX_VOL), bisect from 1e-9
    down to a 1e-4 vol interval, then take at most 60 Newton steps with the
    analytic vega until the price is within PRICE_TOL, falling back to
    bisection whenever Newton leaves the bracket.  Elements that have
    finished are masked out of later steps, so every element gets exactly
    the arithmetic a lone quote would get.  The
    round-tripped price agrees with the input within 1e-10 absolute for
    prices safely inside the arbitrage band.

    Inputs broadcast together; the result has their shape.  Prices outside
    (df*(K-F)+, df*K), NaN included, give NaN.  Raises ValueError when any
    forward, strike or maturity is not positive or any discount is outside
    (0, 1].
    """
    arrays = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (price, forward, strike, maturity, discount))
    )
    shape = arrays[0].shape
    price, forward, strike, maturity, discount = (a.ravel() for a in arrays)
    if (
        np.any(forward <= 0) or np.any(strike <= 0) or np.any(maturity <= 0)
        or not np.all((discount > 0) & (discount <= 1))
    ):
        raise ValueError("forward, strike, maturity must be positive; discount in (0,1]")
    out = np.full(price.size, np.nan)
    lower, upper = _band(forward, strike, discount)
    live = np.flatnonzero((lower < price) & (price < upper))
    price, forward, strike, maturity, discount = (
        a[live] for a in (price, forward, strike, maturity, discount)
    )

    def gap(vol, sel):
        """put_price(vol) - price on the working rows sel."""
        return put_price(forward[sel], strike[sel], maturity[sel], vol, discount[sel]) - price[sel]

    # grow the upper bracket until it prices above the target
    lo = np.full(live.size, 1e-9)
    hi = np.ones(live.size)
    act = np.arange(live.size)
    while act.size:
        act = act[gap(hi[act], act) < 0.0]
        hi[act] *= 2.0
        capped = hi[act] > MAX_VOL
        hi[act[capped]] = MAX_VOL
        act = act[~capped]

    # bisect to a 1e-4 wide bracket
    flo = gap(lo, slice(None))
    act = np.flatnonzero(hi - lo > 1e-4)
    while act.size:
        mid = 0.5 * (lo[act] + hi[act])
        fm = gap(mid, act)
        same = (flo[act] < 0.0) == (fm < 0.0)
        lo[act[same]] = mid[same]
        flo[act[same]] = fm[same]
        hi[act[~same]] = mid[~same]
        act = act[hi[act] - lo[act] > 1e-4]

    vol = 0.5 * (lo + hi)
    tol = PRICE_TOL * (1.0 + np.abs(price))
    act = np.arange(live.size)
    for _ in range(60):
        if not act.size:
            break
        diff = gap(vol[act], act)
        keep = ~(np.abs(diff) <= tol[act])
        act, diff = act[keep], diff[keep]
        vega = put_vega(forward[act], strike[act], maturity[act], vol[act], discount[act])
        keep = ~(vega <= 1e-16)
        act, diff, vega = act[keep], diff[keep], vega[keep]
        new_vol = vol[act] - diff / vega
        # Newton left the bracket: fall back to bisection on the sign
        left = ~((lo[act] <= new_vol) & (new_vol <= hi[act]))
        up = act[left & (diff > 0.0)]
        down = act[left & ~(diff > 0.0)]
        hi[up] = vol[up]
        lo[down] = vol[down]
        new_vol[left] = 0.5 * (lo[act[left]] + hi[act[left]])
        vol[act] = new_vol
    out[live] = vol
    return out.reshape(shape)


def implied_vol(
    price: float, forward: float, strike: float, maturity: float, discount: float = 1.0
) -> float:
    """Invert one put price to a Black-Scholes volatility (see implied_vol_array).

    Raises InversionDomainError when price is outside (df*(K-F)+, df*K).
    """
    vol = float(implied_vol_array(price, forward, strike, maturity, discount))
    if math.isnan(vol):
        lower, upper = _band(forward, strike, discount)
        raise InversionDomainError(
            f"price {price} outside the invertible band ({float(lower)}, {float(upper)})"
        )
    return vol
