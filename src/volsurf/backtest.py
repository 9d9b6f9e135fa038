"""Repricing backtests and the synthetic-data oracle.

A calibrated local-volatility grid is validated by repricing the quotes two
independent ways and comparing against the market:

* ``price_mc`` — log-Euler Monte Carlo under dS/S = (r - q) dt + sigma(t, S) dW,
  with the carry integrated exactly over each step;
* ``price_cn`` — a Crank-Nicolson solve of the forward Dupire equation in
  reduced coordinates, dT p = (sigma^2 / 2) k^2 dkk p, which prices every
  (T, k) in one sweep.

``generate_synthetic`` fabricates a quote table (``market_data.QUOTE_COLUMNS``)
from closed-form ground truths (flat Black-Scholes, an SSVI surface, or a CEV
local-vol model priced by the CN engine itself), which doubles as the
acceptance oracle; ``write_quotes_csv`` writes it in the CSV format
``market_data.load_quotes`` reads.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

# implied_vol stays a public name of this module for callers that import it from here
from .black_scholes import implied_vol, implied_vol_array, put_price  # noqa: F401
from .local_vol import LocalVolGrid, bilinear
from .market_data import QUOTE_COLUMNS, CurveSet, MarketFrame
from .ssvi import SsviParams, check_no_arbitrage, svi_total_variance

log = logging.getLogger(__name__)


class DomainError(ValueError):
    """Requested options fall outside the provided local-vol domain."""


# one report row per option, in rows.csv column order
ROW_FIELDS = ("maturity", "strike", "model_price", "market_price", "model_iv", "market_iv")


@dataclass
class BacktestReport:
    """Aligned per-option rows plus the two headline error numbers."""

    method: str
    rows: list
    price_rmse: float
    iv_rmse: float
    n_iv_failures: int
    runtime: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "price_rmse": self.price_rmse,
            "iv_rmse": self.iv_rmse,
            "n_iv_failures": self.n_iv_failures,
            "n_options": len(self.rows),
            "runtime_seconds": self.runtime,
            "diagnostics": self.diagnostics,
            "rows": self.rows,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(ROW_FIELDS)
            for row in self.rows:
                writer.writerow(["" if row[name] is None else row[name] for name in ROW_FIELDS])


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def mc_time_grid(maturities, n_steps: int) -> np.ndarray:
    """A uniform n_steps grid from 0 to the last maturity, joined with the maturities."""
    return np.unique(np.concatenate([np.linspace(0.0, max(maturities), n_steps + 1), maturities]))


def price_mc(
    lv: LocalVolGrid,
    curves: CurveSet,
    options,
    n_paths: int = 100_000,
    n_steps: int = 100,
    seed: int = 0,
):
    """Price puts by Monte Carlo under the local-vol dynamics.

    options is a sequence of (maturity, strike).  Returns (prices, stderrs)
    in currency.  On the ``mc_time_grid`` each payoff is read and discounted
    at its exact expiry, and each step makes one ``lv.lookup`` for all paths;
    the normals are drawn per step from a counter-based generator, making the
    result a function of (seed, n_paths, n_steps) only.  Raises ValueError
    for fewer than one path or one step.
    """
    if n_paths < 1:
        raise ValueError(f"need at least one Monte Carlo path, got {n_paths}")
    if n_steps < 1:
        raise ValueError(f"need at least one Monte Carlo time step, got {n_steps}")
    options = [(float(t), float(k)) for t, k in options]
    if not options:
        return np.zeros(0), np.zeros(0)
    times = mc_time_grid([t for t, _ in options], n_steps)
    by_time = {}
    for idx, (t, k) in enumerate(options):
        by_time.setdefault(float(t), []).append(idx)
    discounts = {t: float(curves.discount(t)) for t in by_time}

    rng = np.random.default_rng(np.random.Philox(seed))
    log_spot = math.log(curves.spot)
    x = np.full(n_paths, log_spot)
    carry_vals = curves.carry(times)

    sums = np.zeros(len(options))
    sq_sums = np.zeros(len(options))

    def settle(time_value):
        """Pay off the options expiring at time_value; return the spots exp(x)."""
        spot_now = np.exp(x)
        for opt_idx in by_time.get(float(time_value), []):
            t_opt, strike = options[opt_idx]
            payoff = np.maximum(strike - spot_now, 0.0) * discounts[t_opt]
            sums[opt_idx] = payoff.sum()
            sq_sums[opt_idx] = (payoff * payoff).sum()
        return spot_now

    spot_now = settle(times[0])
    for i in range(times.size - 1):
        t0, t1 = times[i], times[i + 1]
        dt = t1 - t0
        step_carry = carry_vals[i + 1] - carry_vals[i]
        spot_now *= math.exp(-carry_vals[i])  # the strike coordinate of each path
        sigma = lv.lookup(t0, spot_now)
        normals = rng.standard_normal(n_paths)
        # x + step_carry - 0.5 * sigma * sigma * dt + sigma * sqrt(dt) * normals,
        # in place and in that order, so every path gets the same bits
        drift = 0.5 * sigma
        drift *= sigma
        drift *= dt
        x += step_carry
        x -= drift
        sigma *= math.sqrt(dt)
        sigma *= normals
        x += sigma
        spot_now = settle(t1)

    prices = sums / n_paths
    variances = np.maximum(sq_sums / n_paths - prices**2, 0.0)
    stderrs = np.sqrt(variances / n_paths)
    return prices, stderrs


# ---------------------------------------------------------------------------
# Crank-Nicolson
# ---------------------------------------------------------------------------


@dataclass
class CnSolution:
    """Reduced put prices on the full (T, k) PDE grid."""

    t_axis: np.ndarray
    k_axis: np.ndarray
    reduced: np.ndarray          # (n_t, n_k)
    curves: CurveSet
    diagnostics: dict = field(default_factory=dict)

    def reduced_at(self, t, k):
        t = np.clip(np.asarray(t, dtype=float), self.t_axis[0], self.t_axis[-1])
        k = np.asarray(k, dtype=float)
        if np.any(k < self.k_axis[0]) or np.any(k > self.k_axis[-1]):
            raise DomainError("reduced strike outside the PDE grid")
        return bilinear(self.t_axis, self.k_axis, self.reduced, t, k)

    def price_at(self, t, k):
        """Currency put price: undo the reduced-price growth factor."""
        return self.reduced_at(t, k) / self.curves.growth(t)


def price_cn(
    lv: LocalVolGrid,
    curves: CurveSet,
    t_max: float,
    n_t: int = 100,
    n_k: int = 100,
) -> CnSolution:
    """Solve the forward Dupire equation by Crank-Nicolson.

    Initial condition p(0, k) = (k - S0)+, boundaries p(T, 0) = 0 and
    p(T, k_max) = k_max - S0; the strike grid extends to k_max, twice the
    spot or 1.2 times the local-vol grid's last strike if that is further,
    so the upper boundary is effectively at its asymptote.  Negative values
    produced by the scheme around the payoff kink are counted and clamped at
    zero.  Raises ValueError for fewer than 2 time or 3 strike nodes.
    """
    from scipy.linalg import solve_banded

    if n_t < 2 or n_k < 3:
        raise ValueError(f"CN grid needs at least 2 time and 3 strike nodes, got {n_t} x {n_k}")
    spot = curves.spot
    k_max = max(2.0 * spot, 1.2 * float(lv.k_axis[-1]))
    t_axis = np.linspace(0.0, t_max, n_t)
    k_axis = np.linspace(0.0, k_max, n_k)
    dk = k_axis[1] - k_axis[0]

    values = np.empty((n_t, n_k))
    values[0] = np.maximum(k_axis - spot, 0.0)
    inner = slice(1, n_k - 1)
    k_inner = k_axis[inner]
    negatives = 0

    def diffusion(t):
        sigma = lv.lookup(t, k_inner)
        return 0.5 * sigma * sigma * k_inner * k_inner / dk**2

    # each time level's diffusion serves as d_new of one step and d_old of the next
    d_new = diffusion(t_axis[0])
    for n in range(n_t - 1):
        dt = t_axis[n + 1] - t_axis[n]
        d_old, d_new = d_new, diffusion(t_axis[n + 1])
        # explicit half-step
        rhs = values[n, inner] + 0.5 * dt * d_old * (
            values[n, :-2] - 2.0 * values[n, inner] + values[n, 2:]
        )
        # implicit half-step: tridiagonal (I - dt/2 D second-difference)
        coeff = 0.5 * dt * d_new
        banded = np.zeros((3, n_k - 2))
        banded[0, 1:] = -coeff[:-1]
        banded[1] = 1.0 + 2.0 * coeff
        banded[2, :-1] = -coeff[1:]
        boundary_hi = k_max - spot
        rhs[-1] += coeff[-1] * boundary_hi
        new_inner = solve_banded((1, 1), banded, rhs, check_finite=False)
        neg = new_inner < 0.0
        if np.any(neg):
            negatives += int(neg.sum())
            new_inner = np.maximum(new_inner, 0.0)
        values[n + 1, 0] = 0.0
        values[n + 1, -1] = boundary_hi
        values[n + 1, inner] = new_inner

    if negatives:
        log.warning("CN produced %d negative values (clamped at zero)", negatives)
    return CnSolution(
        t_axis=t_axis, k_axis=k_axis, reduced=values, curves=curves,
        diagnostics={"negative_values_clamped": negatives, "k_max": float(k_max)},
    )


def cn_option_prices(solution: CnSolution, curves: CurveSet, options):
    """Currency prices of (maturity, strike) options from a CN solution."""
    t, strike = np.array(options, dtype=float).reshape(-1, 2).T.copy()
    return solution.price_at(t, curves.reduced_strike(strike, t))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(model_prices, frame: MarketFrame, method: str, runtime: float = 0.0) -> BacktestReport:
    """Price and IV RMSEs of model prices against the frame's mid quotes.

    Rows whose model price cannot be inverted to an implied volatility are
    flagged and excluded from the IV RMSE (but still count in price RMSE).
    """
    model_prices = np.asarray(model_prices, dtype=float)
    if model_prices.size != len(frame):
        raise ValueError("one model price per frame point required")
    curves = frame.curves
    t = frame.maturity
    market_prices = frame.reduced_mid / curves.growth(t)
    model_ivs = implied_vol_array(
        model_prices, curves.forward(t), frame.strike, t, curves.discount(t)
    )
    inverted = ~np.isnan(model_ivs)
    iv_errs = (model_ivs - frame.mid_iv)[inverted]
    failures = int(model_prices.size - np.count_nonzero(inverted))
    values = (t.tolist(), frame.strike.tolist(), model_prices.tolist(), market_prices.tolist(),
              [None if math.isnan(iv) else iv for iv in model_ivs.tolist()],
              frame.mid_iv.tolist())
    rows = [dict(zip(ROW_FIELDS, row)) for row in zip(*values)]
    price_rmse = float(np.sqrt(np.mean(np.square(model_prices - market_prices))))
    iv_rmse = float(np.sqrt(np.mean(np.square(iv_errs)))) if iv_errs.size else float("nan")
    return BacktestReport(
        method=method,
        rows=rows,
        price_rmse=price_rmse,
        iv_rmse=iv_rmse,
        n_iv_failures=failures,
        runtime=runtime,
    )


def run_backtest(
    lv: LocalVolGrid,
    frame: MarketFrame,
    method: str,
    n_paths: int = 100_000,
    n_steps: int = 100,
    seed: int = 0,
    cn_grid: tuple = (100, 100),
) -> BacktestReport:
    """Reprice every frame quote under the local-vol grid; report errors and diagnostics."""
    options = list(zip(frame.maturity.tolist(), frame.strike.tolist()))
    start = time.perf_counter()
    if method == "mc":
        prices, stderrs = price_mc(
            lv, frame.curves, options, n_paths=n_paths, n_steps=n_steps, seed=seed
        )
        diagnostics = {"paths": n_paths, "time_levels": mc_time_grid(frame.maturity, n_steps).size,
                       "max_price_stderr": stderrs.max(), "mean_price_stderr": stderrs.mean()}
    elif method == "cn":
        solution = price_cn(
            lv, frame.curves, t_max=max(t for t, _ in options),
            n_t=cn_grid[0], n_k=cn_grid[1],
        )
        prices = cn_option_prices(solution, frame.curves, options)
        diagnostics = {"time_levels": cn_grid[0], "strike_nodes": cn_grid[1],
                       "negative_values_clamped": solution.diagnostics["negative_values_clamped"]}
    else:
        raise ValueError(f"unknown backtest method {method!r}")
    rep = report(prices, frame, method, runtime=time.perf_counter() - start)
    rep.diagnostics = diagnostics
    return rep


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth generator for quote files."""

    kind: str = "flat"                       # flat | ssvi | cev
    sigma: float = 0.2                       # flat vol
    rho: float = -0.3                        # ssvi
    eta: float = 1.2                         # ssvi
    theta_slope: float = 0.04                # ssvi: ATM total variance slope
    sigma0: float = 2.0                      # cev: sigma(S) = sigma0 S^(beta-1)
    beta: float = 0.5                        # cev exponent
    maturities: tuple = tuple(np.linspace(0.25, 2.5, 20).tolist())
    moneyness: tuple = tuple(np.linspace(0.85, 1.3, 40).tolist())
    spread: float = 0.005                    # relative half-width

    def __post_init__(self):
        if self.kind not in ("flat", "ssvi", "cev"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.sigma <= 0 or not 0.0 <= self.spread <= 1.0:
            raise ValueError(f"sigma must be positive and spread in [0, 1], got sigma "
                             f"{self.sigma} and spread {self.spread}")
        if not (self.maturities and self.moneyness):
            raise ValueError("need at least one maturity and one moneyness")
        if min(self.maturities) <= 0.0 or min(self.moneyness) <= 0.0:
            raise ValueError(f"maturities and moneyness must be positive, got minima "
                             f"{min(self.maturities)} and {min(self.moneyness)}")


def generate_synthetic(spec: SyntheticSpec, curves: CurveSet) -> dict[str, np.ndarray]:
    """The quote table priced by the requested closed-form (or CN-priced CEV) oracle."""
    maturities = np.asarray(spec.maturities, dtype=float)
    strikes = np.asarray(spec.moneyness, dtype=float) * curves.spot

    if spec.kind == "ssvi":
        params = SsviParams(
            rho=spec.rho, eta=spec.eta,
            theta_maturities=tuple(maturities),
            theta_values=tuple(spec.theta_slope * t for t in maturities),
        )
        verdict = check_no_arbitrage(params)
        if not (verdict["butterfly_ok"] and verdict["calendar_ok"]):
            raise ValueError(f"SSVI spec violates no-arbitrage: {verdict}")

    cn = None
    if spec.kind == "cev":
        t_axis = np.linspace(0.01, float(maturities.max()) * 1.05, 40)
        k_axis = np.linspace(0.2 * curves.spot, 2.2 * curves.spot, 80)
        tt, kk = np.meshgrid(t_axis, k_axis, indexing="ij")
        strike_coord = kk * np.exp(np.asarray(curves.carry(tt)))
        vals = spec.sigma0 * strike_coord ** (spec.beta - 1.0)
        lv = LocalVolGrid(t_axis, k_axis, vals, np.ones_like(vals, dtype=bool))
        cn = price_cn(lv, curves, t_max=float(maturities.max()), n_t=200, n_k=400)

    t, strike = (a.ravel() for a in np.meshgrid(maturities, strikes, indexing="ij"))
    forward = curves.forward(t)
    discount = curves.discount(t)
    if spec.kind == "flat":
        iv = np.full(t.size, spec.sigma)
        mid = put_price(forward, strike, t, iv, discount)
    elif spec.kind == "ssvi":
        # math.log, not np.log: the two differ in the last bit on some strikes
        kappa = np.array(
            [math.log(k / curves.spot) for k in curves.reduced_strike(strike, t).tolist()]
        )
        # one slice_at call per maturity: it takes phi(Theta) by Python's scalar power,
        # which can differ from numpy's array power in the last bit
        rows = kappa.reshape(maturities.size, strikes.size)
        total = [svi_total_variance(params.slice_at(m), row)
                 for m, row in zip(maturities.tolist(), rows)]
        iv = np.sqrt(np.concatenate(total) / t)
        mid = put_price(forward, strike, t, iv, discount)
    else:
        mid = cn.price_at(t, curves.reduced_strike(strike, t))
        iv = implied_vol_array(mid, forward, strike, t, discount)
        skipped = np.isnan(iv)
        for ti, ki in zip(t[skipped].tolist(), strike[skipped].tolist()):
            log.warning("CEV price at (%.3f, %.1f) not invertible; skipped", ti, ki)
        t, strike, mid, iv = (a[~skipped] for a in (t, strike, mid, iv))

    bid, ask = mid * (1.0 - spec.spread), mid * (1.0 + spec.spread)
    return dict(zip(QUOTE_COLUMNS, (t, strike, bid, ask, iv)))


def write_quotes_csv(quotes, path) -> None:
    """Write a quote table as CSV, floats by repr so they read back exactly; a NaN iv is blank."""
    columns = [np.asarray(quotes[name], dtype=float).tolist() for name in QUOTE_COLUMNS]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(QUOTE_COLUMNS)
        for *fields, iv in zip(*columns):
            writer.writerow([*map(repr, fields), "" if math.isnan(iv) else repr(iv)])


def write_curve_csv(tenors, values, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tenor", "value"])
        for t, v in zip(tenors, values):
            writer.writerow([repr(float(t)), repr(float(v))])
