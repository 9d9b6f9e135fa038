"""SSVI / natural-SVI implied total variance surfaces.

Per maturity the natural parameterization (delta, mu, rho, omega, zeta) gives

    Theta(kappa) = delta + omega/2 * (1 + rho zeta (kappa - mu)
                   + sqrt((zeta (kappa - mu) + rho)^2 + 1 - rho^2)),

and the surface version ties each maturity's slice to its at-the-money total
variance through a power-law curvature function phi:

    slice(T) = (0, 0, rho, Theta_T, phi(Theta_T)),
    phi(x) = eta / (x^gamma (1 + x)^(1 - gamma)).

With gamma = 0.5 the bound eta (1 + |rho|) <= 2 rules out butterfly
arbitrage, and a nondecreasing Theta_T curve rules out calendar arbitrage.
Calibration is two-step: a global (rho, eta) fit under the butterfly bound,
then a per-maturity natural-SVI refinement with a penalty against crossing
the previous slice.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize as sopt

from .market_data import FrameColumns, MarketFrame

log = logging.getLogger(__name__)


class CalibrationScopeError(ValueError):
    """Too little data for the two-step surface calibration."""


class ExtrapolationError(ValueError):
    """Requested maturity outside the calibrated slice range."""


@dataclass(frozen=True)
class NaturalSviParams:
    """One maturity slice in the natural parameterization."""

    delta: float
    mu: float
    rho: float
    omega: float
    zeta: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if self.omega < 0.0:
            raise ValueError(f"omega must be nonnegative, got {self.omega}")
        if self.zeta <= 0.0:
            raise ValueError(f"zeta must be positive, got {self.zeta}")


@dataclass(frozen=True)
class SsviParams:
    """Global surface parameters plus the ATM total-variance curve.

    The no-arbitrage conditions are checked by ``check_no_arbitrage`` rather
    than enforced here, so violating parameter sets can be represented and
    reported on.
    """

    rho: float
    eta: float
    gamma: float = 0.5
    theta_maturities: tuple = ()
    theta_values: tuple = ()

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if len(self.theta_maturities) != len(self.theta_values):
            raise ValueError("theta curve knots and values must align")

    def theta_at(self, t):
        """Linearly interpolated ATM total variance (flat beyond the knots)."""
        if not self.theta_maturities:
            raise ValueError("no ATM curve attached")
        return np.interp(
            t, np.asarray(self.theta_maturities), np.asarray(self.theta_values)
        )

    def slice_at(self, t) -> NaturalSviParams:
        theta = float(self.theta_at(t))
        return NaturalSviParams(
            delta=0.0, mu=0.0, rho=self.rho, omega=theta,
            zeta=power_law_phi(theta, self.eta, self.gamma),
        )


@dataclass(frozen=True)
class SviSurface:
    """Per-maturity natural slices plus the ATM curve driving interpolation."""

    maturities: tuple
    slices: tuple          # NaturalSviParams per maturity
    atm_curve: tuple       # Theta_T at the slice maturities

    def __post_init__(self):
        if len(self.maturities) != len(self.slices) or len(self.maturities) != len(
            self.atm_curve
        ):
            raise ValueError("maturities, slices and atm curve must align")
        if np.any(np.diff(np.asarray(self.maturities)) <= 0.0):
            raise ValueError("slice maturities must be strictly increasing")


def svi_total_variance(p: NaturalSviParams, kappa):
    """Total variance of a natural-SVI slice at log-moneyness kappa."""
    kappa = np.asarray(kappa, dtype=float)
    s = p.zeta * (kappa - p.mu) + p.rho
    root = np.sqrt(s * s + 1.0 - p.rho * p.rho)
    out = p.delta + 0.5 * p.omega * (1.0 + p.rho * p.zeta * (kappa - p.mu) + root)
    return float(out) if out.ndim == 0 else out


def svi_derivatives(p: NaturalSviParams, kappa):
    """(Theta, dTheta/dkappa, d2Theta/dkappa2), all analytic."""
    kappa = np.asarray(kappa, dtype=float)
    s = p.zeta * (kappa - p.mu) + p.rho
    one_m_rho2 = 1.0 - p.rho * p.rho
    root = np.sqrt(s * s + one_m_rho2)
    theta = p.delta + 0.5 * p.omega * (1.0 + p.rho * p.zeta * (kappa - p.mu) + root)
    d1 = 0.5 * p.omega * p.zeta * (p.rho + s / root)
    d2 = 0.5 * p.omega * p.zeta**2 * one_m_rho2 / root**3
    return theta, d1, d2


def power_law_phi(theta: float, eta: float, gamma: float = 0.5) -> float:
    """Curvature function eta / (theta^gamma (1 + theta)^(1-gamma))."""
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    return eta / (theta**gamma * (1.0 + theta) ** (1.0 - gamma))


def check_no_arbitrage(params: SsviParams) -> dict:
    """Butterfly and calendar condition report with violation magnitudes."""
    butterfly_lhs = params.eta * (1.0 + abs(params.rho))
    butterfly_violation = max(0.0, butterfly_lhs - 2.0)
    theta = np.asarray(params.theta_values, dtype=float)
    if theta.size >= 2:
        drops = np.diff(theta)
        calendar_violation = float(max(0.0, -np.min(drops)))
    else:
        calendar_violation = 0.0
    return {
        "butterfly_ok": butterfly_violation == 0.0 and params.gamma == 0.5,
        "butterfly_lhs": float(butterfly_lhs),
        "butterfly_violation": float(butterfly_violation),
        "calendar_ok": calendar_violation == 0.0,
        "calendar_violation": calendar_violation,
        "gamma_is_half": params.gamma == 0.5,
    }


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsviFitConfig:
    refine_slices: bool = True
    crossing_penalty: float = 100.0
    kappa_grid_size: int = 41
    max_iter: int = 400


def _atm_total_variance(cols: FrameColumns):
    """Raw per-maturity ATM total variance from the two bracketing strikes."""
    maturities, thetas = [], []
    for t in np.unique(cols.maturity):
        rows = cols.maturity == t
        order = np.lexsort((cols.mid_iv[rows], cols.log_moneyness[rows]))
        kappas = cols.log_moneyness[rows][order]
        if kappas[0] > 0.0 or kappas[-1] < 0.0:
            log.warning("maturity %.4f has no strikes bracketing ATM; skipped", t)
            continue
        ivs = cols.mid_iv[rows][order]
        totals = ivs * ivs * t
        maturities.append(t)
        thetas.append(float(np.interp(0.0, kappas, totals)))
    return np.asarray(maturities), np.asarray(thetas)


def _slice_objective(x, t, kappa_all, n_fit, ivs, prev_total, crossing_penalty):
    """Step-2 objective of one slice: IV RMSE plus the calendar-crossing penalty.

    x = (delta, mu, rho, omega, zeta), clipped to a valid natural slice.
    kappa_all holds the slice's n_fit data points followed by the crossing
    grid, so SVI runs once per evaluation; the arithmetic is
    ``svi_total_variance``'s, operation for operation.  Any nonpositive
    total variance scores 1e6.
    """
    delta, mu, rho, omega, zeta = x
    rho = min(max(rho, -0.999), 0.999)
    omega = max(omega, 0.0)
    zeta = max(zeta, 1e-6)
    shifted = kappa_all - mu
    s = zeta * shifted + rho
    root = np.sqrt(s * s + 1.0 - rho * rho)
    total = delta + 0.5 * omega * (1.0 + rho * zeta * shifted + root)
    if (total <= 0.0).any():
        return 1e6
    resid = np.sqrt(total[:n_fit] / t) - ivs
    fit = math.sqrt(float(np.add.reduce(resid**2) / n_fit))
    if prev_total is None:
        return fit
    gaps = np.minimum(total[n_fit:] - prev_total, 0.0)
    return fit + crossing_penalty * float(np.add.reduce(gaps * gaps))


def calibrate(
    frame: MarketFrame, config: SsviFitConfig | None = None
) -> tuple[SsviParams, SviSurface]:
    """Two-step surface calibration on mid implied volatilities.

    Step 1 estimates the ATM total-variance curve (running maximum keeps it
    nondecreasing) and fits (rho, eta) by least squares under the butterfly
    bound, imposed by projecting eta onto eta <= 2 / (1 + |rho|).  Step 2
    refines each maturity as a free natural-SVI slice, starting from the
    SSVI values, with a squared penalty on crossing the previous slice from
    below.  Slices are only refined when that improves their objective.
    """
    cfg = config or SsviFitConfig()
    cols = frame.arrays()
    maturities, raw_theta = _atm_total_variance(cols)
    if maturities.size < 2:
        raise CalibrationScopeError(
            "need at least two maturities with ATM-bracketing quotes"
        )
    theta_curve = np.maximum.accumulate(raw_theta)

    slice_rows = {t: cols.maturity == t for t in maturities}
    slice_kappas = {t: cols.log_moneyness[rows] for t, rows in slice_rows.items()}
    slice_ivs = {t: cols.mid_iv[rows] for t, rows in slice_rows.items()}
    all_t = np.concatenate([np.full(slice_kappas[t].size, t) for t in maturities])
    all_kappa = np.concatenate([slice_kappas[t] for t in maturities])
    all_iv = np.concatenate([slice_ivs[t] for t in maturities])
    theta_of_t = dict(zip(maturities, theta_curve))
    all_theta = np.array([theta_of_t[t] for t in all_t])

    def project(rho_eta):
        rho, eta = rho_eta
        rho = float(np.clip(rho, -0.999, 0.999))
        eta = float(np.clip(eta, 1e-6, 2.0 / (1.0 + abs(rho))))
        return rho, eta

    def objective(rho_eta):
        rho, eta = project(rho_eta)
        zeta = eta / (np.sqrt(all_theta) * np.sqrt(1.0 + all_theta))
        s = zeta * all_kappa + rho
        total = 0.5 * all_theta * (
            1.0 + rho * zeta * all_kappa + np.sqrt(s * s + 1.0 - rho * rho)
        )
        model_iv = np.sqrt(np.maximum(total, 1e-14) / all_t)
        return float(np.mean((model_iv - all_iv) ** 2))

    best = None
    for rho0 in (-0.5, 0.0, 0.5):
        for eta0 in (0.5, 1.5):
            res = sopt.minimize(
                objective, np.array([rho0, eta0]), method="Nelder-Mead",
                options={"maxiter": cfg.max_iter, "xatol": 1e-6, "fatol": 1e-12},
            )
            if best is None or res.fun < best.fun:
                best = res
    rho, eta = project(best.x)
    ssvi = SsviParams(
        rho=rho, eta=eta, gamma=0.5,
        theta_maturities=tuple(float(t) for t in maturities),
        theta_values=tuple(float(v) for v in theta_curve),
    )

    # step 2: per-maturity natural refinement with a calendar-crossing penalty
    kappa_lo = float(np.min(all_kappa)) - 0.1
    kappa_hi = float(np.max(all_kappa)) + 0.1
    kappa_grid = np.linspace(kappa_lo, kappa_hi, cfg.kappa_grid_size)

    slices: list[NaturalSviParams] = []
    prev_total: np.ndarray | None = None
    theta_max = float(theta_curve[-1])
    for t in maturities:
        refined = start = ssvi.slice_at(t)
        if cfg.refine_slices:
            x0 = np.array([start.delta, start.mu, start.rho, start.omega, start.zeta])
            kappas = slice_kappas[t]
            args = (t, np.concatenate([kappas, kappa_grid]), kappas.size, slice_ivs[t],
                    prev_total, cfg.crossing_penalty)
            bounds = [
                (-0.5 * theta_max - 1e-6, 0.5 * theta_max + 1e-6),
                (-1.0, 1.0),
                (-0.999, 0.999),
                (0.0, 4.0 * theta_max + 1e-6),
                (1e-6, 50.0),
            ]
            res = sopt.minimize(
                _slice_objective, x0, args=args, method="Nelder-Mead", bounds=bounds,
                options={"maxiter": cfg.max_iter, "xatol": 1e-8, "fatol": 1e-12},
            )
            if res.fun <= _slice_objective(x0, *args):
                delta, mu, rho_s, omega, zeta = res.x
                refined = NaturalSviParams(
                    delta=float(delta), mu=float(mu),
                    rho=float(np.clip(rho_s, -0.999, 0.999)),
                    omega=float(max(omega, 0.0)), zeta=float(max(zeta, 1e-6)),
                )
        slices.append(refined)
        prev_total = svi_total_variance(refined, kappa_grid)

    surface = SviSurface(
        maturities=tuple(float(t) for t in maturities),
        slices=tuple(slices),
        atm_curve=tuple(float(v) for v in theta_curve),
    )
    return ssvi, surface


def interpolate_slice(surface: SviSurface, t: float) -> NaturalSviParams:
    """Parameter-wise average of the two bracketing slices.

    The weight on the later slice is the ATM total-variance fraction
    (Theta(t) - Theta_lower) / (Theta_upper - Theta_lower); equal-variance
    brackets fall back to time-linear weights.
    """
    maturities = np.asarray(surface.maturities)
    if t < maturities[0] - 1e-12 or t > maturities[-1] + 1e-12:
        raise ExtrapolationError(
            f"maturity {t} outside calibrated range [{maturities[0]}, {maturities[-1]}]"
        )
    exact = np.nonzero(np.abs(maturities - t) <= 1e-12)[0]
    if exact.size:
        return surface.slices[int(exact[0])]
    hi = int(np.searchsorted(maturities, t))
    lo = hi - 1
    theta_t = float(np.interp(t, maturities, np.asarray(surface.atm_curve)))
    theta_lo = surface.atm_curve[lo]
    theta_hi = surface.atm_curve[hi]
    if theta_hi - theta_lo > 1e-14:
        alpha = (theta_t - theta_lo) / (theta_hi - theta_lo)
    else:
        alpha = (t - maturities[lo]) / (maturities[hi] - maturities[lo])
    p_lo, p_hi = surface.slices[lo], surface.slices[hi]
    return NaturalSviParams(
        delta=(1 - alpha) * p_lo.delta + alpha * p_hi.delta,
        mu=(1 - alpha) * p_lo.mu + alpha * p_hi.mu,
        rho=(1 - alpha) * p_lo.rho + alpha * p_hi.rho,
        omega=(1 - alpha) * p_lo.omega + alpha * p_hi.omega,
        zeta=(1 - alpha) * p_lo.zeta + alpha * p_hi.zeta,
    )


def surface_theta_fn(surface: SviSurface, step: float = 1e-4):
    """Adapter returning (Theta, dT, dk, dkk) at array (T, kappa) points.

    kappa-derivatives are analytic; the maturity derivative is a central
    difference of the slice-interpolated surface (clamped inside the
    calibrated range at the ends).
    """
    t_lo = surface.maturities[0]
    t_hi = surface.maturities[-1]

    def theta_only(t_vals, kappa):
        flat_t = np.asarray(t_vals, dtype=float).ravel()
        flat_k = np.asarray(kappa, dtype=float).ravel()
        res = np.empty_like(flat_k)
        for t in np.unique(flat_t):
            p = interpolate_slice(surface, float(t))
            sel = flat_t == t
            res[sel] = svi_total_variance(p, flat_k[sel])
        return res.reshape(np.shape(kappa))

    def fn(t_vals, kappa):
        t_arr = np.asarray(t_vals, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        flat_t = t_arr.ravel()
        flat_k = kappa.ravel()
        th = np.empty_like(flat_k)
        dk = np.empty_like(flat_k)
        dkk = np.empty_like(flat_k)
        for t in np.unique(flat_t):
            p = interpolate_slice(surface, float(t))
            sel = flat_t == t
            th[sel], dk[sel], dkk[sel] = svi_derivatives(p, flat_k[sel])
        t_plus = np.minimum(t_arr + step, t_hi)
        t_minus = np.maximum(t_arr - step, t_lo)
        d_t = (theta_only(t_plus, kappa) - theta_only(t_minus, kappa)) / (
            t_plus - t_minus
        )
        return th.reshape(kappa.shape), d_t, dk.reshape(kappa.shape), dkk.reshape(kappa.shape)

    return fn


def ssvi_theta_fn(params: SsviParams, step: float = 1e-4):
    """Adapter for a pure SSVI surface: analytic in kappa, central FD in T."""
    tm = np.asarray(params.theta_maturities)
    t_lo, t_hi = float(tm[0]), float(tm[-1])

    def theta_only(t_vals, kappa):
        flat_t = np.asarray(t_vals, dtype=float).ravel()
        flat_k = np.asarray(kappa, dtype=float).ravel()
        res = np.empty_like(flat_k)
        for t in np.unique(flat_t):
            p = params.slice_at(float(t))
            sel = flat_t == t
            res[sel] = svi_total_variance(p, flat_k[sel])
        return res.reshape(np.shape(kappa))

    def fn(t_vals, kappa):
        t_arr = np.asarray(t_vals, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        flat_t = t_arr.ravel()
        flat_k = kappa.ravel()
        th = np.empty_like(flat_k)
        dk = np.empty_like(flat_k)
        dkk = np.empty_like(flat_k)
        for t in np.unique(flat_t):
            p = params.slice_at(float(t))
            sel = flat_t == t
            th[sel], dk[sel], dkk[sel] = svi_derivatives(p, flat_k[sel])
        t_plus = np.minimum(t_arr + step, t_hi)
        t_minus = np.maximum(t_arr - step, t_lo)
        d_t = (theta_only(t_plus, kappa) - theta_only(t_minus, kappa)) / (
            t_plus - t_minus
        )
        return th.reshape(kappa.shape), d_t, dk.reshape(kappa.shape), dkk.reshape(kappa.shape)

    return fn


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json(params: SsviParams, surface: SviSurface, spot: float) -> dict:
    return {
        "version": "ssvi/1",
        "rho": params.rho,
        "eta": params.eta,
        "gamma": params.gamma,
        "spot": float(spot),
        "atm_curve": {
            "maturities": list(params.theta_maturities),
            "values": list(params.theta_values),
        },
        "slices": [
            {
                "maturity": m,
                "delta": s.delta,
                "mu": s.mu,
                "rho": s.rho,
                "omega": s.omega,
                "zeta": s.zeta,
            }
            for m, s in zip(surface.maturities, surface.slices)
        ],
    }


def model_from_json(doc: dict) -> tuple[SsviParams, SviSurface, float]:
    if doc.get("version") != "ssvi/1":
        raise ValueError(f"unsupported SSVI model version {doc.get('version')!r}")
    params = SsviParams(
        rho=doc["rho"], eta=doc["eta"], gamma=doc["gamma"],
        theta_maturities=tuple(doc["atm_curve"]["maturities"]),
        theta_values=tuple(doc["atm_curve"]["values"]),
    )
    slices = tuple(
        NaturalSviParams(
            delta=s["delta"], mu=s["mu"], rho=s["rho"], omega=s["omega"], zeta=s["zeta"]
        )
        for s in doc["slices"]
    )
    surface = SviSurface(
        maturities=tuple(s["maturity"] for s in doc["slices"]),
        slices=slices,
        atm_curve=tuple(doc["atm_curve"]["values"]),
    )
    return params, surface, float(doc["spot"])
