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

Surfaces are evaluated on arrays: ``interpolate_slice`` takes every maturity
at once, and ``_svi`` is the one copy of Theta(kappa) above.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .market_data import MarketFrame
from .serialize import number

log = logging.getLogger(__name__)


class CalibrationScopeError(ValueError):
    """Too little data for the two-step surface calibration."""


class ExtrapolationError(ValueError):
    """Requested maturity outside the calibrated slice range."""


@dataclass(frozen=True)
class NaturalSviParams:
    """A natural-parameterization slice, or one slice per point when the fields are arrays."""

    delta: float
    mu: float
    rho: float
    omega: float
    zeta: float

    def __post_init__(self):
        if not np.all((-1.0 < self.rho) & (self.rho < 1.0)):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if np.any(self.omega < 0.0):
            raise ValueError(f"omega must be nonnegative, got {self.omega}")
        if np.any(self.zeta <= 0.0):
            raise ValueError(f"zeta must be positive, got {self.zeta}")


# the fields of a slice in an ssvi/1 document, besides its maturity
SLICE_FIELDS = ("delta", "mu", "rho", "omega", "zeta")


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

    def slice_at(self, t) -> NaturalSviParams:
        """The slice at maturity t; the ATM curve is linear between its knots, flat beyond."""
        if not self.theta_maturities:
            raise ValueError("no ATM curve attached")
        theta = float(np.interp(t, self.theta_maturities, self.theta_values))
        return NaturalSviParams(
            delta=0.0, mu=0.0, rho=self.rho, omega=theta,
            zeta=power_law_phi(theta, self.eta, self.gamma),
        )


def _svi(delta, mu, rho, omega, zeta, kappa, root=None):
    """Natural-SVI total variance Theta(kappa), field by field.

    ``svi_derivatives`` passes the root it sums as s^2 + (1 - rho^2), which
    can round differently from the (s^2 + 1) - rho^2 summed here.
    """
    shifted = kappa - mu
    if root is None:
        s = zeta * shifted + rho
        root = np.sqrt(s * s + 1.0 - rho * rho)
    return delta + 0.5 * omega * (1.0 + rho * zeta * shifted + root)


def svi_total_variance(p: NaturalSviParams, kappa):
    """Total variance of a natural-SVI slice at log-moneyness kappa."""
    out = _svi(p.delta, p.mu, p.rho, p.omega, p.zeta, np.asarray(kappa, dtype=float))
    return float(out) if out.ndim == 0 else out


def svi_derivatives(p: NaturalSviParams, kappa):
    """(Theta, dTheta/dkappa, d2Theta/dkappa2), all analytic."""
    kappa = np.asarray(kappa, dtype=float)
    s = p.zeta * (kappa - p.mu) + p.rho
    one_m_rho2 = 1.0 - p.rho * p.rho
    root = np.sqrt(s * s + one_m_rho2)
    theta = _svi(p.delta, p.mu, p.rho, p.omega, p.zeta, kappa, root)
    d1 = 0.5 * p.omega * p.zeta * (p.rho + s / root)
    d2 = 0.5 * p.omega * (p.zeta * p.zeta) * one_m_rho2 / root**3
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


# the weight of the squared calendar-crossing gaps in a slice's objective,
# the points of the kappa grid they are measured on, and the Nelder-Mead
# iteration cap of both calibration steps
CROSSING_PENALTY = 100.0
KAPPA_GRID_SIZE = 41
MAX_ITER = 400


def _atm_total_variance(frame: MarketFrame):
    """Raw per-maturity ATM total variance from the two bracketing strikes."""
    maturities, thetas = [], []
    for t in np.unique(frame.maturity):
        rows = frame.maturity == t
        order = np.lexsort((frame.mid_iv[rows], frame.log_moneyness[rows]))
        kappas = frame.log_moneyness[rows][order]
        if kappas[0] > 0.0 or kappas[-1] < 0.0:
            log.warning("maturity %.4f has no strikes bracketing ATM; skipped", t)
            continue
        ivs = frame.mid_iv[rows][order]
        totals = ivs * ivs * t
        maturities.append(t)
        thetas.append(float(np.interp(0.0, kappas, totals)))
    return np.asarray(maturities), np.asarray(thetas)


def _slice_objective(x, t, kappa_all, n_fit, ivs, prev_total):
    """Step-2 objective of one slice: IV RMSE plus the calendar-crossing penalty.

    x = (delta, mu, rho, omega, zeta), clipped to a valid natural slice.
    kappa_all holds the slice's n_fit data points followed by the crossing
    grid, so SVI runs once per evaluation.  Any nonpositive total variance
    scores 1e6.
    """
    delta, mu, rho, omega, zeta = x
    rho = min(max(rho, -0.999), 0.999)
    total = _svi(delta, mu, rho, max(omega, 0.0), max(zeta, 1e-6), kappa_all)
    if (total <= 0.0).any():
        return 1e6
    resid = np.sqrt(total[:n_fit] / t) - ivs
    fit = math.sqrt(float(np.add.reduce(resid**2) / n_fit))
    if prev_total is None:
        return fit
    gaps = np.minimum(total[n_fit:] - prev_total, 0.0)
    return fit + CROSSING_PENALTY * float(np.add.reduce(gaps * gaps))


def calibrate(frame: MarketFrame) -> SsviModel:
    """Two-step surface calibration on mid implied volatilities.

    Step 1 estimates the ATM total-variance curve (running maximum keeps it
    nondecreasing) and fits (rho, eta) by least squares under the butterfly
    bound, imposed by projecting eta onto eta <= 2 / (1 + |rho|).  Step 2
    refines each maturity as a free natural-SVI slice, starting from the
    SSVI values, with a squared penalty (CROSSING_PENALTY) on crossing the
    previous slice from below on a KAPPA_GRID_SIZE-point grid.  Slices are
    only refined when that improves their objective.  Both steps run
    Nelder-Mead for at most MAX_ITER iterations; the model's diagnostics
    count the slice fits stopped there.  Returns the model of the step-1
    parameters, the refined slices and the frame's spot.
    """
    import scipy.optimize as sopt

    maturities, raw_theta = _atm_total_variance(frame)
    if maturities.size < 2:
        raise CalibrationScopeError(
            "need at least two maturities with ATM-bracketing quotes"
        )
    theta_curve = np.maximum.accumulate(raw_theta)

    # one stable sort by maturity: each slice's quotes are a range of it, in frame order
    order = np.argsort(frame.maturity, kind="stable")
    order = order[np.isin(frame.maturity[order], maturities)]
    all_t, all_kappa = frame.maturity[order], frame.log_moneyness[order]
    all_iv = frame.mid_iv[order]
    starts = np.searchsorted(all_t, maturities)
    ends = np.searchsorted(all_t, maturities, side="right")
    all_theta = np.repeat(theta_curve, ends - starts)

    def project(rho_eta):
        rho, eta = rho_eta
        rho = float(np.clip(rho, -0.999, 0.999))
        eta = float(np.clip(eta, 1e-6, 2.0 / (1.0 + abs(rho))))
        return rho, eta

    def objective(rho_eta):
        rho, eta = project(rho_eta)
        zeta = eta / (np.sqrt(all_theta) * np.sqrt(1.0 + all_theta))
        total = _svi(0.0, 0.0, rho, all_theta, zeta, all_kappa)
        model_iv = np.sqrt(np.maximum(total, 1e-14) / all_t)
        return float(np.mean((model_iv - all_iv) ** 2))

    best = None
    for rho0 in (-0.5, 0.0, 0.5):
        for eta0 in (0.5, 1.5):
            res = sopt.minimize(
                objective, np.array([rho0, eta0]), method="Nelder-Mead",
                options={"maxiter": MAX_ITER, "xatol": 1e-6, "fatol": 1e-12},
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
    kappa_grid = np.linspace(kappa_lo, kappa_hi, KAPPA_GRID_SIZE)

    slices: list[NaturalSviParams] = []
    prev_total: np.ndarray | None = None
    at_max_iter = 0
    theta_max = float(theta_curve[-1])
    bounds = [
        (-0.5 * theta_max - 1e-6, 0.5 * theta_max + 1e-6),
        (-1.0, 1.0),
        (-0.999, 0.999),
        (0.0, 4.0 * theta_max + 1e-6),
        (1e-6, 50.0),
    ]
    for t, lo, hi in zip(maturities, starts, ends):
        refined = start = ssvi.slice_at(t)
        x0 = np.array([start.delta, start.mu, start.rho, start.omega, start.zeta])
        kappas = all_kappa[lo:hi]
        args = (t, np.concatenate([kappas, kappa_grid]), kappas.size, all_iv[lo:hi], prev_total)
        res = sopt.minimize(
            _slice_objective, x0, args=args, method="Nelder-Mead", bounds=bounds,
            options={"maxiter": MAX_ITER, "xatol": 1e-8, "fatol": 1e-12},
        )
        at_max_iter += res.nit >= MAX_ITER
        if res.fun <= _slice_objective(x0, *args):
            delta, mu, rho_s, omega, zeta = res.x
            refined = NaturalSviParams(
                delta=float(delta), mu=float(mu),
                rho=float(np.clip(rho_s, -0.999, 0.999)),
                omega=float(max(omega, 0.0)), zeta=float(max(zeta, 1e-6)),
            )
        slices.append(refined)
        prev_total = svi_total_variance(refined, kappa_grid)
    if at_max_iter:
        log.warning("%d of %d SSVI slice fits stopped at max_iter=%d before converging",
                    at_max_iter, maturities.size, MAX_ITER)
    return SsviModel(params=ssvi, slices=tuple(slices), spot=frame.curves.spot,
                     diagnostics={"slices_at_max_iter": at_max_iter})


def interpolate_slice(model: SsviModel, t) -> NaturalSviParams:
    """Parameter-wise average of the two slices bracketing each maturity in t.

    The weight on the later slice is the ATM total-variance fraction
    (Theta(t) - Theta_lower) / (Theta_upper - Theta_lower); equal-variance
    brackets fall back to time-linear weights.  A maturity within 1e-12 of a
    bracketing slice gets that slice, the earlier one if both are that close.
    The fields have t's shape.
    """
    t = np.asarray(t, dtype=float)
    maturities, atm = np.array([model.params.theta_maturities, model.params.theta_values])
    outside = (t < maturities[0] - 1e-12) | (t > maturities[-1] + 1e-12)
    if np.any(outside):
        raise ExtrapolationError(f"maturity {t[outside][0]} outside calibrated range "
                                 f"[{maturities[0]}, {maturities[-1]}]")
    hi = np.clip(np.searchsorted(maturities, t), 1, maturities.size - 1)
    lo = hi - 1
    gap = atm[hi] - atm[lo]
    by_theta = gap > 1e-14
    theta_frac = (np.interp(t, maturities, atm) - atm[lo]) / np.where(by_theta, gap, 1.0)
    time_frac = (t - maturities[lo]) / (maturities[hi] - maturities[lo])
    alpha = np.where(by_theta, theta_frac, time_frac)[..., None]
    table = np.array([[getattr(p, name) for name in SLICE_FIELDS] for p in model.slices])
    mixed = (1 - alpha) * table[lo] + alpha * table[hi]
    at_lo = np.abs(maturities[lo] - t) <= 1e-12
    at_slice = at_lo | (np.abs(maturities[hi] - t) <= 1e-12)
    fields = np.where(at_slice[..., None], table[np.where(at_lo, lo, hi)], mixed)
    return NaturalSviParams(*(f[()] for f in np.moveaxis(fields, -1, 0)))


# the maturity step of the central difference behind dT Theta
MATURITY_STEP = 1e-4


@dataclass(frozen=True)
class SsviModel:
    """A calibrated surface: step-1 SSVI parameters, refined slices and the spot.

    ``params`` holds the one ATM curve, and ``slices`` one natural slice per
    curve maturity.  ``diagnostics`` holds what the calibration observed; it
    is not serialized.
    """

    params: SsviParams
    slices: tuple          # NaturalSviParams per ATM-curve maturity
    spot: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        maturities = self.params.theta_maturities
        if len(self.slices) != len(maturities):
            raise ValueError("need one slice per ATM-curve maturity")
        if len(maturities) < 2:
            raise ValueError("a surface needs at least two slices to interpolate between")
        if np.any(np.diff(np.asarray(maturities)) <= 0.0):
            raise ValueError("slice maturities must be strictly increasing")

    @property
    def t_range(self) -> tuple[float, float]:
        """The calibrated maturity range, first to last slice."""
        return self.params.theta_maturities[0], self.params.theta_maturities[-1]

    def forward_theta(self, t, kappa):
        """(Theta, dT Theta, dk Theta, dkk Theta) of the slice-interpolated surface.

        dT Theta is a central difference of step MATURITY_STEP, clamped to t_range.
        """
        t, kappa = np.broadcast_arrays(t, kappa)
        t_lo, t_hi = self.t_range
        t_plus = np.minimum(t + MATURITY_STEP, t_hi)
        t_minus = np.maximum(t - MATURITY_STEP, t_lo)
        # T, T+ and T- stacked on a leading axis; dT Theta differences svi_total_variance,
        # whose root can round unlike the one svi_derivatives shares with its Theta
        slices = interpolate_slice(self, np.stack([t, t_plus, t_minus]))
        theta, d_k, d_kk = svi_derivatives(slices, kappa)
        total = svi_total_variance(slices, kappa)
        d_t = (total[1] - total[2]) / (t_plus - t_minus)
        return theta[0], d_t, d_k[0], d_kk[0]

    def put_prices(self, frame: MarketFrame):
        """Currency put prices of the frame's quotes."""
        total = svi_total_variance(interpolate_slice(self, frame.maturity),
                                   frame.log_moneyness)
        return frame.put_prices_at(np.sqrt(np.maximum(total, 1e-14) / frame.maturity))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json(model: SsviModel) -> dict:
    params = model.params
    return {
        "version": "ssvi/1",
        "rho": params.rho,
        "eta": params.eta,
        "gamma": params.gamma,
        "spot": float(model.spot),
        "atm_curve": {
            "maturities": list(params.theta_maturities),
            "values": list(params.theta_values),
        },
        "slices": [
            {"maturity": m, **{name: getattr(s, name) for name in SLICE_FIELDS}}
            for m, s in zip(params.theta_maturities, model.slices)
        ],
    }


def model_from_json(doc: dict) -> SsviModel:
    """An ``ssvi/1`` document as a model: finite numbers, slices at the ATM curve's maturities."""
    if doc.get("version") != "ssvi/1":
        raise ValueError(f"unsupported SSVI model version {doc.get('version')!r}")
    params = SsviParams(
        rho=number(doc["rho"]), eta=number(doc["eta"]), gamma=number(doc["gamma"]),
        theta_maturities=tuple(number(t) for t in doc["atm_curve"]["maturities"]),
        theta_values=tuple(number(v) for v in doc["atm_curve"]["values"]),
    )
    slice_maturities = tuple(number(s["maturity"]) for s in doc["slices"])
    if slice_maturities != params.theta_maturities:
        raise ValueError(f"slice maturities {list(slice_maturities)} differ from the "
                         f"ATM curve maturities {list(params.theta_maturities)}")
    slices = tuple(
        NaturalSviParams(**{name: number(s[name]) for name in SLICE_FIELDS})
        for s in doc["slices"]
    )
    return SsviModel(params=params, slices=slices, spot=number(doc["spot"]))
