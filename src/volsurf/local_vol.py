"""Local volatility extraction.

Two routes to the same surface:

* ``dupire_fd`` — finite differences of a reduced put price surface p(T, k):

      sigma^2(T, K) / 2 = dT p / (k^2 dkk p)

* ``dupire_iv`` — the same ratio written on the implied total variance
  surface Theta(T, kappa) = Sigma^2 T, where it becomes cal_T / butt_k with

      cal_T  = dT Theta
      butt_k = 1 - (kappa/Theta) dk Theta
               + 1/4 (-1/4 - 1/Theta + kappa^2/Theta^2) (dk Theta)^2
               + 1/2 dkk Theta

Numerical differentiation of prices is ill-posed, so cells whose denominator
(or numerator) is unusable are masked rather than patched; downstream
consumers decide how to fill them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .serialize import number_array

# a Dupire denominator at or below this is masked (the NN penalties skip it too)
DENOM_FLOOR = 1e-8


class DegenerateVarianceError(ArithmeticError):
    """Total variance too close to zero for the implied-variance ratio.

    A numerical failure of the model, not an input error.
    """


@dataclass
class LocalVolGrid:
    """Rectangular (T, k) grid of local volatilities with a validity mask.

    Each axis needs at least two nodes, so every point has a cell to
    interpolate in.
    """

    t_axis: np.ndarray
    k_axis: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    cap: float | None = None
    diagnostics: dict = field(default_factory=dict)
    _filled_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _k_step: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t_axis = np.asarray(self.t_axis, dtype=float)
        self.k_axis = np.asarray(self.k_axis, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.t_axis.size < 2 or self.k_axis.size < 2:
            raise ValueError("grid axes need at least 2 nodes each, got "
                             f"{self.t_axis.size} x {self.k_axis.size}")
        if np.any(np.diff(self.t_axis) <= 0) or np.any(np.diff(self.k_axis) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        shape = (self.t_axis.size, self.k_axis.size)
        if self.values.shape != shape or self.mask.shape != shape:
            raise ValueError(f"values/mask must have shape {shape}")
        if np.any(self.values[self.mask] < 0.0):
            raise ValueError("masked-valid local vol values must be nonnegative")
        # a strike axis within 8 ulps of k0 + j h finds its cells by arithmetic
        step = (self.k_axis[-1] - self.k_axis[0]) / (self.k_axis.size - 1)
        drift = np.abs(self.k_axis - (self.k_axis[0] + step * np.arange(self.k_axis.size)))
        self._k_step = step if drift.max() <= 8.0 * np.spacing(np.abs(self.k_axis).max()) else None

    @classmethod
    def flat(cls, sigma, t_axis, k_axis):
        t_axis = np.asarray(t_axis, dtype=float)
        k_axis = np.asarray(k_axis, dtype=float)
        shape = (t_axis.size, k_axis.size)
        return cls(t_axis, k_axis, np.full(shape, float(sigma)), np.ones(shape, bool))

    @property
    def valid_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0

    def filled_values(self) -> np.ndarray:
        """Values with masked cells replaced by their nearest valid neighbor.

        Cached after the first call; do not mutate values/mask afterwards.
        """
        if self._filled_cache is not None:
            return self._filled_cache
        if self.mask.all():
            filled = self.values.copy()
        elif not self.mask.any():
            raise ValueError("cannot fill a fully masked grid")
        else:
            from scipy.ndimage import distance_transform_edt

            _, (ti, ki) = distance_transform_edt(~self.mask, return_indices=True)
            filled = self.values[ti, ki]
        self._filled_cache = filled
        return filled

    def lookup(self, t, k):
        """Local vols at one time t (a float) and strikes k, clamped to the grid's edges.

        The two filled rows bracketing t make one row, read linearly in k as
        row[j] + w (row[j + 1] - row[j]), w clipped to [0, 1].  The cell j is
        floor((k - k0) / h) on a uniform strike axis, else from ``axis_cells``.
        NaN strikes give NaN, infinite ones the edge value.
        """
        t_axis, k_axis, n_k = self.t_axis, self.k_axis, self.k_axis.size
        t = float(np.clip(t, t_axis[0], t_axis[-1]))
        i = min(max(int(np.searchsorted(t_axis, t)) - 1, 0), t_axis.size - 2)
        w_t = (t - t_axis[i]) / (t_axis[i + 1] - t_axis[i])
        values = self.filled_values()
        row = (1 - w_t) * values[i] + w_t * values[i + 1]
        k = np.asarray(k, dtype=float)
        if self._k_step is not None:
            w = np.asarray(k - k_axis[0])
            w /= self._k_step
            # fmax/fmin send NaN to cell 0, where it stays NaN through w
            cell = np.fmin(np.fmax(w, 0.0), n_k - 2).astype(np.intp)
            w -= cell
        else:
            cell, k_lo, k_hi = axis_cells(k_axis, k)
            w = np.asarray((k - k_lo) / (k_hi - k_lo))
        np.clip(w, 0.0, 1.0, out=w)
        w *= np.diff(row).take(cell)
        w += row.take(cell)
        return float(w) if w.ndim == 0 else w


def axis_cells(axis, x):
    """(cell, axis[cell], axis[cell + 1]) of each x on a strictly increasing axis.

    cell = clip(searchsorted(axis, x) - 1, 0, n - 2) for every x, NaN and
    +-inf included.
    """
    cell = np.clip(np.searchsorted(axis, x) - 1, 0, axis.size - 2)
    return cell, axis.take(cell), axis[1:].take(cell)


def bilinear(t_axis, k_axis, values, t, k):
    """Bilinear interpolation of values on the (t_axis, k_axis) grid at (t, k).

    Points must lie inside the grid: callers clamp or reject the others.  The
    four corners are gathered from the flattened values.
    """
    it, t_lo, t_hi = axis_cells(t_axis, t)
    ik, k_lo, k_hi = axis_cells(k_axis, k)
    wt = (t - t_lo) / (t_hi - t_lo)
    wk = (k - k_lo) / (k_hi - k_lo)
    ut, uk = 1 - wt, 1 - wk
    n_k = k_axis.size
    flat = values.ravel()
    corner = it * n_k + ik
    out = (
        ut * uk * flat.take(corner)
        + ut * wk * flat[1:].take(corner)
        + wt * uk * flat[n_k:].take(corner)
        + wt * wk * flat[n_k + 1:].take(corner)
    )
    return float(out) if out.ndim == 0 else out


def calendar_butterfly_terms(theta, d_t, d_k, d_kk, kappa):
    """Numerator and denominator of the implied-variance Dupire ratio.

    Vectorized over numpy arrays; theta must be positive.
    """
    theta = np.asarray(theta, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    cal = np.asarray(d_t, dtype=float)
    butt = (
        1.0
        - (kappa / theta) * d_k
        + 0.25 * (-0.25 - 1.0 / theta + kappa**2 / theta**2) * np.square(d_k)
        + 0.5 * np.asarray(d_kk, dtype=float)
    )
    return cal, butt


def dupire_fd(price_surface, t_axis, k_axis) -> LocalVolGrid:
    """Extract local vol from a reduced-price surface by finite differences.

    ``price_surface(t, k)`` must accept array arguments over the evaluation
    grid.  dT uses central differences (one-sided at the first/last row),
    dkk the standard three-point second difference.  Cells where the
    curvature is at most DENOM_FLOOR, or the calendar numerator is
    negative, are masked.
    """
    t_axis = np.asarray(t_axis, dtype=float)
    k_axis = np.asarray(k_axis, dtype=float)
    if t_axis.size < 3 or k_axis.size < 3:
        raise ValueError("need at least 3 nodes per axis for finite differences")
    tt, kk = np.meshgrid(t_axis, k_axis, indexing="ij")
    p = np.asarray(price_surface(tt, kk), dtype=float)

    dt_fwd = np.diff(t_axis)
    d_t = np.empty_like(p)
    d_t[0] = (p[1] - p[0]) / dt_fwd[0]
    d_t[-1] = (p[-1] - p[-2]) / dt_fwd[-1]
    span = (t_axis[2:] - t_axis[:-2])[:, None]
    d_t[1:-1] = (p[2:] - p[:-2]) / span

    d_kk = np.full_like(p, np.nan)
    dk = np.diff(k_axis)
    # second difference on a possibly non-uniform axis
    h_l = dk[:-1][None, :]
    h_r = dk[1:][None, :]
    d_kk[:, 1:-1] = 2.0 * (
        p[:, :-2] / (h_l * (h_l + h_r))
        - p[:, 1:-1] / (h_l * h_r)
        + p[:, 2:] / (h_r * (h_l + h_r))
    )

    denom = np.square(kk) * d_kk
    with np.errstate(divide="ignore", invalid="ignore"):
        dup = d_t / denom
    # the floor is applied to the curvature itself, in reduced-price units
    valid = np.isfinite(dup) & (d_kk > DENOM_FLOOR) & (d_t >= 0.0)
    valid[:, 0] = False
    valid[:, -1] = False
    values = np.where(valid, np.sqrt(np.clip(2.0 * dup, 0.0, None)), 0.0)
    diagnostics = {
        "negative_numerator_cells": int(np.sum((d_t < 0.0) & np.isfinite(d_kk))),
        "floored_denominator_cells": int(np.sum(np.nan_to_num(d_kk, nan=0.0) <= DENOM_FLOOR)),
    }
    return LocalVolGrid(t_axis, k_axis, values, valid, diagnostics=diagnostics)


def dupire_iv(theta_surface, t_axis, k_axis, spot: float) -> LocalVolGrid:
    """Extract local vol from a total-variance surface via cal_T / butt_k.

    ``theta_surface(t, kappa)`` must return the tuple
    (theta, dT theta, dk theta, dkk theta) for array inputs, in the
    log-moneyness coordinate kappa = log(k / spot).  Cells with
    butt_k <= DENOM_FLOOR or cal_T < 0 are masked.
    """
    t_axis = np.asarray(t_axis, dtype=float)
    k_axis = np.asarray(k_axis, dtype=float)
    if np.any(k_axis <= 0.0):
        raise ValueError("reduced strikes must be positive to form log-moneyness")
    tt, kk = np.meshgrid(t_axis, k_axis, indexing="ij")
    kappa = np.log(kk / spot)
    theta, d_t, d_k, d_kk = theta_surface(tt, kappa)
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 1e-12):
        raise DegenerateVarianceError("total variance vanishes on the evaluation grid")
    cal, butt = calendar_butterfly_terms(theta, d_t, d_k, d_kk, kappa)

    valid = (butt > DENOM_FLOOR) & (cal >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(valid, cal / np.where(valid, butt, 1.0), 0.0)
    values = np.sqrt(np.clip(ratio, 0.0, None))
    diagnostics = {
        "negative_calendar_cells": int(np.sum(cal < 0.0)),
        "nonpositive_butterfly_cells": int(np.sum(butt <= DENOM_FLOOR)),
    }
    return LocalVolGrid(t_axis, k_axis, values, valid, diagnostics=diagnostics)


def cap_and_report(grid: LocalVolGrid, cap: float) -> tuple[LocalVolGrid, dict]:
    """Cap values for export and summarize what the cap and mask hide."""
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    capped = np.minimum(grid.values, cap)
    n_capped = int(np.sum((grid.values > cap) & grid.mask))
    n_valid = int(grid.mask.sum())
    summary = {
        "cap": float(cap),
        "capped_fraction": (n_capped / n_valid) if n_valid else 0.0,
        "masked_fraction": 1.0 - grid.valid_fraction,
        "min": float(grid.values[grid.mask].min()) if n_valid else None,
        "max": float(grid.values[grid.mask].max()) if n_valid else None,
    }
    out = LocalVolGrid(
        grid.t_axis, grid.k_axis, capped, grid.mask, cap=float(cap),
        diagnostics=dict(grid.diagnostics),
    )
    return out, summary


def write_grid_csv(grid: LocalVolGrid, path) -> None:
    """Long-format export: one `T,k,local_vol,valid` row per cell."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["T", "k", "local_vol", "valid"])
        for i, t in enumerate(grid.t_axis):
            for j, k in enumerate(grid.k_axis):
                writer.writerow(
                    [repr(float(t)), repr(float(k)),
                     repr(float(grid.values[i, j])), int(grid.mask[i, j])]
                )


def grid_to_json(grid: LocalVolGrid) -> dict:
    return {
        "version": "localvol/1",
        "t_axis": grid.t_axis.tolist(),
        "k_axis": grid.k_axis.tolist(),
        "values": grid.values.tolist(),
        "mask": grid.mask.astype(int).tolist(),
        "cap": grid.cap,
        "diagnostics": grid.diagnostics,
    }


def grid_from_json(doc: dict) -> LocalVolGrid:
    if doc.get("version") != "localvol/1":
        raise ValueError(f"unsupported local-vol document version {doc.get('version')!r}")
    return LocalVolGrid(
        t_axis=number_array(doc["t_axis"]),
        k_axis=number_array(doc["k_axis"]),
        values=number_array(doc["values"]),
        mask=number_array(doc["mask"], dtype=bool),
        cap=doc.get("cap"),
        diagnostics=doc.get("diagnostics", {}),
    )
