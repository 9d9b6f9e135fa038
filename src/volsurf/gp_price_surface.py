"""Shape-constrained Gaussian-process regression of reduced put prices.

The put price surface gets a zero-mean GP prior with a separable
Matern-5/2 product kernel on the unit square, projected onto a regular
grid of bilinear hat functions.  On that finite basis the no-arbitrage
requirements (prices nondecreasing in maturity, convex and nonnegative
in strike) are exactly a finite set of linear inequalities between node
values, so:

* hyperparameters come from maximizing the (unconstrained) marginal
  log likelihood of the observations,
* the most probable surface is the solution of a convex QP over the
  constraint polyhedron,
* posterior uncertainty comes from exact-HMC sampling of the truncated
  Gaussian conditional law, started at the QP solution.

Bid and ask quotes enter as separate noisy replications of the same
latent value, with homoscedastic Gaussian noise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.optimize as sopt
import scipy.sparse as sp

from .constrained_sampling import (
    QuadProgram,
    TruncatedGaussian,
    chol_with_jitter,
    sample_truncated,
    solve_qp,
)
from .market_data import AffineScaling, MarketFrame

log = logging.getLogger(__name__)

SQRT5 = math.sqrt(5.0)


class HyperparameterFitError(RuntimeError):
    """Every optimizer start failed; carries per-start diagnostics."""

    def __init__(self, message, per_start):
        super().__init__(message)
        self.per_start = per_start


@dataclass(frozen=True)
class KernelParams:
    """Kernel and noise hyperparameters, in price / scaled-coordinate units."""

    sigma: float
    theta_t: float
    theta_k: float
    noise_sd: float

    def __post_init__(self):
        for name in ("sigma", "theta_t", "theta_k", "noise_sd"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class BasisGrid:
    """Regular hat-function grid over the unit square.

    Index convention: node (i, j) sits at (i * h_t, j * h_k) and flattens to
    row i * n_k + j; i runs over maturities, j over strikes.
    """

    n_t: int
    n_k: int

    def __post_init__(self):
        if self.n_t < 2:
            raise ValueError("need at least 2 maturity nodes")
        if self.n_k < 3:
            raise ValueError("need at least 3 strike nodes (convexity spans three)")

    @property
    def h_t(self) -> float:
        return 1.0 / (self.n_t - 1)

    @property
    def h_k(self) -> float:
        return 1.0 / (self.n_k - 1)

    @property
    def size(self) -> int:
        return self.n_t * self.n_k

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_t)

    @property
    def k_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_k)


@dataclass(frozen=True)
class ConstraintSystem:
    """Sparse rows encoding A @ nodes >= 0 for the three shape families."""

    a: sp.csr_matrix
    b: np.ndarray
    counts: dict

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


def matern52(d, theta: float):
    """Matern nu=5/2 correlation at distance d, length scale theta."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    scaled = SQRT5 * np.abs(np.asarray(d, dtype=float)) / theta
    out = (1.0 + scaled + scaled * scaled / 3.0) * np.exp(-scaled)
    return float(out) if out.ndim == 0 else out


def kernel(x, x_prime, params: KernelParams):
    """Separable product kernel sigma^2 * m52(dT) * m52(dk), scaled coords."""
    t, k = x
    tp, kp = x_prime
    return (
        params.sigma**2
        * matern52(np.asarray(t) - tp, params.theta_t)
        * matern52(np.asarray(k) - kp, params.theta_k)
    )


def hat_basis(x, node, h_t: float, h_k: float):
    """Bilinear hat weight of grid node (i, j) at scaled point x = (t, k)."""
    t, k = x
    i, j = node
    wt = max(1.0 - abs(t - i * h_t) / h_t, 0.0)
    wk = max(1.0 - abs(k - j * h_k) / h_k, 0.0)
    return wt * wk


def _axis_weights(coords: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """Per-axis hat weights: (n_points, n_nodes) with two entries per row."""
    coords = np.asarray(coords, dtype=float)
    if np.any(coords < -1e-9) or np.any(coords > 1.0 + 1e-9):
        raise ValueError("points must lie inside the scaled unit interval")
    cell, frac = _cells_and_fracs(coords, n_nodes)
    rows = np.repeat(np.arange(coords.size), 2)
    cols = np.stack([cell, cell + 1], axis=1).ravel()
    weights = np.stack([1.0 - frac, frac], axis=1).ravel()
    return sp.csr_matrix((weights, (rows, cols)), shape=(coords.size, n_nodes))


def _cells_and_fracs(coords, n_nodes: int):
    coords = np.clip(np.atleast_1d(np.asarray(coords, dtype=float)), 0.0, 1.0)
    cell = np.minimum((coords * (n_nodes - 1)).astype(int), n_nodes - 2)
    frac = coords * (n_nodes - 1) - cell
    return cell, frac


def basis_matrix(grid: BasisGrid, t_scaled, k_scaled) -> sp.csr_matrix:
    """Rows of hat-basis weights for points in scaled coordinates.

    Each row holds the four bilinear weights of the cell containing the point;
    rows sum to one (partition of unity inside the hull).
    """
    t_arr = np.atleast_1d(np.asarray(t_scaled, dtype=float))
    k_arr = np.atleast_1d(np.asarray(k_scaled, dtype=float))
    for arr in (t_arr, k_arr):
        if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
            raise ValueError("points must lie inside the scaled unit square")
    t_cell, t_frac = _cells_and_fracs(t_arr, grid.n_t)
    k_cell, k_frac = _cells_and_fracs(k_arr, grid.n_k)
    n = t_arr.size
    rows, cols, vals = [], [], []
    for di in (0, 1):
        wt = t_frac if di else 1.0 - t_frac
        for dj in (0, 1):
            wk = k_frac if dj else 1.0 - k_frac
            rows.append(np.arange(n))
            cols.append((t_cell + di) * grid.n_k + (k_cell + dj))
            vals.append(wt * wk)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, grid.size),
    )


def build_constraints(grid: BasisGrid) -> ConstraintSystem:
    """Monotonicity (T), convexity (k) and nonnegativity rows over node values."""
    n_t, n_k = grid.n_t, grid.n_k
    m = grid.size

    def idx(i, j):
        return i * n_k + j

    rows, cols, vals = [], [], []
    row = 0
    # nondecreasing in maturity: value(i+1, j) - value(i, j) >= 0
    for i in range(n_t - 1):
        for j in range(n_k):
            rows += [row, row]
            cols += [idx(i + 1, j), idx(i, j)]
            vals += [1.0, -1.0]
            row += 1
    # convex in strike: value(i, j+2) - 2 value(i, j+1) + value(i, j) >= 0
    for i in range(n_t):
        for j in range(n_k - 2):
            rows += [row, row, row]
            cols += [idx(i, j + 2), idx(i, j + 1), idx(i, j)]
            vals += [1.0, -2.0, 1.0]
            row += 1
    # nonnegativity at every node
    for i in range(n_t):
        for j in range(n_k):
            rows.append(row)
            cols.append(idx(i, j))
            vals.append(1.0)
            row += 1

    a = sp.csr_matrix((vals, (rows, cols)), shape=(row, m))
    counts = {
        "monotonicity": (n_t - 1) * n_k,
        "convexity": n_t * (n_k - 2),
        "nonnegativity": n_t * n_k,
    }
    return ConstraintSystem(a=a, b=np.zeros(row), counts=counts)


def evaluate_surface(node_values, grid: BasisGrid, t_scaled, k_scaled):
    """Bilinear interpolation of node values at scaled points inside the hull."""
    t_arr = np.atleast_1d(np.asarray(t_scaled, dtype=float))
    k_arr = np.atleast_1d(np.asarray(k_scaled, dtype=float))
    if np.any(t_arr < -1e-9) or np.any(t_arr > 1 + 1e-9) or np.any(k_arr < -1e-9) or np.any(
        k_arr > 1 + 1e-9
    ):
        raise ValueError("evaluation point outside the scaled grid hull")
    phi = basis_matrix(grid, t_arr.ravel(), k_arr.ravel())
    out = phi @ np.asarray(node_values, dtype=float)
    if np.isscalar(t_scaled) or (np.ndim(t_scaled) == 0):
        return float(out[0])
    return out.reshape(np.shape(t_scaled))


# ---------------------------------------------------------------------------
# likelihood and fitting
# ---------------------------------------------------------------------------


def _scaled_observations(frame: MarketFrame, grid: BasisGrid):
    """Bid/ask observations and their hat-basis rows on the unit square."""
    t, k, y = frame.bid_ask_observations()
    u, v = frame.to_unit_square(t, k)
    return y, basis_matrix(grid, u, v)


def _axis_correlations(grid: BasisGrid, params: KernelParams):
    c_t = matern52(grid.t_nodes[:, None] - grid.t_nodes[None, :], params.theta_t)
    c_k = matern52(grid.k_nodes[:, None] - grid.k_nodes[None, :], params.theta_k)
    return c_t, c_k


class _HatAxis:
    """One axis of the observation basis: node distances, hat cells and weights.

    W @ C for a per-axis correlation C is formed by gathering the two hat
    rows of every point, which is exactly the sparse product's arithmetic
    (two weights >= 0, summed in cell order).
    """

    def __init__(self, coords: np.ndarray, nodes: np.ndarray):
        self.weights_t = _axis_weights(coords, nodes.size).T.toarray()
        self.cell, frac = _cells_and_fracs(coords, nodes.size)
        self.lower = (1.0 - frac)[:, None]
        self.upper = frac[:, None]
        self.distances = nodes[:, None] - nodes[None, :]

    def correlations(self, theta: float) -> np.ndarray:
        return matern52(self.distances, theta)

    def rows(self, c: np.ndarray) -> np.ndarray:
        """W @ C, shape (n_points, n_nodes)."""
        return self.lower * c[self.cell] + self.upper * c[self.cell + 1]

    def sandwich(self, c: np.ndarray) -> np.ndarray:
        """W C W', shape (n_points, n_points)."""
        return self.rows(c) @ self.weights_t


class LikelihoodEvaluator:
    """Negative marginal log likelihood of one frame's bid/ask observations.

    Everything that does not depend on the kernel parameters (observations,
    hat cells and weights, node distances, the diagonal index) is built
    once, so one evaluation costs two per-axis sandwiches, a Hadamard
    product and one Cholesky factorization.  The value is computed up to
    the additive 2-pi constant from the Cholesky factor of
    Phi Gamma Phi' + noise^2 I.  The shape constraints are deliberately
    ignored here; conditioning on them would barely move the optimum at
    realistic sample sizes and costs far more.
    """

    def __init__(self, frame: MarketFrame, grid: BasisGrid):
        t, k, self.y = frame.bid_ask_observations()
        u, v = frame.to_unit_square(t, k)
        self.axis_t = _HatAxis(u, grid.t_nodes)
        self.axis_k = _HatAxis(v, grid.k_nodes)
        self._diagonal = np.diag_indices(self.y.size)

    def gram(self, params: KernelParams) -> np.ndarray:
        """Phi Gamma Phi' + noise^2 I without forming Gamma: Hadamard of per-axis sandwiches."""
        sand_t = self.axis_t.sandwich(self.axis_t.correlations(params.theta_t))
        sand_k = self.axis_k.sandwich(self.axis_k.correlations(params.theta_k))
        gram = params.sigma**2 * np.multiply(sand_t, sand_k)
        gram[self._diagonal] += params.noise_sd**2
        return gram

    def __call__(self, params: KernelParams) -> float:
        if self.y.size == 0:
            raise ValueError("frame is empty")
        root = chol_with_jitter(self.gram(params), "observation gram")
        alpha = sla.solve_triangular(root, self.y, lower=True, check_finite=False)
        return 0.5 * (float(alpha @ alpha) + 2.0 * float(np.sum(np.log(np.diag(root)))))


def marginal_log_likelihood(
    params: KernelParams, frame: MarketFrame, grid: BasisGrid
) -> float:
    """Gaussian marginal log likelihood of the bid/ask observations.

    See ``LikelihoodEvaluator``; build one directly to evaluate many
    parameter sets on the same frame.
    """
    return -LikelihoodEvaluator(frame, grid)(params)


@dataclass(frozen=True)
class GpFitConfig:
    """Multi-start optimizer settings for hyperparameter fitting."""

    n_starts: int = 5
    max_iter: int = 200
    seed: int = 0
    low_data_threshold: int = 10


def fit_hyperparameters(
    frame: MarketFrame, grid: BasisGrid, config: GpFitConfig | None = None
) -> KernelParams:
    """Maximize the marginal log likelihood over log-parameters, multi-start."""
    cfg = config or GpFitConfig()
    evaluate = LikelihoodEvaluator(frame, grid)
    y = evaluate.y
    n = y.size
    if n < cfg.low_data_threshold:
        log.warning("only %d observations; hyperparameter fit is weakly identified", n)

    spread = float(np.std(y))
    if spread <= 0.0:
        spread = max(abs(float(np.mean(y))), 1.0)
    center = np.log([spread, 0.3, 0.3, 0.1 * spread])
    rng = np.random.default_rng(cfg.seed)
    starts = [center]
    for _ in range(cfg.n_starts - 1):
        starts.append(center + rng.normal(scale=[1.0, 0.7, 0.7, 1.0]))

    def negative_mll(logp):
        if np.any(np.abs(logp) > 25.0):
            return 1e12
        try:
            return evaluate(KernelParams(*np.exp(logp)))
        except np.linalg.LinAlgError:
            return 1e12

    best = None
    per_start = []
    for start in starts:
        result = sopt.minimize(
            negative_mll,
            start,
            method="Nelder-Mead",
            options={"maxiter": cfg.max_iter, "xatol": 1e-4, "fatol": 1e-6},
        )
        per_start.append(
            {"start": start.tolist(), "fun": float(result.fun), "nit": int(result.nit)}
        )
        if not np.isfinite(result.fun) or result.fun >= 1e12:
            continue
        if best is None or result.fun < best.fun:
            best = result
    if best is None:
        raise HyperparameterFitError("all optimizer starts failed", per_start)

    sigma, theta_t, theta_k, noise = np.exp(best.x)
    return KernelParams(sigma=sigma, theta_t=theta_t, theta_k=theta_k, noise_sd=noise)


# ---------------------------------------------------------------------------
# MAP surface and posterior
# ---------------------------------------------------------------------------


@dataclass
class GpModel:
    """A fitted constrained-GP price surface."""

    params: KernelParams
    grid: BasisGrid
    scaling: AffineScaling
    map_nodes: np.ndarray
    map_noise: np.ndarray | None = None
    qp_diagnostics: dict = field(default_factory=dict)
    _frame: MarketFrame | None = None
    _posterior: tuple[np.ndarray, np.ndarray] | None = None

    def price_scaled(self, t_scaled, k_scaled):
        return evaluate_surface(self.map_nodes, self.grid, t_scaled, k_scaled)

    def price(self, t, k):
        """Reduced price at physical (T, k); errors outside the data hull."""
        u, v = self.scaling.to_unit(t, k)
        return evaluate_surface(self.map_nodes, self.grid, u, v)

    def constraint_slack(self) -> float:
        """min(A @ map_nodes): >= -tol when the MAP honors the shape rules."""
        system = build_constraints(self.grid)
        return float(np.min(system.a @ self.map_nodes))


def fit_map(
    frame: MarketFrame,
    grid: BasisGrid,
    params: KernelParams,
    qp_tol: float = 1e-8,
) -> GpModel:
    """Most probable constrained surface: a convex QP over the node values.

    Eliminating the noise vector e = y - Phi rho turns the joint MAP into

        min  rho' inv(Gamma) rho + |y - Phi rho|^2 / noise^2
        s.t. rho in the shape polyhedron.

    The problem is posed to the interior-point solver in whitened variables
    rho = L z with L the (Kronecker) Cholesky factor of Gamma, which turns
    the prior term into |z|^2: inv(Gamma) is never formed and the smooth
    kernel's near-singularity never reaches the KKT systems.  rho = 0 (noise
    absorbs everything) is always feasible.
    """
    y, phi = _scaled_observations(frame, grid)
    c_t, c_k = _axis_correlations(grid, params)
    root_t = chol_with_jitter(c_t, "maturity correlation")
    root_k = chol_with_jitter(c_k, "strike correlation")
    root = params.sigma * np.kron(root_t, root_k)

    noise_var = params.noise_sd**2
    basis_white = np.asarray(phi @ root)
    q = 2.0 * (np.eye(grid.size) + basis_white.T @ basis_white / noise_var)
    q = 0.5 * (q + q.T)
    c = -2.0 * basis_white.T @ y / noise_var

    system = build_constraints(grid)
    a_white = np.asarray(system.a @ root)
    problem = QuadProgram(q=q, c=c, a_ineq=a_white, b_ineq=system.b)
    result = solve_qp(problem, tol=qp_tol)

    map_nodes = root @ result.x
    map_noise = y - np.asarray(phi @ map_nodes).ravel()
    return GpModel(
        params=params,
        grid=grid,
        scaling=frame.scaling,
        map_nodes=map_nodes,
        map_noise=map_noise,
        qp_diagnostics=result.diagnostics,
        _frame=frame,
    )


def posterior_factors(model: GpModel, frame: MarketFrame | None = None):
    """Mean and covariance of the node values given the (unconstrained) data.

    eta = Gamma Phi' (Phi Gamma Phi' + noise^2 I)^-1 y
    cov = Gamma - Gamma Phi' (Phi Gamma Phi' + noise^2 I)^-1 Phi Gamma
    """
    frame = frame or model._frame
    if frame is None:
        raise ValueError("model carries no frame; pass one explicitly")
    if model._posterior is not None and frame is model._frame:
        return model._posterior
    params, grid = model.params, model.grid
    observations = LikelihoodEvaluator(frame, grid)
    y = observations.y
    c_t, c_k = _axis_correlations(grid, params)
    root = chol_with_jitter(observations.gram(params), "observation gram")

    # Gamma Phi' columns are tensor products of the per-axis kernel averages
    proj_t = observations.axis_t.rows(c_t).T      # (n_t, n)
    proj_k = observations.axis_k.rows(c_k).T      # (n_k, n)
    cross = params.sigma**2 * np.einsum("il,jl->ijl", proj_t, proj_k).reshape(
        grid.size, y.size
    )
    solve = sla.cho_solve((root, True), np.column_stack([y, cross.T]), check_finite=False)
    eta = cross @ solve[:, 0]
    gamma = params.sigma**2 * np.kron(c_t, c_k)
    cov = gamma - cross @ solve[:, 1:]
    cov = 0.5 * (cov + cov.T)
    model._posterior = (eta, cov)
    if np.min(np.diag(cov)) < -1e-10 * params.sigma**2:
        log.warning("posterior covariance has a noticeably negative diagonal")
    return eta, cov


def _interior_nudge(model: GpModel, system: ConstraintSystem) -> np.ndarray:
    """Shift the MAP strictly inside the polyhedron (it usually saturates it)."""
    grid = model.grid
    t_part = np.repeat(grid.t_nodes, grid.n_k)
    k_part = np.tile(grid.k_nodes, grid.n_t)
    direction = 1.0 + t_part + np.square(k_part)   # strictly slack for all families
    scale = max(1.0, float(np.max(np.abs(model.map_nodes))))
    eps = 1e-10 * scale
    for _ in range(40):
        candidate = model.map_nodes + eps * direction
        if float(np.min(system.a @ candidate)) > 1e-12:
            return candidate
        eps *= 10.0
        if eps > 0.01 * scale:
            break
    raise RuntimeError("could not move the MAP strictly inside the constraint set")


def sample_posterior(
    model: GpModel,
    n_paths: int = 100,
    seed: int = 0,
    burn_in: int = 100,
    frame: MarketFrame | None = None,
) -> np.ndarray:
    """Constrained posterior node-value paths via exact HMC.

    Returns an (n_paths, M) array; every row satisfies the constraint system.
    """
    eta, cov = posterior_factors(model, frame)
    system = build_constraints(model.grid)
    init = _interior_nudge(model, system)
    tg = TruncatedGaussian(mean=eta, covariance=cov, a=system.a, b=system.b)
    return sample_truncated(tg, init=init, n_samples=n_paths, seed=seed, burn_in=burn_in)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json(model: GpModel) -> dict:
    return {
        "version": "gpmodel/1",
        "params": {
            "sigma": model.params.sigma,
            "theta_t": model.params.theta_t,
            "theta_k": model.params.theta_k,
            "noise_sd": model.params.noise_sd,
        },
        "grid": {"n_t": model.grid.n_t, "n_k": model.grid.n_k},
        "scaling": {
            "t_min": model.scaling.t_min,
            "t_max": model.scaling.t_max,
            "k_min": model.scaling.k_min,
            "k_max": model.scaling.k_max,
        },
        "map_nodes": [float(v) for v in model.map_nodes],
    }


def model_from_json(doc: dict) -> GpModel:
    if doc.get("version") != "gpmodel/1":
        raise ValueError(f"unsupported GP model version {doc.get('version')!r}")
    params = KernelParams(**doc["params"])
    grid = BasisGrid(**doc["grid"])
    scaling = AffineScaling(**doc["scaling"])
    nodes = np.asarray(doc["map_nodes"], dtype=float)
    if nodes.size != grid.size:
        raise ValueError("node vector size does not match the grid")
    return GpModel(params=params, grid=grid, scaling=scaling, map_nodes=nodes)
