"""Shape-constrained Gaussian-process regression of reduced put prices.

The put price surface gets a zero-mean GP prior with a separable
Matern-5/2 product kernel on the unit square, projected onto a regular
grid of bilinear hat functions.  On that finite basis the no-arbitrage
requirements (prices nondecreasing in maturity, convex and nonnegative
in strike) are exactly a finite set of linear inequalities between node
values: the Kronecker rows of build_constraints.  Points reach the basis
through one hat axis per coordinate (_HatAxis), which holds the one
unit-square check; the likelihood, the MAP and every surface read use that
pair.  So:

* hyperparameters come from maximizing the (unconstrained) marginal
  log likelihood of the observations, by L-BFGS-B on its exact gradient
  over a bounded box of log-parameters; a likelihood whose gram needs a
  jitter ridge counts as a failed evaluation, never as a value,
* the most probable surface is the solution of a convex QP over the
  constraint polyhedron,
* posterior uncertainty comes from exact-HMC sampling of the truncated
  Gaussian conditional law, started at the QP solution.  That law's
  unconstrained mean and covariance root come from one Cholesky factor of
  the MAP QP's whitened Hessian, which is exactly the posterior precision.

Bid and ask quotes enter as two noisy replications of the same latent
value, with homoscedastic Gaussian noise.  Their mean and difference split
that model exactly (unit Jacobian), so the likelihood, the MAP and the
posterior all work on one row per quote: the mean with half the noise
variance, and a closed-form term for the differences.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass, field, fields

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
from .serialize import number, number_array

log = logging.getLogger(__name__)

SQRT5 = math.sqrt(5.0)
SQRT2 = math.sqrt(2.0)


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


def matern52(d, theta: float):
    """Matern nu=5/2 correlation at distance d, length scale theta."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    scaled = SQRT5 * np.abs(np.asarray(d, dtype=float)) / theta
    out = (1.0 + scaled + scaled * scaled / 3.0) * np.exp(-scaled)
    return float(out) if out.ndim == 0 else out


class _HatAxis:
    """One axis of the observation basis: node distances, hat cells and weights.

    A unit coordinate x sits in cell c = min(floor(x (n - 1)), n - 2), with
    weight lower = 1 - f on node c and upper = f on node c + 1, where
    f = x (n - 1) - c; a coordinate outside [0, 1] (beyond 1e-9) raises,
    which makes this the basis's one unit-square check.  W @ C for a
    per-axis correlation C is formed by gathering the two hat rows of every
    point, which is exactly the sparse product's arithmetic (two weights
    >= 0, summed in cell order).
    """

    def __init__(self, coords: np.ndarray, nodes: np.ndarray):
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        if np.any(coords < -1e-9) or np.any(coords > 1.0 + 1e-9):
            raise ValueError("point outside the scaled unit square")
        scaled = np.clip(coords, 0.0, 1.0) * (nodes.size - 1)
        self.n_nodes = nodes.size
        self.cell = np.minimum(scaled.astype(int), nodes.size - 2)
        frac = scaled - self.cell
        self.lower = (1.0 - frac)[:, None]
        self.upper = frac[:, None]
        self.distances = nodes[:, None] - nodes[None, :]

    @functools.cached_property
    def weights_t(self) -> np.ndarray:
        """W', shape (n_nodes, n_points), built on first use (only sandwich() needs it)."""
        # filled (n_points, n_nodes) and returned transposed, F-contiguous: a
        # C-ordered (n_nodes, n_points) operand takes another BLAS path in
        # sandwich() and moves the gram's last bits
        weights = np.zeros((self.cell.size, self.n_nodes))
        points = np.arange(self.cell.size)
        weights[points, self.cell] = self.lower[:, 0]
        weights[points, self.cell + 1] = self.upper[:, 0]
        return weights.T

    def correlations(self, theta: float) -> np.ndarray:
        return matern52(self.distances, theta)

    def log_theta_derivative(self, theta: float) -> np.ndarray:
        """d/d(log theta) of the Matern correlations: (r^2/3)(1 + r) e^-r."""
        r = SQRT5 * np.abs(self.distances) / theta
        return r * r / 3.0 * (1.0 + r) * np.exp(-r)

    def rows(self, c: np.ndarray) -> np.ndarray:
        """W @ C, shape (n_points, n_nodes)."""
        return self.lower * c[self.cell] + self.upper * c[self.cell + 1]

    def sandwich(self, c: np.ndarray) -> np.ndarray:
        """W C W', shape (n_points, n_points)."""
        return self.rows(c) @ self.weights_t


def _basis_rows(axis_t: _HatAxis, axis_k: _HatAxis, values) -> np.ndarray:
    """Phi @ values, for node values (M,) or node rows (M, r), Phi the points' hat basis.

    A point's row of Phi is the product of its maturity and strike hat rows:
    four bilinear weights on the corners of its cell.  They are gathered and
    summed from zero in the corner order (0, 0), (0, 1), (1, 0), (1, 1),
    with weight lower/upper_t * lower/upper_k, which is the arithmetic of
    the CSR product with those rows.
    """
    values = np.asarray(values, dtype=float)
    node_rows = values.reshape(values.shape[0], -1)
    n_k = axis_k.n_nodes
    corner = axis_t.cell * n_k + axis_k.cell
    out = np.zeros((corner.size, node_rows.shape[1]))
    for w_t, step_t in ((axis_t.lower, 0), (axis_t.upper, n_k)):
        for w_k, step_k in ((axis_k.lower, 0), (axis_k.upper, 1)):
            out += (w_t * w_k) * node_rows[corner + (step_t + step_k)]
    return out.reshape((corner.size,) + values.shape[1:])


def build_constraints(grid: BasisGrid) -> sp.csr_matrix:
    """Shape rows A with A @ nodes >= 0, as CSR.

    On node values flattened row i * n_k + j they are D_T (x) I_k (nondecreasing
    in maturity), I_T (x) D2_k (convex in strike) and I (nonnegative), stacked
    in that order, with D_T the first and D2_k the second difference.
    """
    d_t = sp.diags([-1.0, 1.0], [0, 1], shape=(grid.n_t - 1, grid.n_t), format="csr")
    d2_k = sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(grid.n_k - 2, grid.n_k), format="csr")
    return sp.vstack([
        sp.kron(d_t, sp.identity(grid.n_k, format="csr"), format="csr"),
        sp.kron(sp.identity(grid.n_t, format="csr"), d2_k, format="csr"),
        sp.identity(grid.size, format="csr"),
    ], format="csr")


def evaluate_surface(node_values, grid: BasisGrid, t_scaled, k_scaled):
    """Bilinear interpolation of node values at scaled points inside the hull."""
    axis_t = _HatAxis(np.ravel(t_scaled), grid.t_nodes)
    axis_k = _HatAxis(np.ravel(k_scaled), grid.k_nodes)
    out = _basis_rows(axis_t, axis_k, node_values)
    if np.ndim(t_scaled) == 0:
        return float(out[0])
    return out.reshape(np.shape(t_scaled))


# ---------------------------------------------------------------------------
# likelihood and fitting
# ---------------------------------------------------------------------------


def quote_observations(frame: MarketFrame):
    """One observation row per quote: where it sits, its bid/ask mean and its spread.

    Returns (u, v, m, d): the unit-square coordinates, m = (bid + ask) / 2
    and d = bid - ask.  (bid, ask) -> (m, d) has unit Jacobian, and with
    bid and ask two noisy replications of one latent price, m carries the
    latent price plus noise of variance noise^2 / 2 while d is pure noise of
    variance 2 noise^2, independent of m.  This is the observation set the
    likelihood and the MAP surface are fitted to.
    """
    u, v = frame.scaling.to_unit(frame.maturity, frame.reduced_strike)
    bid, ask = frame.reduced_bid, frame.reduced_ask
    return u, v, 0.5 * (bid + ask), bid - ask


class LikelihoodEvaluator:
    """Negative marginal log likelihood of one frame's quotes and its gradient, in one call.

    With bid and ask collapsed to m and d (see quote_observations),

        -log p(bid, ask) = -log N(m; 0, K) + sum 1/2 (d^2 / (2 noise^2) + log 2 noise^2),
        K = Phi Gamma Phi' + noise^2 / 2 I,

    exactly, over one row per quote instead of two; both sides drop the
    same 2-pi constant.  The gradient in the log-parameters is
    1/2 tr((inv(K) - a a') dK) with a = inv(K) m (Rasmussen & Williams
    2006, 5.4.1).

    Everything that does not depend on the kernel parameters (observations,
    hat cells and weights, node distances, the diagonal index) is built
    once, so an evaluation costs four per-axis sandwiches (the separable
    kernel makes each length scale's dK one more), Hadamard products, one
    Cholesky factorization of K and one triangular inverse.  K is factored
    through the module's chol_with_jitter, and a K that needs jitter fails
    the evaluation with LinAlgError: a jittered likelihood is a different
    likelihood.  The shape constraints are deliberately ignored here;
    conditioning on them would barely move the optimum at realistic sample
    sizes and costs far more.
    """

    def __init__(self, frame: MarketFrame, grid: BasisGrid):
        if len(frame) == 0:
            raise ValueError("frame is empty")
        u, v, self.mean, diff = quote_observations(frame)
        self.diff_sq = float(diff @ diff)
        self.axis_t = _HatAxis(u, grid.t_nodes)
        self.axis_k = _HatAxis(v, grid.k_nodes)
        self._diagonal = np.diag_indices(self.mean.size)

    def __call__(self, params: KernelParams) -> tuple[float, np.ndarray]:
        """The value and its derivatives in (log sigma, log theta_t, log theta_k, log noise)."""
        sand_t = self.axis_t.sandwich(self.axis_t.correlations(params.theta_t))
        sand_k = self.axis_k.sandwich(self.axis_k.correlations(params.theta_k))
        gram = params.sigma**2 * np.multiply(sand_t, sand_k)
        noise_var = params.noise_sd**2
        gram[self._diagonal] += 0.5 * noise_var
        root, jitter = chol_with_jitter(gram, "observation gram")
        if jitter:
            raise np.linalg.LinAlgError(f"observation gram needed jitter {jitter:.1e}")
        alpha = sla.solve_triangular(root, self.mean, lower=True, check_finite=False)
        value = 0.5 * (float(alpha @ alpha) + 2.0 * float(np.sum(np.log(np.diag(root)))))
        n = self.mean.size
        spread_terms = self.diff_sq / (2.0 * noise_var) + n * math.log(2.0 * noise_var)

        inv_root = sla.solve_triangular(root, np.eye(n), lower=True, check_finite=False)
        a = inv_root.T @ alpha
        w = inv_root.T @ inv_root - np.outer(a, a)
        trace_w = float(np.trace(w))
        half_var = 0.5 * params.sigma**2
        d_t = self.axis_t.sandwich(self.axis_t.log_theta_derivative(params.theta_t))
        d_k = self.axis_k.sandwich(self.axis_k.log_theta_derivative(params.theta_k))
        grad = np.array([
            # dK/dlog sigma = 2 (K - noise^2/2 I), and tr(w K) = n - m' inv(K) m
            n - float(alpha @ alpha) - 0.5 * noise_var * trace_w,
            half_var * float(np.sum(w * d_t * sand_k)),
            half_var * float(np.sum(w * sand_t * d_k)),
            # dK/dlog noise = noise^2 I, plus the spread terms
            0.5 * noise_var * trace_w + n - self.diff_sq / (2.0 * noise_var),
        ])
        return value + 0.5 * spread_terms, grad


# the box fit_hyperparameters searches (see its docstring)
LOG_SIGMA_HALF_WIDTH = 7.0
LENGTH_SCALE_BOUNDS = (0.01, 10.0)
NOISE_BOUNDS = (0.1, 1e3)
ZERO_SPREAD_NOISE = 1e-3

# what a failed likelihood evaluation reports to the optimizer
_FAILED = 1e12

# fewer bid/ask values than this log a weak-identification warning
LOW_DATA_THRESHOLD = 10

# L-BFGS-B iterations per hyperparameter start
FIT_MAX_ITER = 200


def fit_hyperparameters(
    frame: MarketFrame, grid: BasisGrid, n_starts: int = 5, seed: int = 0
) -> KernelParams:
    """Minimize the negative marginal log likelihood over a box of log-parameters.

    L-BFGS-B on LikelihoodEvaluator's exact gradient, from n_starts starts
    (a fixed center and normal draws seeded by seed around it, clipped into
    the box), at most FIT_MAX_ITER iterations each.  The box keeps sigma
    within a factor e^7 (LOG_SIGMA_HALF_WIDTH) of std(y) for the stacked
    bid/ask values y, theta_t and theta_k between 1% and ten times the
    unit-square width (LENGTH_SCALE_BOUNDS), and noise_sd between 0.1 and
    1000 times (NOISE_BOUNDS) the quotes' own noise scale
    q = rms(bid - ask) / sqrt(2); when every bid equals its ask, q is
    ZERO_SPREAD_NOISE = 1e-3 times std(y).  An evaluation whose gram needs
    jitter fails; if every start fails, HyperparameterFitError carries the
    per-start diagnostics.
    """
    if n_starts < 1:
        raise ValueError(f"need at least one optimizer start, got {n_starts}")
    evaluate = LikelihoodEvaluator(frame, grid)
    y = np.stack([frame.reduced_bid, frame.reduced_ask], axis=1).ravel()
    if y.size < LOW_DATA_THRESHOLD:
        log.warning("only %d observations; hyperparameter fit is weakly identified", y.size)

    spread = float(np.std(y))
    if spread <= 0.0:
        spread = max(abs(float(np.mean(y))), 1.0)
    noise_scale = float(np.sqrt(np.mean(np.square(frame.reduced_bid - frame.reduced_ask)) / 2.0))
    if noise_scale <= 0.0:
        noise_scale = ZERO_SPREAD_NOISE * spread
    log_spread = math.log(spread)
    theta_lo, theta_hi = np.log(LENGTH_SCALE_BOUNDS)
    noise_lo, noise_hi = np.log(noise_scale * np.array(NOISE_BOUNDS))
    lower = np.array([log_spread - LOG_SIGMA_HALF_WIDTH, theta_lo, theta_lo, noise_lo])
    upper = np.array([log_spread + LOG_SIGMA_HALF_WIDTH, theta_hi, theta_hi, noise_hi])

    center = np.log([spread, 0.3, 0.3, 0.1 * spread])
    rng = np.random.default_rng(seed)
    starts = [center]
    for _ in range(n_starts - 1):
        starts.append(center + rng.normal(scale=[1.0, 0.7, 0.7, 1.0]))

    def objective(logp):
        try:
            value, grad = evaluate(KernelParams(*np.exp(logp)))
        except np.linalg.LinAlgError:
            return _FAILED, np.zeros(4)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            return _FAILED, np.zeros(4)
        return value, grad

    best = None
    per_start = []
    for start in starts:
        start = np.clip(start, lower, upper)
        result = sopt.minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=sopt.Bounds(lower, upper),
            options={"maxiter": FIT_MAX_ITER},
        )
        per_start.append({"start": start.tolist(), "fun": float(result.fun),
                          "nit": int(result.nit), "nfev": int(result.nfev)})
        if not np.isfinite(result.fun) or result.fun >= _FAILED:
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
    qp_diagnostics: dict = field(default_factory=dict)
    # diagonal ridge chol_with_jitter added to the (maturity, strike) prior
    # correlations in fit_map; 0.0 where the correlation factored as given
    prior_jitter: tuple[float, float] | None = None
    # (L, Q, c) of fit_map's whitened QP, from which the posterior follows
    _whitened: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def price(self, t, k):
        """Reduced price at physical (T, k); errors outside the data hull."""
        u, v = self.scaling.to_unit(t, k)
        return evaluate_surface(self.map_nodes, self.grid, u, v)

    def put_prices(self, frame: MarketFrame):
        """Currency put prices of the frame's quotes on the MAP surface."""
        t = frame.maturity
        return self.price(t, frame.reduced_strike) / frame.curves.growth(t)

    def constraint_slacks(self) -> np.ndarray:
        """A @ map_nodes, one entry per shape row: >= -tol where the MAP honors it."""
        return build_constraints(self.grid) @ self.map_nodes


def fit_map(frame: MarketFrame, grid: BasisGrid, params: KernelParams) -> GpModel:
    """Most probable constrained surface: a convex QP over the node values.

    Eliminating the noise e = y - Phi rho of the bid and ask rows turns the
    joint MAP into

        min  rho' inv(Gamma) rho + |y - Phi rho|^2 / noise^2
        s.t. rho in the shape polyhedron,

    and per quote (b - f)^2 + (a - f)^2 = 2 (m - f)^2 + d^2 / 2, so the data
    term is |sqrt(2) m - sqrt(2) Phi_m rho|^2 / noise^2 over one row per
    quote (Phi_m), up to a constant (see quote_observations).

    The problem is posed to the interior-point solver in whitened variables
    rho = L z with L the (Kronecker) Cholesky factor of Gamma, which turns
    the prior term into |z|^2: inv(Gamma) is never formed and the smooth
    kernel's near-singularity never reaches the KKT systems.  rho = 0 (noise
    absorbs everything) is always feasible.  prior_jitter holds the ridge
    each axis correlation needed to factor (a fit at the top of the
    length-scale box can need one).
    """
    u, v, mean, _ = quote_observations(frame)
    axis_t, axis_k = _HatAxis(u, grid.t_nodes), _HatAxis(v, grid.k_nodes)
    root_t, jitter_t = chol_with_jitter(axis_t.correlations(params.theta_t),
                                        "maturity correlation")
    root_k, jitter_k = chol_with_jitter(axis_k.correlations(params.theta_k),
                                        "strike correlation")
    root = params.sigma * np.kron(root_t, root_k)

    noise_var = params.noise_sd**2
    basis_white = SQRT2 * _basis_rows(axis_t, axis_k, root)
    q = 2.0 * (np.eye(grid.size) + basis_white.T @ basis_white / noise_var)
    q = 0.5 * (q + q.T)
    c = -2.0 * basis_white.T @ (SQRT2 * mean) / noise_var

    a_white = build_constraints(grid) @ root
    problem = QuadProgram(q=q, c=c, a_ineq=a_white, b_ineq=np.zeros(a_white.shape[0]))
    result = solve_qp(problem)

    return GpModel(
        params=params,
        grid=grid,
        scaling=frame.scaling,
        map_nodes=root @ result.x,
        qp_diagnostics=result.diagnostics,
        prior_jitter=(jitter_t, jitter_k),
        _whitened=(root, q, c),
    )


def posterior_factors(model: GpModel):
    """Mean and covariance root of the node values given the (unconstrained) data.

    In fit_map's whitened variables rho = L z the posterior precision of z is
    exactly Q/2 = I + B'B / noise^2 (B = sqrt(2) Phi_m L), and its mean is
    the QP's unconstrained minimizer -inv(Q) c.  With one Cholesky factor
    Q/2 = R R',

        eta = L R^-T R^-1 (-c/2),   cov = S S',   S = L R^-T,

    so the covariance is positive semi-definite by construction.  Returns
    (eta, S).
    """
    if model._whitened is None:
        raise ValueError("model carries no fitted QP; refit it with fit_map")
    root, q, c = model._whitened
    r = np.linalg.cholesky(0.5 * q)
    cov_root = sla.solve_triangular(r, root.T, lower=True, check_finite=False).T
    eta = cov_root @ sla.solve_triangular(r, -0.5 * c, lower=True, check_finite=False)
    return eta, cov_root


def _interior_nudge(model: GpModel, a: sp.csr_matrix) -> np.ndarray:
    """Shift the MAP strictly inside the polyhedron (it usually saturates it)."""
    grid = model.grid
    t_part = np.repeat(grid.t_nodes, grid.n_k)
    k_part = np.tile(grid.k_nodes, grid.n_t)
    direction = 1.0 + t_part + np.square(k_part)   # strictly slack for all families
    scale = max(1.0, float(np.max(np.abs(model.map_nodes))))
    eps = 1e-10 * scale
    for _ in range(40):
        candidate = model.map_nodes + eps * direction
        if float(np.min(a @ candidate)) > 1e-12:
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
) -> np.ndarray:
    """Constrained posterior node-value paths via exact HMC.

    Returns an (n_paths, M) array; every row satisfies the shape rows.
    """
    eta, root = posterior_factors(model)
    a = build_constraints(model.grid)
    init = _interior_nudge(model, a)
    tg = TruncatedGaussian(mean=eta, root=root, a=a, b=np.zeros(a.shape[0]))
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
    """A ``gpmodel/1`` document as a model; every number in it must be finite."""
    if doc.get("version") != "gpmodel/1":
        raise ValueError(f"unsupported GP model version {doc.get('version')!r}")
    params = KernelParams(**{f.name: number(doc["params"][f.name]) for f in fields(KernelParams)})
    grid = BasisGrid(n_t=operator.index(doc["grid"]["n_t"]), n_k=operator.index(doc["grid"]["n_k"]))
    scaling = AffineScaling(**{f.name: number(doc["scaling"][f.name])
                               for f in fields(AffineScaling)})
    nodes = number_array(doc["map_nodes"])
    if nodes.size != grid.size:
        raise ValueError("node vector size does not match the grid")
    return GpModel(params=params, grid=grid, scaling=scaling, map_nodes=nodes)
