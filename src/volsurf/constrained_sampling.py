"""Generic constrained numerical kernels.

Two independent tools live here:

* ``solve_qp`` — a primal-dual interior-point solver (Mehrotra
  predictor-corrector) for convex quadratic programs with linear
  inequality constraints,

      min 1/2 x'Qx + c'x   s.t.  R x >= b.

  It reads the rows R only through three operations, R x, R' z and the
  weighted normal matrix R' W R.  ``QuadProgram`` holds R as dense rows;
  ``KroneckerQuadProgram`` holds R = A L as sparse rows A on node values and
  a Kronecker covariance root L = s (L_t (x) L_k), never formed, so its
  normal matrix is L' (A' W A) L: A' W A is sparse in node space and each
  side of the sandwich is two per-axis matmuls.

* ``sample_truncated`` — exact Hamiltonian Monte Carlo for multivariate
  Gaussians restricted to a polyhedron {x : A x >= b}, each given by its
  mean and a square root S of its covariance.  With momenta drawn from the
  covariance itself, the Hamiltonian flow of the deviation u = x - mean is
  harmonic, u(t) = u_a sin t + u_b cos t, so trajectories are followed
  analytically and wall hits are reflected exactly; no step size exists to
  tune and no sample ever leaves the support.  The walls A are held as
  CSR; the support needs at least one.

  With m walls and d dimensions, the covariance S S' is formed once per
  call and S is never solved against.  A trajectory costs one O(d^2)
  matvec, its momentum S xi, and two O(nnz(A)) sparse products: A of the
  momentum at its start and the exact A u of its end, for the feasibility
  check.  A bounce in between costs O(m + d + nnz(A)): the hit search
  evaluates the trig on reachable walls only, the reflection reads the
  covariance rows picked by the wall's sparse row a_j, and the products of
  the new position and velocity follow in closed form from the old ones
  plus A (S S' a_j').
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# quadratic programming
# ---------------------------------------------------------------------------


# solve_qp stops once every scaled KKT residual is at most QP_TOL, and raises
# after QP_MAX_ITER iterations
QP_TOL = 1e-8
QP_MAX_ITER = 100


class QpError(RuntimeError):
    """Base class for QP failures; carries the last iterate diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class QpInfeasibleError(QpError):
    """The constraint system admits no feasible point."""


class QpConvergenceError(QpError):
    """Iteration limit reached before the KKT tolerances were met."""


def _checked_objective(q, c) -> tuple[np.ndarray, np.ndarray]:
    """Q and c as float arrays, Q square of c's size and symmetric."""
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    d = c.size
    if q.shape != (d, d):
        raise ValueError(f"Q must be {d}x{d}, got {q.shape}")
    sym_gap = np.max(np.abs(q - q.T)) if d else 0.0
    if sym_gap > 1e-12 * max(1.0, float(np.max(np.abs(q)))):
        raise ValueError(f"Q must be symmetric, asymmetry {sym_gap:.2e}")
    return q, c


def _checked_bounds(b_ineq, rows_shape: tuple[int, int], d: int) -> np.ndarray:
    """b as a float vector, one entry per row of a (m, d) row system, m >= 1."""
    if np.size(b_ineq) == 0:
        raise ValueError("QP needs at least one inequality row")
    b_ineq = np.asarray(b_ineq, dtype=float).ravel()
    if rows_shape != (b_ineq.size, d):
        raise ValueError("inequality system dimensions inconsistent")
    return b_ineq


@dataclass
class QuadProgram:
    """Convex QP data: dense inequality rows `a_ineq @ x >= b_ineq`, at least one of them."""

    q: np.ndarray
    c: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray

    def __post_init__(self):
        self.q, self.c = _checked_objective(self.q, self.c)
        self.a_ineq = np.atleast_2d(np.asarray(self.a_ineq, dtype=float))
        self.b_ineq = _checked_bounds(self.b_ineq, self.a_ineq.shape, self.dim)

    @property
    def dim(self) -> int:
        return self.c.size

    def rows(self, x: np.ndarray) -> np.ndarray:
        """R x."""
        return self.a_ineq @ x

    def rows_t(self, z: np.ndarray) -> np.ndarray:
        """R' z."""
        return self.a_ineq.T @ z

    def normal(self, w: np.ndarray) -> np.ndarray:
        """R' diag(w) R, a new array."""
        return self.a_ineq.T @ (w[:, None] * self.a_ineq)


@dataclass
class KroneckerQuadProgram:
    """Convex QP data: rows (A L) x >= b_ineq, with L = scale (root_t (x) root_k) never formed.

    A (held as CSR, at least one row) acts on node values flattened
    i * n_k + j for the n_t x n_k roots, so (root_t (x) root_k) y is
    root_t Y root_k' on y reshaped to Y (n_t, n_k).  R x = A (L x) and
    R' z = L' (A' z) cost two per-axis matmuls and one sparse product each.
    The normal matrix L' (A' W A) L densifies the sparse node-space A' W A
    and multiplies it by L on the right and L' on the left, two per-axis
    matmuls a side: no m x d array is ever made.
    """

    q: np.ndarray
    c: np.ndarray
    a: sp.csr_matrix
    root_t: np.ndarray
    root_k: np.ndarray
    scale: float
    b_ineq: np.ndarray

    def __post_init__(self):
        self.q, self.c = _checked_objective(self.q, self.c)
        self.root_t = np.asarray(self.root_t, dtype=float)
        self.root_k = np.asarray(self.root_k, dtype=float)
        n_t, n_k = self.root_t.shape[0], self.root_k.shape[0]
        if self.root_t.shape != (n_t, n_t) or self.root_k.shape != (n_k, n_k):
            raise ValueError("Kronecker roots must be square")
        if n_t * n_k != self.dim:
            raise ValueError(f"Kronecker roots span {n_t * n_k} nodes, the QP has {self.dim}")
        self.a = sp.csr_matrix(self.a, dtype=float)
        self.b_ineq = _checked_bounds(self.b_ineq, self.a.shape, self.dim)

    @property
    def dim(self) -> int:
        return self.c.size

    def rows(self, x: np.ndarray) -> np.ndarray:
        """R x = A (L x)."""
        nodes = self.root_t @ x.reshape(self.root_t.shape[0], -1) @ self.root_k.T
        return self.a @ (self.scale * nodes.ravel())

    def rows_t(self, z: np.ndarray) -> np.ndarray:
        """R' z = L' (A' z)."""
        nodes = (self.a.T @ z).reshape(self.root_t.shape[0], -1)
        return self.scale * (self.root_t.T @ nodes @ self.root_k).ravel()

    def normal(self, w: np.ndarray) -> np.ndarray:
        """R' diag(w) R = L' (A' diag(w) A) L, a new array; scale^2 rides on w.

        The node-space matrix is sparse until densified here; L acts on its
        rows and then L' on its columns, each as two per-axis matmuls.
        """
        n_t, n_k = self.root_t.shape[0], self.root_k.shape[0]
        d = n_t * n_k
        row_weights = np.repeat(self.scale**2 * w, np.diff(self.a.indptr))
        weighted = sp.csr_matrix((self.a.data * row_weights, self.a.indices, self.a.indptr),
                                 shape=self.a.shape)
        node_normal = (self.a.T @ weighted).toarray()
        # rows: (M L)_r = vec(root_t' M_r root_k) for row r as an (n_t, n_k) array
        half = (node_normal.reshape(-1, n_k) @ self.root_k).reshape(d, n_t, n_k)
        del node_normal
        half = (self.root_t.T @ half).reshape(n_t, n_k * d)
        # columns: L' (M L), the same two matmuls down every column
        half = (self.root_t.T @ half).reshape(n_t, n_k, d)
        return (self.root_k.T @ half).reshape(d, d)


@dataclass
class QpResult:
    x: np.ndarray
    z: np.ndarray          # inequality multipliers, z >= 0
    iterations: int
    kkt: dict = field(default_factory=dict)

    @property
    def diagnostics(self) -> dict:
        return {"iterations": self.iterations, **self.kkt}


def _kkt_residuals(p, grad, slack, z) -> dict:
    """Scaled KKT residuals from the Lagrangian gradient Qx + c - R'z and the slack Rx - b."""
    scale = 1.0 + float(np.max(np.abs(p.c), initial=0.0))
    primal = float(max(0.0, -np.min(slack)))
    comp = float(np.max(np.abs(slack * z)))
    return {
        "stationarity": float(np.max(np.abs(grad))) / scale,
        "primal": primal / (1.0 + float(np.max(np.abs(p.b_ineq), initial=0.0))),
        "dual": float(max(0.0, -np.min(z, initial=0.0))),
        "complementarity": comp / scale,
    }


def solve_qp(p: QuadProgram | KroneckerQuadProgram) -> QpResult:
    """Solve a convex QP to the KKT tolerance QP_TOL.

    Implements an infeasible-start Mehrotra predictor-corrector method on the
    normal-equation form: each iteration factors Q + R' (Z/S) R.  The rows R
    are read only through the program's rows(x), rows_t(z) and normal(w),
    so dense rows and Kronecker-whitened sparse rows run the same loop.
    Raises QpInfeasibleError when the iterates certify an empty feasible
    region, QpConvergenceError after QP_MAX_ITER iterations; both carry
    residual diagnostics.
    """
    d, m = p.dim, p.b_ineq.size

    x = np.zeros(d)
    s = np.maximum(-p.b_ineq, 1.0)   # the slack of x = 0, floored at 1
    z = np.ones(m)

    def factor(w):
        """Factor Q + R' W R once; predictor and corrector share the returned solve."""
        h = p.normal(w)
        h += p.q
        try:
            cf = sla.cho_factor(h, check_finite=False)
        except sla.LinAlgError:
            ridge = 1e-12 * (np.trace(h) / d + 1.0)
            for _ in range(6):
                try:
                    cf = sla.cho_factor(h + ridge * np.eye(d), check_finite=False)
                    break
                except sla.LinAlgError:
                    ridge *= 100.0
            else:
                raise QpError("normal matrix factorization failed")
        return lambda rhs_x: sla.cho_solve(cf, rhs_x, check_finite=False)

    def newton_step(solve, rd, rp, rc):
        """Solve the reduced Newton system for dx; back out (ds, dz).

        rp is the true primal residual R x - s - b; rc the complementarity
        target in Z ds + S dz = rc.
        """
        dx = solve(-rd + p.rows_t((rc - z * rp) / s))
        ds = p.rows(dx) + rp
        dz = (rc - z * ds) / s
        return dx, ds, dz

    def max_step(v, dv):
        neg = dv < 0.0
        if not np.any(neg):
            return 1.0
        return float(min(1.0, np.min(-v[neg] / dv[neg])))

    res = {}
    for iteration in range(1, QP_MAX_ITER + 1):
        # + 0.0 turns -0.0 entries into +0.0: zero signs here can reach the
        # iterates' bytes
        ax = p.rows(x)
        rd = p.q @ x + p.c - p.rows_t(z) + 0.0
        rp = ax - s - p.b_ineq
        mu = float(s @ z) / m

        res = _kkt_residuals(p, rd, ax - p.b_ineq, z)
        if (
            res["stationarity"] <= QP_TOL
            and res["primal"] <= QP_TOL
            and res["complementarity"] <= QP_TOL
        ):
            return QpResult(x=x, z=z, iterations=iteration - 1, kkt=res)

        solve = factor(z / s)
        # predictor (affine) step
        dx_a, ds_a, dz_a = newton_step(solve, rd, rp, -s * z)
        alpha_p = max_step(s, ds_a)
        alpha_d = max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector step
        rc = -s * z - ds_a * dz_a + sigma * mu
        dx, ds, dz = newton_step(solve, rd, rp, rc)
        del solve  # free this factor before the next iteration builds its own
        alpha_p = 0.995 * max_step(s, ds)
        alpha_d = 0.995 * max_step(z, dz)

        x = x + alpha_p * dx
        s = s + alpha_p * ds
        z = z + alpha_d * dz

        # divergence of the duals with a stubborn primal residual certifies
        # (numerically) that no feasible point exists
        if res["primal"] > np.sqrt(QP_TOL) and float(np.max(z)) > 1e10 * (1.0 + mu):
            raise QpInfeasibleError(
                "dual iterates diverge while primal residual stalls",
                {"iterations": iteration, **res},
            )

    if res.get("primal", 1.0) > np.sqrt(QP_TOL) and float(np.max(z)) > 1e6:
        raise QpInfeasibleError(
            "no feasible point found", {"iterations": QP_MAX_ITER, **res}
        )
    raise QpConvergenceError(
        f"KKT tolerances not met in {QP_MAX_ITER} iterations",
        {"iterations": QP_MAX_ITER, **res},
    )


# ---------------------------------------------------------------------------
# truncated-Gaussian sampling
# ---------------------------------------------------------------------------


class InfeasibleStartError(RuntimeError):
    """HMC initial point does not strictly satisfy the constraints (a numerical failure)."""


@dataclass
class TruncatedGaussian:
    """Gaussian N(mean, root @ root.T) restricted to {x : a @ x >= b}.

    `root` is any nonsingular square root of the covariance, not necessarily
    triangular; the sampler forms root @ root.T once and draws each momentum
    as root @ xi, and never factors or solves against it.
    `a` may be dense or sparse and is held as CSR.
    """

    mean: np.ndarray
    root: np.ndarray
    a: sp.csr_matrix
    b: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.root = np.asarray(self.root, dtype=float)
        d = self.mean.size
        if self.root.shape != (d, d):
            raise ValueError("covariance root shape inconsistent with mean")
        self.a = sp.csr_matrix(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.a.shape != (self.b.size, d):
            raise ValueError("constraint system dimensions inconsistent")

    @property
    def dim(self) -> int:
        return self.mean.size


def chol_with_jitter(matrix: np.ndarray, label: str = "matrix") -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and the diagonal ridge it took, escalating on failure.

    The ridge is 0 when the matrix factors as given; otherwise it starts at
    1e-12 of the mean diagonal and escalates to 1e-8.  Applying it is logged
    so degenerate inputs are visible, and returned so callers can refuse it.
    """
    try:
        return np.linalg.cholesky(matrix), 0.0
    except np.linalg.LinAlgError:
        pass
    base = float(np.trace(matrix)) / matrix.shape[0]
    if base <= 0.0:
        base = 1.0
    for scale in (1e-12, 1e-10, 1e-8):
        jitter = scale * base
        try:
            factor = np.linalg.cholesky(matrix + jitter * np.eye(matrix.shape[0]))
        except np.linalg.LinAlgError:
            continue
        log.warning("%s required jitter %.1e to factorize", label, jitter)
        return factor, jitter
    raise np.linalg.LinAlgError(f"{label} is not positive definite even with jitter")


_MIN_HIT_TIME = 1e-9

# wall bounces one trajectory may take before it is restarted
MAX_BOUNCES = 50_000

# accepted moves discarded before the first returned sample
BURN_IN = 100

# consecutive trajectories restarted (knife edge, bounce limit, roundoff
# rejection) before the sampler gives up instead of looping forever
MAX_CONSECUTIVE_RESTARTS = 100


class SamplerStallError(RuntimeError):
    """Every one of MAX_CONSECUTIVE_RESTARTS trajectories in a row was restarted."""


def _wall_hit(f_a, f_b, g):
    """First positive time any wall f.x(t) + g = 0 is hit, x(t)=a sin t + b cos t.

    Only walls whose amplitude hypot(f_a, f_b) exceeds |g| can be reached, so
    the trig runs on those rows alone; a reachable wall always has a root
    past _MIN_HIT_TIME.  Returns (time, wall_index), or (inf, 0) when no wall
    is reachable.  Ties go to the lowest wall, and on one wall to the first
    root.
    """
    u = np.hypot(f_a, f_b)
    rows = np.flatnonzero(u > np.abs(g))
    if rows.size == 0:
        return np.inf, 0
    f_a, f_b = f_a[rows], f_b[rows]
    phi = np.arctan2(-f_a, f_b)
    acos = np.arccos(-g[rows] / u[rows])
    times = np.stack([acos - phi, -acos - phi], axis=1)
    times = np.where(times < 0.0, times + 2.0 * np.pi, times)
    times = np.where(times < _MIN_HIT_TIME, np.inf, times)
    flat = int(np.argmin(times))
    return float(times.flat[flat]), int(rows[flat // 2])


def _reflect(a: sp.csr_matrix, cov: np.ndarray, u_a, u_b, f_a, f_b, t_hit: float, wall: int):
    """State just after bouncing off `wall` at t_hit on u(t) = u_a sin t + u_b cos t.

    u is the deviation x - mean and cov = S S' the covariance.  The flow
    keeps v' cov^-1 v, so the bounce is the cov-orthogonal reflection across
    the wall's sparse row a_j,

        v_ref = v_hit - c cov a_j',   c = 2 (a_j v_hit) / (a_j cov a_j'),

    whose dots read only a_j's nonzeros.  Returns (velocity, position,
    A velocity, A position), the wall products in closed form from
    f_a = A u_a and f_b = A u_b:

        A u_new = sin t f_a + cos t f_b,
        A v_ref = cos t f_a - sin t f_b - c A (cov a_j').

    Returns None when the reflected velocity points into the wall, a
    numerical knife edge.
    """
    sin_t, cos_t = np.sin(t_hit), np.cos(t_hit)
    u_new = u_a * sin_t + u_b * cos_t
    v_hit = u_a * cos_t - u_b * sin_t
    lo, hi = a.indptr[wall], a.indptr[wall + 1]
    vals, cols = a.data[lo:hi], a.indices[lo:hi]
    cov_row = vals @ cov[cols]
    coef = 2.0 * (vals @ v_hit[cols]) / (vals @ cov_row[cols])
    v_ref = v_hit - coef * cov_row
    if vals @ v_ref[cols] < 0.0:
        return None
    f_v = cos_t * f_a - sin_t * f_b - coef * (a @ cov_row)
    return v_ref, u_new, f_v, sin_t * f_a + cos_t * f_b


def sample_truncated(
    tg: TruncatedGaussian,
    init: np.ndarray,
    n_samples: int,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Draw samples from a linearly constrained Gaussian by exact HMC.

    Every returned sample satisfies a @ x >= b; trajectories are reflected
    analytically at the walls and a move is rejected (momentum redrawn)
    in the rare event roundoff lands it outside the support, or after
    MAX_BOUNCES bounces.  After
    MAX_CONSECUTIVE_RESTARTS restarts in a row it raises SamplerStallError.
    The first BURN_IN accepted moves are discarded; zero samples take no
    move.  Fixed seed gives a bitwise-identical sample stream.

    Returns (samples, diagnostics): the (n_samples, d) block and the run's
    "bounces" (every wall bounce, burn-in included), "restarts" (every
    trajectory restarted) and "min_slack" (the least a @ x - b over the
    block, inf when it is empty).
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    d = tg.dim
    init = np.asarray(init, dtype=float).ravel()
    if init.size != d:
        raise ValueError("init dimension mismatch")

    slack = tg.a @ init - tg.b
    if np.min(slack) < 1e-12:
        raise InfeasibleStartError(
            f"initial point must be strictly feasible; min slack {np.min(slack):.3e}"
        )
    # in deviations u = x - mean the support is A u >= -g
    g = tg.a @ tg.mean - tg.b
    cov = tg.root @ tg.root.T
    u = init - tg.mean
    f_u = tg.a @ u
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, d))
    travel = 0.5 * np.pi

    kept = bounces = restarts = consecutive = 0
    total = BURN_IN + n_samples if n_samples else 0
    while kept < total:
        u_a = tg.root @ rng.standard_normal(d)   # the momentum, N(0, cov)
        u_b = u
        remaining = travel
        ok = True
        # exact products at the start; closed-form updates per bounce
        f_a = tg.a @ u_a
        f_b = f_u
        for _ in range(MAX_BOUNCES):
            t_hit, wall = _wall_hit(f_a, f_b, g)
            if t_hit >= remaining:
                break
            bounced = _reflect(tg.a, cov, u_a, u_b, f_a, f_b, t_hit, wall)
            if bounced is None:
                # reflected velocity points into the wall: restart the
                # trajectory with fresh momentum
                ok = False
                break
            u_a, u_b, f_a, f_b = bounced
            remaining -= t_hit
            bounces += 1
        else:
            ok = False
        if ok:
            u_new = u_a * np.sin(remaining) + u_b * np.cos(remaining)
            f_new = tg.a @ u_new
            ok = not np.min(f_new + g) < 0.0  # roundoff violation: redraw
        if not ok:
            restarts += 1
            consecutive += 1
            if consecutive >= MAX_CONSECUTIVE_RESTARTS:
                raise SamplerStallError(
                    f"{consecutive} consecutive HMC trajectories restarted after "
                    f"{kept} accepted draws"
                )
            continue
        consecutive = 0
        u, f_u = u_new, f_new
        if kept >= BURN_IN:
            out[kept - BURN_IN] = tg.mean + u
        kept += 1

    # hard support assertion on the returned block
    worst = float(np.min(tg.a @ out.T - tg.b[:, None], initial=np.inf))
    if worst < 0.0:
        raise RuntimeError(f"sampler produced an infeasible sample, slack {worst:.3e}")
    return out, {"bounces": bounces, "restarts": restarts, "min_slack": worst}
