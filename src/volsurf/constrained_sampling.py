"""Generic constrained numerical kernels.

Two independent tools live here:

* ``solve_qp`` — a primal-dual interior-point solver (Mehrotra
  predictor-corrector) for convex quadratic programs with linear
  inequality and optional equality constraints,

      min 1/2 x'Qx + c'x   s.t.  A_ineq x >= b_ineq,  A_eq x = b_eq.

* ``sample_truncated`` — exact Hamiltonian Monte Carlo for multivariate
  Gaussians restricted to a polyhedron {x : A x >= b}.  The Hamiltonian flow
  of a whitened Gaussian is harmonic, so trajectories are followed
  analytically and wall hits are reflected exactly; no step size exists to
  tune and no sample ever leaves the support.

  With m walls, d dimensions and covariance root L, the whitened walls
  F = A L are never formed.  A trajectory starts from exact products
  F v = A (L v), one O(d^2) matvec with L and one O(nnz(A)) sparse
  product, and ends with one more for its exact feasibility check.  A
  bounce in between costs O(m + d + nnz(A)): the hit search evaluates the
  trig on reachable walls only, and the products of the new position and
  velocity follow in closed form from the old ones plus A (L L' a_j') for
  the wall's sparse row a_j.  A dense F costs two O(m d) matvecs per
  bounce instead.
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


class QpError(RuntimeError):
    """Base class for QP failures; carries the last iterate diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class QpInfeasibleError(QpError):
    """The constraint system admits no feasible point."""


class QpConvergenceError(QpError):
    """Iteration limit reached before the KKT tolerances were met."""


def _as_dense(a):
    if a is None:
        return None
    if sp.issparse(a):
        return a
    return np.atleast_2d(np.asarray(a, dtype=float))


@dataclass
class QuadProgram:
    """Convex QP data. Inequalities are `a_ineq @ x >= b_ineq`."""

    q: np.ndarray
    c: np.ndarray
    a_ineq: object = None
    b_ineq: np.ndarray | None = None
    a_eq: object = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.c = np.asarray(self.c, dtype=float).ravel()
        d = self.c.size
        if self.q.shape != (d, d):
            raise ValueError(f"Q must be {d}x{d}, got {self.q.shape}")
        sym_gap = np.max(np.abs(self.q - self.q.T)) if d else 0.0
        if sym_gap > 1e-12 * max(1.0, float(np.max(np.abs(self.q)))):
            raise ValueError(f"Q must be symmetric, asymmetry {sym_gap:.2e}")
        self.a_ineq = _as_dense(self.a_ineq)
        self.a_eq = _as_dense(self.a_eq)
        self.b_ineq = (
            np.zeros(0) if self.b_ineq is None else np.asarray(self.b_ineq, dtype=float).ravel()
        )
        self.b_eq = (
            np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        )
        if self.a_ineq is not None and self.a_ineq.shape != (self.b_ineq.size, d):
            raise ValueError("inequality system dimensions inconsistent")
        if self.a_eq is not None and self.a_eq.shape != (self.b_eq.size, d):
            raise ValueError("equality system dimensions inconsistent")

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def n_ineq(self) -> int:
        return self.b_ineq.size

    @property
    def n_eq(self) -> int:
        return self.b_eq.size


@dataclass
class QpResult:
    x: np.ndarray
    z: np.ndarray          # inequality multipliers, z >= 0
    nu: np.ndarray         # equality multipliers
    iterations: int
    kkt: dict = field(default_factory=dict)

    @property
    def diagnostics(self) -> dict:
        return {"iterations": self.iterations, **self.kkt}


def _kkt_residuals(p: QuadProgram, x, z, nu) -> dict:
    scale = 1.0 + float(np.max(np.abs(p.c), initial=0.0))
    grad = p.q @ x + p.c
    if p.n_ineq:
        grad = grad - p.a_ineq.T @ z
        slack = p.a_ineq @ x - p.b_ineq
        primal = float(max(0.0, -np.min(slack)))
        comp = float(np.max(np.abs(slack * z)))
    else:
        primal, comp = 0.0, 0.0
    if p.n_eq:
        grad = grad + p.a_eq.T @ nu
        primal = max(primal, float(np.max(np.abs(p.a_eq @ x - p.b_eq))))
    return {
        "stationarity": float(np.max(np.abs(grad))) / scale,
        "primal": primal / (1.0 + float(np.max(np.abs(p.b_ineq), initial=0.0))),
        "dual": float(max(0.0, -np.min(z, initial=0.0))),
        "complementarity": comp / scale,
    }


def solve_qp(p: QuadProgram, tol: float = 1e-8, max_iter: int = 100) -> QpResult:
    """Solve a convex QP to the requested KKT tolerance.

    Implements an infeasible-start Mehrotra predictor-corrector method on the
    normal-equation form: each iteration factors Q + A' (Z/S) A (bordered by
    the equality block when present).  Raises QpInfeasibleError when the
    iterates certify an empty feasible region, QpConvergenceError on an
    iteration-limit hit; both carry residual diagnostics.
    """
    d, m, n_eq = p.dim, p.n_ineq, p.n_eq
    a = p.a_ineq
    g = _as_dense(p.a_eq)
    g_dense = g.toarray() if sp.issparse(g) else g

    if m == 0:
        # equality-constrained (or unconstrained) QP: one KKT solve
        kkt = np.zeros((d + n_eq, d + n_eq))
        kkt[:d, :d] = p.q
        if n_eq:
            kkt[:d, d:] = g_dense.T
            kkt[d:, :d] = g_dense
        rhs = np.concatenate([-p.c, p.b_eq])
        try:
            sol = sla.solve(kkt, rhs, assume_a="sym")
        except sla.LinAlgError as exc:
            raise QpError(f"singular KKT system: {exc}") from exc
        x, nu = sol[:d], sol[d:]
        res = _kkt_residuals(p, x, np.zeros(0), nu)
        return QpResult(x=x, z=np.zeros(0), nu=nu, iterations=1, kkt=res)

    x = np.zeros(d)
    slack_raw = np.asarray(a @ x).ravel() - p.b_ineq
    s = np.maximum(slack_raw, 1.0)
    z = np.ones(m)
    nu = np.zeros(n_eq)

    def factor(w):
        """Build Q + A' W A (bordered by the equality block) and factor it once.

        Returns solve(rhs_x, re) -> (dx, dnu); the predictor and corrector
        steps of one iteration share it.
        """
        if sp.issparse(a):
            awa = (a.T @ sp.diags(w) @ a).toarray()
        else:
            awa = a.T @ (w[:, None] * a)
        h = p.q + awa
        if n_eq:
            kkt = np.zeros((d + n_eq, d + n_eq))
            kkt[:d, :d] = h
            kkt[:d, d:] = g_dense.T
            kkt[d:, :d] = g_dense

            def solve_bordered(rhs_x, re):
                sol = sla.solve(kkt, np.concatenate([rhs_x, -re]), assume_a="sym")
                return sol[:d], sol[d:]

            return solve_bordered
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
        return lambda rhs_x, re: (sla.cho_solve(cf, rhs_x, check_finite=False), np.zeros(0))

    def newton_step(solve, rd, rp, re, rc):
        """Solve the reduced Newton system for (dx, dnu); back out (ds, dz).

        rp is the true primal residual A x - s - b; rc the complementarity
        target in Z ds + S dz = rc.
        """
        rhs_x = -rd + a.T @ ((rc - z * rp) / s)
        dx, dnu = solve(rhs_x, re)
        ds = np.asarray(a @ dx).ravel() + rp
        dz = (rc - z * ds) / s
        return dx, ds, dz, dnu

    def max_step(v, dv):
        neg = dv < 0.0
        if not np.any(neg):
            return 1.0
        return float(min(1.0, np.min(-v[neg] / dv[neg])))

    res = {}
    for iteration in range(1, max_iter + 1):
        rd = p.q @ x + p.c - np.asarray(a.T @ z).ravel() + (g_dense.T @ nu if n_eq else 0.0)
        rp = np.asarray(a @ x).ravel() - s - p.b_ineq
        re = (g_dense @ x - p.b_eq) if n_eq else np.zeros(0)
        mu = float(s @ z) / m

        res = _kkt_residuals(p, x, z, nu)
        if (
            res["stationarity"] <= tol
            and res["primal"] <= tol
            and res["complementarity"] <= tol
        ):
            return QpResult(x=x, z=z, nu=nu, iterations=iteration - 1, kkt=res)

        solve = factor(z / s)
        # predictor (affine) step
        dx_a, ds_a, dz_a, dnu_a = newton_step(solve, rd, rp, re, -s * z)
        alpha_p = max_step(s, ds_a)
        alpha_d = max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector step
        rc = -s * z - ds_a * dz_a + sigma * mu
        dx, ds, dz, dnu = newton_step(solve, rd, rp, re, rc)
        del solve  # free this factor before the next iteration builds its own
        alpha_p = 0.995 * max_step(s, ds)
        alpha_d = 0.995 * max_step(z, dz)

        x = x + alpha_p * dx
        s = s + alpha_p * ds
        z = z + alpha_d * dz
        if n_eq:
            nu = nu + alpha_d * dnu

        # divergence of the duals with a stubborn primal residual certifies
        # (numerically) that no feasible point exists
        if res["primal"] > np.sqrt(tol) and float(np.max(z)) > 1e10 * (1.0 + mu):
            raise QpInfeasibleError(
                "dual iterates diverge while primal residual stalls",
                {"iterations": iteration, **res},
            )

    if res.get("primal", 1.0) > np.sqrt(tol) and float(np.max(z)) > 1e6:
        raise QpInfeasibleError(
            "no feasible point found", {"iterations": max_iter, **res}
        )
    raise QpConvergenceError(
        f"KKT tolerances not met in {max_iter} iterations",
        {"iterations": max_iter, **res},
    )


# ---------------------------------------------------------------------------
# truncated-Gaussian sampling
# ---------------------------------------------------------------------------


class InfeasibleStartError(ValueError):
    """HMC initial point does not strictly satisfy the constraints."""


@dataclass
class TruncatedGaussian:
    """Gaussian N(mean, covariance) restricted to {x : a @ x >= b}."""

    mean: np.ndarray
    covariance: np.ndarray
    a: object = None
    b: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.covariance = np.asarray(self.covariance, dtype=float)
        d = self.mean.size
        if self.covariance.shape != (d, d):
            raise ValueError("covariance shape inconsistent with mean")
        if np.max(np.abs(self.covariance - self.covariance.T)) > 1e-10 * max(
            1.0, float(np.max(np.abs(self.covariance)))
        ):
            raise ValueError("covariance must be symmetric")
        if self.a is not None:
            self.a = self.a if sp.issparse(self.a) else np.atleast_2d(np.asarray(self.a, float))
            self.b = np.asarray(self.b, dtype=float).ravel()
            if self.a.shape[0] != self.b.size or self.a.shape[1] != d:
                raise ValueError("constraint system dimensions inconsistent")

    @property
    def dim(self) -> int:
        return self.mean.size


def chol_with_jitter(matrix: np.ndarray, label: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, escalating a diagonal ridge on failure.

    The ridge starts at 1e-12 of the mean diagonal and escalates to 1e-8;
    applying it is logged so degenerate inputs are visible.
    """
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    base = float(np.trace(matrix)) / matrix.shape[0]
    if base <= 0.0:
        base = 1.0
    for scale in (1e-12, 1e-10, 1e-8):
        try:
            factor = np.linalg.cholesky(matrix + scale * base * np.eye(matrix.shape[0]))
            log.warning("%s required jitter %.1e to factorize", label, scale * base)
            return factor
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(f"{label} is not positive definite even with jitter")


_MIN_HIT_TIME = 1e-9

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


class _Walls:
    """The whitened walls f = A L of a support f z >= -g, never formed.

    A product f v costs one dense matvec with L and one sparse matvec with
    A.  Wall j's row f_j = L' a_j' combines the rows of L picked by the (at
    most three, for the GP shape rules) nonzeros of a_j, and
    f f_j' = A (L L') a_j' combines as many rows of the cached L L'.
    L L' rather than the covariance keeps these identities exact when the
    factorization needed a jitter ridge.
    """

    def __init__(self, a, root: np.ndarray):
        self.a = sp.csr_matrix(a)
        self.root = root
        self.root_outer = root @ root.T

    def products(self, v: np.ndarray) -> np.ndarray:
        """f v = A (L v)."""
        return self.a @ (self.root @ v)

    def _nonzeros(self, j: int):
        lo, hi = self.a.indptr[j], self.a.indptr[j + 1]
        return self.a.data[lo:hi], self.a.indices[lo:hi]

    def row(self, j: int) -> np.ndarray:
        """f_j = L' a_j'."""
        vals, cols = self._nonzeros(j)
        return vals @ self.root[cols]

    def row_products(self, j: int) -> np.ndarray:
        """f f_j' = A (L L' a_j')."""
        vals, cols = self._nonzeros(j)
        return self.a @ (vals @ self.root_outer[cols])


def _reflect(walls: _Walls, a_vec, b_vec, f_a, f_b, t_hit: float, wall: int):
    """State just after bouncing off `wall` at t_hit on x(t) = a sin t + b cos t.

    Returns (velocity, position, f velocity, f position), the wall products
    in closed form from f_a = f a and f_b = f b:

        f b_new = sin t f_a + cos t f_b,
        f v_ref = cos t f_a - sin t f_b - c f f_j',   v_ref = v_hit - c f_j.

    Returns None when the reflected velocity points into the wall, a
    numerical knife edge.
    """
    sin_t, cos_t = np.sin(t_hit), np.cos(t_hit)
    b_new = a_vec * sin_t + b_vec * cos_t
    v_hit = a_vec * cos_t - b_vec * sin_t
    row = walls.row(wall)
    coef = 2.0 * (row @ v_hit) / (row @ row)
    v_ref = v_hit - coef * row
    if v_ref @ row < 0.0:
        return None
    f_v = cos_t * f_a - sin_t * f_b - coef * walls.row_products(wall)
    return v_ref, b_new, f_v, sin_t * f_a + cos_t * f_b


def sample_truncated(
    tg: TruncatedGaussian,
    init: np.ndarray,
    n_samples: int,
    seed: int = 0,
    burn_in: int = 100,
    max_bounces: int = 50_000,
) -> np.ndarray:
    """Draw samples from a linearly constrained Gaussian by exact HMC.

    Every returned sample satisfies a @ x >= b; trajectories are reflected
    analytically at the walls and a move is rejected (momentum redrawn)
    in the rare event roundoff lands it outside the support.  After
    MAX_CONSECUTIVE_RESTARTS restarts in a row it raises SamplerStallError.
    Fixed seed gives a bitwise-identical sample stream.
    """
    d = tg.dim
    init = np.asarray(init, dtype=float).ravel()
    if init.size != d:
        raise ValueError("init dimension mismatch")

    root = chol_with_jitter(tg.covariance, "covariance")
    constrained = tg.a is not None and tg.a.shape[0] > 0
    if constrained:
        slack = np.asarray(tg.a @ init).ravel() - tg.b
        if np.min(slack) < 1e-12:
            raise InfeasibleStartError(
                f"initial point must be strictly feasible; min slack {np.min(slack):.3e}"
            )
        # whiten: x = mean + root z, so the support becomes f z >= -g
        g = np.asarray(tg.a @ tg.mean).ravel() - tg.b
        walls = _Walls(tg.a, root)

    z = sla.solve_triangular(root, init - tg.mean, lower=True, check_finite=False)
    f_z = walls.products(z) if constrained else None
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, d))
    travel = 0.5 * np.pi

    kept = 0
    restarts = 0
    total = burn_in + n_samples
    while kept < total:
        velocity = rng.standard_normal(d)
        a_vec = velocity
        b_vec = z
        remaining = travel
        ok = True
        if constrained:
            # exact products at the start; closed-form updates per bounce
            f_a = walls.products(a_vec)
            f_b = f_z
            for _ in range(max_bounces):
                t_hit, wall = _wall_hit(f_a, f_b, g)
                if t_hit >= remaining:
                    break
                bounced = _reflect(walls, a_vec, b_vec, f_a, f_b, t_hit, wall)
                if bounced is None:
                    # reflected velocity points into the wall: restart the
                    # trajectory with fresh momentum
                    ok = False
                    break
                a_vec, b_vec, f_a, f_b = bounced
                remaining -= t_hit
            else:
                ok = False
        if ok:
            z_new = a_vec * np.sin(remaining) + b_vec * np.cos(remaining)
            deviation = root @ z_new
            if constrained:
                f_z_new = walls.a @ deviation
                ok = not np.min(f_z_new + g) < 0.0  # roundoff violation: redraw
        if not ok:
            restarts += 1
            if restarts >= MAX_CONSECUTIVE_RESTARTS:
                raise SamplerStallError(
                    f"{restarts} consecutive HMC trajectories restarted after "
                    f"{kept} accepted draws"
                )
            continue
        restarts = 0
        z = z_new
        if constrained:
            f_z = f_z_new
        if kept >= burn_in:
            out[kept - burn_in] = tg.mean + deviation
        kept += 1

    if constrained:
        # hard support assertion on the returned block
        final_slack = np.asarray(tg.a @ out.T) - tg.b[:, None]
        worst = float(np.min(final_slack))
        if worst < 0.0:
            raise RuntimeError(f"sampler produced an infeasible sample, slack {worst:.3e}")
    return out
