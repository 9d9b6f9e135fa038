import faulthandler
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from volsurf import constrained_sampling
from volsurf.constrained_sampling import (
    InfeasibleStartError,
    QpConvergenceError,
    QpInfeasibleError,
    QuadProgram,
    SamplerStallError,
    TruncatedGaussian,
    _reflect,
    _wall_hit,
    _Walls,
    chol_with_jitter,
    sample_truncated,
    solve_qp,
)

from oracles import (
    all_walls_hit,
    brute_force_qp,
    qp_objective,
    random_feasible_qp,
    truncated_standard_normal_mean,
)


class TestQuadProgram:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadProgram(q=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            QuadProgram(q=np.eye(2), c=np.zeros(2), a_ineq=np.ones((1, 3)), b_ineq=[0.0])


class TestSolveQp:
    def test_active_constraint(self):
        # min x^2 s.t. x >= 1  ->  x* = 1
        p = QuadProgram(q=[[2.0]], c=[0.0], a_ineq=[[1.0]], b_ineq=[1.0])
        res = solve_qp(p)
        assert res.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_inactive_constraint(self):
        # min (x-2)^2 s.t. x >= 1  ->  x* = 2, multiplier 0
        p = QuadProgram(q=[[2.0]], c=[-4.0], a_ineq=[[1.0]], b_ineq=[1.0])
        res = solve_qp(p)
        assert res.x[0] == pytest.approx(2.0, abs=1e-7)
        assert res.z[0] == pytest.approx(0.0, abs=1e-6)

    def test_kkt_by_hand(self):
        # min x^2 + y^2 s.t. x + y >= 2  ->  (1, 1)
        p = QuadProgram(q=2.0 * np.eye(2), c=np.zeros(2), a_ineq=[[1.0, 1.0]], b_ineq=[2.0])
        res = solve_qp(p)
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_equality_constraint(self):
        # min x^2 + y^2 s.t. x + y = 3, x >= 2  ->  (2, 1)
        p = QuadProgram(
            q=2.0 * np.eye(2),
            c=np.zeros(2),
            a_ineq=[[1.0, 0.0]],
            b_ineq=[2.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[3.0],
        )
        res = solve_qp(p)
        assert res.x == pytest.approx([2.0, 1.0], abs=1e-6)

    def test_equality_only(self):
        p = QuadProgram(q=2.0 * np.eye(2), c=np.zeros(2), a_eq=[[1.0, 1.0]], b_eq=[2.0])
        res = solve_qp(p)
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_kkt_residuals_reported(self):
        p = QuadProgram(q=[[2.0]], c=[0.0], a_ineq=[[1.0]], b_ineq=[1.0])
        res = solve_qp(p, tol=1e-10)
        for key in ("stationarity", "primal", "dual", "complementarity"):
            assert res.kkt[key] <= 1e-10

    def test_sparse_inequalities(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        p = QuadProgram(q=2.0 * np.eye(2), c=[-2.0, -2.0], a_ineq=a, b_ineq=[0.0, 0.0, 1.5])
        res = solve_qp(p)
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_matches_brute_force_on_random_qps(self):
        rng = np.random.default_rng(123)
        solved = 0
        for _ in range(60):
            q, c, a, b = random_feasible_qp(rng)
            x_ref, val_ref = brute_force_qp(q, c, a, b)
            if x_ref is None:
                continue
            res = solve_qp(QuadProgram(q=q, c=c, a_ineq=a, b_ineq=b))
            assert qp_objective(q, c, res.x) == pytest.approx(val_ref, abs=1e-6)
            assert np.min(a @ res.x - b) >= -1e-7
            solved += 1
        assert solved >= 50

    def test_solution_beats_random_feasible_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q, c, a, b = random_feasible_qp(rng)
            prob = QuadProgram(q=q, c=c, a_ineq=a, b_ineq=b)
            res = solve_qp(prob)
            opt = qp_objective(q, c, res.x)
            # rejection-sample feasible points
            found = 0
            for _ in range(2000):
                x = rng.standard_normal(prob.dim) * 3.0
                if np.min(a @ x - b) >= 0.0:
                    assert opt <= qp_objective(q, c, x) + 1e-7
                    found += 1
                    if found >= 20:
                        break

    def test_one_factorization_per_iteration(self, monkeypatch):
        # predictor and corrector share the normal-matrix factor
        factored = []
        real = sla.cho_factor

        def counting(*args, **kwargs):
            factored.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "cho_factor", counting)
        rng = np.random.default_rng(5)
        q, c, a, b = random_feasible_qp(rng, d_max=6, m_max=10)
        res = solve_qp(QuadProgram(q=q, c=c, a_ineq=a, b_ineq=b))
        assert res.iterations >= 3
        assert len(factored) == res.iterations

    def test_infeasible_detected(self):
        # x >= 1 and -x >= 0 cannot both hold
        p = QuadProgram(
            q=[[2.0]], c=[0.0], a_ineq=[[1.0], [-1.0]], b_ineq=[1.0, 0.0]
        )
        with pytest.raises((QpInfeasibleError, QpConvergenceError)) as err:
            solve_qp(p, max_iter=60)
        assert "iterations" in err.value.diagnostics


class TestCholWithJitter:
    def test_plain_spd(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        root = chol_with_jitter(m)
        assert root @ root.T == pytest.approx(m)

    def test_degenerate_gets_ridge(self, caplog):
        m = np.ones((3, 3))  # rank one
        with caplog.at_level("WARNING"):
            root = chol_with_jitter(m)
        assert np.all(np.isfinite(root))
        assert any("jitter" in r.message for r in caplog.records)


class TestSampleTruncated:
    def test_half_line_mean(self):
        tg = TruncatedGaussian(mean=[0.0], covariance=[[1.0]], a=[[1.0]], b=[0.0])
        samples = sample_truncated(tg, init=np.array([0.5]), n_samples=10_000, seed=42)
        assert np.min(samples) >= 0.0
        target = truncated_standard_normal_mean()
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - target) < 3.0 * stderr

    def test_unconstrained_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        tg = TruncatedGaussian(mean=[1.0, -2.0], covariance=cov)
        samples = sample_truncated(tg, init=np.array([1.0, -2.0]), n_samples=20_000, seed=3)
        est = np.cov(samples.T)
        assert est == pytest.approx(cov, abs=0.08)
        assert samples.mean(axis=0) == pytest.approx([1.0, -2.0], abs=0.05)

    def test_far_tail_support(self):
        tg = TruncatedGaussian(
            mean=[0.0, 0.0],
            covariance=np.eye(2),
            a=[[1.0, 0.0]],
            b=[5.0],
        )
        samples = sample_truncated(tg, init=np.array([5.5, 0.0]), n_samples=2_000, seed=9)
        assert np.min(samples[:, 0]) >= 5.0

    def test_deterministic_given_seed(self):
        tg = TruncatedGaussian(mean=[0.0], covariance=[[1.0]], a=[[1.0]], b=[0.0])
        s1 = sample_truncated(tg, init=np.array([1.0]), n_samples=500, seed=11)
        s2 = sample_truncated(tg, init=np.array([1.0]), n_samples=500, seed=11)
        assert np.array_equal(s1, s2)

    def test_infeasible_init_rejected(self):
        tg = TruncatedGaussian(mean=[0.0], covariance=[[1.0]], a=[[1.0]], b=[0.0])
        with pytest.raises(InfeasibleStartError):
            sample_truncated(tg, init=np.array([-0.5]), n_samples=10)
        with pytest.raises(InfeasibleStartError):
            sample_truncated(tg, init=np.array([0.0]), n_samples=10)  # on the wall

    def test_box_constraints(self):
        # unit box around a mean outside the box
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([0.0, -1.0, 0.0, -1.0])
        tg = TruncatedGaussian(mean=[1.5, 0.5], covariance=0.25 * np.eye(2), a=a, b=b)
        samples = sample_truncated(tg, init=np.array([0.5, 0.5]), n_samples=4_000, seed=1)
        assert np.min(a @ samples.T - b[:, None]) >= 0.0
        # mass should pile against the x=1 wall
        assert samples[:, 0].mean() > 0.6

    def test_near_singular_covariance_sampled(self):
        # rank-deficient direction handled by the jitter policy
        cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        tg = TruncatedGaussian(mean=[0.0, 0.0], covariance=cov, a=[[1.0, 0.0]], b=[0.0])
        samples = sample_truncated(tg, init=np.array([1.0, 1.0]), n_samples=200, seed=5)
        assert np.min(samples[:, 0]) >= 0.0


def _shape_rows(n_t=4, n_k=6):
    """Monotone/convex/nonnegative rows of an n_t x n_k node grid, like the GP's."""
    rows = []
    idx = lambda i, j: i * n_k + j  # noqa: E731
    for i in range(n_t - 1):
        for j in range(n_k):
            rows.append({idx(i + 1, j): 1.0, idx(i, j): -1.0})
    for i in range(n_t):
        for j in range(n_k - 2):
            rows.append({idx(i, j + 2): 1.0, idx(i, j + 1): -2.0, idx(i, j): 1.0})
    for n in range(n_t * n_k):
        rows.append({n: 1.0})
    a = np.zeros((len(rows), n_t * n_k))
    for r, row in enumerate(rows):
        for col, val in row.items():
            a[r, col] = val
    return a


class TestClosedFormBounces:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_products_track_exact_after_many_bounces(self, sparse):
        rng = np.random.default_rng(17)
        a_dense = _shape_rows()
        d = a_dense.shape[1]
        half = rng.standard_normal((d, d))
        root = np.linalg.cholesky(half @ half.T / d + 0.1 * np.eye(d))
        z = rng.standard_normal(d)
        g = -(a_dense @ (root @ z)) + rng.uniform(0.05, 0.5, a_dense.shape[0])
        walls = _Walls(sp.csr_matrix(a_dense) if sparse else a_dense, root)

        a_vec, b_vec = rng.standard_normal(d), z
        f_a, f_b = walls.products(a_vec), walls.products(b_vec)
        bounces = 0
        while bounces < 40:
            t_hit, wall = _wall_hit(f_a, f_b, g)
            assert np.isfinite(t_hit)
            bounced = _reflect(walls, a_vec, b_vec, f_a, f_b, t_hit, wall)
            assert bounced is not None
            a_vec, b_vec, f_a, f_b = bounced
            bounces += 1
        for closed, vec in ((f_a, a_vec), (f_b, b_vec)):
            exact = a_dense @ (root @ vec)
            assert np.max(np.abs(closed - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_reflection_preserves_energy_and_flips_wall_velocity(self):
        rng = np.random.default_rng(2)
        a_dense = _shape_rows(3, 4)
        d = a_dense.shape[1]
        root = np.linalg.cholesky(np.eye(d) + 0.3 * np.ones((d, d)))
        z = rng.standard_normal(d)
        g = -(a_dense @ (root @ z)) + 0.2
        walls = _Walls(a_dense, root)
        a_vec = rng.standard_normal(d)
        t_hit, wall = _wall_hit(walls.products(a_vec), walls.products(z), g)
        v_ref, b_new, f_v, f_b = _reflect(
            walls, a_vec, z, walls.products(a_vec), walls.products(z), t_hit, wall
        )
        v_hit = a_vec * np.cos(t_hit) - z * np.sin(t_hit)
        assert v_ref @ v_ref == pytest.approx(v_hit @ v_hit, rel=1e-12)
        row = root.T @ a_dense[wall]
        assert v_ref @ row == pytest.approx(-(v_hit @ row), rel=1e-9)
        assert f_b[wall] + g[wall] == pytest.approx(0.0, abs=1e-9)


class TestWallHit:
    def test_matches_all_walls_reference(self):
        rng = np.random.default_rng(8)
        for case in range(400):
            m = int(rng.integers(1, 30))
            f_a = rng.standard_normal(m) * rng.uniform(0.1, 3.0)
            f_b = rng.standard_normal(m)
            g = rng.uniform(-0.5, 3.0, m)
            if case % 5 == 0:
                f_a, f_b = np.round(f_a, 1), np.round(f_b, 1)   # ties between walls
            if case % 7 == 0:
                f_a[rng.integers(0, m)] = 0.0
            assert _wall_hit(f_a, f_b, g) == all_walls_hit(f_a, f_b, g)

    def test_duplicate_walls_pick_the_first(self):
        f_a = np.array([0.1, 2.0, 2.0, 2.0])
        f_b = np.array([0.0, -1.0, -1.0, -1.0])
        g = np.array([5.0, 1.5, 1.5, 1.5])
        t_hit, row = _wall_hit(f_a, f_b, g)
        assert (t_hit, row) == all_walls_hit(f_a, f_b, g)
        assert row == 1 and np.isfinite(t_hit)

    def test_nothing_reachable(self):
        f_a = np.array([0.1, 0.2, 0.0])
        f_b = np.array([0.0, 0.1, 0.0])
        g = np.array([1.0, 1.0, 0.0])
        assert _wall_hit(f_a, f_b, g) == (np.inf, 0) == all_walls_hit(f_a, f_b, g)


class TestSamplerStall:
    @pytest.fixture
    def hang_guard(self):
        # a regression here would loop forever: dump the stacks and exit
        faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_no_bounce_budget_stalls_instead_of_looping(self, hang_guard):
        tg = TruncatedGaussian(mean=[0.0], covariance=[[1.0]], a=[[1.0]], b=[0.0])
        with pytest.raises(SamplerStallError, match="consecutive"):
            sample_truncated(tg, init=np.array([0.5]), n_samples=5, seed=0, max_bounces=0)

    def test_restart_count_resets_after_a_draw(self, monkeypatch, hang_guard):
        # four forced knife edges, never three in a row: sampling completes
        monkeypatch.setattr(constrained_sampling, "MAX_CONSECUTIVE_RESTARTS", 3)
        calls = []

        def flaky(*args):
            calls.append(1)
            if len(calls) in (1, 2, 21, 22):
                return None
            return _reflect(*args)

        monkeypatch.setattr(constrained_sampling, "_reflect", flaky)
        tg = TruncatedGaussian(mean=[0.0, 0.0], covariance=np.eye(2),
                               a=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0])
        samples = sample_truncated(tg, init=np.array([0.5, 0.5]), n_samples=100, seed=4)
        assert len(calls) > 22
        assert samples.min() >= 0.0
