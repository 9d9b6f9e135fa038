import faulthandler
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volsurf import constrained_sampling
from volsurf.constrained_sampling import (
    InfeasibleStartError,
    KroneckerQuadProgram,
    QpConvergenceError,
    QpInfeasibleError,
    QuadProgram,
    SamplerStallError,
    TruncatedGaussian,
    _reflect,
    _wall_hit,
    chol_with_jitter,
    sample_truncated,
    solve_qp,
)

from oracles import (
    all_walls_hit,
    brute_force_qp,
    qp_objective,
    random_feasible_qp,
    shape_rows,
    truncated_standard_normal_mean,
)


class TestQuadProgram:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadProgram(q=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2),
                        a_ineq=np.ones((1, 2)), b_ineq=[0.0])

    @pytest.mark.parametrize("rows, error, message", [
        ({}, TypeError, "a_ineq"),
        ({"a_ineq": np.zeros((0, 2)), "b_ineq": []}, ValueError, "inequality row"),
    ], ids=["none", "empty"])
    def test_requires_inequality_rows(self, rows, error, message):
        with pytest.raises(error, match=message):
            QuadProgram(q=np.eye(2), c=np.zeros(2), **rows)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            QuadProgram(q=np.eye(2), c=np.zeros(2), a_ineq=np.ones((1, 3)), b_ineq=[0.0])


@st.composite
def feasible_qps(draw, d_max=4, m_max=6):
    """A strictly convex QP whose rows all keep slack >= 0.1 at a drawn witness point.

    Entries are halves in [-3, 3], so zero rows, repeated rows and ties are
    drawn as often as generic ones.
    """
    d = draw(st.integers(1, d_max))
    m = draw(st.integers(1, m_max))

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size)),
                        dtype=float).reshape(shape) / 2.0

    half = array(d, d)
    q = half @ half.T + 0.5 * np.eye(d)
    a = array(m, d)
    margin = np.array(draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]),
                                    min_size=m, max_size=m)))
    return q, array(d), a, a @ array(d) - margin


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

    def test_kkt_residuals_reported(self, monkeypatch):
        p = QuadProgram(q=[[2.0]], c=[0.0], a_ineq=[[1.0]], b_ineq=[1.0])
        monkeypatch.setattr(constrained_sampling, "QP_TOL", 1e-10)
        res = solve_qp(p)
        for key in ("stationarity", "primal", "dual", "complementarity"):
            assert res.kkt[key] <= 1e-10

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

    @settings(max_examples=200, deadline=None)
    @given(feasible_qps())
    def test_matches_brute_force_on_drawn_qps(self, problem):
        q, c, a, b = problem
        x_ref, val_ref = brute_force_qp(q, c, a, b)
        assume(x_ref is not None)
        res = solve_qp(QuadProgram(q=q, c=c, a_ineq=a, b_ineq=b))
        assert qp_objective(q, c, res.x) == pytest.approx(val_ref, abs=1e-6 * (1.0 + abs(val_ref)))
        assert np.min(a @ res.x - b) >= -1e-7

    @pytest.mark.xfail(
        strict=True, raises=QpConvergenceError,
        reason="ROADMAP item 1a: separate primal and dual step lengths cycle on these QPs",
    )
    @pytest.mark.parametrize("q, c, a, b, x_star", [
        # min 1.375 x^2 s.t. x >= -0.1 and, twice, -2x >= -0.1  ->  x* = 0
        pytest.param([[2.75]], [0.0], [[1.0], [-2.0], [-2.0]], [-0.1] * 3, 0.0, id="qp-one"),
        # min 0.75 x^2 - 3x s.t. x >= 1.9, -2.5x >= -5.1, 0.5x >= 0.5  ->  x* = 2
        pytest.param([[1.5]], [-3.0], [[1.0], [-2.5], [0.5]], [1.9, -5.1, 0.5], 2.0,
                     id="qp-two"),
    ])
    def test_cycling_qp_converges(self, q, c, a, b, x_star):
        res = solve_qp(QuadProgram(q=q, c=c, a_ineq=a, b_ineq=b))
        assert res.x[0] == pytest.approx(x_star, abs=1e-7)

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

    def test_infeasible_detected(self, monkeypatch):
        # x >= 1 and -x >= 0 cannot both hold
        p = QuadProgram(
            q=[[2.0]], c=[0.0], a_ineq=[[1.0], [-1.0]], b_ineq=[1.0, 0.0]
        )
        monkeypatch.setattr(constrained_sampling, "QP_MAX_ITER", 60)
        with pytest.raises((QpInfeasibleError, QpConvergenceError)) as err:
            solve_qp(p)
        assert "iterations" in err.value.diagnostics


@st.composite
def kronecker_rows(draw):
    """Shape rows A on an n_t x n_k node grid, two correlation roots, a scale and row weights.

    The roots are Cholesky factors of exponential correlations with drawn
    length scales, so the maturity and strike roots differ even on a square
    grid.
    """
    n_t, n_k = draw(st.integers(2, 8)), draw(st.integers(3, 12))
    theta_t, theta_k = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    scale = draw(st.floats(0.1, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def root(n, theta):
        nodes = np.linspace(0.0, 1.0, n)
        return np.linalg.cholesky(np.exp(-np.abs(nodes[:, None] - nodes[None, :]) / theta))

    a = shape_rows(n_t, n_k)
    return a, root(n_t, theta_t), root(n_k, theta_k), scale, rng


def max_relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestKroneckerQuadProgram:
    @settings(max_examples=100, deadline=None)
    @given(kronecker_rows())
    def test_operations_match_the_dense_rows(self, drawn):
        # R = A L with L = scale (L_t (x) L_k), formed densely as A @ root
        a, root_t, root_k, scale, rng = drawn
        m, d = a.shape
        dense_rows = a @ (scale * np.kron(root_t, root_k))
        dense = QuadProgram(q=np.eye(d), c=np.zeros(d), a_ineq=dense_rows, b_ineq=np.zeros(m))
        kron = KroneckerQuadProgram(q=np.eye(d), c=np.zeros(d), a=a, root_t=root_t,
                                    root_k=root_k, scale=scale, b_ineq=np.zeros(m))
        x, z = rng.standard_normal(d), rng.standard_normal(m)
        w = np.exp(rng.uniform(-5.0, 5.0, m))
        assert max_relative_gap(kron.rows(x), dense_rows @ x) <= 1e-13
        assert max_relative_gap(kron.rows_t(z), dense_rows.T @ z) <= 1e-13
        assert max_relative_gap(kron.normal(w), dense.normal(w)) <= 1e-13

    @pytest.mark.parametrize("roots, message", [
        ((np.eye(2), np.eye(4)), "span 8 nodes"),
        ((np.eye(2), np.ones((3, 2))), "square"),
    ], ids=["too-many-nodes", "not-square"])
    def test_rejects_roots_that_do_not_fit(self, roots, message):
        a = shape_rows(2, 3)
        with pytest.raises(ValueError, match=message):
            KroneckerQuadProgram(q=np.eye(6), c=np.zeros(6), a=a, root_t=roots[0],
                                 root_k=roots[1], scale=1.0, b_ineq=np.zeros(a.shape[0]))


class TestCholWithJitter:
    def test_plain_spd(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        root, jitter = chol_with_jitter(m)
        assert root @ root.T == pytest.approx(m)
        assert jitter == 0.0

    def test_degenerate_gets_ridge(self, caplog):
        m = np.ones((3, 3))  # rank one
        with caplog.at_level("WARNING"):
            root, jitter = chol_with_jitter(m)
        assert np.all(np.isfinite(root))
        assert jitter > 0.0
        assert root @ root.T == pytest.approx(m + jitter * np.eye(3))
        assert any("jitter" in r.message for r in caplog.records)


class TestSampleTruncated:
    def test_half_line_mean(self):
        tg = TruncatedGaussian(mean=[0.0], root=[[1.0]], a=[[1.0]], b=[0.0])
        samples, _ = sample_truncated(tg, init=np.array([0.5]), n_samples=10_000, seed=42)
        assert np.min(samples) >= 0.0
        target = truncated_standard_normal_mean()
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - target) < 3.0 * stderr

    def test_unconstrained_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        # one wall 15 / sqrt(2) > 10 standard deviations below the mean: no draw reaches it
        tg = TruncatedGaussian(mean=[1.0, -2.0], root=np.linalg.cholesky(cov),
                               a=[[1.0, 0.0]], b=[-14.0])
        samples, _ = sample_truncated(tg, init=np.array([1.0, -2.0]), n_samples=20_000, seed=3)
        est = np.cov(samples.T)
        assert est == pytest.approx(cov, abs=0.08)
        assert samples.mean(axis=0) == pytest.approx([1.0, -2.0], abs=0.05)

    def test_far_tail_support(self):
        tg = TruncatedGaussian(
            mean=[0.0, 0.0],
            root=np.eye(2),
            a=[[1.0, 0.0]],
            b=[5.0],
        )
        samples, _ = sample_truncated(tg, init=np.array([5.5, 0.0]), n_samples=2_000, seed=9)
        assert np.min(samples[:, 0]) >= 5.0

    def test_deterministic_given_seed(self):
        tg = TruncatedGaussian(mean=[0.0], root=[[1.0]], a=[[1.0]], b=[0.0])
        s1, _ = sample_truncated(tg, init=np.array([1.0]), n_samples=500, seed=11)
        s2, _ = sample_truncated(tg, init=np.array([1.0]), n_samples=500, seed=11)
        assert np.array_equal(s1, s2)

    def test_infeasible_init_rejected(self):
        tg = TruncatedGaussian(mean=[0.0], root=[[1.0]], a=[[1.0]], b=[0.0])
        with pytest.raises(InfeasibleStartError):
            sample_truncated(tg, init=np.array([-0.5]), n_samples=10)
        with pytest.raises(InfeasibleStartError):
            sample_truncated(tg, init=np.array([0.0]), n_samples=10)  # on the wall

    def test_box_constraints(self):
        # unit box around a mean outside the box
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([0.0, -1.0, 0.0, -1.0])
        tg = TruncatedGaussian(mean=[1.5, 0.5], root=0.5 * np.eye(2), a=a, b=b)
        samples, _ = sample_truncated(tg, init=np.array([0.5, 0.5]), n_samples=4_000, seed=1)
        assert np.min(a @ samples.T - b[:, None]) >= 0.0
        # mass should pile against the x=1 wall
        assert samples[:, 0].mean() > 0.6

    def test_zero_samples_return_an_empty_block(self):
        tg = TruncatedGaussian(mean=[0.0, 0.0], root=np.eye(2), a=[[1.0, 0.0]], b=[0.0])
        samples, diagnostics = sample_truncated(tg, init=np.array([0.5, 0.0]), n_samples=0)
        assert samples.shape == (0, 2)
        assert diagnostics == {"bounces": 0, "restarts": 0, "min_slack": np.inf}

    def test_negative_count_rejected_before_any_draw(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        tg = TruncatedGaussian(mean=[0.0], root=[[1.0]], a=[[1.0]], b=[0.0])
        with pytest.raises(ValueError, match="n_samples.*-3"):
            sample_truncated(tg, init=np.array([0.5]), n_samples=-3)

    def test_diagnostics_count_bounces_restarts_and_slack(self, monkeypatch):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        tg = TruncatedGaussian(mean=[0.0, 0.0], root=np.eye(2), a=a, b=[0.0, 0.0])
        reflections = []

        def counting(*args):
            reflections.append(1)
            # one knife edge: its trajectory restarts and its bounce is not counted
            return None if len(reflections) == 5 else _reflect(*args)

        monkeypatch.setattr(constrained_sampling, "_reflect", counting)
        samples, diagnostics = sample_truncated(tg, init=np.array([0.5, 0.5]), n_samples=50,
                                                seed=4)
        assert diagnostics["bounces"] == len(reflections) - 1 > 0
        assert diagnostics["restarts"] == 1
        assert diagnostics["min_slack"] == np.min(a @ samples.T)
        assert diagnostics["min_slack"] >= 0.0

    def test_never_solves_against_the_root(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        root = np.array([[1.0, 0.0], [0.8, 0.5]])
        tg = TruncatedGaussian(mean=[0.2, -0.1], root=root, a=[[1.0, 0.0], [-1.0, 1.0]],
                               b=[0.0, 0.0])
        samples, diagnostics = sample_truncated(tg, init=np.array([0.5, 1.0]), n_samples=200,
                                                seed=6)
        assert diagnostics["bounces"] > 0 and diagnostics["min_slack"] >= 0.0

    def test_near_singular_covariance_sampled(self):
        # rank-deficient direction handled by the jitter policy
        cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        tg = TruncatedGaussian(mean=[0.0, 0.0], root=chol_with_jitter(cov)[0], a=[[1.0, 0.0]],
                               b=[0.0])
        samples, _ = sample_truncated(tg, init=np.array([1.0, 1.0]), n_samples=200, seed=5)
        assert np.min(samples[:, 0]) >= 0.0


class TestClosedFormBounces:
    @staticmethod
    def node_state(rng, a, root):
        """A deviation u = root z with every wall 0.05..0.5 away, and a momentum root xi."""
        u = root @ rng.standard_normal(a.shape[1])
        g = -(a @ u) + rng.uniform(0.05, 0.5, a.shape[0])
        return u, g, root @ rng.standard_normal(a.shape[1])

    def test_products_track_exact_after_many_bounces(self):
        rng = np.random.default_rng(17)
        a = shape_rows(4, 6)
        d = a.shape[1]
        half = rng.standard_normal((d, d))
        root = np.linalg.cholesky(half @ half.T / d + 0.1 * np.eye(d))
        u_b, g, u_a = self.node_state(rng, a, root)

        f_a, f_b = a @ u_a, a @ u_b
        for _ in range(40):
            t_hit, wall = _wall_hit(f_a, f_b, g)
            assert np.isfinite(t_hit)
            bounced = _reflect(a, root @ root.T, u_a, u_b, f_a, f_b, t_hit, wall)
            assert bounced is not None
            u_a, u_b, f_a, f_b = bounced
        for closed, vec in ((f_a, u_a), (f_b, u_b)):
            exact = a.toarray() @ vec
            assert np.max(np.abs(closed - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_reflection_preserves_energy_and_flips_wall_velocity(self):
        rng = np.random.default_rng(2)
        a = shape_rows(3, 4)
        d = a.shape[1]
        # a drawn covariance, so the wall row is no eigenvector of it and the
        # Euclidean and cov-orthogonal reflections differ
        half = rng.standard_normal((d, d))
        cov = half @ half.T / d + 0.1 * np.eye(d)
        u, g, u_a = self.node_state(rng, a, np.linalg.cholesky(cov))
        t_hit, wall = _wall_hit(a @ u_a, a @ u, g)
        v_ref, u_new, f_v, f_u = _reflect(a, cov, u_a, u, a @ u_a, a @ u, t_hit, wall)
        v_hit = u_a * np.cos(t_hit) - u * np.sin(t_hit)
        row = a.toarray()[wall]

        def energy(v):
            return v @ np.linalg.solve(cov, v)

        assert energy(v_ref) == pytest.approx(energy(v_hit), rel=1e-12)
        assert row @ v_ref == pytest.approx(-(row @ v_hit), rel=1e-9)
        assert row @ u_new + g[wall] == pytest.approx(0.0, abs=1e-9)
        assert f_u[wall] + g[wall] == pytest.approx(0.0, abs=1e-9)
        assert f_v == pytest.approx(a @ v_ref, rel=1e-12, abs=1e-12)
        # the Euclidean reflection also flips a_j v, but not at this energy
        euclid = v_hit - 2.0 * (row @ v_hit) / (row @ row) * row
        assert row @ euclid == pytest.approx(-(row @ v_hit), rel=1e-9)
        assert energy(euclid) != pytest.approx(energy(v_hit), rel=1e-3)


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

    def test_no_bounce_budget_stalls_instead_of_looping(self, hang_guard, monkeypatch):
        tg = TruncatedGaussian(mean=[0.0], root=[[1.0]], a=[[1.0]], b=[0.0])
        monkeypatch.setattr(constrained_sampling, "MAX_BOUNCES", 0)
        with pytest.raises(SamplerStallError, match="consecutive"):
            sample_truncated(tg, init=np.array([0.5]), n_samples=5, seed=0)

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
        tg = TruncatedGaussian(mean=[0.0, 0.0], root=np.eye(2),
                               a=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0])
        samples, _ = sample_truncated(tg, init=np.array([0.5, 0.5]), n_samples=100, seed=4)
        assert len(calls) > 22
        assert samples.min() >= 0.0
