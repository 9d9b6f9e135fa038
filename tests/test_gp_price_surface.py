import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from volsurf.backtest import SyntheticSpec, generate_synthetic
from volsurf.black_scholes import put_price
from volsurf.gp_price_surface import (
    BasisGrid,
    GpModel,
    KernelParams,
    LikelihoodEvaluator,
    _basis_rows,
    _HatAxis,
    build_constraints,
    evaluate_surface,
    fit_hyperparameters,
    fit_map,
    matern52,
    model_from_json,
    model_to_json,
    posterior_factors,
    quote_observations,
    sample_posterior,
)
from volsurf import constrained_sampling, gp_price_surface
from volsurf.market_data import (
    AffineScaling,
    Curve,
    CurveSet,
    MarketFrame,
    build_frame,
)

from oracles import (
    collapsed_negative_log_likelihood,
    dense_gp_posterior,
    hat_basis,
    hat_basis_csr,
    kernel,
    marginal_log_likelihood,
    per_point_gp_put_prices,
    quote_table,
    shape_rows,
    sparse_negative_log_likelihood,
)

MATERN_AT_ONE = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))


def hat_rows(grid, u, v, values):
    """Phi @ values for the points (u, v), through the GP's two hat axes."""
    return _basis_rows(_HatAxis(u, grid.t_nodes), _HatAxis(v, grid.k_nodes), values)


def prior_covariance(grid, params):
    """Gamma = sigma^2 C_t (x) C_k, the Matern correlations of the grid's nodes."""
    c_t = matern52(grid.t_nodes[:, None] - grid.t_nodes[None, :], params.theta_t)
    c_k = matern52(grid.k_nodes[:, None] - grid.k_nodes[None, :], params.theta_k)
    return params.sigma**2 * np.kron(c_t, c_k)


def map_residuals(model, frame):
    """Bid and ask residuals of every quote on the MAP surface, bid then ask."""
    fitted = model.price(frame.maturity, frame.reduced_strike)
    return np.stack([frame.reduced_bid - fitted, frame.reduced_ask - fitted], axis=1).ravel()


def make_frame(t, k, bid, ask, spot=100.0):
    """Hand-built frame: arbitrary observation values, no filtering."""
    t = np.asarray(t, float)
    k = np.asarray(k, float)
    bid = np.asarray(bid, float)
    ask = np.asarray(ask, float)
    pad_t = 1e-9 * max(1.0, float(t.max()))
    pad_k = 1e-9 * max(1.0, float(k.max()))
    scaling = AffineScaling(
        t_min=float(t.min()),
        t_max=float(t.max()) + (pad_t if t.max() == t.min() else 0.0),
        k_min=float(k.min()),
        k_max=float(k.max()) + (pad_k if k.max() == k.min() else 0.0),
    )
    curves = CurveSet(spot=spot, rate_curve=Curve.flat(0.0), dividend_curve=Curve.flat(0.0))
    return MarketFrame(
        maturity=t, strike=k, reduced_strike=k, log_moneyness=np.log(k / spot),
        reduced_bid=bid, reduced_ask=ask, reduced_mid=0.5 * (bid + ask),
        mid_iv=np.full(t.size, 0.2), scaling=scaling, curves=curves,
    )


def flat_vol_frame(sigma=0.2, spread=0.005, n_t=10, n_k=15, spot=100.0, r=0.02, q=0.01):
    curves = CurveSet(spot=spot, rate_curve=Curve.flat(r), dividend_curve=Curve.flat(q))
    quotes = []
    for t in np.linspace(0.25, 2.5, n_t):
        fwd = float(curves.forward(t))
        df = float(curves.discount(t))
        for m in np.linspace(0.85, 1.3, n_k):
            strike = m * spot
            mid = put_price(fwd, strike, t, sigma, df)
            quotes.append((t, strike, mid * (1 - spread), mid * (1 + spread), None))
    return build_frame(quote_table(quotes), curves)


class TestMatern:
    def test_at_zero(self):
        assert matern52(0.0, 0.5) == 1.0

    def test_at_theta(self):
        assert matern52(0.3, 0.3) == pytest.approx(MATERN_AT_ONE, abs=1e-5)
        assert matern52(0.3, 0.3) == pytest.approx(0.52399, abs=1e-5)

    def test_far_tail(self):
        assert matern52(3.0, 0.3) < 1e-3

    def test_strictly_decreasing(self):
        d = np.linspace(0.0, 3.0, 200)
        vals = matern52(d, 0.4)
        assert np.all(np.diff(vals) < 0.0)


class TestKernel:
    def test_diagonal(self):
        p = KernelParams(sigma=2.5, theta_t=0.3, theta_k=0.4, noise_sd=0.1)
        assert kernel((0.3, 0.7), (0.3, 0.7), p) == pytest.approx(2.5**2)

    def test_separable_factor(self):
        p = KernelParams(sigma=1.5, theta_t=0.25, theta_k=0.4, noise_sd=0.1)
        got = kernel((0.5, 0.3), (0.5 + 0.25, 0.3), p)
        assert got == pytest.approx(1.5**2 * MATERN_AT_ONE, abs=1e-6)

    def test_gram_psd(self):
        rng = np.random.default_rng(2)
        p = KernelParams(sigma=1.3, theta_t=0.3, theta_k=0.3, noise_sd=0.1)
        pts = rng.uniform(0.0, 1.0, size=(20, 2))
        gram = np.array(
            [[kernel(tuple(a), tuple(b), p) for b in pts] for a in pts]
        )
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8 * p.sigma**2

    def test_paper_scale_values_validate(self):
        KernelParams(sigma=185.7611, theta_t=0.2211, theta_k=0.3282, noise_sd=0.6876)
        with pytest.raises(ValueError):
            KernelParams(sigma=0.0, theta_t=0.2, theta_k=0.3, noise_sd=0.1)


class TestHatBasis:
    def test_nodal_value(self):
        assert hat_basis((0.5, 0.25), (2, 1), h_t=0.25, h_k=0.25) == 1.0

    def test_half_step_decay(self):
        assert hat_basis((0.625, 0.25), (2, 1), h_t=0.25, h_k=0.25) == pytest.approx(0.5)

    def test_diagonal_neighbor_zero(self):
        assert hat_basis((0.75, 0.5), (2, 1), h_t=0.25, h_k=0.25) == 0.0

    def test_partition_of_unity(self):
        grid = BasisGrid(n_t=4, n_k=5)
        rng = np.random.default_rng(3)
        pts_t = rng.uniform(0, 1, 50)
        pts_k = rng.uniform(0, 1, 50)
        row_sums = hat_rows(grid, pts_t, pts_k, np.ones(grid.size))
        assert row_sums == pytest.approx(np.ones(50))

    def test_matches_scalar_hat(self):
        grid = BasisGrid(n_t=4, n_k=5)
        phi = hat_rows(grid, [0.37], [0.62], np.eye(grid.size))[0]
        for i in range(4):
            for j in range(5):
                expect = hat_basis((0.37, 0.62), (i, j), grid.h_t, grid.h_k)
                assert phi[i * 5 + j] == pytest.approx(expect)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.integers(3, 9),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=12),
           st.integers(0, 2**32 - 1))
    def test_gather_is_the_csr_product(self, n_t, n_k, drawn, seed):
        grid = BasisGrid(n_t=n_t, n_k=n_k)
        # every node pair (cell edges: frac 0, or 1 where a node rounds down),
        # the cell midpoints, the far corner (1, 1), and the tolerance band
        # just outside [0, 1] that the unit-square check clips
        t_mid = 0.5 * (grid.t_nodes[1:] + grid.t_nodes[:-1])
        k_mid = 0.5 * (grid.k_nodes[1:] + grid.k_nodes[:-1])
        u = np.concatenate([np.repeat(grid.t_nodes, n_k), np.repeat(t_mid, n_k - 1),
                            [1.0, -1e-10, 1.0 + 1e-10], [t for t, _ in drawn]])
        v = np.concatenate([np.tile(grid.k_nodes, n_t), np.tile(k_mid, n_t - 1),
                            [1.0, 1.0 + 1e-10, -1e-10], [k for _, k in drawn]])
        phi = hat_basis_csr(u, v, n_t, n_k)
        rng = np.random.default_rng(seed)
        nodes = rng.standard_normal(grid.size)
        root = rng.standard_normal((grid.size, grid.size))
        got = hat_rows(grid, u, v, nodes)
        assert got.shape == (u.size,) and got.tobytes() == (phi @ nodes).tobytes()
        got = hat_rows(grid, u, v, root)
        want = np.asarray(phi @ root)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestConstraints:
    def test_row_counts_3x3(self):
        a = build_constraints(BasisGrid(n_t=3, n_k=3))
        assert a.shape == (18, 9)
        # 6 monotonicity rows of two nodes, 3 convexity rows of three, 9 nonnegativity rows
        assert np.diff(a.indptr).tolist() == [2] * 6 + [3] * 3 + [1] * 9

    @settings(max_examples=70, deadline=None)
    @given(st.integers(2, 8), st.integers(3, 12))
    def test_same_csr_as_row_loop(self, n_t, n_k):
        got, want = build_constraints(BasisGrid(n_t=n_t, n_k=n_k)), shape_rows(n_t, n_k)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(want, part).dtype
            assert np.array_equal(getattr(got, part), getattr(want, part))

    def test_row_counts_2x3(self):
        assert build_constraints(BasisGrid(n_t=2, n_k=3)).shape == (11, 6)

    def test_constant_vector_feasible(self):
        grid = BasisGrid(n_t=3, n_k=4)
        a = build_constraints(grid)
        rho = np.full(grid.size, 3.7)
        slack = a @ rho
        assert np.min(slack) >= 0.0
        # monotone/convex rows, all but the last grid.size, hold with
        # equality for a flat surface
        assert np.max(np.abs(slack[: a.shape[0] - grid.size])) == 0.0

    def test_feasible_vector_makes_monotone_convex_surface(self):
        grid = BasisGrid(n_t=5, n_k=7)
        rng = np.random.default_rng(8)
        # feasible node vector: one convex strike profile (double cumulative
        # sum of positives) shared by all rows plus a nondecreasing T shift
        profile_k = np.cumsum(np.cumsum(rng.uniform(0.0, 1.0, 7)))
        shift_t = np.cumsum(rng.uniform(0.0, 1.0, 5))
        vals = shift_t[:, None] + profile_k[None, :]
        rho = vals.ravel()
        assert np.min(build_constraints(grid) @ rho) >= -1e-12
        ts = np.linspace(0, 1, 21)
        ks = np.linspace(0, 1, 23)
        surf = np.array(
            [[evaluate_surface(rho, grid, t, k) for k in ks] for t in ts]
        )
        assert np.min(np.diff(surf, axis=0)) >= -1e-10      # nondecreasing in T
        assert np.min(np.diff(surf, n=2, axis=1)) >= -1e-10  # convex in k


class TestEvaluateSurface:
    def test_nodal_exactness(self):
        grid = BasisGrid(n_t=3, n_k=4)
        rho = np.arange(grid.size, dtype=float)
        for i in range(3):
            for j in range(4):
                got = evaluate_surface(rho, grid, i * grid.h_t, j * grid.h_k)
                assert got == pytest.approx(rho[i * 4 + j])

    def test_cell_center_average(self):
        grid = BasisGrid(n_t=2, n_k=3)
        rho = np.array([1.0, 2.0, 5.0, 3.0, 4.0, 7.0])
        got = evaluate_surface(rho, grid, 0.5, 0.25)  # center of first cell
        assert got == pytest.approx(0.25 * (1 + 2 + 3 + 4))

    def test_constant_everywhere(self):
        grid = BasisGrid(n_t=4, n_k=5)
        rho = np.full(grid.size, 2.2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            got = evaluate_surface(rho, grid, rng.uniform(), rng.uniform())
            assert got == pytest.approx(2.2)

    def test_outside_hull_rejected(self):
        grid = BasisGrid(n_t=3, n_k=3)
        with pytest.raises(ValueError, match="outside"):
            evaluate_surface(np.zeros(9), grid, 1.2, 0.5)


class TestMarginalLogLikelihood:
    def test_closed_form_two_replications_at_node(self):
        # one quote (bid = ask = 0) sitting exactly on a grid corner node:
        # gram = sigma^2 * ones(2,2) + noise^2 I, y = 0, so
        # L = -1/2 log det = -1/2 log((s+n)^2 - s^2), s = sigma^2, n = noise^2
        frame = make_frame([1.0, 2.0], [90.0, 110.0], [0.0, 0.0], [0.0, 0.0])
        frame = frame.subset(slice(0, 1))
        grid = BasisGrid(n_t=2, n_k=3)
        p = KernelParams(sigma=1.7, theta_t=0.3, theta_k=0.3, noise_sd=0.4)
        s, n = p.sigma**2, p.noise_sd**2
        expected = -0.5 * math.log((s + n) ** 2 - s**2)
        got = marginal_log_likelihood(p, frame, grid)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_quadratic_term_scales_with_y(self):
        frame1 = flat_vol_frame(n_t=4, n_k=5)
        frame2 = replace(frame1, reduced_bid=2 * frame1.reduced_bid,
                         reduced_ask=2 * frame1.reduced_ask, reduced_mid=2 * frame1.reduced_mid)
        grid = BasisGrid(n_t=3, n_k=4)
        p = KernelParams(sigma=5.0, theta_t=0.3, theta_k=0.3, noise_sd=0.5)
        l1 = marginal_log_likelihood(p, frame1, grid)
        l2 = marginal_log_likelihood(p, frame2, grid)
        # L = -q/2 - d/2 and L2 = -4q/2 - d/2  =>  q = 2(l1 - l2)/3 > 0
        quad = 2.0 * (l1 - l2) / 3.0
        assert quad > 0.0
        # and the log-det part is identical: reconstructing it both ways agrees
        logdet_1 = -2.0 * l1 - quad
        logdet_2 = -2.0 * l2 - 4.0 * quad
        assert logdet_1 == pytest.approx(logdet_2, rel=1e-9)

    def test_huge_noise_kills_quadratic_term(self):
        frame = flat_vol_frame(n_t=4, n_k=5)
        grid = BasisGrid(n_t=3, n_k=4)
        big = 1e8
        p = KernelParams(sigma=5.0, theta_t=0.3, theta_k=0.3, noise_sd=big)
        got = marginal_log_likelihood(p, frame, grid)
        n = 2 * len(frame)
        # pure-noise limit: L -> -n/2 * log(noise^2)
        assert got == pytest.approx(-0.5 * n * math.log(big**2), rel=1e-6)


class TestLikelihoodEvaluator:
    PARAMS = (
        KernelParams(sigma=5.0, theta_t=0.3, theta_k=0.3, noise_sd=0.5),
        KernelParams(sigma=0.7, theta_t=2.5, theta_k=0.05, noise_sd=0.01),
        KernelParams(sigma=40.0, theta_t=0.02, theta_k=1.7, noise_sd=3.0),
        KernelParams(*np.exp([1.3, -0.9, -1.4, -2.2])),
    )

    @staticmethod
    def random_case(rng):
        n = int(rng.integers(1, 40))
        t = rng.uniform(0.1, 3.0, n)
        k = rng.uniform(60.0, 140.0, n)
        bid = rng.uniform(0.0, 20.0, n)
        frame = make_frame(t, k, bid, bid + rng.uniform(0.0, 1.0, n))
        grid = BasisGrid(n_t=int(rng.integers(2, 12)), n_k=int(rng.integers(3, 30)))
        p = KernelParams(*np.exp(rng.normal([1.0, -1.0, -1.0, -1.0], 1.0)))
        return frame, grid, p

    @pytest.mark.parametrize("grid", [BasisGrid(n_t=3, n_k=4), BasisGrid(n_t=7, n_k=19)])
    def test_bitwise_equal_to_sparse_products(self, grid):
        frame = flat_vol_frame(n_t=5, n_k=7)
        evaluate = LikelihoodEvaluator(frame, grid)
        for p in self.PARAMS:
            want = collapsed_negative_log_likelihood(p, frame, grid)
            assert evaluate(p)[0] == want
            assert marginal_log_likelihood(p, frame, grid) == -want

    def test_random_points_and_grids_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            frame, grid, p = self.random_case(rng)
            assert LikelihoodEvaluator(frame, grid)(p)[0] == collapsed_negative_log_likelihood(
                p, frame, grid
            )

    def cases(self, seed):
        """The PARAMS sets on two grids, then 25 random frames, grids and parameters."""
        frame = flat_vol_frame(n_t=5, n_k=7)
        for grid in (BasisGrid(n_t=3, n_k=4), BasisGrid(n_t=7, n_k=19)):
            for p in self.PARAMS:
                yield frame, grid, p
        rng = np.random.default_rng(seed)
        for _ in range(25):
            yield self.random_case(rng)

    def test_collapse_equals_bid_ask_likelihood(self):
        # one mean row per quote plus the closed-form spread term is the
        # likelihood of the bid and ask rows, up to round-off
        for frame, grid, p in self.cases(seed=32):
            want = sparse_negative_log_likelihood(p, frame, grid)
            assert LikelihoodEvaluator(frame, grid)(p)[0] == pytest.approx(want, rel=1e-10)

    def test_gradient_matches_central_differences(self):
        step = 1e-5
        for frame, grid, p in self.cases(seed=33):
            evaluate = LikelihoodEvaluator(frame, grid)
            _, grad = evaluate(p)
            logp = np.log([p.sigma, p.theta_t, p.theta_k, p.noise_sd])
            fd = np.array([
                (evaluate(KernelParams(*np.exp(logp + step * e)))[0]
                 - evaluate(KernelParams(*np.exp(logp - step * e)))[0]) / (2.0 * step)
                for e in np.eye(4)
            ])
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))

    def test_jittered_gram_fails_the_evaluation(self, caplog):
        # three quotes at one point and a noise 1e-9 of the prior scale: the
        # gram is numerically rank one, and its jittered factor is refused
        frame = make_frame([1.0] * 3, [90.0] * 3, [3.0] * 3, [3.0] * 3)
        evaluate = LikelihoodEvaluator(frame, BasisGrid(n_t=2, n_k=3))
        p = KernelParams(sigma=1.0, theta_t=0.3, theta_k=0.3, noise_sd=1e-9)
        with caplog.at_level("WARNING"), pytest.raises(np.linalg.LinAlgError, match="jitter"):
            evaluate(p)
        assert any("observation gram required jitter" in r.message for r in caplog.records)

    def test_fit_evaluates_through_module_cholesky(self, monkeypatch):
        # the fit and the evaluator share chol_with_jitter, one call per evaluation
        frame = flat_vol_frame(n_t=4, n_k=5)
        grid = BasisGrid(n_t=3, n_k=4)
        calls = []
        results = []
        real_cholesky = gp_price_surface.chol_with_jitter
        real_minimize = gp_price_surface.sopt.minimize

        def counting(matrix, label="matrix"):
            calls.append(label)
            return real_cholesky(matrix, label)

        def recording(*args, **kwargs):
            results.append(real_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gp_price_surface, "chol_with_jitter", counting)
        monkeypatch.setattr(gp_price_surface.sopt, "minimize", recording)
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 20)
        fit_hyperparameters(frame, grid, n_starts=2)
        assert len(results) == 2
        assert len(calls) == sum(r.nfev for r in results)
        assert set(calls) == {"observation gram"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # spread of no observations
    def test_empty_frame_rejected(self):
        frame = make_frame([0.5, 1.0], [90.0, 110.0], [1.0, 1.0], [1.0, 1.0])
        empty = frame.subset(slice(0, 0))
        p = KernelParams(sigma=1.0, theta_t=0.3, theta_k=0.3, noise_sd=0.1)
        with pytest.raises(ValueError, match="empty"):
            marginal_log_likelihood(p, empty, BasisGrid(n_t=2, n_k=3))
        with pytest.raises(ValueError, match="empty"):
            fit_hyperparameters(empty, BasisGrid(n_t=2, n_k=3), n_starts=1)


class TestFitHyperparameters:
    def test_recovers_simulated_lengthscales(self, monkeypatch):
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 150)
        grid = BasisGrid(n_t=10, n_k=10)
        true = KernelParams(sigma=1.0, theta_t=0.3, theta_k=0.3, noise_sd=0.05)
        gamma = prior_covariance(grid, true)
        root = np.linalg.cholesky(gamma + 1e-10 * np.eye(grid.size))
        hits = 0
        n_seeds = 5
        for seed in range(n_seeds):
            rng = np.random.default_rng(100 + seed)
            rho = root @ rng.standard_normal(grid.size)
            t_pts = rng.uniform(0.1, 2.1, 120)
            k_pts = rng.uniform(50.0, 150.0, 120)
            u = (t_pts - 0.1) / 2.0
            v = (k_pts - 50.0) / 100.0
            latent = evaluate_surface(rho, grid, u, v)
            y1 = latent + true.noise_sd * rng.standard_normal(120)
            y2 = latent + true.noise_sd * rng.standard_normal(120)
            bid = np.minimum(y1, y2)
            ask = np.maximum(y1, y2)
            # frame whose scaled coordinates reproduce (u, v) exactly
            frame = make_frame(t_pts, k_pts, bid, ask)
            frame = replace(
                frame, scaling=AffineScaling(t_min=0.1, t_max=2.1, k_min=50.0, k_max=150.0)
            )
            fitted = fit_hyperparameters(
                frame, grid, n_starts=3, seed=seed
            )
            ok_t = 0.5 * true.theta_t <= fitted.theta_t <= 2.0 * true.theta_t
            ok_k = 0.5 * true.theta_k <= fitted.theta_k <= 2.0 * true.theta_k
            hits += ok_t and ok_k
        assert hits >= n_seeds - 1

    def test_two_observations_warns_but_completes(self, caplog, monkeypatch):
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 60)
        frame = make_frame([0.5], [100.0], [4.0], [4.2])
        grid = BasisGrid(n_t=2, n_k=3)
        with caplog.at_level("WARNING"):
            params = fit_hyperparameters(frame, grid, n_starts=2)
        assert params.sigma > 0
        assert any("observations" in r.message for r in caplog.records)

    def test_all_starts_failing_reports_diagnostics(self, monkeypatch):
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 30)
        # non-finite observations poison every likelihood evaluation
        frame = make_frame([0.5, 1.0], [90.0, 110.0], [np.nan, 1.0], [np.nan, 1.0])
        grid = BasisGrid(n_t=2, n_k=3)
        from volsurf.gp_price_surface import HyperparameterFitError

        with pytest.raises(HyperparameterFitError) as err:
            fit_hyperparameters(frame, grid, n_starts=2)
        assert len(err.value.per_start) == 2


    def test_degenerate_region_stays_out_of_reach(self, caplog, monkeypatch):
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 100)
        # a short search on the README book's train half used to end at
        # thousands of unit-square widths, maximizing a jittered likelihood
        curves = CurveSet(spot=100.0, rate_curve=Curve.flat(0.02),
                          dividend_curve=Curve.flat(0.01))
        frame = build_frame(generate_synthetic(SyntheticSpec(kind="flat"), curves), curves)
        train = frame.subset(np.lexsort((frame.strike, frame.maturity))[0::2])
        with caplog.at_level("WARNING"):
            params = fit_hyperparameters(train, BasisGrid(n_t=15, n_k=40),
                                         n_starts=2, seed=0)
        lo, hi = gp_price_surface.LENGTH_SCALE_BOUNDS
        assert lo <= params.theta_t <= hi and lo <= params.theta_k <= hi
        assert not any("observation gram required jitter" in r.message for r in caplog.records)

    def test_zero_spread_book_fits_inside_the_noise_floor(self, monkeypatch):
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 50)
        # every bid equals its ask: the noise floor falls back to a fraction
        # of the spread of the values instead of collapsing to zero
        frame = flat_vol_frame(n_t=4, n_k=5, spread=0.0)
        assert np.array_equal(frame.reduced_bid, frame.reduced_ask)
        params = fit_hyperparameters(frame, BasisGrid(n_t=3, n_k=4),
                                     n_starts=2)
        unit = gp_price_surface.ZERO_SPREAD_NOISE * float(np.std(frame.reduced_bid))
        lo, hi = gp_price_surface.NOISE_BOUNDS
        assert lo * unit * (1 - 1e-12) <= params.noise_sd <= hi * unit * (1 + 1e-12)


class TestFitMap:
    def test_zero_data_gives_zero_map(self, monkeypatch):
        # the optimum sits on every nonnegativity wall at once, so interior
        # point iterates approach it at sqrt(complementarity) scale; a tight
        # tolerance pins it down
        frame = make_frame([0.5, 1.0, 1.5], [90.0, 100.0, 110.0], [0, 0, 0], [0, 0, 0])
        grid = BasisGrid(n_t=3, n_k=4)
        p = KernelParams(sigma=2.0, theta_t=0.3, theta_k=0.3, noise_sd=0.1)
        monkeypatch.setattr(constrained_sampling, "QP_TOL", 1e-12)
        model = fit_map(frame, grid, p)
        assert np.max(np.abs(model.map_nodes)) < 1e-5
        assert np.max(np.abs(map_residuals(model, frame))) < 1e-5

    def test_single_node_observation_interpolated(self):
        # noise-free observation pinned at a grid node with a huge prior sd:
        # the MAP reproduces the value at that node
        frame = make_frame([0.5, 2.0], [80.0, 120.0], [5.0, 5.0], [5.0, 5.0])
        grid = BasisGrid(n_t=2, n_k=3)
        p = KernelParams(sigma=100.0, theta_t=0.5, theta_k=0.5, noise_sd=1e-4)
        model = fit_map(frame, grid, p)
        # observations sit at corner nodes (0,0) and (1,2)
        assert model.map_nodes[0] == pytest.approx(5.0, abs=1e-6)
        assert model.map_nodes[grid.size - 1] == pytest.approx(5.0, abs=1e-6)

    def test_arbitrable_pair_absorbed_by_noise(self):
        # price decreasing in maturity cannot be matched by a feasible surface
        frame = make_frame([0.5, 1.5], [100.0, 100.0], [6.0, 4.0], [6.0, 4.0])
        grid = BasisGrid(n_t=2, n_k=3)
        p = KernelParams(sigma=10.0, theta_t=0.4, theta_k=0.4, noise_sd=0.05)
        model = fit_map(frame, grid, p)
        assert model.constraint_slacks().min() >= -1e-8
        # the violation went to noise
        assert np.max(np.abs(map_residuals(model, frame))) > 0.5

    def test_map_objective_beats_trivial_feasible_point(self):
        frame = flat_vol_frame(n_t=6, n_k=8)
        grid = BasisGrid(n_t=4, n_k=6)
        p = KernelParams(sigma=20.0, theta_t=0.4, theta_k=0.4, noise_sd=0.2)
        model = fit_map(frame, grid, p)
        assert model.constraint_slacks().min() >= -1e-8
        # objective of (rho, e) vs the always-feasible (0, y)
        y = np.stack([frame.reduced_bid, frame.reduced_ask], axis=1).ravel()
        gamma_inv = np.linalg.inv(prior_covariance(grid, p) + 1e-12 * np.eye(grid.size))

        def objective(rho, e):
            return float(rho @ gamma_inv @ rho + (e @ e) / p.noise_sd**2)

        assert objective(model.map_nodes, map_residuals(model, frame)) <= objective(
            np.zeros(grid.size), y
        )

    @pytest.mark.parametrize("theta, ridges", [(10.0, (0.0, 1e-12)), (1.0, (0.0, 0.0))])
    def test_prior_jitter_kept(self, theta, ridges):
        # the Matern correlation of 100 strike nodes at theta = 10 has condition
        # number 1.4e18: it factors only with chol_with_jitter's first ridge,
        # 1e-12 of its unit diagonal; at theta = 1 both axes factor as given
        frame = flat_vol_frame(n_t=3, n_k=6)
        p = KernelParams(sigma=20.0, theta_t=theta, theta_k=theta, noise_sd=0.2)
        model = fit_map(frame, BasisGrid(n_t=2, n_k=100), p)
        assert model.prior_jitter == ridges

    def test_flat_vol_map_tracks_mid_prices(self, monkeypatch):
        monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 150)
        frame = flat_vol_frame(n_t=8, n_k=10, spread=0.002)
        grid = BasisGrid(n_t=5, n_k=8)
        params = fit_hyperparameters(frame, grid, n_starts=3)
        model = fit_map(frame, grid, params)
        fit = model.price(frame.maturity, frame.reduced_strike)
        rel = np.abs(fit - frame.reduced_mid) / np.maximum(frame.reduced_mid, 0.5)
        assert np.median(rel) < 0.02


class TestPosterior:
    def make_model(self):
        frame = flat_vol_frame(n_t=6, n_k=6)
        grid = BasisGrid(n_t=3, n_k=5)
        p = KernelParams(sigma=20.0, theta_t=0.4, theta_k=0.4, noise_sd=0.1)
        return fit_map(frame, grid, p), frame

    def test_zero_data_zero_mean(self):
        frame = make_frame([0.5, 1.0, 1.5], [90.0, 100.0, 110.0], [0, 0, 0], [0, 0, 0])
        grid = BasisGrid(n_t=3, n_k=4)
        p = KernelParams(sigma=2.0, theta_t=0.3, theta_k=0.3, noise_sd=0.1)
        model = fit_map(frame, grid, p)
        eta, root = posterior_factors(model)
        cov = root @ root.T
        assert np.max(np.abs(eta)) == 0.0
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-8

    def test_posterior_mean_linearity(self):
        frame = make_frame([0.5, 1.0, 1.5], [90.0, 100.0, 110.0], [1, 2, 3], [1, 2, 3])
        frame2 = make_frame([0.5, 1.0, 1.5], [90.0, 100.0, 110.0], [3, 6, 9], [3, 6, 9])
        grid = BasisGrid(n_t=3, n_k=4)
        p = KernelParams(sigma=2.0, theta_t=0.3, theta_k=0.3, noise_sd=0.1)
        eta1, _ = posterior_factors(fit_map(frame, grid, p))
        eta2, _ = posterior_factors(fit_map(frame2, grid, p))
        assert eta2 == pytest.approx(3.0 * eta1, rel=1e-8, abs=1e-10)

    def test_huge_noise_reverts_to_prior(self):
        frame = make_frame([0.5, 1.0, 1.5], [90.0, 100.0, 110.0], [5, 6, 7], [5, 6, 7])
        grid = BasisGrid(n_t=3, n_k=4)
        p = KernelParams(sigma=2.0, theta_t=0.3, theta_k=0.3, noise_sd=1e7)
        model = fit_map(frame, grid, p)
        eta, root = posterior_factors(model)
        cov = root @ root.T
        gamma = prior_covariance(grid, p)
        assert np.max(np.abs(eta)) < 1e-8
        assert np.max(np.abs(cov - gamma)) < 1e-8

    def test_replicated_node_observation_closed_form(self):
        # two identical replications y* at one node: eta(node) = 2 s y* / (2 s + n)
        y_star = 4.0
        frame = make_frame([0.5, 2.0], [80.0, 120.0], [y_star, 0.0], [y_star, 0.0])
        frame = frame.subset(slice(0, 1))
        grid = BasisGrid(n_t=2, n_k=3)
        p = KernelParams(sigma=3.0, theta_t=0.5, theta_k=0.5, noise_sd=0.7)
        model = fit_map(frame, grid, p)
        eta, _ = posterior_factors(model)
        s, n = p.sigma**2, p.noise_sd**2
        assert eta[0] == pytest.approx(2 * s * y_star / (2 * s + n), rel=1e-10)

    def test_matches_dense_textbook_posterior(self):
        model, frame = self.make_model()
        eta, root = posterior_factors(model)
        want_eta, want_cov = dense_gp_posterior(model.params, frame, model.grid)
        assert np.max(np.abs(eta - want_eta)) <= 1e-9 * np.max(np.abs(want_eta))
        assert np.max(np.abs(root @ root.T - want_cov)) <= 1e-9 * np.max(np.abs(want_cov))

    def test_degenerate_hyperparameters_sampled(self):
        # the degenerate corner a short hyperparameter search can end in: a
        # huge prior scale against a tiny noise, where the textbook
        # Gamma - Gamma Phi' K^-1 Phi Gamma cancels to an indefinite covariance
        frame = flat_vol_frame(n_t=4, n_k=10)
        train = frame.subset(np.lexsort((frame.strike, frame.maturity))[0::2])
        grid = BasisGrid(n_t=4, n_k=8)
        model = fit_map(train, grid, KernelParams(1148068.34, 27.29, 241.09, 0.2998))
        paths = sample_posterior(model, n_paths=20)
        assert paths.shape == (20, grid.size)
        assert np.min(build_constraints(grid) @ paths.T) >= 0.0

    def test_paths_satisfy_constraints_and_are_deterministic(self):
        model, frame = self.make_model()
        paths = sample_posterior(model, n_paths=50, seed=7, burn_in=50)
        assert paths.shape == (50, model.grid.size)
        assert np.min(build_constraints(model.grid) @ paths.T) >= 0.0
        paths2 = sample_posterior(model, n_paths=50, seed=7, burn_in=50)
        assert np.array_equal(paths, paths2)


class TestConvergenceProxy:
    def test_sup_norm_gap_shrinks_with_mesh(self):
        # smooth monotone/convex synthetic truth, dense noiseless data
        def truth(t, k):
            return 2.0 + 1.5 * t + 0.8 * (k - 0.2) ** 2

        rng = np.random.default_rng(4)
        t_pts = rng.uniform(0.1, 2.1, 400)
        k_pts = rng.uniform(50.0, 150.0, 400)
        u = (t_pts - 0.1) / 2.0
        v = (k_pts - 50.0) / 100.0
        y = truth(u, v)
        frame = make_frame(t_pts, k_pts, y, y)
        frame = replace(
            frame, scaling=AffineScaling(t_min=0.1, t_max=2.1, k_min=50.0, k_max=150.0)
        )
        p = KernelParams(sigma=50.0, theta_t=0.5, theta_k=0.5, noise_sd=0.01)
        errs = []
        for n_t, n_k in ((4, 5), (7, 9)):
            model = fit_map(frame, BasisGrid(n_t=n_t, n_k=n_k), p)
            uu = np.linspace(0, 1, 31)
            vv = np.linspace(0, 1, 33)
            grid_u, grid_v = np.meshgrid(uu, vv, indexing="ij")
            fit = evaluate_surface(model.map_nodes, model.grid, grid_u.ravel(), grid_v.ravel())
            errs.append(np.max(np.abs(fit - truth(grid_u.ravel(), grid_v.ravel()))))
        assert errs[1] < errs[0]


class TestPutPrices:
    def test_bitwise_against_per_point_oracle(self):
        frame = flat_vol_frame(n_t=5, n_k=7)
        model = fit_map(frame, BasisGrid(n_t=4, n_k=6),
                        KernelParams(sigma=20.0, theta_t=0.4, theta_k=0.4, noise_sd=0.2))
        for part in (frame, frame.subset(np.arange(1, len(frame), 3))):
            got = model.put_prices(part)
            assert got.tobytes() == per_point_gp_put_prices(model, part).tobytes()


class TestSerialization:
    def test_round_trip(self):
        frame = flat_vol_frame(n_t=4, n_k=5)
        grid = BasisGrid(n_t=3, n_k=4)
        p = KernelParams(sigma=20.0, theta_t=0.4, theta_k=0.4, noise_sd=0.2)
        model = fit_map(frame, grid, p)
        doc = model_to_json(model)
        assert doc["version"] == "gpmodel/1"
        back = model_from_json(doc)
        assert np.array_equal(back.map_nodes, model.map_nodes)
        assert back.params == model.params
        assert model_to_json(back) == doc

    def test_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            model_from_json({"version": "gpmodel/999"})
