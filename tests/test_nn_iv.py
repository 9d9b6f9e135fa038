import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DualPrecisionWorkspace,
    allocating_nn_forward,
    allocating_nn_loss_and_grads,
    dupire_terms,
    grouped_nn_observations,
    nn_loss,
    per_point_put_prices,
    quote_table,
    term_structure_cev_frame,
)

from volsurf.black_scholes import put_price
from volsurf.market_data import (
    AffineScaling,
    Curve,
    CurveSet,
    MarketFrame,
    build_frame,
)
from volsurf import cli, local_vol, nn_iv
from volsurf.nn_iv import (
    NnIvModel,
    TrainingError,
    _loss_and_grads,
    _observations,
    _theta_tuple,
    _train_once,
    _Workspace,
    build_penalty_grid,
    compute_weights,
    model_from_json,
    model_to_json,
    train,
)

SPOT = 100.0


def small_model(seed=0, lively=False):
    model = NnIvModel.initialize(seed=seed, hidden=(8, 8, 8), spot=SPOT)
    model.input_mean = np.array([0.1, -0.05])
    model.input_scale = np.array([0.9, 0.25])
    if lively:
        # undo the deliberately small output layer of initialize() so the
        # surface has derivative magnitudes worth checking against FD noise
        model.weights[-1] = model.weights[-1] * 40.0
    return model


def flat_frame(sigma=0.2, n_t=8, n_k=11):
    curves = CurveSet(spot=SPOT, rate_curve=Curve.flat(0.01), dividend_curve=Curve.flat(0.0))
    quotes = []
    for t in np.linspace(0.25, 2.0, n_t):
        fwd = float(curves.forward(t))
        df = float(curves.discount(t))
        for m in np.linspace(0.85, 1.25, n_k):
            strike = m * SPOT
            mid = put_price(fwd, strike, t, sigma, df)
            quotes.append((t, strike, mid, mid, sigma))
    return build_frame(quote_table(quotes), curves)


class TestConstantNetwork:
    def test_flat_surface_calculus(self):
        model = NnIvModel.constant(0.25)
        theta, d_t, d_k, d_kk = model.forward_theta(1.7, 0.3)
        assert theta == pytest.approx(0.25**2 * 1.7, rel=1e-12)
        assert d_t == pytest.approx(0.25**2, rel=1e-12)
        assert d_k == 0.0
        assert d_kk == 0.0

    def test_theta_linear_in_maturity(self):
        model = NnIvModel.constant(0.2)
        t1 = model.forward_theta(1.0, 0.1)[0]
        t4 = model.forward_theta(4.0, 0.1)[0]
        assert t4 == pytest.approx(4.0 * t1, rel=1e-12)

    def test_constant_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            NnIvModel.constant(3.0)

    def test_dupire_terms_flat(self):
        model = NnIvModel.constant(0.2)
        cal, butt = dupire_terms(model, np.array([0.5, 1.0]), np.array([0.2, -0.3]))
        assert cal == pytest.approx([0.04, 0.04])
        assert butt == pytest.approx([1.0, 1.0])


class TestDerivatives:
    def test_analytic_matches_fd_100_cases(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for case in range(100):
            model = small_model(seed=case, lively=True)
            t = float(rng.uniform(0.1, 3.0))
            kappa = float(rng.uniform(-0.5, 0.5))
            theta, d_t, d_k, d_kk = model.forward_theta(t, kappa)

            def theta_at(t, kappa):
                return model.forward_theta(t, kappa)[0]

            h_k = 1e-4 * model.input_scale[1]
            fd_k = (theta_at(t, kappa + h_k) - theta_at(t, kappa - h_k)) / (2 * h_k)
            fd_kk = (
                theta_at(t, kappa + h_k)
                - 2 * theta_at(t, kappa)
                + theta_at(t, kappa - h_k)
            ) / h_k**2
            h_t = 1e-5 * t
            fd_t = (theta_at(t + h_t, kappa) - theta_at(t - h_t, kappa)) / (2 * h_t)
            for got, want in ((d_t, fd_t), (d_k, fd_k), (d_kk, fd_kk)):
                # denominator floored at 1e-3: below that the central
                # difference's own roundoff (~1e-8) dominates any comparison
                worst = max(worst, abs(got - want) / max(abs(want), 1e-3))
        assert worst <= 1e-4

    def test_sigma_in_band(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            model = small_model(seed)
            t = rng.uniform(0.05, 5.0, 200)
            kappa = rng.uniform(-1.5, 1.5, 200)
            sig = model.sigma(t, kappa)
            assert np.all(sig > model.sigma_lo)
            assert np.all(sig < model.sigma_hi)

    def test_kappa_only_dependence_gives_unit_butterfly(self):
        # silence the kappa input: Sigma depends on T only, so butt_k = 1
        model = small_model(seed=3)
        model.weights[0][:, 1] = 0.0
        cal, butt = dupire_terms(model, np.array([0.7, 1.3]), np.array([0.25, -0.1]))
        assert butt == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_standardization_shift_consistency(self):
        model = small_model(seed=5)
        shift = 0.37
        shifted = NnIvModel(
            weights=[w.copy() for w in model.weights],
            biases=[b.copy() for b in model.biases],
            input_mean=model.input_mean + np.array([0.0, shift]),
            input_scale=model.input_scale.copy(),
            spot=model.spot,
        )
        t = np.array([0.5, 1.0, 2.0])
        kappa = np.array([-0.2, 0.0, 0.3])
        assert shifted.sigma(t, kappa + shift) == pytest.approx(model.sigma(t, kappa), rel=1e-14)


class TestWeights:
    def test_three_point_example(self):
        w = compute_weights(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]]))
        assert w == pytest.approx([1.0, 1.0, 2.0])
        assert float(np.mean(w)) == pytest.approx(4.0 / 3.0)   # the loss's mu_w

    def test_two_points_symmetric(self):
        w = compute_weights(np.array([[0.0, 0.0], [0.3, 0.4]]))
        assert w == pytest.approx([0.5, 0.5])

    def test_uniform_lattice(self):
        pts = np.array([[t, k] for t in np.arange(4) for k in np.arange(5)], dtype=float)
        w = compute_weights(pts * 0.25)
        assert w == pytest.approx(np.full(20, 0.25))

    def test_duplicates_warn(self, caplog):
        with caplog.at_level("WARNING"):
            w = compute_weights(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        assert any("duplicate" in r.message for r in caplog.records)
        assert w[0] == 0.0

        # train's observations: sorted (T, kappa), each duplicate group
        # collapsed to its mean IV, bit for bit as a per-point dict gives them
        rng = np.random.default_rng(17)
        cells = [(t, k) for t in (0.25, 0.5, 1.5) for k in (-0.2, -0.0, 0.0, 0.1)]
        keys = [cells[i] for i in rng.integers(0, len(cells), 60)] + [cells[0]] * 12
        order = rng.permutation(len(keys))
        ones = np.ones(len(keys))
        frame = MarketFrame(
            maturity=[keys[i][0] for i in order], strike=100.0 * ones,
            reduced_strike=100.0 * ones, log_moneyness=[keys[i][1] for i in order],
            reduced_bid=ones, reduced_ask=ones, reduced_mid=ones,
            mid_iv=[float(rng.uniform(0.1, 0.4)) for _ in order],
            scaling=AffineScaling(0.25, 1.5, 80.0, 110.0),
            curves=CurveSet(spot=SPOT, rate_curve=Curve.flat(0.0),
                            dividend_curve=Curve.flat(0.0)),
        )
        got, want = _observations(frame), grouped_nn_observations(frame)
        for g, w in zip(got[:3], want[:3]):
            assert g.tobytes() == w.tobytes()
        assert got[3] == want[3] == len(frame) - got[0].size


class TestLoss:
    def setup_data(self):
        t = np.array([0.5, 1.0, 1.5, 2.0])
        kappa = np.array([-0.1, 0.0, 0.1, 0.2])
        iv = np.array([0.22, 0.2, 0.19, 0.21])
        weights = compute_weights(np.column_stack([t, kappa]))
        return t, kappa, iv, weights

    def test_zero_lambda_is_pure_fit(self):
        t, kappa, iv, weights = self.setup_data()
        model = small_model()
        pen = (0.0, 0.0, 0.0), build_penalty_grid(5, 6)
        total, comp = nn_loss(model, t, kappa, iv, weights, *pen)
        assert total == pytest.approx(comp["fit_rmse"])
        assert comp["calendar_penalty"] == 0.0
        assert comp["butterfly_penalty"] == 0.0
        assert comp["band_penalty"] == 0.0

    def test_flat_model_in_band_has_zero_penalty(self):
        t, kappa, iv, weights = self.setup_data()
        model = NnIvModel.constant(0.2)
        pen = (5.0, 5.0, 5.0), build_penalty_grid(6, 7)
        total, comp = nn_loss(model, t, kappa, iv, weights, *pen)
        assert comp["calendar_penalty"] == 0.0
        assert comp["butterfly_penalty"] == 0.0
        assert comp["band_penalty"] == 0.0

    def test_perfect_fit_zero_fit_term(self):
        t, kappa, _, weights = self.setup_data()
        model = NnIvModel.constant(0.2)
        iv = np.full(4, 0.2)
        pen = (1.0, 1.0, 1.0), build_penalty_grid(5, 5)
        total, comp = nn_loss(model, t, kappa, iv, weights, *pen)
        assert comp["fit_rmse"] == pytest.approx(0.0, abs=1e-14)

    def test_band_violation_penalized(self, monkeypatch):
        t, kappa, iv, weights = self.setup_data()
        model = NnIvModel.constant(0.5)  # local variance 0.25 above a 0.04 cap
        monkeypatch.setattr(nn_iv, "VARIANCE_BAND", (1e-4, 0.04))
        pen = (0.0, 0.0, 1.0), build_penalty_grid(5, 5)
        _, comp = nn_loss(model, t, kappa, iv, weights, *pen)
        assert comp["band_penalty"] > 0.0

    def test_penalty_components_nonnegative(self):
        t, kappa, iv, weights = self.setup_data()
        for seed in range(5):
            model = small_model(seed)
            pen = (1.0, 2.0, 3.0), build_penalty_grid(6, 6)
            _, comp = nn_loss(model, t, kappa, iv, weights, *pen)
            assert comp["calendar_penalty"] >= 0.0
            assert comp["butterfly_penalty"] >= 0.0
            assert comp["band_penalty"] >= 0.0


class TestGradients:
    def test_parameter_gradient_matches_fd(self, monkeypatch):
        rng = np.random.default_rng(9)
        model = small_model(seed=11)
        t = rng.uniform(0.2, 2.5, 12)
        kappa = rng.uniform(-0.4, 0.4, 12)
        iv = rng.uniform(0.15, 0.3, 12)
        weights = compute_weights(np.column_stack([t, kappa]))
        monkeypatch.setattr(nn_iv, "VARIANCE_BAND", (0.01, 0.09))
        pen = (0.7, 1.3, 2.1), build_penalty_grid(6, 7)

        def total_at(params_flat):
            probe = NnIvModel(
                weights=[p.copy() for p in params_flat[: len(model.weights)]],
                biases=[p.copy() for p in params_flat[len(model.weights):]],
                input_mean=model.input_mean,
                input_scale=model.input_scale,
                spot=model.spot,
            )
            tot, _, _ = _loss_and_grads(probe, t, kappa, iv, weights, *pen)
            return tot

        total, _, grads = _loss_and_grads(model, t, kappa, iv, weights, *pen)
        flat = model.weights + model.biases
        rng2 = np.random.default_rng(3)
        checked = 0
        for layer in range(len(flat)):
            shape = flat[layer].shape
            for _ in range(3):
                idx = tuple(rng2.integers(0, s) for s in shape)
                h = 1e-6
                bumped_up = [p.copy() for p in flat]
                bumped_dn = [p.copy() for p in flat]
                bumped_up[layer][idx] += h
                bumped_dn[layer][idx] -= h
                fd = (total_at(bumped_up) - total_at(bumped_dn)) / (2 * h)
                an = grads[layer][idx]
                assert an == pytest.approx(fd, rel=5e-4, abs=1e-8), (layer, idx)
                checked += 1
        assert checked >= 24


def lively_model(seed, hidden):
    model = NnIvModel.initialize(seed=seed, hidden=hidden, spot=SPOT)
    rng = np.random.default_rng(seed)
    model.input_mean = rng.normal(scale=0.2, size=2)
    model.input_scale = rng.uniform(0.2, 1.0, 2)
    model.weights[-1] = model.weights[-1] * 30.0
    return model


def random_data(rng, n):
    t = rng.uniform(0.2, 2.5, n)
    kappa = rng.uniform(-0.4, 0.4, n)
    return t, kappa, rng.uniform(0.15, 0.3, n), compute_weights(np.column_stack([t, kappa]))


class TestWorkspace:
    """Training passes on reused arrays against the allocating oracle passes."""

    @pytest.mark.parametrize(
        "hidden, grid",
        [((8, 8, 8), (5, 7)), ((40, 40, 40), (12, 25)), ((5,), (1, 9)),
         ((12, 7, 3), (6, 1)), ((), (4, 4)), ((16, 9), (17, 23)),
         # several BLOCK_WIDTH blocks: with a remainder, and without one
         ((16, 9), (23, 31)), ((8, 8, 8), (40, 40)), ((6, 5), (16, 64))],
    )
    def test_bitwise_against_allocating_oracle(self, hidden, grid, monkeypatch):
        rng = np.random.default_rng(grid[0] * 31 + len(hidden))
        model = lively_model(grid[1], hidden)
        t, kappa, iv, weights = random_data(rng, 13)
        monkeypatch.setattr(nn_iv, "VARIANCE_BAND", (0.01, 0.09))
        pen = (0.7, 1.3, 2.1), build_penalty_grid(grid[0], grid[1])
        workspace = _Workspace(model, t.size, pen[1])
        n_w = len(model.weights)
        for _ in range(3):
            want_total, want_grads = allocating_nn_loss_and_grads(
                model, t, kappa, iv, weights, *pen
            )
            total, comp, grads = _loss_and_grads(model, t, kappa, iv, weights, *pen, workspace)
            assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
            assert nn_loss(model, t, kappa, iv, weights, *pen) == (total, comp)
            assert len(grads) == len(want_grads)
            for got, want in zip(grads, want_grads):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # a different model on the same workspace next time round
            model.weights = [w - 0.5 * g for w, g in zip(model.weights, grads[:n_w])]
            model.biases = [b - 0.5 * g for b, g in zip(model.biases, grads[n_w:])]

    @pytest.mark.parametrize(
        "hidden, grid, band",
        [((6, 5), (16, 64), (0.01, 0.09)), ((16, 9), (23, 31), nn_iv.VARIANCE_BAND),
         ((8, 8, 8), (40, 40), nn_iv.VARIANCE_BAND)],
    )
    def test_skipped_blocks_bitwise_against_allocating_oracle(self, hidden, grid, band,
                                                              monkeypatch):
        # blocks with no active hinge skip the backward pass, the others run it
        rng = np.random.default_rng(grid[0] * 31 + len(hidden))
        model = lively_model(grid[1], hidden)
        t, kappa, iv, weights = random_data(rng, 13)
        monkeypatch.setattr(nn_iv, "VARIANCE_BAND", band)
        pen = (0.7, 1.3, 2.1), build_penalty_grid(grid[0], grid[1])
        workspace = _Workspace(model, t.size, pen[1])
        n_w = len(model.weights)
        for _ in range(3):
            _, want_grads = allocating_nn_loss_and_grads(model, t, kappa, iv, weights, *pen)
            _, _, grads = _loss_and_grads(model, t, kappa, iv, weights, *pen, workspace)
            for got, want in zip(grads, want_grads):
                assert got.tobytes() == want.tobytes()
            model.weights = [w - 0.5 * g for w, g in zip(model.weights, grads[:n_w])]
            model.biases = [b - 0.5 * g for b, g in zip(model.biases, grads[n_w:])]
        assert workspace.penalty_blocks == 3 * len(list(workspace.blocks()))
        assert 0 < workspace.penalty_blocks_backpropagated < workspace.penalty_blocks

    def test_constant_surface_runs_no_penalty_backward(self, monkeypatch):
        def no_backward(*args):
            raise AssertionError("penalty backward pass on a block with no active hinge")

        def no_pieces(*args):
            raise AssertionError("float64 penalty pass on a block the screen cleared")

        monkeypatch.setattr(nn_iv, "_penalty_backward", no_backward)
        rng = np.random.default_rng(4)
        model = NnIvModel.constant(0.2)
        t, kappa, iv, weights = random_data(rng, 9)
        pen = (1.0, 1.0, 1.0), build_penalty_grid(12, 100)
        workspace = _Workspace(model, t.size, pen[1])
        _, want_grads = allocating_nn_loss_and_grads(model, t, kappa, iv, weights, *pen)
        # a flat surface clears the float32 screen on every block
        monkeypatch.setattr(nn_iv, "_penalty_pieces", no_pieces)
        _, _, grads = _loss_and_grads(model, t, kappa, iv, weights, *pen, workspace)
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()
        assert (workspace.penalty_blocks, workspace.penalty_blocks_backpropagated) == (3, 0)
        assert workspace.penalty_blocks_screened == 3

    def test_non_finite_block_runs_penalty_backward(self, monkeypatch):
        # a NaN grid point makes its block's hinge sums NaN, not zero: that
        # block's backward pass spreads the NaN into the gradients, as the
        # full backward pass does, while the data-only gradients are finite
        rng = np.random.default_rng(6)
        model = lively_model(2, (8, 8))
        t, kappa, iv, weights = random_data(rng, 11)
        grid_t, grid_kappa = build_penalty_grid(12, 100)
        grid_kappa = grid_kappa.copy()
        grid_kappa[700] = np.nan
        pen = (1.0, 1.0, 1.0), (grid_t, grid_kappa)
        workspace = _Workspace(model, t.size, pen[1])
        _, want_grads = allocating_nn_loss_and_grads(model, t, kappa, iv, weights, *pen)
        total, _, grads = _loss_and_grads(model, t, kappa, iv, weights, *pen, workspace)
        assert math.isnan(total)
        assert any(np.isnan(g).any() for g in want_grads)
        for got, want in zip(grads, want_grads):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
        assert workspace.penalty_blocks_backpropagated >= 1
        _, _, data_grads = _loss_and_grads(model, t, kappa, iv, weights, (0.0, 0.0, 0.0),
                                           build_penalty_grid(1, 1))
        assert all(np.isfinite(g).all() for g in data_grads)
        monkeypatch.setattr(nn_iv, "HIDDEN", (8, 8))
        with pytest.raises(TrainingError) as err:
            _train_once(t, kappa, iv, weights, (1.0, 1.0, 1.0), pen[1],
                        seed=0, spot=SPOT, epochs=5)
        assert err.value.epoch == 1

    @pytest.mark.parametrize("hidden", [(8, 8, 8), (6,), (), (9, 4)])
    def test_one_off_forwards_bitwise(self, hidden):
        rng = np.random.default_rng(len(hidden))
        model = lively_model(7, hidden)
        t = rng.uniform(0.05, 3.0, (3, 11))
        kappa = rng.uniform(-0.6, 0.6, (3, 11))
        want = allocating_nn_forward(model, t, kappa)
        assert model.sigma(t, kappa).tobytes() == want.sigma.tobytes()
        assert model.sigma(t[0, 0], kappa[0, 0]) == want.sigma[0]
        assert model.sigma(t[:0, 0], kappa[:0, 0]).shape == (0,)
        for got, ref in zip(model.forward_theta(t, kappa), _theta_tuple(model, want)):
            assert got.shape == t.shape and got.tobytes() == ref.tobytes()

    def test_workspace_block_independent_of_grid_size(self):
        model = lively_model(3, (40, 40, 40))
        small, large = (_Workspace(model, 30, build_penalty_grid(n_t, 100))
                        for n_t in (20, 50))
        assert small.grid.n == large.grid.n == nn_iv.BLOCK_WIDTH
        block_bytes = [ws.grid.x.base.nbytes for ws in (small, large)]
        assert block_bytes[0] == block_bytes[1] < 5e6
        for ws in (small, large):
            assert ws.tail.n == ws.grid_t.size % nn_iv.BLOCK_WIDTH
            assert ws.tail.x.base.nbytes < block_bytes[0]
            assert [cols.stop - cols.start for cols, _ in ws.blocks()][-1] == ws.tail.n
            assert sum(p.n for _, p in ws.blocks()) == ws.grid_t.size

    def test_warm_workspace_allocates_no_layer_arrays(self):
        rng = np.random.default_rng(5)
        hidden = (40, 40, 40)
        model = lively_model(3, hidden)
        t, kappa, iv, weights = random_data(rng, 30)
        pen = (1.0, 1.0, 1.0), build_penalty_grid(20, 100)
        workspace = _Workspace(model, t.size, pen[1])
        _loss_and_grads(model, t, kappa, iv, weights, *pen, workspace)
        # the float32 screen's passes and parameter copies, rewritten in place
        m32 = workspace.model32
        screen_arrays = [workspace.grid32.x.base, workspace.tail32.x.base, workspace.grid_t32,
                         *m32.weights, *m32.biases, m32.input_mean, m32.input_scale]
        addresses = [a.ctypes.data for a in screen_arrays]
        model.weights = [w * 1.01 for w in model.weights]
        model.input_mean = model.input_mean + 0.1
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _loss_and_grads(model, t, kappa, iv, weights, *pen, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer_array = 40 * nn_iv.BLOCK_WIDTH * 8
        assert peak - before < 2 * layer_array
        assert [a.ctypes.data for a in screen_arrays] == addresses
        assert all(a.dtype == np.float32 for a in screen_arrays)
        for got, want in zip([*m32.weights, m32.input_mean], [*model.weights, model.input_mean]):
            assert got.tobytes() == want.astype(np.float32).tobytes()
        assert workspace.penalty_blocks == 2 * len(list(workspace.blocks()))


def screened_cli_training(tmp_path, monkeypatch, kind, *calibrate_args):
    """calibrate nn on a 4 x 10 synthetic book with every block audited in
    both precisions: (report.json, every block visit's audit record)."""
    built = []

    class Audited(DualPrecisionWorkspace):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(nn_iv, "_Workspace", Audited)
    market = tmp_path / "market"
    assert cli.main(["gen-synthetic", "--kind", kind, "--n-maturities", "4",
                     "--n-strikes", "10", "--out", str(market)]) == 0
    assert cli.main(["calibrate", "nn", "--quotes", str(market / "quotes.csv"),
                     "--rates", str(market / "rates.csv"), "--divs", str(market / "divs.csv"),
                     "--spot", "100", "--epochs", "5", *calibrate_args,
                     "--out", str(tmp_path / "nn")]) == 0
    with open(tmp_path / "nn" / "report.json") as fh:
        report = json.load(fh)
    return report, [record for ws in built for record in ws.audit]


def hinge_points(*points):
    cal, butt = np.array(points, dtype=float).T
    return cal, butt


class TestScreen:
    """The float32 screen clears a block only where float64 finds every hinge sum 0.0."""

    @pytest.mark.parametrize("kind, grid_args, all_cleared", [
        ("ssvi", (), False), ("flat", (), True),
        ("ssvi", ("--penalty-t", "7", "--penalty-k", "93"), False),
    ], ids=["ssvi", "flat", "ssvi-remainder"])
    def test_ci_books_in_both_precisions(self, kind, grid_args, all_cleared, tmp_path,
                                         monkeypatch):
        report, audit = screened_cli_training(tmp_path, monkeypatch, kind, *grid_args)
        cleared = [sums for ok, sums, _ in audit if ok]
        assert len(audit) == report["penalty_blocks"] > 0
        assert len(cleared) == report["penalty_blocks_screened"] > 0
        assert not [sums for sums in cleared if any(sums)]
        if all_cleared:
            assert len(cleared) == len(audit)

    @settings(max_examples=40, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 10), max_size=3),
        seed=st.integers(0, 2**16),
        gain=st.floats(1.0, 40.0),
        grid=st.tuples(st.integers(1, 8), st.integers(1, 80)),
        band=st.sampled_from([nn_iv.VARIANCE_BAND, (0.01, 0.09), (0.03, 0.05)]),
    )
    def test_random_nets_in_both_precisions(self, hidden, seed, gain, grid, band):
        model = NnIvModel.initialize(seed=seed, hidden=tuple(hidden), spot=SPOT)
        rng = np.random.default_rng(seed)
        model.input_mean = rng.normal(scale=0.3, size=2)
        model.input_scale = rng.uniform(0.2, 1.0, 2)
        model.weights[-1] = model.weights[-1] * gain
        model.biases[-1] = model.biases[-1] + rng.normal(scale=0.5, size=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn_iv, "VARIANCE_BAND", band)
            ws = DualPrecisionWorkspace(model, 1, build_penalty_grid(*grid))
            ws.refresh(model)
            for cols, _ in ws.blocks():
                ws.screen(cols)
        assert len(ws.audit) == len(list(ws.blocks()))
        assert not [sums for ok, sums, _ in ws.audit if ok and any(sums)]

    def test_clear_points_clear(self):
        # cal 0.04 on butt 1, and the band ratios 0.05 and 2 on smaller butts
        assert nn_iv._clears_every_hinge(*hinge_points((0.04, 1.0), (0.005, 0.1), (0.2, 0.1)))
        assert nn_iv._clears_every_hinge(*hinge_points((0.04, 1.0)))

    @pytest.mark.parametrize("point, band", [
        ((1e-7, 1.0), (0.0, 4.0)),                           # cal just above 0
        ((-0.01, 1.0), nn_iv.VARIANCE_BAND),                 # cal below 0
        ((4e-10, local_vol.DENOM_FLOOR + 1e-9), nn_iv.VARIANCE_BAND),   # butt at its floor
        ((0.04 * 5e-5, 5e-5), nn_iv.VARIANCE_BAND),          # butt under the margin
        ((-0.04, -1.0), nn_iv.VARIANCE_BAND),                # butt below 0
        ((1e-4 + 1e-6, 1.0), nn_iv.VARIANCE_BAND),           # ratio 1e-6 inside lo
        ((4.0 - 1e-6, 1.0), nn_iv.VARIANCE_BAND),            # ratio 1e-6 inside hi
        ((0.09 - 1e-6, 1.0), (0.01, 0.09)),                  # ... of a patched band
        ((0.01 * (0.01 + 1e-6), 0.01), (0.01, 0.09)),        # ... on a small butt
        ((5.0, 1.0), nn_iv.VARIANCE_BAND),                   # ratio above the band
        ((0.2, 1.0), (0.01, 0.09)),
        ((math.nan, 1.0), nn_iv.VARIANCE_BAND), ((0.04, math.nan), nn_iv.VARIANCE_BAND),
        ((math.inf, 1.0), nn_iv.VARIANCE_BAND), ((0.04, math.inf), nn_iv.VARIANCE_BAND),
    ], ids=["cal-near-0", "cal-negative", "butt-at-floor", "butt-under-margin", "butt-negative",
            "inside-lo", "inside-hi", "inside-patched-hi", "inside-lo-small-butt", "above",
            "above-patched", "cal-nan", "butt-nan", "cal-inf", "butt-inf"])
    def test_points_near_or_past_a_hinge_do_not_clear(self, point, band, monkeypatch):
        monkeypatch.setattr(nn_iv, "VARIANCE_BAND", band)
        assert not nn_iv._clears_every_hinge(*hinge_points(point))
        # one such point keeps a whole block of clear points from clearing
        assert not nn_iv._clears_every_hinge(*hinge_points(*[(0.05, 1.0)] * 7, point))


class TestSoftplus:
    def test_matches_logaddexp(self):
        z = np.concatenate([
            np.linspace(-1e3, 1e3, 20001), [0.0, -0.0, 5e-324, -5e-324, -745.2, 709.8],
            np.random.default_rng(0).normal(scale=5.0, size=20000),
        ])
        with np.errstate(under="ignore"):
            want = np.logaddexp(0.0, z)
        with np.errstate(all="raise"):
            got = nn_iv._softplus(z, np.empty_like(z), np.empty_like(z))
        assert set(got[z == 0.0].tolist()) == {math.log(2.0)}
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


class TestTraining:
    def test_flat_synthetic_recovery(self, monkeypatch):
        frame = flat_frame(sigma=0.2)
        monkeypatch.setattr(nn_iv, "HIDDEN", (20, 20, 20))
        model, report = train(
            frame, epochs=1500, lambdas=(1.0, 1.0, 1.0), penalty_grid=(15, 20), seed=1
        )
        # Sigma within half a vol point of 20% on the data hull
        t = np.linspace(0.3, 1.9, 9)
        kappa = np.linspace(-0.14, 0.2, 9)
        tt, kk = np.meshgrid(t, kappa, indexing="ij")
        sig = model.sigma(tt, kk)
        assert np.max(np.abs(sig - 0.2)) < 0.005
        # arbitrage penalties vanish on the grid
        assert report["components"]["mean_calendar_negative"] <= 1e-12
        assert report["components"]["mean_butterfly_negative"] <= 1e-12

    def test_training_deterministic(self, monkeypatch):
        frame = flat_frame(n_t=4, n_k=5)
        monkeypatch.setattr(nn_iv, "HIDDEN", (8, 8))
        m1, _ = train(frame, epochs=50, penalty_grid=(5, 6), seed=3)
        m2, _ = train(frame, epochs=50, penalty_grid=(5, 6), seed=3)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_best_so_far_monotone(self, monkeypatch):
        frame = flat_frame(n_t=4, n_k=5)
        monkeypatch.setattr(nn_iv, "HIDDEN", (8, 8))
        _, report = train(frame, epochs=120, penalty_grid=(5, 6), seed=3)
        totals = [h["total"] for h in report["history"]]
        best = np.minimum.accumulate(totals)
        assert np.all(np.diff(best) <= 0.0)
        assert report["best_epoch"] == 1 + totals.index(min(totals))

    @pytest.mark.parametrize("field", ["epochs"])
    def test_negative_epochs_rejected(self, field, monkeypatch):
        frame = flat_frame(n_t=2, n_k=2)
        monkeypatch.setattr(nn_iv, "HIDDEN", (4,))
        with pytest.raises(ValueError, match="nonnegative"):
            train(frame, penalty_grid=(2, 2), **{field: -1})
        assert train(frame, penalty_grid=(2, 2), **{field: 0})[1][field] == 0

    @pytest.mark.parametrize("kwargs", [
        {"lambdas": (-1.0, 1.0, 1.0)}, {"lambdas": (1.0, 1.0)},
        {"lambdas": (math.nan, 1.0, 1.0)}, {"lambdas": (1.0, math.inf, 1.0)},
        {"penalty_grid": (0, 5)}, {"penalty_grid": (5, 0)},
    ], ids=["negative", "two", "nan", "inf", "no-maturities", "no-moneyness"])
    def test_bad_penalty_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            train(flat_frame(n_t=2, n_k=2), epochs=0, **kwargs)

    def test_divergent_loss_raises(self, monkeypatch):
        t = np.array([0.5, 1.0])
        kappa = np.array([0.0, 0.1])
        iv = np.array([0.2, np.nan])
        monkeypatch.setattr(nn_iv, "HIDDEN", (4,))
        with pytest.raises(TrainingError) as err:
            _train_once(
                t, kappa, iv, np.array([0.5, 0.5]), (1.0, 1.0, 1.0), build_penalty_grid(3, 3),
                seed=0, spot=SPOT, epochs=5,
            )
        assert err.value.epoch == 1

    def test_unpenalized_run_on_arbitrable_data_reports_positive_stats(self, monkeypatch):
        # total variance decreasing in maturity: calendar-arbitrageable IVs
        curves = CurveSet(
            spot=SPOT, rate_curve=Curve.flat(0.0), dividend_curve=Curve.flat(0.0)
        )
        quotes = []
        for t in (0.5, 1.0, 1.5, 2.0):
            iv = math.sqrt(0.05 * (2.6 - t) / t)
            for m in (0.9, 0.95, 1.0, 1.05, 1.1):
                strike = m * SPOT
                mid = put_price(SPOT, strike, t, iv)
                quotes.append((t, strike, mid, mid, iv))
        frame = build_frame(quote_table(quotes), curves)
        monkeypatch.setattr(nn_iv, "HIDDEN", (12, 12))
        monkeypatch.setattr(nn_iv, "PENALTY_MATURITY_RANGE", (0.3, 2.2))
        monkeypatch.setattr(nn_iv, "PENALTY_MONEYNESS_RANGE", (0.9, 1.1))
        model, report = train(
            frame, epochs=400, lambdas=(0.0, 0.0, 0.0), penalty_grid=(8, 10), seed=4
        )
        comp = report["components"]
        # the unpenalized fit reproduces the decreasing term structure, so the
        # raw calendar statistic is strictly positive even though lambda = 0
        assert comp["mean_calendar_negative"] > 0.0
        assert comp["calendar_penalty"] == 0.0

    def test_lambda_search_selects_and_reports(self, monkeypatch):
        frame = flat_frame(n_t=4, n_k=5)
        monkeypatch.setattr(nn_iv, "HIDDEN", (8, 8))
        monkeypatch.setattr(nn_iv, "SEARCH_EPOCHS", 30)
        monkeypatch.setattr(nn_iv, "LAMBDA_CANDIDATES", ((0.1, 0.1, 0.1), (1.0, 1.0, 1.0)))
        model, report = train(frame, epochs=60, penalty_grid=(5, 6), lambda_search=True, seed=2)
        assert len(report["lambda_search"]) == 2
        assert report["lambdas"] in ([0.1, 0.1, 0.1], [1.0, 1.0, 1.0])


    def test_one_workspace_per_training_run(self, monkeypatch):
        # the report scores the returned model on the run's own workspace
        built = []

        class CountingWorkspace(nn_iv._Workspace):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(nn_iv, "_Workspace", CountingWorkspace)
        monkeypatch.setattr(nn_iv, "HIDDEN", (8, 8))
        monkeypatch.setattr(nn_iv, "SEARCH_EPOCHS", 3)
        monkeypatch.setattr(nn_iv, "LAMBDA_CANDIDATES", ((0.1, 0.1, 0.1), (1.0, 1.0, 1.0)))
        frame = flat_frame(n_t=4, n_k=5)
        t, kappa, iv, _ = _observations(frame)
        weights = compute_weights(np.column_stack([t, kappa]))
        for epochs, search, runs in ((7, False, 1), (0, False, 1), (6, True, 3)):
            built.clear()
            model, report = train(frame, epochs=epochs, penalty_grid=(5, 6),
                                  lambda_search=search, seed=2)
            assert len(built) == runs
            assert (report["final_total"], report["components"]) == nn_loss(
                model, t, kappa, iv, weights, tuple(report["lambdas"]), build_penalty_grid(5, 6)
            )
            # the 30-point grid is one block an epoch, on the last run's workspace
            blocks = [report[k] for k in ("penalty_blocks", "penalty_blocks_backpropagated",
                                          "penalty_blocks_screened")]
            assert blocks[0] == epochs
            assert blocks[1] + blocks[2] <= epochs
            if epochs:
                assert min(h["total"] for h in report["history"]) == report["final_total"]
                assert blocks[2] > 0
            else:
                assert report["best_epoch"] == 0
                assert blocks == [0, 0, 0]


class TestPutPrices:
    def test_bitwise_against_per_point_oracle(self):
        frame = term_structure_cev_frame()
        model = NnIvModel.initialize(seed=3, hidden=(6, 6))
        for part in (frame, frame.subset(np.arange(len(frame) - 1, -1, -2))):
            # each quote priced alone from its value in one batched sigma call
            batched = iter(model.sigma(part.maturity, part.log_moneyness).tolist())
            want = per_point_put_prices(part, lambda t, kappa: next(batched))
            got = model.put_prices(part)
            assert got.tobytes() == want.tobytes()
            # and within round-off of a forward pass per quote
            assert got == pytest.approx(per_point_put_prices(part, model.sigma), rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        model = small_model(seed=13)
        doc = model_to_json(model)
        back = model_from_json(doc)
        t = np.array([0.5, 1.5])
        kappa = np.array([-0.1, 0.2])
        assert back.sigma(t, kappa) == pytest.approx(model.sigma(t, kappa), rel=1e-15)
        assert model_to_json(back) == doc

    def test_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            model_from_json({"version": "gpmodel/1"})
