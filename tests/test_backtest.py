import math

import numpy as np
import pytest

from volsurf.backtest import (
    BacktestReport,
    SyntheticSpec,
    cn_option_prices,
    generate_synthetic,
    price_cn,
    price_mc,
    report,
    run_backtest,
    write_curve_csv,
    write_quotes_csv,
)
from volsurf import backtest
from volsurf.black_scholes import implied_vol, put_price
from volsurf.local_vol import LocalVolGrid
from volsurf.market_data import (
    Curve,
    CurveSet,
    build_frame,
    load_curve,
    load_quotes,
)

from oracles import (
    allocating_price_mc,
    frame_rows,
    quote_rows,
    quote_table,
    scalar_frame_points,
    scalar_report,
    scalar_synthetic_quotes,
)


def market_prices(frame):
    """Currency mid prices of the frame's quotes, one quote at a time."""
    return np.array([mid / float(frame.curves.growth(t))
                     for t, mid in zip(frame.maturity.tolist(), frame.reduced_mid.tolist())])

SPOT = 100.0


def make_curves(r=0.0, q=0.0):
    return CurveSet(spot=SPOT, rate_curve=Curve.flat(r), dividend_curve=Curve.flat(q))


def flat_grid(sigma=0.2, t_hi=3.0):
    return LocalVolGrid.flat(sigma, np.linspace(0.01, t_hi, 12), np.linspace(20.0, 260.0, 15))


class TestPriceMc:
    def test_flat_vol_matches_black_scholes(self):
        curves = make_curves()
        lv = flat_grid(0.2)
        options = [(1.0, 100.0)]
        prices, stderrs = price_mc(lv, curves, options, n_paths=100_000, n_steps=100, seed=7)
        bs = put_price(SPOT, 100.0, 1.0, 0.2)
        assert abs(prices[0] - bs) < 3.0 * stderrs[0]
        assert stderrs[0] < 0.06

    def test_zero_vol_gives_discounted_intrinsic(self):
        curves = make_curves(r=0.03, q=0.01)
        lv = LocalVolGrid.flat(1e-12, np.linspace(0.01, 2.0, 5), np.linspace(20.0, 260.0, 5))
        options = [(1.0, 120.0), (1.0, 80.0)]
        prices, _ = price_mc(lv, curves, options, n_paths=2_000, n_steps=20, seed=1)
        fwd = float(curves.forward(1.0))
        df = float(curves.discount(1.0))
        assert prices[0] == pytest.approx(df * (120.0 - fwd), rel=1e-9)
        assert prices[1] == pytest.approx(0.0, abs=1e-12)

    def test_stderr_scaling_with_paths(self):
        curves = make_curves()
        lv = flat_grid()
        options = [(0.5, 105.0)]
        _, err1 = price_mc(lv, curves, options, n_paths=20_000, n_steps=40, seed=3)
        _, err2 = price_mc(lv, curves, options, n_paths=40_000, n_steps=40, seed=3)
        ratio = err1[0] / err2[0]
        assert abs(ratio - math.sqrt(2.0)) < 0.1 * math.sqrt(2.0)

    def test_deterministic_given_seed(self):
        curves = make_curves()
        lv = flat_grid()
        options = [(0.5, 95.0), (1.5, 110.0)]
        p1, _ = price_mc(lv, curves, options, n_paths=5_000, n_steps=30, seed=11)
        p2, _ = price_mc(lv, curves, options, n_paths=5_000, n_steps=30, seed=11)
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("n_steps", [0, -1, -3])
    def test_fewer_than_one_step_rejected(self, n_steps):
        with pytest.raises(ValueError, match="time step"):
            price_mc(flat_grid(), make_curves(), [(1.0, 100.0)], n_paths=10, n_steps=n_steps)

    def test_bitwise_the_allocating_loop(self):
        rng = np.random.default_rng(4)
        t_axis = np.geomspace(0.05, 2.0, 9)
        k_axis = np.linspace(70.0, 140.0, 12)
        lv = LocalVolGrid(t_axis, k_axis, rng.uniform(0.1, 0.6, (9, 12)),
                          rng.uniform(size=(9, 12)) > 0.2)
        curves = make_curves(r=0.03, q=0.01)
        options = [(0.37, 90.0), (0.37, 104.0), (1.0, 100.0), (1.55, 120.0), (1.8, 75.0)]
        got = price_mc(lv, curves, options, n_paths=500, n_steps=10, seed=9)
        want = allocating_price_mc(lv, curves, options, n_paths=500, n_steps=10, seed=9)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_nonzero_rates_priced_correctly(self):
        curves = make_curves(r=0.04, q=0.015)
        lv = flat_grid(0.25)
        t, strike = 1.5, 103.0
        prices, stderrs = price_mc(lv, curves, [(t, strike)], n_paths=100_000, n_steps=80, seed=2)
        bs = put_price(float(curves.forward(t)), strike, t, 0.25, float(curves.discount(t)))
        assert abs(prices[0] - bs) < 3.0 * stderrs[0]


class TestPriceCn:
    def test_flat_vol_iv_rmse_small(self):
        curves = make_curves(r=0.02, q=0.01)
        lv = flat_grid(0.2)
        solution = price_cn(lv, curves, t_max=2.5, n_t=100, n_k=100)
        errs = []
        for t in np.linspace(0.3, 2.4, 8):
            fwd = float(curves.forward(t))
            df = float(curves.discount(t))
            for m in np.linspace(0.85, 1.25, 9):
                strike = m * SPOT
                k = float(curves.reduced_strike(strike, t))
                got = solution.price_at(t, k)
                iv = implied_vol(got, fwd, strike, t, df)
                errs.append(iv - 0.2)
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse < 0.012

    def test_zero_local_vol_keeps_payoff(self):
        curves = make_curves()
        lv = LocalVolGrid.flat(1e-14, np.linspace(0.01, 2.0, 5), np.linspace(20.0, 260.0, 5))
        solution = price_cn(lv, curves, t_max=2.0, n_t=40, n_k=60)
        payoff = np.maximum(solution.k_axis - SPOT, 0.0)
        assert np.max(np.abs(solution.reduced - payoff[None, :])) < 1e-10

    def test_solution_monotone_in_t_and_convex_in_k(self):
        curves = make_curves()
        lv = flat_grid(0.25)
        solution = price_cn(lv, curves, t_max=2.0, n_t=80, n_k=90)
        assert np.min(np.diff(solution.reduced, axis=0)) >= -1e-8
        assert np.min(np.diff(solution.reduced, n=2, axis=1)) >= -1e-8

    def test_one_lookup_per_time_level(self, monkeypatch):
        lv = flat_grid(0.2)
        times = []
        real = LocalVolGrid.lookup

        def spy(self, t, k):
            times.append(float(t))
            return real(self, t, k)

        monkeypatch.setattr(LocalVolGrid, "lookup", spy)
        solution = price_cn(lv, make_curves(), t_max=2.0, n_t=30, n_k=40)
        assert times == solution.t_axis.tolist()

    def test_domain_error_outside_grid(self):
        curves = make_curves()
        lv = flat_grid()
        solution = price_cn(lv, curves, t_max=1.0, n_t=20, n_k=30)
        with pytest.raises(Exception, match="outside"):
            solution.reduced_at(0.5, solution.k_axis[-1] * 1.5)


class TestReport:
    def make_frame(self):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(
                kind="flat", sigma=0.2, spread=0.0,
                maturities=tuple(np.linspace(0.5, 2.0, 4).tolist()),
                moneyness=tuple(np.linspace(0.9, 1.1, 5).tolist()),
            ),
            curves,
        )
        return build_frame(quotes, curves)

    def test_perfect_prices_zero_rmse(self):
        frame = self.make_frame()
        prices = market_prices(frame)
        rep = report(prices, frame, "cn")
        assert rep.price_rmse == pytest.approx(0.0, abs=1e-14)
        assert rep.iv_rmse == pytest.approx(0.0, abs=1e-9)

    def test_constant_shift_price_rmse(self):
        frame = self.make_frame()
        prices = market_prices(frame) + 1.0
        rep = report(prices, frame, "mc")
        assert rep.price_rmse == pytest.approx(1.0, rel=1e-12)

    def test_uninvertible_row_flagged_and_excluded(self):
        frame = self.make_frame()
        prices = market_prices(frame)
        prices[3] = -1.0  # impossible price
        rep = report(prices, frame, "mc")
        assert rep.n_iv_failures == 1
        assert rep.rows[3]["model_iv"] is None
        assert np.isfinite(rep.iv_rmse)

    def test_permutation_invariance(self):
        frame = self.make_frame()
        base = market_prices(frame)
        rng = np.random.default_rng(0)
        noisy = base * (1.0 + 0.01 * rng.standard_normal(base.size))
        rep = report(noisy, frame, "mc")
        # permute frame quotes and prices together
        perm = rng.permutation(base.size)
        frame2 = frame.subset(perm)
        rep2 = report(noisy[perm], frame2, "mc")
        assert rep2.price_rmse == pytest.approx(rep.price_rmse, rel=1e-12)
        assert rep2.iv_rmse == pytest.approx(rep.iv_rmse, rel=1e-12)

    def test_csv_and_json(self, tmp_path):
        frame = self.make_frame()
        prices = market_prices(frame)
        rep = report(prices, frame, "cn", runtime=1.5)
        doc = rep.to_json()
        assert doc["method"] == "cn"
        assert doc["n_options"] == len(frame)
        path = tmp_path / "rows.csv"
        rep.write_csv(path)
        assert len(path.read_text().strip().splitlines()) == 1 + len(frame)


class TestRunBacktest:
    def test_cn_flat(self):
        curves = make_curves(r=0.02, q=0.01)
        quotes = generate_synthetic(
            SyntheticSpec(
                kind="flat",
                maturities=tuple(np.linspace(0.3, 2.0, 6).tolist()),
                moneyness=tuple(np.linspace(0.9, 1.15, 7).tolist()),
            ),
            curves,
        )
        frame = build_frame(quotes, curves)
        rep = run_backtest(flat_grid(0.2), frame, "cn")
        assert rep.iv_rmse < 0.012
        assert rep.method == "cn"
        assert rep.diagnostics == {"time_levels": 100, "strike_nodes": 100,
                                   "negative_values_clamped": 0}
        assert rep.to_json()["diagnostics"] == rep.diagnostics

    def test_mc_deterministic_reports(self):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(
                kind="flat",
                maturities=(0.5, 1.0),
                moneyness=(0.95, 1.0, 1.05),
            ),
            curves,
        )
        frame = build_frame(quotes, curves)
        rep1 = run_backtest(flat_grid(0.2), frame, "mc", n_paths=10_000, n_steps=25, seed=9)
        rep2 = run_backtest(flat_grid(0.2), frame, "mc", n_paths=10_000, n_steps=25, seed=9)
        assert rep1.price_rmse == rep2.price_rmse
        assert rep1.iv_rmse == rep2.iv_rmse
        assert rep1.diagnostics == rep2.diagnostics

    def test_mc_diagnostics(self, monkeypatch):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(kind="flat", maturities=(0.5, 1.0), moneyness=(0.95, 1.0, 1.05)),
            curves,
        )
        frame = build_frame(quotes, curves)
        lookups = []
        real = LocalVolGrid.lookup

        def spy(self, t, k):
            lookups.append(t)
            return real(self, t, k)

        monkeypatch.setattr(LocalVolGrid, "lookup", spy)
        rep = run_backtest(flat_grid(0.2), frame, "mc", n_paths=2_000, n_steps=25, seed=9)
        # 0.04 steps to 1.0, and 0.5 between two of them
        diagnostics = rep.diagnostics
        assert diagnostics["time_levels"] == len(lookups) + 1 == 27
        assert diagnostics["paths"] == 2_000
        _, stderrs = price_mc(flat_grid(0.2), curves,
                              list(zip(frame.maturity.tolist(), frame.strike.tolist())),
                              n_paths=2_000, n_steps=25, seed=9)
        assert diagnostics["max_price_stderr"] == stderrs.max()
        assert diagnostics["mean_price_stderr"] == stderrs.mean()

    def test_unknown_method(self):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(kind="flat", maturities=(0.5, 1.0), moneyness=(0.95, 1.05)), curves
        )
        frame = build_frame(quotes, curves)
        with pytest.raises(ValueError, match="method"):
            run_backtest(flat_grid(), frame, "pde")

    def test_mc_and_cn_agree_on_flat_model(self):
        curves = make_curves(r=0.02, q=0.01)
        lv = flat_grid(0.2)
        options = [(0.5, 95.0), (1.0, 100.0), (1.5, 110.0), (2.0, 105.0)]
        mc_prices, mc_err = price_mc(lv, curves, options, n_paths=60_000, n_steps=60, seed=21)
        solution = price_cn(lv, curves, t_max=2.0, n_t=100, n_k=120)
        cn_prices = cn_option_prices(solution, curves, options)
        # within 3 MC standard errors plus a CN grid-error allowance
        for mc_p, cn_p, se in zip(mc_prices, cn_prices, mc_err):
            assert abs(mc_p - cn_p) <= 3.0 * se + 0.02


class TestGenerateSynthetic:
    def test_flat_mid_iv_exact(self):
        curves = make_curves(r=0.02, q=0.01)
        quotes = generate_synthetic(
            SyntheticSpec(kind="flat", sigma=0.2, maturities=(0.5, 1.0), moneyness=(0.9, 1.0)),
            curves,
        )
        for t, strike, bid, ask, listed_iv in quote_rows(quotes):
            fwd = float(curves.forward(t))
            df = float(curves.discount(t))
            iv = implied_vol(0.5 * (bid + ask), fwd, strike, t, df)
            assert iv == pytest.approx(0.2, abs=1e-9)
            assert listed_iv == 0.2

    def test_zero_spread_bid_equals_ask(self):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(kind="flat", spread=0.0, maturities=(1.0,), moneyness=(1.0,)), curves
        )
        assert quotes["bid"][0] == quotes["ask"][0]

    def test_ssvi_passes_arbitrage_check(self):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(kind="ssvi", rho=-0.3, eta=1.2, maturities=(0.5, 1.0, 1.5),
                          moneyness=(0.9, 1.0, 1.1)),
            curves,
        )
        assert len(quotes["maturity"]) == 9
        assert np.all(quotes["iv"] > 0)

    def test_invalid_ssvi_rejected(self):
        curves = make_curves()
        with pytest.raises(ValueError, match="no-arbitrage"):
            generate_synthetic(
                SyntheticSpec(kind="ssvi", rho=-0.5, eta=1.5, maturities=(0.5, 1.0),
                              moneyness=(1.0,)),
                curves,
            )

    def test_cev_quotes_invertible(self):
        curves = make_curves(r=0.01)
        quotes = generate_synthetic(
            SyntheticSpec(kind="cev", sigma0=2.0, beta=0.5, maturities=(0.5, 1.0, 1.5),
                          moneyness=(0.9, 1.0, 1.1)),
            curves,
        )
        assert len(quotes["maturity"]) == 9
        # CEV with beta < 1 has a downward skew in strike
        ivs_by_t = {}
        for t, strike, _, _, listed_iv in quote_rows(quotes):
            ivs_by_t.setdefault(t, []).append((strike, listed_iv))
        for rows in ivs_by_t.values():
            rows.sort()
            ivs = [iv for _, iv in rows]
            assert ivs[0] > ivs[-1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SyntheticSpec(kind="heston")

    @pytest.mark.parametrize("kind", ["flat", "ssvi", "cev"])
    @pytest.mark.parametrize("bad", [
        {"maturities": (0.0, 1.0)}, {"maturities": (-0.5, 1.0)}, {"moneyness": (0.0, 1.0)},
        {"spread": 2.0}, {"spread": -0.1},
    ])
    def test_bad_ranges_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="positive|spread"):
            SyntheticSpec(kind=kind, **bad)

    def test_quote_csv_round_trip(self, tmp_path):
        curves = make_curves()
        quotes = generate_synthetic(
            SyntheticSpec(kind="flat", maturities=(0.5, 1.0), moneyness=(0.95, 1.05)), curves
        )
        path = tmp_path / "quotes.csv"
        write_quotes_csv(quotes, path)
        assert quote_rows(load_quotes(path)) == quote_rows(quotes)

    def test_curve_csv_round_trip(self, tmp_path):
        path = tmp_path / "rates.csv"
        write_curve_csv([0.0, 2.0], [0.02, 0.025], path)
        curve = load_curve(path)
        assert curve.value(1.0) == pytest.approx(0.0225)


class TestScalarReference:
    """The vectorised quote path against per-quote scalar loops, compared exactly."""

    @staticmethod
    def curves():
        return CurveSet(spot=100.0, rate_curve=Curve([0.0, 0.5, 1.5, 4.0], [0.01, 0.03, 0.02, 0.04]),
                        dividend_curve=Curve([0.0, 2.0, 5.0], [0.005, 0.02, 0.01]))

    @staticmethod
    def cev_book(curves, monkeypatch):
        """A CEV book, plus the CN solution generate_synthetic priced it with."""
        solved = []
        solve = backtest.price_cn
        monkeypatch.setattr(backtest, "price_cn",
                            lambda *a, **kw: solved.append(solve(*a, **kw)) or solved[-1])
        spec = SyntheticSpec(kind="cev", sigma0=2.0, beta=0.5,
                             maturities=tuple(np.linspace(0.04, 2.4, 9).tolist()),
                             moneyness=tuple(np.linspace(0.6, 1.6, 23).tolist()))
        return spec, generate_synthetic(spec, curves), solved[0]

    def test_build_frame_and_report(self, monkeypatch):
        curves = self.curves()
        _, quotes, _ = self.cev_book(curves, monkeypatch)
        # one quote per rejection reason, and ones with no usable listed iv
        rows = quote_rows(quotes)
        t, strike, bid, ask, iv = rows[40]
        inf, nan = math.inf, math.nan
        rows += [
            (nan, strike, bid, ask, iv), (t, strike, inf, ask, iv),
            (t, 0.0, bid, ask, iv), (-t, strike, -bid, ask, iv),
            (t, strike, -bid, ask, iv), (0.01, strike, ask, bid, iv),
            (t, strike, strike, strike * 2, iv), (t, strike, bid, ask, iv * 1.5),
            (t, strike, bid, ask, nan), (t, strike, bid, ask, 0.0), (t, strike, bid, ask, inf),
        ]
        quotes = quote_table(rows)
        frame = build_frame(quotes, curves)
        points, rejected = scalar_frame_points(quotes, curves)
        assert frame_rows(frame) == points
        assert np.array(frame_rows(frame)).tobytes() == np.array(points).tobytes()
        assert list(frame.rejected) == rejected
        assert {reason for _, reason in rejected} == {
            "non-numeric field", "maturity or strike not positive", "negative bid",
            "crossed quote", "below minimum maturity", "mid price outside arbitrage band",
            "listed iv inconsistent with mid price",
        }

        market = market_prices(frame)
        prices = market * np.linspace(0.9, 1.1, market.size)
        prices[::17] = -1.0                       # uninvertible rows
        got = report(prices, frame, "cn")
        rows, price_rmse, iv_rmse, failures = scalar_report(prices, frame)
        assert got.rows == rows
        assert (got.price_rmse, got.iv_rmse, got.n_iv_failures) == (price_rmse, iv_rmse, failures)
        assert failures >= len(prices[::17])

    def test_cn_option_prices(self, monkeypatch):
        curves = self.curves()
        _, quotes, cn = self.cev_book(curves, monkeypatch)
        options = [(t, k) for t, k, *_ in quote_rows(quotes)]
        want = np.array([cn.price_at(t, float(curves.reduced_strike(k, t))) for t, k in options])
        assert cn_option_prices(cn, curves, options).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["flat", "ssvi", "cev"])
    def test_generate_synthetic_quotes_csv(self, kind, tmp_path, monkeypatch):
        curves = self.curves()
        if kind == "cev":
            spec, quotes, cn = self.cev_book(curves, monkeypatch)
        else:
            spec = SyntheticSpec(kind=kind, maturities=tuple(np.linspace(0.1, 2.5, 7).tolist()),
                                 moneyness=tuple(np.linspace(0.7, 1.4, 15).tolist()))
            quotes, cn = generate_synthetic(spec, curves), None
        reference = quote_table(scalar_synthetic_quotes(spec, curves, cn))
        write_quotes_csv(quotes, tmp_path / "got.csv")
        write_quotes_csv(reference, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
