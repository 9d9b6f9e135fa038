import math
from dataclasses import replace

import numpy as np
import pytest

from volsurf.black_scholes import put_price
from volsurf import market_data
from volsurf.gp_price_surface import quote_observations
from volsurf.market_data import (
    AffineScaling,
    Curve,
    CurveSet,
    EmptyInputError,
    MarketFrame,
    QuoteRecord,
    SchemaError,
    build_frame,
    load_curve,
    load_quotes,
)


def make_curves(spot=100.0, r=0.02, q=0.01):
    return CurveSet(spot=spot, rate_curve=Curve.flat(r), dividend_curve=Curve.flat(q))


def synthetic_quotes(curves, maturities, moneyness, vol=0.2, spread=0.01):
    quotes = []
    for t in maturities:
        forward = float(curves.forward(t))
        discount = float(curves.discount(t))
        for m in moneyness:
            strike = m * curves.spot
            mid = put_price(forward, strike, t, vol, discount)
            quotes.append(
                QuoteRecord(
                    maturity=t,
                    strike=strike,
                    bid=mid * (1 - spread),
                    ask=mid * (1 + spread),
                    listed_iv=vol,
                )
            )
    return quotes


class TestQuoteRecord:
    def test_invariants(self):
        with pytest.raises(ValueError, match="crossed"):
            QuoteRecord(maturity=1.0, strike=100.0, bid=5.0, ask=4.0)
        with pytest.raises(ValueError):
            QuoteRecord(maturity=-1.0, strike=100.0, bid=1.0, ask=2.0)
        with pytest.raises(ValueError):
            QuoteRecord(maturity=1.0, strike=0.0, bid=1.0, ask=2.0)

    def test_mid(self):
        q = QuoteRecord(maturity=1.0, strike=100.0, bid=4.0, ask=6.0)
        assert q.mid == 5.0


class TestCurve:
    def test_flat_integral(self):
        c = Curve.flat(0.03)
        assert c.integral(2.0) == pytest.approx(0.06)
        assert c.value(37.0) == pytest.approx(0.03)

    def test_piecewise_integral_matches_quadrature(self):
        c = Curve([0.5, 1.0, 2.0], [0.01, 0.02, 0.015])
        ts = np.linspace(0.0, 3.0, 31)
        for t in ts:
            grid = np.linspace(0.0, max(t, 1e-12), 20001)
            brute = np.trapezoid(c.value(grid), grid)
            assert c.integral(t) == pytest.approx(brute, abs=1e-8)

    def test_rejects_bad_tenors(self):
        with pytest.raises(ValueError):
            Curve([1.0, 1.0], [0.1, 0.1])


class TestLoadQuotes:
    def test_direct_parse(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask,iv\n1.0,2800,57.2,58.0,0.182\n")
        quotes = load_quotes(f)
        assert len(quotes) == 1
        q = quotes[0]
        assert (q.maturity, q.strike, q.bid, q.ask, q.listed_iv) == (1.0, 2800.0, 57.2, 58.0, 0.182)

    def test_crossed_quote_rejected(self, tmp_path, caplog):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask,iv\n1.0,100,5.0,4.0,0.2\n1.0,100,4.0,5.0,0.2\n")
        with caplog.at_level("WARNING"):
            quotes = load_quotes(f)
        assert len(quotes) == 1
        assert any("crossed quote" in r.message for r in caplog.records)

    def test_header_only_returns_empty_with_warning(self, tmp_path, caplog):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask,iv\n")
        with caplog.at_level("WARNING"):
            quotes = load_quotes(f)
        assert quotes == []
        assert any("no quote rows" in r.message for r in caplog.records)

    def test_missing_column_raises_schema_error(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid\n1.0,100,5.0\n")
        with pytest.raises(SchemaError):
            load_quotes(f)

    def test_empty_file_raises(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("")
        with pytest.raises(EmptyInputError):
            load_quotes(f)

    def test_non_numeric_and_nonpositive_rows_rejected(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "maturity,strike,bid,ask,iv\n"
            "abc,100,1,2,0.2\n"
            "-1.0,100,1,2,0.2\n"
            "1.0,100,1,2,\n"
        )
        quotes = load_quotes(f)
        assert len(quotes) == 1
        assert quotes[0].listed_iv is None


class TestLoadCurve:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("tenor,value\n0.5,0.01\n2.0,0.02\n")
        c = load_curve(f)
        assert c.value(2.0) == pytest.approx(0.02)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("t,v\n0.5,0.01\n")
        with pytest.raises(SchemaError):
            load_curve(f)


class TestBuildFrame:
    def test_short_maturity_excluded(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [0.02, 0.5, 1.0], [0.9, 1.0, 1.1])
        frame = build_frame(quotes, curves)
        assert np.all(frame.maturity >= 0.055)
        assert sum(1 for _, reason in frame.rejected if "maturity" in reason) == 3

    def test_constant_r_equals_q_gives_k_equal_strike(self):
        curves = make_curves(r=0.015, q=0.015)
        quotes = synthetic_quotes(curves, [0.5, 1.0], [0.9, 1.0, 1.1])
        frame = build_frame(quotes, curves)
        assert frame.reduced_strike == pytest.approx(frame.strike, rel=1e-14)

    def test_iv_gap_filter(self, monkeypatch):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [1.0], [0.9, 1.0, 1.1], vol=0.212)
        # listed iv says 0.20 while the prices imply 0.212: 6% relative gap
        quotes = [
            QuoteRecord(q.maturity, q.strike, q.bid, q.ask, listed_iv=0.20) for q in quotes
        ]
        with pytest.raises(EmptyInputError):
            build_frame(quotes, curves)
        monkeypatch.setattr(market_data, "IV_GAP_TOL", 0.10)
        frame = build_frame(quotes, curves)
        assert len(frame) == 3

    def test_reduced_price_transform(self):
        curves = make_curves(r=0.03, q=0.02)
        quotes = synthetic_quotes(curves, [1.5], [1.0], spread=0.0)
        frame = build_frame(quotes, curves)
        growth = math.exp(curves.dividend_curve.integral(1.5))
        assert frame.reduced_mid[0] == pytest.approx(growth * quotes[0].mid, rel=1e-14)
        assert frame.reduced_strike[0] == pytest.approx(
            quotes[0].strike * math.exp(-(curves.carry(1.5))), rel=1e-14
        )
        assert frame.log_moneyness[0] == pytest.approx(
            math.log(frame.reduced_strike[0] / 100.0)
        )

    def test_bid_mid_ask_ordering(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [0.5, 1.0, 2.0], np.linspace(0.85, 1.2, 7))
        frame = build_frame(quotes, curves)
        assert np.all(frame.reduced_bid <= frame.reduced_mid)
        assert np.all(frame.reduced_mid <= frame.reduced_ask)

    def test_filtering_idempotent(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [0.02, 0.5, 1.0, 2.0], [0.9, 1.0, 1.1])
        frame = build_frame(quotes, curves)
        # re-feed the raw (unreduced) quotes of the survivors
        survivors = [q for q in quotes if q.maturity >= 0.055]
        frame2 = build_frame(survivors, curves)
        assert len(frame2) == len(frame)
        assert frame2.rejected == ()

    def test_curves_must_cover_maturities(self):
        curves = CurveSet(
            spot=100.0, rate_curve=Curve([0.0, 1.0], [0.02, 0.02]),
            dividend_curve=Curve.flat(0.0),
        )
        quotes = synthetic_quotes(make_curves(r=0.02, q=0.0), [2.0], [1.0])
        with pytest.raises(ValueError, match="cover"):
            build_frame(quotes, curves)

    def test_empty_frame_error(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [0.01, 0.02], [1.0])
        with pytest.raises(EmptyInputError):
            build_frame(quotes, curves)

    def test_quote_observations_shape(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [0.5, 1.0], [0.9, 1.0, 1.1])
        frame = build_frame(quotes, curves)
        u, v, m, d = quote_observations(frame)
        assert u.shape == v.shape == m.shape == d.shape == (len(frame),)
        assert m[0] == 0.5 * (frame.reduced_bid[0] + frame.reduced_ask[0])
        assert d[0] == frame.reduced_bid[0] - frame.reduced_ask[0]


class TestFrameColumns:
    def frame(self):
        curves = make_curves()
        return build_frame(synthetic_quotes(curves, [0.5, 1.0], [0.9, 1.0, 1.1]), curves)

    def test_columns_reject_writes(self):
        frame = self.frame()
        for name in MarketFrame.COLUMNS:
            column = getattr(frame, name)
            assert column.dtype == np.float64 and column.shape == (len(frame),)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        with pytest.raises(AttributeError):
            frame.maturity = np.ones(len(frame))

    def test_frame_owns_its_columns(self):
        frame = self.frame()
        t = np.linspace(0.5, 1.0, 3)
        copy = replace(frame.subset(slice(0, 3)), maturity=t)
        t[0] = 9.0
        assert copy.maturity[0] == 0.5

    def test_subset_keeps_scaling_and_curves(self):
        frame = self.frame()
        part = frame.subset(np.array([4, 1]))
        assert part.scaling is frame.scaling and part.curves is frame.curves
        for name in MarketFrame.COLUMNS:
            assert getattr(part, name).tolist() == getattr(frame, name)[[4, 1]].tolist()


class TestUnitSquare:
    def test_endpoints_and_midpoint(self):
        s = AffineScaling(t_min=0.25, t_max=2.0, k_min=80.0, k_max=120.0)
        assert s.to_unit(0.25, 80.0) == (0.0, 0.0)
        assert s.to_unit(2.0, 120.0) == (1.0, 1.0)
        u, v = s.to_unit(0.5 * (0.25 + 2.0), 100.0)
        assert u == pytest.approx(0.5)
        assert v == pytest.approx(0.5)

    def test_round_trip_random(self):
        s = AffineScaling(t_min=0.1, t_max=2.7, k_min=55.0, k_max=161.0)
        rng = np.random.default_rng(0)
        t = rng.uniform(0.05, 3.0, size=500)
        k = rng.uniform(40.0, 180.0, size=500)
        u, v = s.to_unit(t, k)
        t2, k2 = s.from_unit(u, v)
        assert np.max(np.abs(t2 - t) / np.abs(t)) < 1e-12
        assert np.max(np.abs(k2 - k) / np.abs(k)) < 1e-12

    def test_monotone(self):
        s = AffineScaling(t_min=0.1, t_max=2.0, k_min=50.0, k_max=150.0)
        u1, v1 = s.to_unit(0.5, 70.0)
        u2, v2 = s.to_unit(0.9, 90.0)
        assert u2 > u1 and v2 > v1

    def test_frame_scaling_in_unit_square(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [0.5, 1.0, 2.0], [0.9, 1.0, 1.1])
        frame = build_frame(quotes, curves)
        u, v = frame.scaling.to_unit(frame.maturity, frame.reduced_strike)
        assert np.all(u >= -1e-15) and np.all(u <= 1 + 1e-15)
        assert np.all(v >= -1e-15) and np.all(v <= 1 + 1e-15)
