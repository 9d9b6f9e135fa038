import math
from dataclasses import replace

import numpy as np
import pytest

from volsurf.black_scholes import put_price
from volsurf import market_data
from volsurf.gp_price_surface import quote_observations
from volsurf.market_data import (
    QUOTE_COLUMNS,
    AffineScaling,
    Curve,
    CurveSet,
    EmptyInputError,
    MarketFrame,
    SchemaError,
    build_frame,
    load_curve,
    load_quotes,
)

from oracles import quote_rows, quote_table


def make_curves(spot=100.0, r=0.02, q=0.01):
    return CurveSet(spot=spot, rate_curve=Curve.flat(r), dividend_curve=Curve.flat(q))


def synthetic_quotes(curves, maturities, moneyness, vol=0.2, spread=0.01):
    rows = []
    for t in maturities:
        forward = float(curves.forward(t))
        discount = float(curves.discount(t))
        for m in moneyness:
            strike = m * curves.spot
            mid = put_price(forward, strike, t, vol, discount)
            rows.append((t, strike, mid * (1 - spread), mid * (1 + spread), vol))
    return quote_table(rows)


def write_quotes(path, rows):
    """A quotes CSV with one line per row of CSV field texts."""
    path.write_text("maturity,strike,bid,ask,iv\n" + "".join(",".join(r) + "\n" for r in rows))
    return path


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

    @pytest.mark.parametrize("tenors, values", [
        ([0.0, math.nan], [0.01, 0.02]),
        ([0.0, 1.0], [math.nan, 0.02]),
        ([0.0, 1.0], [0.01, math.inf]),
        ([-math.inf, 1.0], [0.01, 0.02]),
    ])
    def test_rejects_non_finite_knots(self, tenors, values):
        with pytest.raises(ValueError, match="finite"):
            Curve(tenors, values)

    @pytest.mark.parametrize("body", ["0,0.02\n50,inf\n", "0,0.02\n50,x\n", "0,0.02\n50\n"],
                             ids=["inf", "text", "short-row"])
    def test_load_curve_names_the_file(self, body, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("tenor,value\n" + body)
        with pytest.raises(ValueError, match="rates.csv: "):
            load_curve(path)


class TestLoadQuotes:
    def test_direct_parse(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask,iv\n1.0,2800,57.2,58.0,0.182\n")
        quotes = load_quotes(f)
        assert quote_rows(quotes) == [(1.0, 2800.0, 57.2, 58.0, 0.182)]
        assert all(quotes[name].dtype == np.float64 for name in QUOTE_COLUMNS)

    def test_crossed_quote_rejected(self, tmp_path, caplog):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask,iv\n1.0,100,5.0,4.0,0.2\n1.0,100,4.0,5.0,\n")
        quotes = load_quotes(f)
        assert len(quotes["maturity"]) == 2
        with caplog.at_level("WARNING"):
            frame = build_frame(quotes, make_curves())
        assert len(frame) == 1 and frame.rejected == ((0, "crossed quote"),)
        assert [r.message for r in caplog.records] == ["row 0 rejected: crossed quote"]

    def test_header_only_returns_empty_with_warning(self, tmp_path, caplog):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask,iv\n")
        with caplog.at_level("WARNING"):
            quotes = load_quotes(f)
        assert sorted(quotes) == sorted(QUOTE_COLUMNS)
        assert all(column.shape == (0,) for column in quotes.values())
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
            "1.0,100,1,,0.2\n"
        )
        quotes = load_quotes(f)
        # unreadable and blank fields read as NaN; build_frame rejects the rows
        assert np.isnan(quotes["maturity"][0]) and np.isnan(quotes["ask"][3])
        assert np.isnan(quotes["iv"][2])
        frame = build_frame(quotes, make_curves())
        assert len(frame) == 1 and frame.maturity[0] == 1.0
        assert frame.rejected == ((0, "non-numeric field"), (1, "maturity or strike not positive"),
                                  (3, "non-numeric field"))

    def test_file_without_iv_column_has_nan_iv(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("maturity,strike,bid,ask\n1.0,100,1,2\n0.5,90,0.5,0.6\n")
        quotes = load_quotes(f)
        assert np.isnan(quotes["iv"]).all() and quotes["iv"].shape == (2,)


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
        quotes["iv"][:] = 0.20
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
        assert frame.reduced_mid[0] == pytest.approx(growth * quotes["bid"][0], rel=1e-14)
        assert frame.reduced_strike[0] == pytest.approx(
            quotes["strike"][0] * math.exp(-(curves.carry(1.5))), rel=1e-14
        )
        assert frame.log_moneyness[0] == pytest.approx(
            math.log(frame.reduced_strike[0] / 100.0)
        )

    def test_mid_is_bid_ask_average(self):
        curves = make_curves()
        quotes = synthetic_quotes(curves, [1.0], [1.0], spread=0.2)
        frame = build_frame(quotes, curves)
        mid = 0.5 * (quotes["bid"][0] + quotes["ask"][0])
        assert frame.reduced_mid[0] == float(curves.growth(1.0)) * mid

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
        survivors = {name: column[quotes["maturity"] >= 0.055]
                     for name, column in quotes.items()}
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

    def test_negative_rate_is_refused(self):
        # discount factors above 1, which the implied-vol inversion does not take
        quotes = synthetic_quotes(make_curves(), [0.5, 1.0], [0.9, 1.0, 1.1])
        with pytest.raises(ValueError, match="rate curve gives a discount factor above 1"):
            build_frame(quotes, make_curves(r=-0.01))

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


def csv_fields(quotes):
    """A quote table's rows as CSV field texts, as write_quotes_csv writes them."""
    return [["" if math.isnan(v) else repr(v) for v in row] for row in quote_rows(quotes)]


class TestBuildFrameRejections:
    """build_frame is the one place a quote is checked; rows are CSV data rows from 0."""

    @staticmethod
    def good_rows():
        return csv_fields(synthetic_quotes(make_curves(), [0.5, 1.0], [0.9, 1.0, 1.1]))

    @pytest.mark.parametrize("field, text", [
        ("maturity", "nan"), ("maturity", "inf"), ("strike", "nan"), ("bid", "inf"),
    ])
    def test_non_finite_field_rejected(self, tmp_path, caplog, field, text):
        rows = self.good_rows()
        bad = list(rows[1])
        bad[QUOTE_COLUMNS.index(field)] = text
        rows.insert(2, bad)
        with caplog.at_level("WARNING"):
            frame = build_frame(load_quotes(write_quotes(tmp_path / "q.csv", rows)), make_curves())
        assert frame.rejected == ((2, "non-numeric field"),)
        assert len(frame) == len(rows) - 1
        assert [r.message for r in caplog.records] == ["row 2 rejected: non-numeric field"]

    def test_blank_lines_not_counted(self, tmp_path, caplog):
        # csv.DictReader skips a blank line, so the crossed row on the file's
        # line 4 is data row 1, not 2
        rows = self.good_rows()
        crossed = [*rows[1][:2], "5", "4", ""]
        path = write_quotes(tmp_path / "q.csv", [rows[0], [], crossed, *rows[1:]])
        with caplog.at_level("WARNING"):
            frame = build_frame(load_quotes(path), make_curves())
        assert path.read_text().splitlines()[3] == ",".join(crossed)
        assert frame.rejected == ((1, "crossed quote"),)
        assert len(frame) == len(rows)
        assert [r.message for r in caplog.records] == ["row 1 rejected: crossed quote"]

    def test_quote_invariants_rejected(self):
        good = quote_rows(synthetic_quotes(make_curves(), [1.0], [1.0]))[0]
        quotes = quote_table([
            good,
            (1.0, 100.0, 5.0, 4.0, None),
            (-1.0, 100.0, 1.0, 2.0, None),
            (1.0, 0.0, 1.0, 2.0, None),
        ])
        frame = build_frame(quotes, make_curves())
        assert len(frame) == 1
        assert frame.rejected == ((1, "crossed quote"), (2, "maturity or strike not positive"),
                                  (3, "maturity or strike not positive"))

    def test_one_row_per_reason_first_reason_wins(self, tmp_path, caplog):
        curves = make_curves()
        rows = self.good_rows()
        t, strike, bid, ask, iv = rows[4]
        short = csv_fields(synthetic_quotes(curves, [0.02], [1.0]))[0]
        bad = [
            ("", strike, bid, ask, iv),                     # non-numeric field
            ("-1.0", "abc", "5", "4", iv),                  # non-numeric beats the rest
            (t, "0", bid, ask, iv),                         # maturity or strike not positive
            ("-0.5", strike, "-1", "-2", iv),               # not positive beats negative bid
            (t, strike, "-0.5", ask, iv),                   # negative bid
            ("0.02", strike, "5", "4", iv),                 # crossed beats short maturity
            ("100.0", strike, "5", "4", iv),                # crossed, beyond the curves' cover
            (short[0], short[1], short[2], short[3], iv),   # below minimum maturity
            (t, strike, "200", "200", iv),                  # mid outside the arbitrage band
            (t, strike, bid, ask, "0.3"),                   # listed iv inconsistent
        ]
        ignored_ivs = [(t, strike, bid, ask, v) for v in ("0", "-0.2", "nan", "inf", "abc")]
        with caplog.at_level("WARNING"):
            frame = build_frame(load_quotes(write_quotes(tmp_path / "q.csv",
                                                         rows + bad + ignored_ivs)), curves)
        n = len(rows)
        reasons = ["non-numeric field", "non-numeric field", "maturity or strike not positive",
                   "maturity or strike not positive", "negative bid", "crossed quote",
                   "crossed quote", "below minimum maturity", "mid price outside arbitrage band",
                   "listed iv inconsistent with mid price"]
        assert frame.rejected == tuple(enumerate(reasons, start=n))
        assert [r.message for r in caplog.records] == [
            f"row {index} rejected: {reason}" for index, reason in frame.rejected
        ]
        assert len(frame) == n + len(ignored_ivs)


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
