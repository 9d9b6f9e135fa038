import logging
import math

import numpy as np
import pytest

from volsurf.black_scholes import put_price
from volsurf.local_vol import calendar_butterfly_terms
from volsurf import ssvi
from volsurf.market_data import Curve, CurveSet, build_frame
from volsurf.ssvi import (
    CalibrationScopeError,
    ExtrapolationError,
    NaturalSviParams,
    SsviModel,
    _slice_objective,
    SLICE_FIELDS,
    SsviParams,
    calibrate,
    check_no_arbitrage,
    interpolate_slice,
    model_from_json,
    model_to_json,
    power_law_phi,
    svi_derivatives,
    svi_total_variance,
)

from oracles import (
    per_point_put_prices,
    per_point_theta,
    quote_table,
    scalar_interpolate_slice,
    ssvi_theta_fn,
    svi_slice_objective,
    term_structure_cev_frame,
)

SPOT = 100.0


def ssvi_quotes(rho=-0.3, eta=1.2, slope=0.04, maturities=None, moneyness=None, r=0.0, q=0.0):
    """Synthetic mid quotes generated from a known SSVI surface."""
    curves = CurveSet(spot=SPOT, rate_curve=Curve.flat(r), dividend_curve=Curve.flat(q))
    maturities = maturities if maturities is not None else np.linspace(0.25, 2.5, 10)
    moneyness = moneyness if moneyness is not None else np.linspace(0.8, 1.25, 15)
    params = SsviParams(
        rho=rho, eta=eta,
        theta_maturities=tuple(maturities),
        theta_values=tuple(slope * m for m in maturities),
    )
    quotes = []
    for t in maturities:
        fwd = float(curves.forward(t))
        df = float(curves.discount(t))
        p = params.slice_at(t)
        for m in moneyness:
            strike = m * SPOT
            k = float(curves.reduced_strike(strike, t))
            kappa = math.log(k / SPOT)
            iv = math.sqrt(svi_total_variance(p, kappa) / t)
            mid = put_price(fwd, strike, t, iv, df)
            quotes.append((t, strike, mid, mid, iv))
    return build_frame(quote_table(quotes), curves), params


class TestTotalVariance:
    def test_at_mu_root_collapses(self):
        p = NaturalSviParams(delta=0.01, mu=0.1, rho=-0.4, omega=0.05, zeta=1.3)
        assert svi_total_variance(p, 0.1) == pytest.approx(0.01 + 0.05)

    def test_zero_omega_flat(self):
        p = NaturalSviParams(delta=0.02, mu=0.0, rho=0.2, omega=0.0, zeta=1.0)
        for kappa in (-0.5, 0.0, 0.7):
            assert svi_total_variance(p, kappa) == pytest.approx(0.02)

    def test_ssvi_slice_atm_anchoring(self):
        theta_t = 0.09
        params = SsviParams(rho=-0.3, eta=1.0, theta_maturities=(1.0,), theta_values=(theta_t,))
        p = params.slice_at(1.0)
        assert svi_total_variance(p, 0.0) == pytest.approx(theta_t)

    def test_theta_at_least_delta(self):
        p = NaturalSviParams(delta=0.01, mu=-0.2, rho=0.6, omega=0.07, zeta=2.0)
        kappas = np.linspace(-2.0, 2.0, 101)
        assert np.min(svi_total_variance(p, kappas)) >= 0.01

    def test_convex_in_kappa(self):
        p = NaturalSviParams(delta=0.0, mu=0.05, rho=-0.6, omega=0.06, zeta=1.8)
        kappas = np.linspace(-1.5, 1.5, 401)
        total = svi_total_variance(p, kappas)
        assert np.min(np.diff(total, 2)) >= -1e-10

    def test_analytic_derivatives_match_fd(self):
        p = NaturalSviParams(delta=0.005, mu=-0.1, rho=0.35, omega=0.08, zeta=1.1)
        kappas = np.linspace(-1.0, 1.0, 21)
        h = 1e-6
        theta, d1, d2 = svi_derivatives(p, kappas)
        fd1 = (svi_total_variance(p, kappas + h) - svi_total_variance(p, kappas - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-9)
        h2 = 1e-4  # second differences need a larger step to beat roundoff
        fd2 = (
            svi_total_variance(p, kappas + h2)
            - 2 * svi_total_variance(p, kappas)
            + svi_total_variance(p, kappas - h2)
        ) / h2**2
        assert d2 == pytest.approx(fd2, rel=1e-5, abs=1e-8)

    def test_derivative_theta_sums_the_derivative_root(self):
        # svi_derivatives sums its root as s^2 + (1 - rho^2), and its Theta (the
        # one local vol and the arbitrage check use) comes from that root;
        # svi_total_variance's (s^2 + 1) - rho^2 rounds differently at some kappa
        p = NaturalSviParams(delta=0.003, mu=-0.07, rho=-0.37, omega=0.09, zeta=1.7)
        kappa = np.random.default_rng(5).uniform(-1.0, 1.0, 2000)
        s = p.zeta * (kappa - p.mu) + p.rho
        root = np.sqrt(s * s + (1.0 - p.rho * p.rho))
        want = p.delta + 0.5 * p.omega * (1.0 + p.rho * p.zeta * (kappa - p.mu) + root)
        theta, _, _ = svi_derivatives(p, kappa)
        assert theta.tobytes() == want.tobytes()
        assert not np.array_equal(theta, svi_total_variance(p, kappa))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NaturalSviParams(delta=0.0, mu=0.0, rho=1.0, omega=0.1, zeta=1.0)
        with pytest.raises(ValueError):
            NaturalSviParams(delta=0.0, mu=0.0, rho=0.0, omega=-0.1, zeta=1.0)
        with pytest.raises(ValueError):
            NaturalSviParams(delta=0.0, mu=0.0, rho=0.0, omega=0.1, zeta=0.0)
        # array fields: one bad point rejects the whole set
        ok = np.array([0.1, 0.2, 0.3])
        NaturalSviParams(delta=0.0 * ok, mu=0.0 * ok, rho=-ok, omega=ok, zeta=ok)
        for bad in ({"rho": np.array([0.1, -1.0, 0.3])}, {"omega": np.array([0.1, -0.1, 0.3])},
                    {"zeta": np.array([0.1, 0.0, 0.3])}):
            with pytest.raises(ValueError):
                NaturalSviParams(**{"delta": ok, "mu": ok, "rho": ok, "omega": ok, "zeta": ok,
                                    **bad})


class TestPowerLawPhi:
    def test_direct_substitution(self):
        assert power_law_phi(1.0, 0.7, 0.5) == pytest.approx(0.7 / math.sqrt(2.0))

    def test_linear_in_eta(self):
        assert power_law_phi(0.3, 2.0, 0.5) == pytest.approx(2 * power_law_phi(0.3, 1.0, 0.5))

    def test_vanishes_at_large_theta(self):
        assert power_law_phi(1e8, 1.5, 0.5) < 1e-3

    def test_decreasing_in_theta(self):
        thetas = np.linspace(0.01, 5.0, 100)
        vals = [power_law_phi(t, 1.0, 0.5) for t in thetas]
        assert np.all(np.diff(vals) < 0)


class TestCheckNoArbitrage:
    def test_boundary_case_ok(self):
        p = SsviParams(rho=0.0, eta=2.0, theta_maturities=(0.5, 1.0), theta_values=(0.02, 0.04))
        report = check_no_arbitrage(p)
        assert report["butterfly_ok"]
        assert report["butterfly_violation"] == 0.0

    def test_butterfly_violation_magnitude(self):
        p = SsviParams(rho=0.0, eta=2.1, theta_maturities=(0.5,), theta_values=(0.02,))
        report = check_no_arbitrage(p)
        assert not report["butterfly_ok"]
        assert report["butterfly_violation"] == pytest.approx(0.1)

    def test_calendar_violation_flagged(self):
        p = SsviParams(rho=0.0, eta=1.0, theta_maturities=(0.5, 1.0), theta_values=(0.04, 0.03))
        report = check_no_arbitrage(p)
        assert not report["calendar_ok"]
        assert report["calendar_violation"] == pytest.approx(0.01)

    def test_valid_surface_has_nonnegative_butterfly_term(self):
        # the Dupire denominator stays >= 0 on a dense grid for a surface
        # passing the parameter checks
        maturities = np.linspace(0.25, 2.5, 10)
        params = SsviParams(
            rho=-0.4, eta=1.3,
            theta_maturities=tuple(maturities),
            theta_values=tuple(0.05 * t for t in maturities),
        )
        assert check_no_arbitrage(params)["butterfly_ok"]
        fn = ssvi_theta_fn(params)
        tt, kk = np.meshgrid(np.linspace(0.3, 2.4, 20), np.linspace(-0.8, 0.8, 60), indexing="ij")
        theta, d_t, d_k, d_kk = fn(tt, kk)
        _, butt = calendar_butterfly_terms(theta, d_t, d_k, d_kk, kk)
        assert np.min(butt) >= -1e-8


class TestCalibrate:
    def test_round_trip_recovery(self):
        frame, true = ssvi_quotes(rho=-0.3, eta=1.2, slope=0.04)
        fitted = calibrate(frame).params
        assert abs(fitted.rho - true.rho) <= 0.05
        assert abs(fitted.eta - true.eta) <= 0.1
        # ATM curve within 2% relative
        got = np.asarray(fitted.theta_values)
        want = 0.04 * np.asarray(fitted.theta_maturities)
        assert np.max(np.abs(got - want) / want) < 0.02
        report = check_no_arbitrage(fitted)
        assert report["butterfly_ok"] and report["calendar_ok"]

    def test_flat_vol_data(self):
        curves = CurveSet(spot=SPOT, rate_curve=Curve.flat(0.0), dividend_curve=Curve.flat(0.0))
        quotes = []
        for t in np.linspace(0.25, 2.0, 8):
            for m in np.linspace(0.85, 1.2, 9):
                strike = m * SPOT
                mid = put_price(SPOT, strike, t, 0.2)
                quotes.append((t, strike, mid, mid, 0.2))
        frame = build_frame(quote_table(quotes), curves)
        model = calibrate(frame)
        fitted = model.params
        want = 0.04 * np.asarray(fitted.theta_maturities)
        got = np.asarray(fitted.theta_values)
        assert np.max(np.abs(got - want) / want) < 0.01
        # flat data has no skew to speak of
        fit_ivs = []
        for t, p in zip(fitted.theta_maturities, model.slices):
            kappas = np.linspace(-0.15, 0.18, 9)
            fit_ivs.append(np.sqrt(svi_total_variance(p, kappas) / t))
        assert np.max(np.abs(np.concatenate(fit_ivs) - 0.2)) < 0.002

    def test_refinement_does_not_worsen_objective(self):
        frame, _ = ssvi_quotes(rho=-0.45, eta=0.9, slope=0.05)
        model = calibrate(frame)   # step 1's parameters, step 2's slices
        mids = {}
        for t, kappa, iv in zip(frame.maturity.tolist(), frame.log_moneyness.tolist(),
                                frame.mid_iv.tolist()):
            mids.setdefault(t, []).append((kappa, iv))
        for t, refined in zip(model.params.theta_maturities, model.slices):
            kappas = np.array([k for k, _ in mids[t]])
            ivs = np.array([v for _, v in mids[t]])
            start = model.params.slice_at(t)
            rmse_start = np.sqrt(np.mean((np.sqrt(svi_total_variance(start, kappas) / t) - ivs) ** 2))
            rmse_ref = np.sqrt(np.mean((np.sqrt(svi_total_variance(refined, kappas) / t) - ivs) ** 2))
            assert rmse_ref <= rmse_start + 1e-12

    def test_one_pass_slice_objective_is_bitwise_the_two_call_one(self):
        rng = np.random.default_rng(12)
        kappa_grid = np.linspace(-0.6, 0.5, 41)
        for case in range(300):
            n = int(rng.integers(2, 30))
            kappas = np.sort(rng.uniform(-0.5, 0.4, n))
            ivs = rng.uniform(0.1, 0.4, n)
            t = float(rng.uniform(0.1, 3.0))
            x = np.array([rng.normal(0.0, 0.05), rng.normal(0.0, 0.2), rng.uniform(-1.2, 1.2),
                          rng.uniform(-0.05, 0.3), rng.uniform(-0.5, 5.0)])
            prev = None if case % 3 == 0 else rng.uniform(0.0, 0.3, kappa_grid.size)
            want = svi_slice_objective(x, t, kappas, ivs, kappa_grid, prev, ssvi.CROSSING_PENALTY)
            got = _slice_objective(x, t, np.concatenate([kappas, kappa_grid]), n, ivs, prev)
            assert got == want

    def test_slice_fits_at_max_iter_counted_and_logged(self, caplog, monkeypatch):
        frame, _ = ssvi_quotes(rho=-0.45, eta=0.9, slope=0.05)
        monkeypatch.setattr(ssvi, "MAX_ITER", 5)
        with caplog.at_level(logging.WARNING, logger="volsurf.ssvi"):
            capped = calibrate(frame)
            n = len(capped.slices)
            assert capped.diagnostics == {"slices_at_max_iter": n}
            assert [r.getMessage() for r in caplog.records] == [
                f"{n} of {n} SSVI slice fits stopped at max_iter=5 before converging"
            ]
        # diagnostics stay out of the model document and of equality
        assert model_from_json(model_to_json(capped)) == capped

    def test_too_few_maturities(self):
        frame, _ = ssvi_quotes(maturities=np.array([1.0]))
        with pytest.raises(CalibrationScopeError):
            calibrate(frame)

    def test_no_atm_bracketing(self):
        # all quotes far OTM: kappa never brackets zero
        frame, _ = ssvi_quotes(moneyness=np.linspace(0.5, 0.8, 6))
        with pytest.raises(CalibrationScopeError):
            calibrate(frame)


def slice_model(maturities, atm_curve, slices):
    """An SsviModel of these slices on this ATM curve; its rho and eta play no part."""
    params = SsviParams(rho=0.0, eta=1.0, theta_maturities=maturities, theta_values=atm_curve)
    return SsviModel(params=params, slices=slices, spot=SPOT)


class TestInterpolateSlice:
    def make_model(self):
        s1 = NaturalSviParams(delta=0.0, mu=0.0, rho=-0.3, omega=0.02, zeta=1.5)
        s2 = NaturalSviParams(delta=0.01, mu=0.1, rho=-0.1, omega=0.06, zeta=1.1)
        return slice_model((0.5, 1.5), (0.02, 0.06), (s1, s2))

    def test_exact_at_slice(self):
        model = self.make_model()
        assert interpolate_slice(model, 0.5) == model.slices[0]
        assert interpolate_slice(model, 1.5) == model.slices[1]

    def test_identical_slices_interpolate_to_same(self):
        s = NaturalSviParams(delta=0.0, mu=0.0, rho=-0.3, omega=0.04, zeta=1.5)
        mid = interpolate_slice(slice_model((0.5, 1.5), (0.04, 0.04), (s, s)), 0.9)
        assert mid == s

    def test_theta_midpoint_gives_mean_params(self):
        model = self.make_model()
        # theta(t) linear from 0.02 to 0.06: midpoint theta = 0.04 at t = 1.0
        mid = interpolate_slice(model, 1.0)
        s1, s2 = model.slices
        assert mid.omega == pytest.approx(0.5 * (s1.omega + s2.omega))
        assert mid.rho == pytest.approx(0.5 * (s1.rho + s2.rho))
        assert mid.zeta == pytest.approx(0.5 * (s1.zeta + s2.zeta))

    def test_extrapolation_rejected(self):
        model = self.make_model()
        with pytest.raises(ExtrapolationError):
            interpolate_slice(model, 0.25)
        with pytest.raises(ExtrapolationError):
            interpolate_slice(model, 2.0)
        with pytest.raises(ExtrapolationError, match="2.0 outside"):
            interpolate_slice(model, np.array([[0.5, 1.0], [1.5, 2.0]]))

    def test_array_bitwise_against_scalar_oracle(self):
        # slice maturities, points within 1e-12 of them, an equal-variance bracket
        # (1.5 to 2.0) and random interior points, in one 2-D array
        s1, s2 = self.make_model().slices
        s3 = NaturalSviParams(delta=0.02, mu=-0.05, rho=-0.2, omega=0.04, zeta=0.9)
        model = slice_model((0.5, 1.5, 2.0), (0.02, 0.06, 0.06), (s1, s2, s3))
        edges = [0.5, 0.5 - 5e-13, 0.5 + 5e-13, 1.5 - 5e-13, 1.5, 1.5 + 1e-12, 2.0,
                 2.0 + 5e-13, float(np.nextafter(1.5, 0.0)), float(np.nextafter(2.0, 0.0))]
        t = np.concatenate([edges, np.random.default_rng(3).uniform(0.5, 2.0, 30)])
        t = t.reshape(8, 5)
        got = interpolate_slice(model, t)
        for name in SLICE_FIELDS:
            want = [getattr(scalar_interpolate_slice(model, x), name) for x in t.ravel()]
            assert getattr(got, name).shape == t.shape
            assert getattr(got, name).tobytes() == np.array(want).reshape(t.shape).tobytes()


class TestThetaSurfaces:
    def test_surface_fn_matches_slice_values(self):
        frame, _ = ssvi_quotes()
        model = calibrate(frame)
        t = np.full(5, model.params.theta_maturities[2])
        kappa = np.linspace(-0.2, 0.2, 5)
        theta, d_t, d_k, d_kk = model.forward_theta(t, kappa)
        direct = svi_total_variance(model.slices[2], kappa)
        assert theta == pytest.approx(direct)
        assert np.all(d_t > 0)

    def test_ssvi_fn_derivative_consistency(self):
        maturities = np.linspace(0.25, 2.5, 10)
        params = SsviParams(
            rho=-0.3, eta=1.2,
            theta_maturities=tuple(maturities),
            theta_values=tuple(0.04 * t for t in maturities),
        )
        fn = ssvi_theta_fn(params)
        t = np.full(7, 1.3)
        kappa = np.linspace(-0.3, 0.3, 7)
        theta, d_t, d_k, d_kk = fn(t, kappa)
        # ATM slope of theta surface at kappa=0 is the curve slope
        atm = fn(np.array([1.3]), np.array([0.0]))
        assert atm[1][0] == pytest.approx(0.04, rel=1e-3)
        h = 1e-5
        up = fn(t, kappa + h)[0]
        dn = fn(t, kappa - h)[0]
        assert d_k == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-10)


    @pytest.mark.parametrize("source", ["surface", "ssvi"])
    def test_adapter_bitwise_against_per_point_oracle(self, source):
        # end-clamped T (first and last knot, and within one step of them) and
        # every T repeated across the kappa axis
        frame, _ = ssvi_quotes()
        model = calibrate(frame)
        params = model.params
        t_lo, t_hi = params.theta_maturities[0], params.theta_maturities[-1]
        if source == "surface":
            fn = model.forward_theta

            def slice_at(t):
                return interpolate_slice(model, t)
        else:
            fn = ssvi_theta_fn(params)
            slice_at = params.slice_at
        t_axis = np.array([t_lo, t_lo + 5e-5, 0.5 * (t_lo + t_hi), t_hi - 5e-5, t_hi])
        tt, kk = np.meshgrid(t_axis, np.linspace(-0.4, 0.3, 7), indexing="ij")
        got = fn(tt, kk)
        want = per_point_theta(slice_at, t_lo, t_hi, tt, kk)
        for g, w in zip(got, want):
            assert g.shape == tt.shape
            assert g.tobytes() == w.tobytes()

class TestPutPrices:
    def test_bitwise_against_per_point_oracle(self):
        frame = term_structure_cev_frame()
        model = calibrate(frame)

        def iv_of(t, kappa):
            total = float(svi_total_variance(interpolate_slice(model, t), kappa))
            return math.sqrt(max(total, 1e-14) / t)

        for part in (frame, frame.subset(np.arange(0, len(frame), 2))):
            assert model.put_prices(part).tobytes() == per_point_put_prices(part, iv_of).tobytes()


class TestSerialization:
    def test_round_trip(self):
        frame, _ = ssvi_quotes()
        model = calibrate(frame)
        doc = model_to_json(model)
        assert doc["version"] == "ssvi/1"
        back = model_from_json(doc)
        assert back.spot == SPOT
        assert back.params == model.params
        assert back.slices == model.slices
        assert back.t_range == (model.params.theta_maturities[0],
                                model.params.theta_maturities[-1])
        assert model_to_json(back) == doc

    def test_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            model_from_json({"version": "nope/1"})

    def test_slice_maturities_must_be_the_atm_curve_maturities(self):
        frame, _ = ssvi_quotes()
        doc = model_to_json(calibrate(frame))
        doc["atm_curve"]["maturities"] = [3.0 * t for t in doc["atm_curve"]["maturities"]]
        with pytest.raises(ValueError, match="slice maturities .* differ from the ATM curve"):
            model_from_json(doc)


class TestSsviModel:
    def test_calibrate_returns_the_model(self):
        frame, _ = ssvi_quotes()
        model = calibrate(frame)
        assert isinstance(model, SsviModel)
        assert model.spot == frame.curves.spot
        assert len(model.slices) == len(model.params.theta_maturities)
        assert list(model.diagnostics) == ["slices_at_max_iter"]
        assert 0 <= model.diagnostics["slices_at_max_iter"] <= len(model.slices)

    @pytest.mark.parametrize("maturities, atm_curve, n_slices, match", [
        ((0.5, 1.5), (0.02, 0.06), 3, "one slice per ATM-curve maturity"),
        ((0.5,), (0.02,), 1, "two slices"),
        ((0.5, 0.5), (0.02, 0.06), 2, "strictly increasing"),
        ((1.5, 0.5), (0.02, 0.06), 2, "strictly increasing"),
    ], ids=["three-slices-two-knots", "one-slice", "repeated-maturity", "falling-maturities"])
    def test_rejects_a_bad_slice_set(self, maturities, atm_curve, n_slices, match):
        s = NaturalSviParams(delta=0.0, mu=0.0, rho=-0.3, omega=0.04, zeta=1.5)
        with pytest.raises(ValueError, match=match):
            slice_model(maturities, atm_curve, (s,) * n_slices)
