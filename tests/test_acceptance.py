"""Acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance and
runtime budget, and prints a single PASS/FAIL line (run pytest with -s to
see them live).  Criteria that need market data use synthetic quotes from
closed-form oracles, so every expected number is independently computable.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import ndtr

from volsurf.backtest import SyntheticSpec, generate_synthetic, run_backtest
from volsurf.black_scholes import put_price
from volsurf.cli import main as cli_main
from volsurf import gp_price_surface
from volsurf.constrained_sampling import (
    QuadProgram,
    TruncatedGaussian,
    sample_truncated,
    solve_qp,
)
from volsurf.gp_price_surface import (
    BasisGrid,
    build_constraints,
    fit_hyperparameters,
    fit_map,
    sample_posterior,
)
from volsurf.local_vol import dupire_fd, dupire_iv
from volsurf.market_data import Curve, CurveSet, build_frame
from volsurf.nn_iv import NnIvModel, train
from volsurf.ssvi import SsviParams, calibrate, check_no_arbitrage, svi_total_variance

from oracles import (
    brute_force_qp,
    random_feasible_qp,
    ssvi_theta_fn,
    truncated_standard_normal_mean,
)

SPOT = 100.0


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def curves():
    return CurveSet(
        spot=SPOT, rate_curve=Curve.flat(0.02), dividend_curve=Curve.flat(0.01)
    )


@pytest.fixture(scope="module")
def baseline_frame(curves):
    """Flat 20% Black-Scholes world on the 20-maturity x 40-strike layout."""
    spec = SyntheticSpec(
        kind="flat", sigma=0.2, spread=0.005,
        maturities=tuple(np.linspace(0.25, 2.5, 20).tolist()),
        moneyness=tuple(np.linspace(0.85, 1.3, 40).tolist()),
    )
    return build_frame(generate_synthetic(spec, curves), curves)


@pytest.fixture(scope="module")
def flat_lv_grid():
    """The exact local-vol surface of the flat world: 20% everywhere."""
    from volsurf.local_vol import LocalVolGrid

    return LocalVolGrid.flat(
        0.2, np.linspace(0.01, 2.6, 12), np.linspace(20.0, 260.0, 15)
    )


@pytest.fixture(scope="module")
def calibration_frame(curves):
    """Smaller flat-vol book shared by the GP and NN round trips."""
    spec = SyntheticSpec(
        kind="flat", sigma=0.2, spread=0.005,
        maturities=tuple(np.linspace(0.25, 2.5, 15).tolist()),
        moneyness=tuple(np.linspace(0.85, 1.3, 20).tolist()),
    )
    return build_frame(generate_synthetic(spec, curves), curves)


def test_01_flat_vol_cn_baseline(baseline_frame, flat_lv_grid):
    started = time.perf_counter()
    rep = run_backtest(flat_lv_grid, baseline_frame, "cn", cn_grid=(100, 100))
    elapsed = time.perf_counter() - started
    ok = rep.iv_rmse <= 0.012 and rep.price_rmse <= 6.0 and elapsed <= 10.0
    verdict(
        1, "flat-vol CN baseline", ok,
        f"iv_rmse={rep.iv_rmse:.4%} (<=1.2%), price_rmse={rep.price_rmse:.3f} (<=6), "
        f"{elapsed:.1f}s (<=10s)",
    )


def test_02_flat_vol_mc_baseline(baseline_frame, flat_lv_grid):
    started = time.perf_counter()
    rep = run_backtest(
        flat_lv_grid, baseline_frame, "mc", n_paths=100_000, n_steps=100, seed=7
    )
    elapsed = time.perf_counter() - started
    ok = rep.iv_rmse <= 0.04 and elapsed <= 60.0
    verdict(
        2, "flat-vol MC baseline", ok,
        f"iv_rmse={rep.iv_rmse:.4%} (<=4%), {elapsed:.1f}s (<=60s)",
    )


def test_03_gp_round_trip(calibration_frame):
    started = time.perf_counter()
    grid = BasisGrid(n_t=15, n_k=40)  # 40 strike x 15 maturity nodes
    params = fit_hyperparameters(calibration_frame, grid, n_starts=5, seed=0)
    model = fit_map(calibration_frame, grid, params)
    slack = float(model.constraint_slacks().min())

    scaling = model.scaling
    u = np.linspace(0.0, 1.0, 20)
    v = np.linspace(0.0, 1.0, 18)
    t_axis = scaling.t_min + u * (scaling.t_max - scaling.t_min)
    k_axis = scaling.k_min + v * (scaling.k_max - scaling.k_min)
    lv = dupire_fd(model.price, t_axis, k_axis)
    # interior 60% of the domain, per axis
    sel = np.zeros_like(lv.mask)
    sel[4:17, 4:15] = True
    inner = sel & lv.mask
    max_err = float(np.max(np.abs(lv.values[inner] - 0.2)))
    elapsed = time.perf_counter() - started

    ok = slack >= -1e-8 and inner.sum() > 0 and max_err <= 0.02 and elapsed <= 300.0
    verdict(
        3, "GP round trip", ok,
        f"min_slack={slack:.2e} (>=-1e-8), local-vol max err={max_err:.4f} (<=0.02), "
        f"{elapsed:.0f}s (<=300s)",
    )


def test_04_nn_round_trip(calibration_frame):
    started = time.perf_counter()
    model, report = train(
        calibration_frame, epochs=1500, lambdas=(1.0, 1.0, 1.0), penalty_grid=(40, 60), seed=11
    )
    comp = report["components"]

    k_lo = float(calibration_frame.reduced_strike.min())
    k_hi = float(calibration_frame.reduced_strike.max())
    t_axis = np.linspace(0.25, 2.5, 20)
    k_axis = np.linspace(k_lo * 1.01, k_hi * 0.99, 25)
    lv = dupire_iv(model.forward_theta, t_axis, k_axis, spot=SPOT)
    max_err = float(np.max(np.abs(lv.values[lv.mask] - 0.2)))
    elapsed = time.perf_counter() - started

    ok = (
        comp["mean_calendar_negative"] <= 1e-12
        and comp["mean_butterfly_negative"] <= 1e-12
        and lv.mask.mean() > 0.9
        and max_err <= 0.02
        and elapsed <= 600.0
    )
    verdict(
        4, "NN round trip", ok,
        f"mean cal-={comp['mean_calendar_negative']:.1e}, "
        f"mean butt-={comp['mean_butterfly_negative']:.1e} (<=1e-12), "
        f"local-vol max err={max_err:.4f} (<=0.02), {elapsed:.0f}s (<=600s)",
    )


def test_05_ssvi_round_trip(curves):
    spec = SyntheticSpec(
        kind="ssvi", rho=-0.3, eta=1.2, theta_slope=0.04, spread=0.0,
        maturities=tuple(np.linspace(0.25, 2.5, 10).tolist()),
        moneyness=tuple(np.linspace(0.8, 1.25, 15).tolist()),
    )
    frame = build_frame(generate_synthetic(spec, curves), curves)
    fitted = calibrate(frame).params
    rep = check_no_arbitrage(fitted)
    rho_err = abs(fitted.rho - (-0.3))
    eta_err = abs(fitted.eta - 1.2)
    ok = rho_err <= 0.05 and eta_err <= 0.1 and rep["butterfly_ok"] and rep["calendar_ok"]
    verdict(
        5, "SSVI round trip", ok,
        f"|rho_err|={rho_err:.4f} (<=0.05), |eta_err|={eta_err:.4f} (<=0.1), "
        f"butterfly_ok={rep['butterfly_ok']}, calendar_ok={rep['calendar_ok']}",
    )


def test_06_sampler_correctness(calibration_frame, monkeypatch):
    # half-line truncated standard normal
    tg = TruncatedGaussian(mean=[0.0], root=[[1.0]], a=[[1.0]], b=[0.0])
    samples, _ = sample_truncated(tg, init=np.array([0.5]), n_samples=10_000, seed=42)
    target = truncated_standard_normal_mean()
    stderr = samples.std(ddof=1) / np.sqrt(samples.size)
    mean_ok = abs(samples.mean() - target) <= 3.0 * stderr

    # every GP posterior path honors the constraint system
    grid = BasisGrid(n_t=5, n_k=8)
    monkeypatch.setattr(gp_price_surface, "FIT_MAX_ITER", 120)
    params = fit_hyperparameters(calibration_frame, grid, n_starts=2, seed=1)
    model = fit_map(calibration_frame, grid, params)
    paths, _ = sample_posterior(model, n_paths=100, seed=3)
    min_slack = float(np.min(build_constraints(grid) @ paths.T))
    paths_ok = min_slack >= 0.0
    ok = mean_ok and paths_ok
    verdict(
        6, "sampler correctness", ok,
        f"half-line mean {samples.mean():.5f} vs {target:.5f} "
        f"(3SE={3*stderr:.5f}), posterior paths min slack={min_slack:.2e} (100/100 feasible)",
    )


def test_07_nn_derivative_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        model = NnIvModel.initialize(seed=case, hidden=(12, 12, 12))
        model.weights[-1] = model.weights[-1] * 40.0  # lively derivative magnitudes
        model.input_mean = np.array([0.0, 0.0])
        model.input_scale = np.array([1.0, 0.3])
        t = float(rng.uniform(0.1, 3.0))
        kappa = float(rng.uniform(-0.4, 0.4))
        _, d_t, d_k, d_kk = model.forward_theta(t, kappa)

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
            worst = max(worst, abs(got - want) / max(abs(want), 1e-3))
    ok = worst <= 1e-4
    verdict(7, "NN derivative correctness", ok, f"max rel err={worst:.2e} (<=1e-4) over 100 cases")


def test_08_qp_correctness():
    rng = np.random.default_rng(515)
    solved = 0
    worst = 0.0
    while solved < 50:
        q, c, a, b = random_feasible_qp(rng, d_max=4, m_max=6)
        x_ref, val_ref = brute_force_qp(q, c, a, b)
        if x_ref is None:
            continue
        res = solve_qp(QuadProgram(q=q, c=c, a_ineq=a, b_ineq=b))
        val = 0.5 * res.x @ q @ res.x + c @ res.x
        worst = max(worst, abs(val - val_ref))
        solved += 1
    ok = worst <= 1e-6
    verdict(8, "QP correctness", ok, f"max objective gap vs brute force={worst:.2e} (<=1e-6), 50 QPs")


def test_09_cross_method_consistency():
    maturities = np.linspace(0.1, 3.0, 30)
    params = SsviParams(
        rho=-0.3, eta=1.2,
        theta_maturities=tuple(maturities),
        theta_values=tuple(0.04 * t for t in maturities),
    )

    def reduced_price(t, k):
        t = np.asarray(t, dtype=float)
        k = np.asarray(k, dtype=float)
        kappa = np.log(k / SPOT)
        flat_t = t.ravel()
        flat_k = kappa.ravel()
        total = np.empty_like(flat_k)
        for tv in np.unique(flat_t):
            sel = flat_t == tv
            total[sel] = svi_total_variance(params.slice_at(float(tv)), flat_k[sel])
        total = total.reshape(t.shape)
        root = np.sqrt(total)
        d1 = (-kappa + 0.5 * total) / root
        d2 = d1 - root
        return k * ndtr(-d2) - SPOT * ndtr(-d1)

    t_axis = np.linspace(0.5, 2.3, 120)
    k_axis = np.linspace(75.0, 130.0, 40)
    fd = dupire_fd(reduced_price, t_axis, k_axis)
    iv = dupire_iv(ssvi_theta_fn(params), t_axis, k_axis, spot=SPOT)
    both = fd.mask & iv.mask
    rel = np.abs(fd.values[both] - iv.values[both]) / iv.values[both]
    ok = both.mean() > 0.9 and float(rel.max()) <= 0.01
    verdict(
        9, "cross-method consistency", ok,
        f"max rel gap={rel.max():.4%} (<=1%) on {int(both.sum())} valid cells",
    )


def test_10_pipeline_determinism(tmp_path):
    gen = tmp_path / "synthetic"
    code = cli_main(
        ["gen-synthetic", "--kind", "flat", "--out", str(gen),
         "--n-maturities", "6", "--n-strikes", "8", "--t-min", "0.3", "--t-max", "2.0"]
    )
    assert code == 0
    market = [
        "--quotes", str(gen / "quotes.csv"),
        "--rates", str(gen / "rates.csv"),
        "--divs", str(gen / "divs.csv"),
        "--spot", "100.0",
    ]
    blobs = {}
    for method, extra in (
        ("gp", ["--grid-t", "5", "--grid-k", "12", "--starts", "2"]),
        ("nn", ["--epochs", "120", "--penalty-t", "6", "--penalty-k", "8"]),
    ):
        pair = []
        for run_tag in ("one", "two"):
            out = tmp_path / f"{method}_{run_tag}"
            code = cli_main(
                ["calibrate", method, *market, "--out", str(out), "--seed", "123", *extra]
            )
            assert code == 0
            pair.append((out / "model.json").read_bytes())
        blobs[method] = pair
    gp_ok = blobs["gp"][0] == blobs["gp"][1]
    nn_ok = blobs["nn"][0] == blobs["nn"][1]
    ok = gp_ok and nn_ok
    verdict(
        10, "pipeline determinism", ok,
        f"gp model bytes identical={gp_ok}, nn model bytes identical={nn_ok}",
    )
