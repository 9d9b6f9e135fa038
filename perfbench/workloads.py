"""Workload definitions and the layer -> end-to-end predictions they serve.

Each workload is one synthetic book pushed through the README pipeline:
``gen-synthetic`` (set-up), ``calibrate``, ``localvol``, ``backtest`` and
``check-arbitrage`` (an output check).  The workload seed goes to
``calibrate --seed`` and ``backtest --seed``.  It changes the work only on
``gp_flat``, where it picks the hyperparameter starts and the HMC stream;
``ssvi_dense`` has no random stage, and ``nn_skew`` fixes its seed.
Sizes keep the layer each workload exists for dominant while a 40 s run
holds six or more repetitions of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]          # gen-synthetic arguments
    calibrate: tuple[str, ...]    # calibrate method and arguments
    localvol: tuple[str, ...]
    backtest: tuple[str, ...]     # backtest method and arguments
    fixed_seed: int | None = None  # used in place of the workload seed when set
    smoke: "Workload | None" = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # The only workload that runs gp_price_surface and constrained_sampling:
            # the MLL evaluations of 5 hyperparameter starts, the MAP QP on a
            # 360-node basis and 120 HMC draws (100 burn-in).  150 quotes keep
            # per-quote loops small next to the GP, so a GP saving shows undiluted.
            name="gp_flat",
            gen=("--kind", "flat", "--sigma", "0.2", "--n-maturities", "10",
                 "--n-strikes", "15"),
            calibrate=("gp", "--grid-t", "12", "--grid-k", "30", "--paths", "20"),
            localvol=("--grid-t", "30", "--grid-k", "15"),
            backtest=("cn",),
            smoke=Workload(
                name="gp_flat",
                gen=("--kind", "flat", "--n-maturities", "5", "--n-strikes", "8"),
                calibrate=("gp", "--grid-t", "6", "--grid-k", "12", "--paths", "5"),
                localvol=("--grid-t", "6", "--grid-k", "6"),
                backtest=("cn", "--cn-t", "20", "--cn-k", "40"),
            ),
        ),
        Workload(
            # The only workload that trains nn_iv and runs the MC engine.  Each epoch
            # is dominated by the 5,000-point penalty grid, not the 120 data
            # points; the skewed oracle keeps the Dupire ratio and the 40,000-wide
            # local-vol lookups of every MC step non-trivial.  Its seed is fixed:
            # across seeds, the holdout IV RMSE after 50 epochs moved by +-25% with
            # the initial weights and the backtest IV RMSE by +-40% with the MC
            # paths, more than any regression bound may absorb.
            name="nn_skew",
            gen=("--kind", "ssvi", "--rho", "-0.3", "--eta", "1.2", "--n-maturities", "8",
                 "--n-strikes", "30"),
            calibrate=("nn", "--epochs", "15"),
            localvol=("--grid-t", "50", "--grid-k", "50"),
            backtest=("mc", "--paths", "40000", "--steps", "100"),
            fixed_seed=20757,
            smoke=Workload(
                name="nn_skew",
                gen=("--kind", "ssvi", "--n-maturities", "4", "--n-strikes", "8"),
                calibrate=("nn", "--epochs", "3", "--penalty-t", "5", "--penalty-k", "5"),
                localvol=("--grid-t", "6", "--grid-k", "6"),
                backtest=("mc", "--paths", "500", "--steps", "10"),
            ),
        ),
        Workload(
            # A cheap model on a large book: time goes to per-quote scalar loops
            # (build_frame twice, implied_vol, report, the CLI price adapter and
            # cn_option_prices).  The CEV oracle is outside the SSVI family, so the
            # holdout error is a real misfit (about 1e-5) rather than round-off,
            # which an SSVI oracle would give.  Bypass workload for GP and NN work.
            name="ssvi_dense",
            gen=("--kind", "cev", "--n-maturities", "20", "--n-strikes", "50"),
            calibrate=("ssvi",),
            localvol=("--grid-t", "50", "--grid-k", "50"),
            backtest=("cn",),
            smoke=Workload(
                name="ssvi_dense",
                gen=("--kind", "cev", "--n-maturities", "4", "--n-strikes", "10"),
                calibrate=("ssvi",),
                localvol=("--grid-t", "6", "--grid-k", "6"),
                backtest=("cn", "--cn-t", "20", "--cn-k", "40"),
            ),
        ),
    )
}


# Which per-layer metric should move which end-to-end metric, on which
# workload.  Later performance changes cite these by metric name.
PREDICTIONS = {
    "market_data.build_frame_s": "calibrate_s and backtest_s on ssvi_dense",
    "market_data.load_quotes_s": "pipeline_s on ssvi_dense",
    "market_data.quotes_rejected": "count only; a change should leave it fixed",
    "black_scholes.implied_vol_calls": "calibrate_s and backtest_s on ssvi_dense",
    "black_scholes.implied_vol_s": "self time; calibrate_s and backtest_s on ssvi_dense",
    "black_scholes.put_price_calls": "count; with implied_vol_calls gives pricings per inversion",
    "gp_price_surface.fit_hyperparameters_s": "calibrate_s on gp_flat",
    "gp_price_surface.mll_evals": "calibrate_s on gp_flat",
    "gp_price_surface.mll_eval_ms": "calibrate_s on gp_flat",
    "gp_price_surface.fit_map_s": "calibrate_s on gp_flat",
    "gp_price_surface.posterior_factors_s": "calibrate_s on gp_flat",
    "gp_price_surface.sample_posterior_s": "calibrate_s on gp_flat",
    "constrained_sampling.solve_qp_s": "calibrate_s on gp_flat",
    "constrained_sampling.qp_iterations": "calibrate_s on gp_flat",
    "constrained_sampling.qp_iteration_ms": "calibrate_s on gp_flat",
    "constrained_sampling.sample_truncated_s": "calibrate_s on gp_flat",
    "constrained_sampling.hmc_draw_ms": "calibrate_s on gp_flat",
    "constrained_sampling.jitter_escalations": "test_iv_rmse on gp_flat, not time",
    "nn_iv.train_s": "calibrate_s on nn_skew",
    "nn_iv.epoch_ms": "calibrate_s on nn_skew",
    "nn_iv.sigma_calls": "calibrate_s on nn_skew",
    "ssvi.calibrate_s": "calibrate_s on ssvi_dense",
    "ssvi.interpolate_slice_calls": "calibrate_s on ssvi_dense",
    "local_vol.dupire_fd_s": "nothing (under 0.1 s on gp_flat)",
    "local_vol.dupire_iv_s": "nothing (under 0.1 s on nn_skew and ssvi_dense)",
    "local_vol.lookup_calls": "backtest_s on nn_skew (MC), gp_flat and ssvi_dense (CN)",
    "local_vol.lookup_s": "backtest_s on nn_skew (MC), gp_flat and ssvi_dense (CN)",
    "local_vol.masked_fraction": "read from summary.json; should stay fixed",
    "backtest.price_cn_s": "backtest_s on gp_flat and ssvi_dense",
    "backtest.cn_step_ms": "backtest_s on gp_flat and ssvi_dense",
    "backtest.cn_negatives_clamped": "count; should stay fixed",
    "backtest.price_mc_s": "backtest_s on nn_skew",
    "backtest.mc_path_step_ns": "backtest_s on nn_skew",
    "backtest.cn_option_prices_s": "backtest_s on ssvi_dense",
    "backtest.report_s": "backtest_s and calibrate_s on ssvi_dense",
    "serialize.dump_json_s": "calibrate_s on gp_flat (paths.json)",
    "serialize.bytes_written": "calibrate_s on gp_flat (paths.json)",
}
