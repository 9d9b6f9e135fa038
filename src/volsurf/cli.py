"""Command-line front end.

Subcommands cover the full pipelines: synthetic data generation,
calibration of the three surface models, local-volatility extraction,
repricing backtests, and arbitrage checks.  Exit codes: 0 success,
2 input problem, 3 numerical failure; failures also emit a one-line
machine-readable JSON error on stderr, and every command that takes
``--out`` sends its log records to ``run.log`` there, not to stderr.

``localvol`` and ``check-arbitrage`` read a model through one loader that
maps its version to the parsing module (MODEL_MODULES).  A model or local-vol
document that is missing, not a JSON object, or has a missing or mistyped
field is an input problem.  Without ``--t-range``, both commands use an SSVI
model's calibrated maturity range (``t_range``), or a fixed range for an NN
model; a ``--t-range`` must start above 0 and increase.  Every model prices a
frame itself (``put_prices``) for the train/test report.

numpy loads when ``main`` runs, and each volsurf module inside the handler that
uses it, so a command loads only the scipy it runs; the package applies the
VOLSURF_THREADS cap before any submodule loads numpy (see volsurf/__init__).
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import math
import os
import sys
import time
from collections import Counter

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

DEFAULT_SEED = 20240 + 517


class CliInputError(Exception):
    pass


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _outdir(path):
    """The output directory, made if missing; the command's log records go to its run.log."""
    from pathlib import Path

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    logging.basicConfig(
        filename=str(out / "run.log"), level=logging.INFO, force=True,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return out


def _load_market(args):
    from .market_data import CurveSet, build_frame, load_curve, load_quotes

    for path in (args.quotes, args.rates, args.divs):
        if not os.path.exists(path):
            raise CliInputError(f"input file not found: {path}")
    quotes = load_quotes(args.quotes)
    curves = CurveSet(
        spot=args.spot,
        rate_curve=load_curve(args.rates),
        dividend_curve=load_curve(args.divs),
    )
    return build_frame(quotes, curves)


def _rejected_quotes(frame) -> dict:
    """The frame's rejected quote rows, counted by reason, for report.json."""
    return dict(Counter(reason for _, reason in frame.rejected))


def _split_frame(frame, holdout: bool):
    """Deterministic alternating train/test split by sorted (T, K)."""
    if not holdout:
        return frame, frame
    import numpy as np

    order = np.lexsort((frame.strike, frame.maturity))
    return frame.subset(order[0::2]), frame.subset(order[1::2])


def _fit_report(model, frame_train, frame_test):
    from .backtest import report

    out = {}
    for tag, frame in (("train", frame_train), ("test", frame_test)):
        rep = report(model.put_prices(frame), frame, method=tag)
        out[f"{tag}_price_rmse"] = rep.price_rmse
        out[f"{tag}_iv_rmse"] = rep.iv_rmse
        out[f"{tag}_iv_failures"] = rep.n_iv_failures
        out[f"{tag}_n"] = len(frame)
    return out


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    from .serialize import dump_json

    out = _outdir(args.out)
    frame = _load_market(args)
    frame_train, frame_test = _split_frame(frame, not args.no_holdout)
    started = time.perf_counter()

    if args.method == "gp":
        from .gp_price_surface import (
            BasisGrid,
            fit_hyperparameters,
            fit_map,
            model_to_json,
            sample_posterior,
        )

        if args.paths < 0:
            raise CliInputError(f"--paths must be nonnegative, got {args.paths}")
        grid = BasisGrid(n_t=args.grid_t, n_k=args.grid_k)
        params = fit_hyperparameters(frame_train, grid, n_starts=args.starts, seed=args.seed)
        model = fit_map(frame_train, grid, params)
        dump_json(model_to_json(model), out / "model.json")
        report = {
            "method": "gp",
            "params": model_to_json(model)["params"],
            "grid": {"n_t": grid.n_t, "n_k": grid.n_k},
            "qp": model.qp_diagnostics,
            "min_constraint_slack": float(model.constraint_slacks().min()),
            "prior_jitter": dict(zip(("maturity", "strike"), model.prior_jitter)),
        }
        if args.paths > 0:
            paths = sample_posterior(model, n_paths=args.paths, seed=args.seed)
            dump_json(
                {"version": "gppaths/1", "n_paths": args.paths,
                 "paths": [list(map(float, row)) for row in paths]},
                out / "paths.json",
            )
            report["posterior_paths"] = args.paths

    elif args.method == "nn":
        from .nn_iv import model_to_json, train

        model, train_report = train(
            frame_train, epochs=args.epochs,
            lambdas=tuple(float(v) for v in args.lam.split(",")),
            penalty_grid=(args.penalty_t, args.penalty_k),
            lambda_search=args.lambda_search, seed=args.seed,
        )
        dump_json(model_to_json(model), out / "model.json")
        history = train_report.pop("history")
        report = {"method": "nn", **train_report}
        dump_json({"history": history}, out / "training_history.json")

    elif args.method == "ssvi":
        from .ssvi import SsviModel, calibrate, check_no_arbitrage, model_to_json

        params, surface = calibrate(frame_train)
        model = SsviModel(params=params, surface=surface, spot=frame.curves.spot)
        dump_json(model_to_json(model), out / "model.json")
        report = {
            "method": "ssvi",
            "rho": params.rho,
            "eta": params.eta,
            "no_arbitrage": check_no_arbitrage(params),
            "ssvi_slices_at_max_iter": surface.diagnostics["slices_at_max_iter"],
        }
    else:
        raise CliInputError(f"unknown calibration method {args.method!r}")

    report.update(_fit_report(model, frame_train, frame_test))
    report["runtime_seconds"] = time.perf_counter() - started
    report["seed"] = args.seed
    report["n_quotes"] = len(frame)
    report["rejected_quotes"] = _rejected_quotes(frame)
    dump_json(report, out / "report.json")
    print(json.dumps({"out": str(out), "method": args.method,
                      "train_iv_rmse": report.get("train_iv_rmse"),
                      "test_iv_rmse": report.get("test_iv_rmse")}))
    return EXIT_OK


# version -> the volsurf module whose model_from_json reads it
MODEL_MODULES = {"gpmodel/1": "gp_price_surface", "nnivmodel/1": "nn_iv", "ssvi/1": "ssvi"}


def _read_document(path, what: str, from_json):
    """from_json(doc) of a JSON object file; a malformed document is an input error."""
    from .serialize import load_json

    if not os.path.exists(path):
        raise CliInputError(f"{what} file not found: {path}")
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise CliInputError(f"{what} file {path} is not a JSON object")
    try:
        return from_json(doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed {what} file {path}: {exc!r}") from exc


def _load_model(path):
    """(version, model) of a model file written by calibrate."""

    def from_json(doc):
        version = doc.get("version", "")
        if version not in MODEL_MODULES:
            raise CliInputError(f"unsupported model version {version!r}")
        module = importlib.import_module(f"{__package__}.{MODEL_MODULES[version]}")
        return version, module.model_from_json(doc)

    return _read_document(path, "model", from_json)


def cmd_localvol(args) -> int:
    import numpy as np

    from .local_vol import cap_and_report, dupire_fd, dupire_iv, grid_to_json, write_grid_csv
    from .serialize import dump_json

    out = _outdir(args.out)
    version, model = _load_model(args.model)

    if version == "gpmodel/1":
        # under 2 nodes there is no spacing: dupire_fd rejects the count
        if args.grid_k >= 2 and 1.0 / (args.grid_k - 1) < 2.0 * model.grid.h_k - 1e-12:
            raise CliInputError(
                f"evaluation grid too fine in strike: {args.grid_k} nodes against "
                f"{model.grid.n_k} basis nodes (need spacing ratio >= 2)"
            )
        t_axis, k_axis = model.scaling.from_unit(
            np.linspace(0.0, 1.0, args.grid_t), np.linspace(0.0, 1.0, args.grid_k)
        )
        grid = dupire_fd(model.price, t_axis, k_axis)
    else:
        t_lo, t_hi = args.t_range or model.t_range or (0.1, 2.0)
        k_lo, k_hi = (r * model.spot for r in args.k_range)
        t_axis = np.linspace(t_lo, t_hi, args.grid_t)
        k_axis = np.linspace(k_lo, k_hi, args.grid_k)
        grid = dupire_iv(model.forward_theta, t_axis, k_axis, spot=model.spot)

    capped, summary = cap_and_report(grid, args.cap)
    dump_json(grid_to_json(capped), out / "localvol.json")
    write_grid_csv(capped, out / "localvol.csv")
    dump_json({**summary, "diagnostics": grid.diagnostics}, out / "summary.json")
    print(json.dumps({"out": str(out), **summary}))
    return EXIT_OK


def cmd_backtest(args) -> int:
    from .backtest import run_backtest
    from .local_vol import grid_from_json
    from .serialize import dump_json

    out = _outdir(args.out)
    lv = _read_document(args.localvol, "local-vol", grid_from_json)
    frame = _load_market(args)
    k_needed = frame.reduced_strike
    margin = 0.25 * (lv.k_axis[-1] - lv.k_axis[0])
    if k_needed.min() < lv.k_axis[0] - margin or k_needed.max() > lv.k_axis[-1] + margin:
        raise CliInputError("quote strikes fall far outside the local-vol grid domain")
    rep = run_backtest(
        lv, frame, args.method, n_paths=args.paths, n_steps=args.steps, seed=args.seed,
        cn_grid=(args.cn_t, args.cn_k),
    )
    dump_json({**rep.to_json(), "rejected_quotes": _rejected_quotes(frame)}, out / "report.json")
    rep.write_csv(out / "rows.csv")
    print(json.dumps({"method": args.method, "iv_rmse": rep.iv_rmse,
                      "price_rmse": rep.price_rmse, "out": str(out)}))
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    import numpy as np

    from .backtest import SyntheticSpec, generate_synthetic, write_curve_csv, write_quotes_csv
    from .market_data import Curve, CurveSet
    from .serialize import dump_json

    out = _outdir(args.out)
    curves = CurveSet(
        spot=args.spot,
        rate_curve=Curve.flat(args.rate),
        dividend_curve=Curve.flat(args.div),
    )
    spec = SyntheticSpec(
        kind=args.kind,
        sigma=args.sigma,
        rho=args.rho,
        eta=args.eta,
        theta_slope=args.theta_slope,
        sigma0=args.sigma0,
        beta=args.beta,
        maturities=tuple(np.linspace(args.t_min, args.t_max, args.n_maturities).tolist()),
        moneyness=tuple(np.linspace(args.m_min, args.m_max, args.n_strikes).tolist()),
        spread=args.spread,
    )
    quotes = generate_synthetic(spec, curves)
    n_quotes = len(quotes["maturity"])
    write_quotes_csv(quotes, out / "quotes.csv")
    horizon = max(50.0, args.t_max * 2)
    write_curve_csv([0.0, horizon], [args.rate, args.rate], out / "rates.csv")
    write_curve_csv([0.0, horizon], [args.div, args.div], out / "divs.csv")
    dump_json(
        {"kind": args.kind, "spot": args.spot, "rate": args.rate, "div": args.div,
         "n_quotes": n_quotes},
        out / "meta.json",
    )
    print(json.dumps({"out": str(out), "n_quotes": n_quotes}))
    return EXIT_OK


def cmd_check_arbitrage(args) -> int:
    import numpy as np

    version, model = _load_model(args.model)
    result = {"model": args.model, "version": version}

    if version == "gpmodel/1":
        slack = model.constraint_slacks()
        violated = int(np.sum(slack < -1e-8))
        result.update(
            {
                "constraint_rows": int(slack.size),
                "violated_rows": violated,
                "violation_fraction": violated / slack.size,
                "min_slack": float(slack.min()),
            }
        )
    else:
        from .local_vol import calendar_butterfly_terms

        if args.grid_t < 1 or args.grid_k < 1:
            raise CliInputError(f"--grid-t and --grid-k must be positive, got "
                                f"{args.grid_t} and {args.grid_k}")
        t_lo, t_hi = args.t_range or model.t_range or (0.1, 2.5)
        t_axis = np.linspace(t_lo, t_hi, args.grid_t)
        kappa_axis = np.linspace(args.kappa_min, args.kappa_max, args.grid_k)
        tt, kk = np.meshgrid(t_axis, kappa_axis, indexing="ij")
        theta, d_t, d_k, d_kk = model.forward_theta(tt, kk)
        cal, butt = calendar_butterfly_terms(theta, d_t, d_k, d_kk, kk)
        result.update(
            {
                "grid_points": int(cal.size),
                "calendar_violations": int(np.sum(cal < 0.0)),
                "butterfly_violations": int(np.sum(butt < 0.0)),
                "calendar_violation_fraction": float(np.mean(cal < 0.0)),
                "butterfly_violation_fraction": float(np.mean(butt < 0.0)),
                "mean_calendar_negative": float(np.mean(np.maximum(-cal, 0.0))),
                "mean_butterfly_negative": float(np.mean(np.maximum(-butt, 0.0))),
            }
        )

    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_market_args(parser):
    parser.add_argument("--quotes", required=True, help="quote CSV (maturity,strike,bid,ask,iv)")
    parser.add_argument("--rates", required=True, help="rate curve CSV (tenor,value)")
    parser.add_argument("--divs", required=True, help="dividend curve CSV (tenor,value)")
    parser.add_argument("--spot", type=float, required=True, help="spot level S0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volsurf",
        description="Arbitrage-aware option surface calibration and local volatility extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="fit a surface model to quotes")
    cal.add_argument("method", choices=["gp", "nn", "ssvi"])
    _add_market_args(cal)
    cal.add_argument("--out", required=True, help="output directory")
    cal.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cal.add_argument("--no-holdout", action="store_true",
                     help="fit on all quotes instead of the alternating 50/50 split")
    cal.add_argument("--grid-t", type=int, default=25, help="GP maturity basis nodes")
    cal.add_argument("--grid-k", type=int, default=100, help="GP strike basis nodes")
    cal.add_argument("--starts", type=int, default=5, help="GP hyperparameter starts")
    cal.add_argument("--paths", type=int, default=0, help="GP posterior paths to sample")
    cal.add_argument("--lambda", dest="lam", default="1,1,1",
                     help="NN penalty weights lambda1,lambda2,lambda3")
    cal.add_argument("--lambda-search", action="store_true",
                     help="NN: grid-search lambdas over {0.1,1,10}^3")
    cal.add_argument("--epochs", type=int, default=3000, help="NN training epochs")
    cal.add_argument("--penalty-t", type=int, default=50, help="NN penalty grid maturities")
    cal.add_argument("--penalty-k", type=int, default=100, help="NN penalty grid moneyness nodes")
    cal.set_defaults(handler=cmd_calibrate)

    lv = sub.add_parser("localvol", help="extract a Dupire local-vol grid from a model")
    lv.add_argument("--model", required=True, help="model JSON from calibrate")
    lv.add_argument("--out", required=True)
    lv.add_argument("--grid-t", type=int, default=50)
    lv.add_argument("--grid-k", type=int, default=50)
    lv.add_argument("--cap", type=float, default=2.0, help="export cap on local vol")
    lv.add_argument("--t-range", type=float, nargs=2, default=None,
                    metavar=("T_LO", "T_HI"),
                    help="maturity range for nn/ssvi models "
                         "(default: 0.1..2.0 for nn, calibrated range for ssvi)")
    lv.add_argument("--k-range", type=float, nargs=2, default=(0.7, 1.3),
                    metavar=("M_LO", "M_HI"),
                    help="strike range as moneyness of spot (nn/ssvi models)")
    lv.set_defaults(handler=cmd_localvol)

    bt = sub.add_parser("backtest", help="reprice quotes under a local-vol grid")
    bt.add_argument("method", choices=["mc", "cn"])
    bt.add_argument("--localvol", required=True, help="local-vol JSON from localvol")
    _add_market_args(bt)
    bt.add_argument("--out", required=True)
    bt.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bt.add_argument("--paths", type=int, default=100_000)
    bt.add_argument("--steps", type=int, default=100)
    bt.add_argument("--cn-t", type=int, default=100)
    bt.add_argument("--cn-k", type=int, default=100)
    bt.set_defaults(handler=cmd_backtest)

    gen = sub.add_parser("gen-synthetic", help="generate oracle quotes and curves")
    gen.add_argument("--kind", choices=["flat", "ssvi", "cev"], default="flat")
    gen.add_argument("--out", required=True)
    gen.add_argument("--spot", type=float, default=100.0)
    gen.add_argument("--rate", type=float, default=0.02)
    gen.add_argument("--div", type=float, default=0.01)
    gen.add_argument("--sigma", type=float, default=0.2)
    gen.add_argument("--rho", type=float, default=-0.3)
    gen.add_argument("--eta", type=float, default=1.2)
    gen.add_argument("--theta-slope", type=float, default=0.04)
    gen.add_argument("--sigma0", type=float, default=2.0)
    gen.add_argument("--beta", type=float, default=0.5)
    gen.add_argument("--t-min", type=float, default=0.25)
    gen.add_argument("--t-max", type=float, default=2.5)
    gen.add_argument("--m-min", type=float, default=0.85)
    gen.add_argument("--m-max", type=float, default=1.3)
    gen.add_argument("--n-maturities", type=int, default=20)
    gen.add_argument("--n-strikes", type=int, default=40)
    gen.add_argument("--spread", type=float, default=0.005)
    gen.set_defaults(handler=cmd_gen_synthetic)

    chk = sub.add_parser("check-arbitrage", help="count arbitrage violations of a model")
    chk.add_argument("--model", required=True)
    chk.add_argument("--grid-t", type=int, default=30)
    chk.add_argument("--grid-k", type=int, default=50)
    chk.add_argument("--t-range", type=float, nargs=2, default=None, metavar=("T_LO", "T_HI"),
                     help="maturity range for nn/ssvi models "
                          "(default: 0.1..2.5 for nn, calibrated range for ssvi)")
    chk.add_argument("--kappa-min", type=float, default=-0.5)
    chk.add_argument("--kappa-max", type=float, default=0.5)
    chk.set_defaults(handler=cmd_check_arbitrage)

    return parser


def main(argv=None) -> int:
    from numpy.linalg import LinAlgError

    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, (list, tuple)) else [value])):
            return _fail(EXIT_INPUT, "input",
                         f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "t_range", None) and not 0.0 < args.t_range[0] < args.t_range[1]:
        return _fail(EXIT_INPUT, "input",
                     f"--t-range must start above 0 and increase, got {args.t_range}")
    try:
        return args.handler(args)
    except CliInputError as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    except LinAlgError as exc:  # a ValueError subclass, but a numerical failure
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))
    except (OSError, ValueError) as exc:  # missing, unreadable or directory paths too
        return _fail(EXIT_INPUT, "input", str(exc))
    except (ArithmeticError, RuntimeError) as exc:  # numerical / solver failures
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))


if __name__ == "__main__":
    sys.exit(main())
