import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import volsurf
from volsurf import cli, constrained_sampling, gp_price_surface, nn_iv
from volsurf.cli import main
from volsurf.constrained_sampling import QpConvergenceError
from volsurf.gp_price_surface import HyperparameterFitError
from volsurf.nn_iv import TrainingError


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    code = run(
        ["gen-synthetic", "--kind", "flat", "--out", out,
         "--n-maturities", "6", "--n-strikes", "8", "--t-min", "0.3", "--t-max", "2.0"]
    )
    assert code == 0
    return out


def market_args(base):
    return [
        "--quotes", base / "quotes.csv",
        "--rates", base / "rates.csv",
        "--divs", base / "divs.csv",
        "--spot", 100.0,
    ]


def fresh_interpreter(code, *args, env=None):
    """Stdout of code run by a new interpreter that imports volsurf from this checkout."""
    env = dict(os.environ if env is None else env)
    src = str(Path(volsurf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["calibrate", "--help"],
            ["localvol", "--help"],
            ["backtest", "--help"],
            ["gen-synthetic", "--help"],
            ["check-arbitrage", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


class TestGenSynthetic:
    def test_outputs(self, synthetic_dir):
        for name in ("quotes.csv", "rates.csv", "divs.csv", "meta.json"):
            assert (synthetic_dir / name).exists()
        meta = json.loads((synthetic_dir / "meta.json").read_text())
        assert meta["n_quotes"] == 48

    @pytest.mark.parametrize("argv, fragment", [
        pytest.param(["--t-min", 0], "maturities and moneyness", id="t-min-0"),
        pytest.param(["--t-min", -0.5], "maturities and moneyness", id="t-min-negative"),
        pytest.param(["--m-min", 0], "maturities and moneyness", id="m-min-0"),
        pytest.param(["--spread", 2], "spread in [0, 1]", id="spread-2"),
        pytest.param(["--kind", "cev", "--t-min", 0], "maturities and moneyness",
                     id="cev-t-min-0"),
    ])
    def test_bad_range_exits_2_before_pricing(self, argv, fragment, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gen-synthetic", *argv, "--out", tmp_path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "input"
        assert fragment in json.loads(err[0])["message"]
        assert not (tmp_path / "quotes.csv").exists()


class TestCalibrate:
    def test_missing_quotes_exits_2(self, tmp_path, capsys):
        code = run(
            ["calibrate", "gp", "--quotes", tmp_path / "absent.csv",
             "--rates", tmp_path / "absent.csv", "--divs", tmp_path / "absent.csv",
             "--spot", 100, "--out", tmp_path / "out"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"

    def test_gp_pipeline_and_localvol_and_backtest(self, synthetic_dir, tmp_path, capsys):
        out = tmp_path / "gp"
        code = run(
            ["calibrate", "gp", *market_args(synthetic_dir), "--out", out,
             "--grid-t", 6, "--grid-k", 16, "--starts", 2, "--seed", 7]
        )
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["version"] == "gpmodel/1"
        report = json.loads((out / "report.json").read_text())
        assert report["train_n"] + report["test_n"] == 48
        assert report["min_constraint_slack"] >= -1e-8
        assert report["prior_jitter"] == {"maturity": 0.0, "strike": 0.0}

        lv_out = tmp_path / "gp_lv"
        code = run(
            ["localvol", "--model", out / "model.json", "--out", lv_out,
             "--grid-t", 10, "--grid-k", 8, "--cap", 2.0]
        )
        assert code == 0
        assert (lv_out / "localvol.json").exists()
        assert (lv_out / "localvol.csv").exists()
        summary = json.loads((lv_out / "summary.json").read_text())
        assert summary["cap"] == 2.0

        bt_out = tmp_path / "gp_bt"
        code = run(
            ["backtest", "cn", "--localvol", lv_out / "localvol.json",
             *market_args(synthetic_dir), "--out", bt_out, "--cn-t", 60, "--cn-k", 60]
        )
        assert code == 0
        rep = json.loads((bt_out / "report.json").read_text())
        assert rep["method"] == "cn"
        assert rep["iv_rmse"] < 0.05
        diagnostics = rep["diagnostics"]
        assert diagnostics["time_levels"] == 60 and diagnostics["strike_nodes"] == 60
        assert type(diagnostics["negative_values_clamped"]) is int
        assert diagnostics["negative_values_clamped"] >= 0

        capsys.readouterr()
        code = run(["check-arbitrage", "--model", out / "model.json"])
        assert code == 0
        chk = json.loads(capsys.readouterr().out)
        assert chk["violated_rows"] == 0

    def test_localvol_grid_too_fine_rejected(self, synthetic_dir, tmp_path, capsys):
        out = tmp_path / "gp2"
        code = run(
            ["calibrate", "gp", *market_args(synthetic_dir), "--out", out,
             "--grid-t", 5, "--grid-k", 12, "--starts", 1, "--seed", 3]
        )
        assert code == 0
        code = run(
            ["localvol", "--model", out / "model.json", "--out", tmp_path / "lv2",
             "--grid-k", 30]
        )
        assert code == 2
        assert "strike" in json.loads(capsys.readouterr().err)["message"]

    def test_nn_pipeline(self, synthetic_dir, tmp_path, capsys):
        out = tmp_path / "nn"
        code = run(
            ["calibrate", "nn", *market_args(synthetic_dir), "--out", out,
             "--epochs", 150, "--penalty-t", 8, "--penalty-k", 10, "--seed", 5,
             "--lambda", "1,1,1"]
        )
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["version"] == "nnivmodel/1"
        totals = [h["total"] for h in
                  json.loads((out / "training_history.json").read_text())["history"]]
        report = json.loads((out / "report.json").read_text())
        assert report["best_epoch"] == 1 + totals.index(min(totals))
        assert "best_epoch" not in json.dumps(model)

        lv_out = tmp_path / "nn_lv"
        code = run(
            ["localvol", "--model", out / "model.json", "--out", lv_out,
             "--grid-t", 8, "--grid-k", 9, "--t-range", 0.4, 1.9]
        )
        assert code == 0
        capsys.readouterr()
        code = run(["check-arbitrage", "--model", out / "model.json",
                    "--grid-t", 6, "--grid-k", 8])
        assert code == 0
        chk = json.loads(capsys.readouterr().out)
        assert "butterfly_violations" in chk

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["nn", "--epochs", -5, "--penalty-t", 3, "--penalty-k", 3],
                         id="nn-epochs"),
            pytest.param(["gp", "--paths", -3, "--grid-t", 3, "--grid-k", 5, "--starts", 1],
                         id="gp-paths"),
        ],
    )
    def test_negative_count_exits_2(self, argv, synthetic_dir, tmp_path, capsys):
        out = tmp_path / "neg"
        code = run(["calibrate", argv[0], *market_args(synthetic_dir), "--out", out, *argv[1:]])
        assert code == 2
        assert "nonnegative" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "model.json").exists()

    def test_ssvi_pipeline(self, synthetic_dir, tmp_path):
        out = tmp_path / "ssvi"
        code = run(["calibrate", "ssvi", *market_args(synthetic_dir), "--out", out])
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["version"] == "ssvi/1"
        report = json.loads((out / "report.json").read_text())
        assert report["no_arbitrage"]["butterfly_ok"]
        assert report["ssvi_slices_at_max_iter"] in range(len(model["slices"]) + 1)

        lv_out = tmp_path / "ssvi_lv"
        code = run(
            ["localvol", "--model", out / "model.json", "--out", lv_out,
             "--grid-t", 8, "--grid-k", 9]
        )
        assert code == 0

    def test_gp_seed_reproducibility(self, synthetic_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"gp_{tag}"
            code = run(
                ["calibrate", "gp", *market_args(synthetic_dir), "--out", out,
                 "--grid-t", 4, "--grid-k", 10, "--starts", 1, "--seed", 99]
            )
            assert code == 0
            outs.append((out / "model.json").read_bytes())
        assert outs[0] == outs[1]


class TestSplit:
    def test_order_is_sorted_maturity_then_strike_ties_included(self):
        from volsurf.market_data import AffineScaling, Curve, CurveSet, MarketFrame

        from oracles import frame_rows

        rng = np.random.default_rng(5)
        n = 41
        t = rng.choice([0.25, 0.5, 1.0], n)
        k = rng.choice([90.0, 100.0, 110.0], n)
        bid = rng.uniform(1.0, 2.0, n)      # tells tied quotes apart
        frame = MarketFrame(
            maturity=t, strike=k, reduced_strike=k, log_moneyness=np.log(k / 100.0),
            reduced_bid=bid, reduced_ask=bid + 0.1, reduced_mid=bid + 0.05,
            mid_iv=np.full(n, 0.2), scaling=AffineScaling(0.25, 1.0, 90.0, 110.0),
            curves=CurveSet(spot=100.0, rate_curve=Curve.flat(0.0),
                            dividend_curve=Curve.flat(0.0)),
        )
        rows = frame_rows(frame)
        order = sorted(range(n), key=lambda i: (rows[i][0], rows[i][1]))
        train, test = cli._split_frame(frame, holdout=True)
        assert frame_rows(train) == [rows[i] for i in order[0::2]]
        assert frame_rows(test) == [rows[i] for i in order[1::2]]
        train, test = cli._split_frame(frame, holdout=False)
        assert train is frame and test is frame


class TestBacktestCommand:
    def test_mc_deterministic_and_domain_check(self, synthetic_dir, tmp_path, capsys):
        lv_dir = tmp_path / "lv"
        lv_dir.mkdir()
        from volsurf.local_vol import LocalVolGrid, grid_to_json
        from volsurf.serialize import dump_json

        grid = LocalVolGrid.flat(0.2, np.linspace(0.01, 2.5, 8), np.linspace(30.0, 230.0, 9))
        dump_json(grid_to_json(grid), lv_dir / "flat.json")

        rows = []
        reports = []
        for tag in ("x", "y"):
            out = tmp_path / f"mc_{tag}"
            code = run(
                ["backtest", "mc", "--localvol", lv_dir / "flat.json",
                 *market_args(synthetic_dir), "--out", out,
                 "--paths", 4000, "--steps", 25, "--seed", 4]
            )
            assert code == 0
            rows.append((out / "rows.csv").read_bytes())
            reports.append(json.loads((out / "report.json").read_text()))
        assert rows[0] == rows[1]
        diagnostics = reports[0]["diagnostics"]
        assert diagnostics["paths"] == 4000 and diagnostics["time_levels"] >= 26
        assert 0.0 < diagnostics["mean_price_stderr"] <= diagnostics["max_price_stderr"]
        assert np.isfinite(diagnostics["max_price_stderr"])
        # identical up to the wall-clock runtime field
        for doc in reports:
            doc.pop("runtime_seconds")
        assert reports[0] == reports[1]

        # grid nowhere near the quotes: domain error
        bad = LocalVolGrid.flat(0.2, np.linspace(0.01, 2.5, 4), np.linspace(900.0, 1000.0, 4))
        dump_json(grid_to_json(bad), lv_dir / "bad.json")
        code = run(
            ["backtest", "mc", "--localvol", lv_dir / "bad.json",
             *market_args(synthetic_dir), "--out", tmp_path / "bad_bt"]
        )
        assert code == 2
        assert "domain" in json.loads(capsys.readouterr().err)["message"]


class TestRejectedQuotes:
    def test_reports_count_rejections_by_reason(self, synthetic_dir, tmp_path):
        market = tmp_path / "market"
        market.mkdir()
        for name in ("rates.csv", "divs.csv"):
            (market / name).write_bytes((synthetic_dir / name).read_bytes())
        lines = (synthetic_dir / "quotes.csv").read_text().splitlines()
        t, strike, bid, ask, _ = lines[1].split(",")
        bad = ["nan,100,1,2,", "inf,100,1,2,", "1.0,nan,1,2,", "1.0,100,inf,2,",
               "1.0,0,1,2,", "1.0,100,-1,2,", "1.0,100,5,4,", "0.02,100,1,2,",
               "1.0,100,200,200,", f"{t},{strike},{bid},{ask},0.5"]
        (market / "quotes.csv").write_text("\n".join(lines + bad) + "\n")
        want = {"non-numeric field": 4, "maturity or strike not positive": 1,
                "negative bid": 1, "crossed quote": 1, "below minimum maturity": 1,
                "mid price outside arbitrage band": 1,
                "listed iv inconsistent with mid price": 1}

        for base, tag in ((synthetic_dir, "clean"), (market, "dirty")):
            assert run(["calibrate", "ssvi", *market_args(base), "--out", tmp_path / tag]) == 0
        report = json.loads((tmp_path / "dirty" / "report.json").read_text())
        assert report["rejected_quotes"] == want
        clean = json.loads((tmp_path / "clean" / "report.json").read_text())
        assert clean["rejected_quotes"] == {} and clean["n_quotes"] == report["n_quotes"]
        # the rejected rows leave the fitted problem, and so the model, unchanged
        model = (tmp_path / "dirty" / "model.json").read_bytes()
        assert model == (tmp_path / "clean" / "model.json").read_bytes()
        assert b"rejected_quotes" not in model

        assert run(["localvol", "--model", tmp_path / "dirty" / "model.json",
                    "--out", tmp_path / "lv", "--grid-t", 6, "--grid-k", 6]) == 0
        assert run(["backtest", "cn", "--localvol", tmp_path / "lv" / "localvol.json",
                    *market_args(market), "--out", tmp_path / "bt",
                    "--cn-t", 20, "--cn-k", 40]) == 0
        report = json.loads((tmp_path / "bt" / "report.json").read_text())
        assert report["rejected_quotes"] == want


@pytest.fixture(scope="module")
def model_files(synthetic_dir, tmp_path_factory):
    """One small model file per calibration method."""
    out = tmp_path_factory.mktemp("models")
    extra = {
        "gp": ["--grid-t", 3, "--grid-k", 5, "--starts", 1],
        "nn": ["--epochs", 3, "--penalty-t", 3, "--penalty-k", 3],
        "ssvi": [],
    }
    for method, args in extra.items():
        code = run(["calibrate", method, *market_args(synthetic_dir), "--out", out / method,
                    *args])
        assert code == 0
    return {method: out / method / "model.json" for method in extra}


def field_paths(doc, prefix=()):
    """Key paths to every field of a JSON document (first element of each list)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:1])
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, (*prefix, key))


def with_field(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestCheckArbitrage:
    def test_ssvi_model(self, model_files, capsys):
        capsys.readouterr()
        code = run(["check-arbitrage", "--model", model_files["ssvi"],
                    "--grid-t", 6, "--grid-k", 8])
        assert code == 0
        chk = json.loads(capsys.readouterr().out)
        assert chk["version"] == "ssvi/1"
        assert chk["grid_points"] == 48
        assert chk["calendar_violations"] == 0
        assert chk["butterfly_violations"] == 0

    def test_t_range_for_ssvi(self, model_files, monkeypatch, capsys):
        from volsurf.ssvi import SsviModel

        seen = []
        real = SsviModel.forward_theta

        def spy(self, t, kappa):
            seen.append((float(np.min(t)), float(np.max(t))))
            return real(self, t, kappa)

        monkeypatch.setattr(SsviModel, "forward_theta", spy)
        slices = json.loads(model_files["ssvi"].read_text())["slices"]
        calibrated = (slices[0]["maturity"], slices[-1]["maturity"])
        capsys.readouterr()
        outputs = []
        for extra in ([], ["--t-range", *calibrated], ["--t-range", 0.5, 1.0]):
            assert run(["check-arbitrage", "--model", model_files["ssvi"], *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert seen == [calibrated, calibrated, (0.5, 1.0)]
        assert outputs[0] == outputs[1]


class TestModelFiles:
    """Every document a command reads fails as an input error (exit 2), not a traceback."""

    @staticmethod
    def command(name, path, tmp_path, synthetic_dir):
        if name == "localvol":
            return ["localvol", "--model", path, "--out", tmp_path / "lv",
                    "--grid-t", 4, "--grid-k", 4]
        if name == "check-arbitrage":
            return ["check-arbitrage", "--model", path, "--grid-t", 3, "--grid-k", 3]
        return ["backtest", "cn", "--localvol", path, *market_args(synthetic_dir),
                "--out", tmp_path / "bt", "--cn-t", 10, "--cn-k", 20]

    def expect_input_error(self, name, doc, tmp_path, synthetic_dir, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return self.expect_input_error_at(name, path, tmp_path, synthetic_dir, capsys)

    def expect_input_error_at(self, name, path, tmp_path, synthetic_dir, capsys):
        capsys.readouterr()
        assert run(self.command(name, path, tmp_path, synthetic_dir)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "input"
        return json.loads(err)["message"]

    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage", "backtest"])
    def test_directory_instead_of_document(self, name, tmp_path, synthetic_dir, capsys):
        folder = tmp_path / "model.json"
        folder.mkdir()
        message = self.expect_input_error_at(name, folder, tmp_path, synthetic_dir, capsys)
        assert "model.json" in message

    def test_directory_instead_of_quotes(self, tmp_path, synthetic_dir, capsys):
        args = market_args(synthetic_dir)
        args[1] = tmp_path
        capsys.readouterr()
        assert run(["calibrate", "ssvi", *args, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage"])
    def test_unsupported_model_version(self, name, tmp_path, synthetic_dir, capsys):
        message = self.expect_input_error(name, {"version": "svi/9"}, tmp_path,
                                          synthetic_dir, capsys)
        assert "unsupported model version" in message

    @pytest.mark.parametrize(
        "name, doc",
        [
            pytest.param("localvol", [1, 2], id="localvol-list"),
            pytest.param("localvol", "model", id="localvol-string"),
            pytest.param("localvol", {"version": "ssvi/1"}, id="localvol-ssvi-empty"),
            pytest.param("localvol", {"version": "nnivmodel/1"}, id="localvol-nn-empty"),
            pytest.param("localvol", {"version": "gpmodel/1"}, id="localvol-gp-empty"),
            pytest.param("check-arbitrage", [1, 2], id="check-list"),
            pytest.param("check-arbitrage", {"version": "ssvi/1"}, id="check-ssvi-empty"),
            pytest.param("check-arbitrage", {"version": "nnivmodel/1"}, id="check-nn-empty"),
            pytest.param("check-arbitrage", {"version": "gpmodel/1"}, id="check-gp-empty"),
            pytest.param("backtest", [1, 2], id="backtest-list"),
            pytest.param("backtest", {"version": "localvol/1"}, id="backtest-empty"),
            pytest.param("backtest", {"version": "localvol/1", "t_axis": [0.5, 1.0],
                                      "k_axis": "x", "values": [], "mask": []},
                         id="backtest-string-axis"),
        ],
    )
    def test_malformed_document(self, name, doc, tmp_path, synthetic_dir, capsys):
        self.expect_input_error(name, doc, tmp_path, synthetic_dir, capsys)

    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage"])
    def test_non_integer_gp_grid_size(self, name, model_files, tmp_path, synthetic_dir,
                                      capsys):
        doc = json.loads(model_files["gp"].read_text())
        doc["grid"]["n_t"] = float(doc["grid"]["n_t"])
        self.expect_input_error(name, doc, tmp_path, synthetic_dir, capsys)

    @pytest.mark.parametrize("method", ["gp", "nn", "ssvi"])
    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage"])
    def test_every_mistyped_model_field(self, method, name, model_files, tmp_path,
                                        synthetic_dir, capsys):
        doc = json.loads(model_files[method].read_text())
        for path in field_paths(doc):
            if path == ("version",):
                continue
            for value in ("x", None):
                self.expect_input_error(name, with_field(doc, path, value), tmp_path,
                                        synthetic_dir, capsys)

    @pytest.mark.parametrize("method", ["cn", "mc"])
    @pytest.mark.parametrize("path", [("values", 1, 1), ("t_axis", 1)],
                             ids=["nan-value", "nan-t-axis"])
    def test_non_finite_local_vol_number(self, method, path, tmp_path, synthetic_dir, capsys):
        from volsurf.local_vol import LocalVolGrid, grid_to_json

        doc = grid_to_json(LocalVolGrid.flat(0.2, [0.1, 1.0, 2.5], [50.0, 100.0, 200.0]))
        (tmp_path / "lv.json").write_text(json.dumps(with_field(doc, path, float("nan"))))
        capsys.readouterr()
        code = run(["backtest", method, "--localvol", tmp_path / "lv.json",
                    *market_args(synthetic_dir), "--out", tmp_path / "bt", "--paths", 200,
                    "--steps", 5, "--cn-t", 10, "--cn-k", 20])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "input"

    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage"])
    def test_infinite_gp_node(self, name, model_files, tmp_path, synthetic_dir, capsys):
        doc = json.loads(model_files["gp"].read_text())
        message = self.expect_input_error(name, with_field(doc, ("map_nodes", 0), float("inf")),
                                          tmp_path, synthetic_dir, capsys)
        assert "finite" in message

    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage"])
    @pytest.mark.parametrize(
        "method, path",
        [
            pytest.param("ssvi", ("slices", 0, "omega"), id="ssvi-slice-omega"),
            pytest.param("ssvi", ("slices", 1, "zeta"), id="ssvi-slice-zeta"),
            pytest.param("ssvi", ("slices", 0, "delta"), id="ssvi-slice-delta"),
            pytest.param("ssvi", ("eta",), id="ssvi-eta"),
            pytest.param("ssvi", ("atm_curve", "values", 1), id="ssvi-atm-value"),
            pytest.param("nn", ("sigma_hi",), id="nn-sigma-hi"),
            pytest.param("gp", ("scaling", "t_min"), id="gp-scaling-t-min"),
            pytest.param("gp", ("params", "theta_t"), id="gp-params-theta-t"),
        ],
    )
    def test_nan_model_number(self, method, path, name, model_files, tmp_path, synthetic_dir,
                              capsys):
        doc = json.loads(model_files[method].read_text())
        message = self.expect_input_error(name, with_field(doc, path, float("nan")),
                                          tmp_path, synthetic_dir, capsys)
        assert "finite" in message

    @pytest.mark.parametrize("name", ["localvol", "check-arbitrage"])
    def test_one_slice_ssvi_model(self, name, model_files, tmp_path, synthetic_dir, capsys):
        # one slice leaves no maturity range to interpolate or difference over
        doc = json.loads(model_files["ssvi"].read_text())
        doc["slices"] = doc["slices"][:1]
        doc["atm_curve"] = {key: values[:1] for key, values in doc["atm_curve"].items()}
        message = self.expect_input_error(name, doc, tmp_path, synthetic_dir, capsys)
        assert "two slices" in message

    def test_every_mistyped_local_vol_field(self, tmp_path, synthetic_dir, capsys):
        from volsurf.local_vol import LocalVolGrid, grid_to_json

        doc = grid_to_json(LocalVolGrid.flat(0.2, [0.1, 1.0, 2.5], [50.0, 100.0, 200.0]))
        for path in field_paths({key: doc[key] for key in ("t_axis", "k_axis", "values",
                                                           "mask")}):
            for value in ("x", None):
                self.expect_input_error("backtest", with_field(doc, path, value), tmp_path,
                                        synthetic_dir, capsys)


class TestFailureContract:
    def test_linalg_error_exits_3(self, monkeypatch, capsys):
        def singular(args):
            raise np.linalg.LinAlgError("covariance is not positive definite")

        monkeypatch.setattr(cli, "cmd_check_arbitrage", singular)
        assert run(["check-arbitrage", "--model", "model.json"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "numerical", "message": "covariance is not positive definite"}

    def test_sampler_stall_exits_3(self, synthetic_dir, tmp_path, monkeypatch, capsys):
        import faulthandler

        # no bounce budget: every HMC trajectory that meets a wall restarts
        monkeypatch.setattr(constrained_sampling, "MAX_BOUNCES", 0)
        faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
        try:
            code = run(["calibrate", "gp", *market_args(synthetic_dir), "--out", tmp_path,
                        "--grid-t", 3, "--grid-k", 4, "--starts", 1, "--paths", 2])
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "numerical" and "restarted" in err["message"]

    @staticmethod
    def one_json_line(capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return json.loads(err[0])

    def test_degenerate_variance_exits_3(self, tmp_path, capsys):
        # an SSVI surface whose slices carry no variance at all
        flat = {"delta": 0.0, "mu": 0.0, "rho": 0.0, "omega": 0.0, "zeta": 1.0}
        doc = {"version": "ssvi/1", "rho": 0.0, "eta": 1.0, "gamma": 0.5, "spot": 100.0,
               "atm_curve": {"maturities": [0.5, 1.5], "values": [0.0, 0.0]},
               "slices": [{"maturity": 0.5, **flat}, {"maturity": 1.5, **flat}]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["localvol", "--model", path, "--out", tmp_path / "lv",
                    "--grid-t", 4, "--grid-k", 4])
        assert code == 3
        assert self.one_json_line(capsys) == {
            "error": "numerical", "message": "total variance vanishes on the evaluation grid"}

    def test_infeasible_sampler_start_exits_3(self, synthetic_dir, tmp_path, monkeypatch,
                                              capsys):
        # an HMC start that breaks every nonnegativity row
        monkeypatch.setattr(gp_price_surface, "_interior_nudge",
                            lambda model, system: -np.ones(model.grid.size))
        capsys.readouterr()
        code = run(["calibrate", "gp", *market_args(synthetic_dir), "--out", tmp_path,
                    "--grid-t", 3, "--grid-k", 4, "--starts", 1, "--paths", 2])
        assert code == 3
        err = self.one_json_line(capsys)
        assert err["error"] == "numerical"
        assert err["message"].startswith("initial point must be strictly feasible")

    @pytest.mark.parametrize("method, module, stage, error", [
        ("gp", gp_price_surface, "fit_map", QpConvergenceError("KKT tolerances not met")),
        ("gp", gp_price_surface, "fit_hyperparameters",
         HyperparameterFitError("all optimizer starts failed", [])),
        ("nn", nn_iv, "train", TrainingError("loss became non-finite", 3)),
    ], ids=["QpConvergenceError", "HyperparameterFitError", "TrainingError"])
    def test_solver_failure_exits_3(self, method, module, stage, error, synthetic_dir, tmp_path,
                                    monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, stage, fail)
        capsys.readouterr()
        code = run(["calibrate", method, *market_args(synthetic_dir), "--out", tmp_path,
                    "--grid-t", 3, "--grid-k", 4, "--starts", 1])
        assert code == 3
        assert self.one_json_line(capsys) == {"error": "numerical", "message": str(error)}

    @pytest.mark.parametrize("argv", [
        pytest.param(["calibrate", "gp", "MARKET", "--grid-t", 3, "--grid-k", 5, "--starts", 0],
                     id="gp-starts-0"),
        pytest.param(["calibrate", "gp", "MARKET", "--grid-t", 3, "--grid-k", 5, "--starts", -2],
                     id="gp-starts-negative"),
        pytest.param(["localvol", "--model", "NN", "--grid-t", 1, "--grid-k", 6],
                     id="localvol-nn-grid-t-1"),
        pytest.param(["localvol", "--model", "SSVI", "--grid-t", 6, "--grid-k", 1],
                     id="localvol-ssvi-grid-k-1"),
        pytest.param(["backtest", "mc", "--localvol", "LV", "MARKET", "--paths", 0, "--steps", 5],
                     id="backtest-mc-paths-0"),
        pytest.param(["backtest", "mc", "--localvol", "LV", "MARKET", "--paths", 50, "--steps", 0],
                     id="backtest-mc-steps-0"),
        pytest.param(["backtest", "mc", "--localvol", "LV", "MARKET", "--paths", 50, "--steps", -1],
                     id="backtest-mc-steps-negative"),
        pytest.param(["backtest", "cn", "--localvol", "LV", "MARKET", "--cn-t", 1],
                     id="backtest-cn-t-1"),
        pytest.param(["backtest", "cn", "--localvol", "LV", "MARKET", "--cn-k", 2],
                     id="backtest-cn-k-2"),
        pytest.param(["backtest", "cn", "--localvol", "LV1", "MARKET"],
                     id="backtest-one-node-localvol"),
        pytest.param(["check-arbitrage", "--model", "NN", "--grid-t", 0],
                     id="check-arbitrage-nn-grid-t-0"),
        pytest.param(["check-arbitrage", "--model", "SSVI", "--grid-k", 0],
                     id="check-arbitrage-ssvi-grid-k-0"),
        pytest.param(["localvol", "--model", "GP", "--grid-k", 1], id="localvol-gp-grid-k-1"),
        pytest.param(["gen-synthetic", "--n-maturities", 0], id="gen-synthetic-n-maturities-0"),
        pytest.param(["gen-synthetic", "--n-strikes", 0], id="gen-synthetic-n-strikes-0"),
        # non-finite floats
        pytest.param(["localvol", "--model", "SSVI", "--cap", "nan"], id="localvol-cap-nan"),
        pytest.param(["localvol", "--model", "NN", "--t-range", "nan", 2],
                     id="localvol-t-range-nan"),
        pytest.param(["check-arbitrage", "--model", "NN", "--kappa-min", "nan"],
                     id="check-arbitrage-kappa-min-nan"),
        # maturity ranges that are not positive, reversed or empty
        pytest.param(["localvol", "--model", "NN", "--t-range", 0, 2], id="localvol-nn-t-range-0"),
        pytest.param(["localvol", "--model", "NN", "--t-range", -1, 2],
                     id="localvol-nn-t-range-negative"),
        pytest.param(["check-arbitrage", "--model", "NN", "--t-range", 0, 1],
                     id="check-arbitrage-nn-t-range-0"),
        pytest.param(["check-arbitrage", "--model", "NN", "--t-range", 2, 1],
                     id="check-arbitrage-nn-t-range-reversed"),
        pytest.param(["check-arbitrage", "--model", "SSVI", "--t-range", 1, 1],
                     id="check-arbitrage-ssvi-t-range-empty"),
        pytest.param(["gen-synthetic", "--sigma", "nan"], id="gen-synthetic-sigma-nan"),
        pytest.param(["gen-synthetic", "--spread", "nan"], id="gen-synthetic-spread-nan"),
        pytest.param(["gen-synthetic", "--spot", "nan"], id="gen-synthetic-spot-nan"),
        pytest.param(["calibrate", "nn", "MARKET", "--lambda", "nan,1,1", "--epochs", 2,
                      "--penalty-t", 3, "--penalty-k", 3], id="nn-lambda-nan"),
        pytest.param(["calibrate", "nn", "MARKET", "--lambda", "nan,1,1", "--epochs", 0,
                      "--penalty-t", 3, "--penalty-k", 3], id="nn-lambda-nan-epochs-0"),
    ])
    def test_bad_count_exits_2(self, argv, model_files, synthetic_dir, tmp_path, capsys):
        # counts a command cannot work with, and non-finite float values
        lv = tmp_path / "lv"
        assert run(["localvol", "--model", model_files["ssvi"], "--out", lv,
                    "--grid-t", 4, "--grid-k", 6]) == 0
        # a one-maturity grid, as localvol --grid-t 1 used to write
        one_node = json.loads((lv / "localvol.json").read_text())
        one_node.update(t_axis=one_node["t_axis"][:1], values=one_node["values"][:1],
                        mask=one_node["mask"][:1])
        (lv / "one_node.json").write_text(json.dumps(one_node))
        stand_in = {"MARKET": market_args(synthetic_dir), "NN": [model_files["nn"]],
                    "GP": [model_files["gp"]],
                    "SSVI": [model_files["ssvi"]], "LV": [lv / "localvol.json"],
                    "LV1": [lv / "one_node.json"]}
        argv = [x for arg in argv for x in stand_in.get(arg, [arg])]
        if argv[0] != "check-arbitrage":
            argv += ["--out", tmp_path / "out"]
        capsys.readouterr()
        assert run(argv) == 2
        assert self.one_json_line(capsys)["error"] == "input"

    def test_backtest_with_every_row_rejected_logs_to_run_log(self, model_files, synthetic_dir,
                                                              tmp_path):
        # a crossed row and a nan row: build_frame logs both, then finds no quote left;
        # a fresh interpreter, because pytest's own log handlers would hide a stray line
        assert run(["localvol", "--model", model_files["ssvi"], "--out", tmp_path / "lv",
                    "--grid-t", 4, "--grid-k", 6]) == 0
        book = tmp_path / "book"
        book.mkdir()
        (book / "quotes.csv").write_text("maturity,strike,bid,ask,iv\n1.0,100,5,4,\nnan,100,1,2,\n")
        for name in ("rates.csv", "divs.csv"):
            (book / name).write_text((synthetic_dir / name).read_text())
        argv = ["backtest", "cn", "--localvol", tmp_path / "lv" / "localvol.json",
                *market_args(book), "--out", tmp_path / "bt"]
        probe = """
            import contextlib, io, json, sys
            from volsurf import cli
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(json.loads(sys.argv[1]))
            print(json.dumps([code, err.getvalue().splitlines()]))
            """
        stdout = fresh_interpreter(probe, json.dumps([str(a) for a in argv]))
        code, err = json.loads(stdout.splitlines()[-1])
        assert code == 2
        assert len(err) == 1 and json.loads(err[0])["error"] == "input", err
        logged = (tmp_path / "bt" / "run.log").read_text().splitlines()
        assert [line.split(" WARNING ", 1)[1] for line in logged if " WARNING " in line] == [
            "row 0 rejected: crossed quote", "row 1 rejected: non-numeric field"]

    def test_maturity_beyond_calibrated_range_exits_2(self, model_files, tmp_path, capsys):
        capsys.readouterr()
        code = run(["localvol", "--model", model_files["ssvi"], "--out", tmp_path / "lv",
                    "--grid-t", 4, "--grid-k", 4, "--t-range", 0.5, 9.0])
        assert code == 2
        err = self.one_json_line(capsys)
        assert err["error"] == "input" and "outside calibrated range" in err["message"]

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_thread_cap_set_before_numpy_loads(self, preset, expected):
        # volsurf.cli loads no numpy; the first volsurf module that does is
        # imported after it, as a command's handler would
        probe = """
            import os, sys
            seen = []
            class Probe:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.meta_path.insert(0, Probe())
            import volsurf.cli
            assert not seen, "importing volsurf.cli loaded numpy"
            import volsurf.market_data
            print(seen)
            """
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["VOLSURF_THREADS"] = "1"
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        assert fresh_interpreter(probe, env=env).strip() == repr([expected])


@pytest.fixture(scope="module")
def cold_start_inputs(tmp_path_factory):
    """A 4x8 SSVI book, NN and SSVI models fitted to it, and a local-vol grid."""
    out = tmp_path_factory.mktemp("cold_start")
    market = market_args(out / "book")
    for argv in (
        ["gen-synthetic", "--kind", "ssvi", "--n-maturities", 4, "--n-strikes", 8,
         "--out", out / "book"],
        ["calibrate", "nn", *market, "--epochs", 2, "--penalty-t", 3, "--penalty-k", 3,
         "--out", out / "nn"],
        ["calibrate", "ssvi", *market, "--out", out / "ssvi"],
        ["localvol", "--model", out / "ssvi" / "model.json", "--grid-t", 5, "--grid-k", 5,
         "--out", out / "lv"],
    ):
        assert run(argv) == 0
    # filling masked cells would load scipy.ndimage; this grid has none
    assert json.loads((out / "lv" / "summary.json").read_text())["masked_fraction"] == 0.0
    return {"MARKET": market, "NN": [out / "nn" / "model.json"],
            "SSVI": [out / "ssvi" / "model.json"], "LV": [out / "lv" / "localvol.json"]}


class TestColdStart:
    BOOK = ["--n-maturities", 4, "--n-strikes", 8]

    @pytest.mark.parametrize("argv, loaded", [
        pytest.param(["gen-synthetic", "--kind", "flat", *BOOK], [], id="gen-synthetic-flat"),
        pytest.param(["gen-synthetic", "--kind", "ssvi", *BOOK], [], id="gen-synthetic-ssvi"),
        # the CEV oracle prices its quotes by Crank-Nicolson
        pytest.param(["gen-synthetic", "--kind", "cev", *BOOK], ["linalg"],
                     id="gen-synthetic-cev"),
        pytest.param(["calibrate", "nn", "MARKET", "--epochs", 2, "--penalty-t", 3,
                      "--penalty-k", 3], [], id="calibrate-nn"),
        pytest.param(["localvol", "--model", "NN", "--grid-t", 5, "--grid-k", 5], [],
                     id="localvol-nn"),
        pytest.param(["localvol", "--model", "SSVI", "--grid-t", 5, "--grid-k", 5], [],
                     id="localvol-ssvi"),
        pytest.param(["check-arbitrage", "--model", "NN"], [], id="check-arbitrage-nn"),
        pytest.param(["check-arbitrage", "--model", "SSVI"], [], id="check-arbitrage-ssvi"),
        pytest.param(["backtest", "mc", "--localvol", "LV", "MARKET", "--paths", 200,
                      "--steps", 5], [], id="backtest-mc"),
        pytest.param(["backtest", "cn", "--localvol", "LV", "MARKET", "--cn-t", 10,
                      "--cn-k", 20], ["linalg"], id="backtest-cn"),
    ])
    def test_command_loads_only_the_scipy_it_runs(self, argv, loaded, cold_start_inputs,
                                                 tmp_path):
        argv = [str(x) for arg in argv for x in cold_start_inputs.get(arg, [arg])]
        if argv[0] != "check-arbitrage":
            argv += ["--out", str(tmp_path / "out")]
        probe = """
            import json, sys
            from volsurf import cli
            code = cli.main(json.loads(sys.argv[1]))
            heavy = ("optimize", "linalg", "sparse", "ndimage")
            print(json.dumps([code, [name for name in heavy if "scipy." + name in sys.modules]]))
            """
        last_line = fresh_interpreter(probe, json.dumps(argv)).splitlines()[-1]
        assert json.loads(last_line) == [0, loaded]
