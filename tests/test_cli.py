import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import volsurf
from volsurf import cli
from volsurf.cli import main


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
        assert (out / "training_history.json").exists()

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

    def test_ssvi_pipeline(self, synthetic_dir, tmp_path):
        out = tmp_path / "ssvi"
        code = run(["calibrate", "ssvi", *market_args(synthetic_dir), "--out", out])
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["version"] == "ssvi/1"
        report = json.loads((out / "report.json").read_text())
        assert report["no_arbitrage"]["butterfly_ok"]

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


class TestBacktestCommand:
    def test_mc_deterministic_and_domain_check(self, synthetic_dir, tmp_path, capsys):
        lv_dir = tmp_path / "lv"
        lv_dir.mkdir()
        from volsurf.local_vol import LocalVolGrid, write_grid_json

        grid = LocalVolGrid.flat(0.2, np.linspace(0.01, 2.5, 8), np.linspace(30.0, 230.0, 9))
        write_grid_json(grid, lv_dir / "flat.json")

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
        # identical up to the wall-clock runtime field
        for doc in reports:
            doc.pop("runtime_seconds")
        assert reports[0] == reports[1]

        # grid nowhere near the quotes: domain error
        bad = LocalVolGrid.flat(0.2, np.linspace(0.01, 2.5, 4), np.linspace(900.0, 1000.0, 4))
        write_grid_json(bad, lv_dir / "bad.json")
        code = run(
            ["backtest", "mc", "--localvol", lv_dir / "bad.json",
             *market_args(synthetic_dir), "--out", tmp_path / "bad_bt"]
        )
        assert code == 2
        assert "domain" in json.loads(capsys.readouterr().err)["message"]


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
        import functools

        from volsurf import gp_price_surface

        # no bounce budget: every HMC trajectory that meets a wall restarts
        stalling = functools.partial(gp_price_surface.sample_truncated, max_bounces=0)
        monkeypatch.setattr(gp_price_surface, "sample_truncated", stalling)
        faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
        try:
            code = run(["calibrate", "gp", *market_args(synthetic_dir), "--out", tmp_path,
                        "--grid-t", 3, "--grid-k", 4, "--starts", 1, "--paths", 2])
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "numerical" and "restarted" in err["message"]

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_thread_cap_set_before_numpy_loads(self, preset, expected):
        probe = textwrap.dedent(
            """
            import os, sys
            seen = []
            class Probe:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.meta_path.insert(0, Probe())
            import volsurf.cli
            print(seen)
            """
        )
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["VOLSURF_THREADS"] = "1"
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        src = str(Path(volsurf.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr([expected])


class TestPriceAdapters:
    """The vectorised price adapters against one-point-at-a-time references."""

    @pytest.fixture(scope="class")
    def frame(self):
        from volsurf.backtest import SyntheticSpec, generate_synthetic
        from volsurf.market_data import Curve, CurveSet, build_frame

        curves = CurveSet(spot=100.0, rate_curve=Curve([0.0, 1.0, 5.0], [0.01, 0.03, 0.02]),
                          dividend_curve=Curve.flat(0.015))
        spec = SyntheticSpec(kind="cev", maturities=(0.3, 0.7, 1.2, 2.0),
                             moneyness=tuple(np.linspace(0.8, 1.25, 9).tolist()))
        return build_frame(generate_synthetic(spec, curves), curves)

    @staticmethod
    def per_point(frame, iv_of):
        from volsurf.black_scholes import put_price

        curves = frame.curves
        return np.array([
            put_price(float(curves.forward(p.maturity)), p.strike, p.maturity, iv_of(p),
                      float(curves.discount(p.maturity)))
            for p in frame.points
        ])

    def test_ssvi_adapter(self, frame):
        from volsurf.ssvi import calibrate, interpolate_slice, svi_total_variance

        _, surface = calibrate(frame)

        def iv_of(p):
            total = float(svi_total_variance(interpolate_slice(surface, p.maturity),
                                             p.log_moneyness))
            return math.sqrt(max(total, 1e-14) / p.maturity)

        got = cli._ssvi_price_fn(surface)(frame)
        assert got.tobytes() == self.per_point(frame, iv_of).tobytes()

    def test_nn_adapter(self, frame):
        from volsurf.nn_iv import NnIvModel

        model = NnIvModel.initialize(seed=3, hidden=(6, 6))
        got = cli._nn_price_fn(model)(frame)
        want = self.per_point(frame, lambda p: model.sigma(p.maturity, p.log_moneyness))
        assert got.tobytes() == want.tobytes()
