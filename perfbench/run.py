"""Pipeline benchmark for volsurf: calibrate -> localvol -> backtest.

    python3 perfbench/run.py --workload gp_flat --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run writes one synthetic book
(``gen-synthetic``, timed as set-up in fresh interpreters) and then repeats
the pipeline -- ``calibrate``, ``localvol``, ``backtest`` and the
``check-arbitrage`` output check -- in two worker processes, one after the
other, that call ``volsurf.cli.main`` in-process.  Each worker imports the
package once and repeats the pipeline until its half of ``--seconds`` is
used up (at least twice), so same-seed model bytes are compared within and
across processes.  The first repetition of each worker is a warm-up, checked
but not timed.  Timings are medians over the repetitions; the books are
small enough that a run holds several of them.  Every time is CPU seconds of
a single-threaded process: on a virtual machine that shares its host, wall
time also counts the time other tenants were given this CPU.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics
are reported.  With ``--trace 1`` untraced and traced repetitions alternate;
the traced ones wrap the package's module boundaries from outside
(tracing.py) and give the per-layer metrics, and the difference between the
two kinds is the tracing overhead.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; every line
before it is a human-readable report.

A failed operation is a stage that exits nonzero, model.json bytes that
differ between repetitions of one seed, a GP model whose check-arbitrage
reports violated constraint rows, a non-finite IV RMSE, or a worker
process that crashes or is killed at the time limit.

``--smoke`` runs tiny books of every workload and checks that each metric
named in BENCHMARK.json is reported with its unit and that same-seed model
bytes match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

THREADS = 1               # BLAS threads per process: steadier than 2 on a shared 2-core box
SETUP_REPS = 3            # timed set-ups per run; the median absorbs a cold first one
WORKERS = 2               # pipeline processes per run, one after the other
MIN_REPS = 2              # per worker, whatever --seconds says: a warm-up and one timed
MIN_REPS_TRACED = 3       # a warm-up, one traced and one untraced
MAX_REPS = 60
HARD_LIMIT_S = 165.0      # a run must end within 180 s
SPOT = "100"

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "calibrate_s": "s",
    "backtest_s": "s",
    "test_iv_rmse": "vol",
    "backtest_iv_rmse": "vol",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "market_data.build_frame_s": "s",
    "market_data.build_frame_self_s": "s",
    "market_data.load_quotes_s": "s",
    "market_data.quotes_rejected": "count",
    "black_scholes.implied_vol_calls": "count",
    "black_scholes.implied_vol_s": "s",
    "black_scholes.put_price_calls": "count",
    "gp_price_surface.fit_hyperparameters_s": "s",
    "gp_price_surface.fit_hyperparameters_self_s": "s",
    "gp_price_surface.mll_evals": "count",
    "gp_price_surface.mll_eval_ms": "ms",
    "gp_price_surface.fit_map_s": "s",
    "gp_price_surface.posterior_factors_s": "s",
    "gp_price_surface.sample_posterior_s": "s",
    "constrained_sampling.solve_qp_s": "s",
    "constrained_sampling.qp_iterations": "count",
    "constrained_sampling.qp_iteration_ms": "ms",
    "constrained_sampling.sample_truncated_s": "s",
    "constrained_sampling.hmc_draw_ms": "ms",
    "constrained_sampling.jitter_escalations": "count",
    "nn_iv.train_s": "s",
    "nn_iv.epoch_ms": "ms",
    "nn_iv.sigma_calls": "count",
    "ssvi.calibrate_s": "s",
    "ssvi.interpolate_slice_calls": "count",
    "local_vol.dupire_fd_s": "s",
    "local_vol.dupire_iv_s": "s",
    "local_vol.lookup_calls": "count",
    "local_vol.lookup_s": "s",
    "local_vol.masked_fraction": "1",
    "backtest.price_cn_s": "s",
    "backtest.price_cn_self_s": "s",
    "backtest.cn_step_ms": "ms",
    "backtest.cn_negatives_clamped": "count",
    "backtest.price_mc_s": "s",
    "backtest.price_mc_self_s": "s",
    "backtest.mc_path_step_ns": "ns",
    "backtest.cn_option_prices_s": "s",
    "backtest.report_s": "s",
    "backtest.report_self_s": "s",
    "serialize.dump_json_s": "s",
    "serialize.bytes_written": "count",
    "trace.overhead_s": "s",
    "trace.overhead_fraction": "1",
}

PIPELINE_STAGES = ("calibrate", "localvol", "backtest")
STAGES = (*PIPELINE_STAGES, "check-arbitrage")


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


@dataclass
class Rep:
    traced: bool
    warm_up: bool
    ok: bool
    seconds: dict               # CPU seconds per stage
    wall_s: float = 0.0         # wall-clock seconds of calibrate + localvol + backtest
    model_sha: str | None = None
    test_iv_rmse: float = math.nan
    backtest_iv_rmse: float = math.nan
    layers: dict = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds[s] for s in PIPELINE_STAGES)


def child_env() -> dict:
    # volsurf.cli applies VOLSURF_THREADS only after numpy is loaded, so the
    # BLAS variables it would set are set here, before the child starts.
    env = dict(os.environ)
    for var in ("VOLSURF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def children_cpu_s() -> float:
    """CPU seconds of all ended child processes; a child is single-threaded, so
    the difference around one child is the time it computed, steal time left out."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def read_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def stage_argvs(w: Workload, seed: int, market: Path, rep_dir: Path) -> list:
    seed = seed if w.fixed_seed is None else w.fixed_seed
    market_args = ["--quotes", str(market / "quotes.csv"), "--rates", str(market / "rates.csv"),
                   "--divs", str(market / "divs.csv"), "--spot", SPOT]
    model = str(rep_dir / "cal" / "model.json")
    return [
        ("calibrate", ["calibrate", *w.calibrate, *market_args, "--out", str(rep_dir / "cal"),
                       "--seed", str(seed)]),
        ("localvol", ["localvol", "--model", model, "--out", str(rep_dir / "lv"), *w.localvol]),
        ("backtest", ["backtest", *w.backtest, "--localvol", str(rep_dir / "lv" / "localvol.json"),
                      *market_args, "--out", str(rep_dir / "bt"), "--seed", str(seed)]),
        ("check-arbitrage", ["check-arbitrage", "--model", model]),
    ]


def layer_metrics(trace: dict, cal_report: dict, lv_summary: dict) -> dict:
    """Per-layer metrics of one traced repetition; 0 for layers it did not run."""
    spans, counts = trace["summary"], trace["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name, caller=None):
        row = spans.get(name, {})
        return row.get("callers", {}).get(caller, 0) if caller else row.get("calls", 0)

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    mll_evals = calls("constrained_sampling.chol_with_jitter", "gp_price_surface.fit_hyperparameters")
    qp_iterations = cal_report.get("qp", {}).get("iterations", 0)
    mc_steps = calls("local_vol.lookup", "backtest.price_mc")
    return {
        "market_data.build_frame_s": total("market_data.build_frame"),
        "market_data.build_frame_self_s": self_s("market_data.build_frame"),
        "market_data.load_quotes_s": total("market_data.load_quotes"),
        "market_data.quotes_rejected": counts.get("market_data.quotes_rejected", 0),
        "black_scholes.implied_vol_calls": calls("black_scholes.implied_vol"),
        "black_scholes.implied_vol_s": self_s("black_scholes.implied_vol"),
        "black_scholes.put_price_calls": counts.get("black_scholes.put_price", 0),
        "gp_price_surface.fit_hyperparameters_s": total("gp_price_surface.fit_hyperparameters"),
        "gp_price_surface.fit_hyperparameters_self_s":
            self_s("gp_price_surface.fit_hyperparameters"),
        "gp_price_surface.mll_evals": mll_evals,
        "gp_price_surface.mll_eval_ms":
            per(total("gp_price_surface.fit_hyperparameters"), mll_evals, 1e3),
        "gp_price_surface.fit_map_s": total("gp_price_surface.fit_map"),
        "gp_price_surface.posterior_factors_s": total("gp_price_surface.posterior_factors"),
        "gp_price_surface.sample_posterior_s": total("gp_price_surface.sample_posterior"),
        "constrained_sampling.solve_qp_s": total("constrained_sampling.solve_qp"),
        "constrained_sampling.qp_iterations": qp_iterations,
        "constrained_sampling.qp_iteration_ms":
            per(total("constrained_sampling.solve_qp"), qp_iterations, 1e3),
        "constrained_sampling.sample_truncated_s": total("constrained_sampling.sample_truncated"),
        "constrained_sampling.hmc_draw_ms": per(total("constrained_sampling.sample_truncated"),
                                                counts.get("constrained_sampling.hmc_draws", 0),
                                                1e3),
        "constrained_sampling.jitter_escalations": trace["jitter_escalations"],
        "nn_iv.train_s": total("nn_iv.train"),
        "nn_iv.epoch_ms": per(total("nn_iv.train"), cal_report.get("epochs", 0), 1e3),
        "nn_iv.sigma_calls": counts.get("nn_iv.sigma", 0),
        "ssvi.calibrate_s": total("ssvi.calibrate"),
        "ssvi.interpolate_slice_calls": counts.get("ssvi.interpolate_slice", 0),
        "local_vol.dupire_fd_s": total("local_vol.dupire_fd"),
        "local_vol.dupire_iv_s": total("local_vol.dupire_iv"),
        "local_vol.lookup_calls": calls("local_vol.lookup"),
        "local_vol.lookup_s": total("local_vol.lookup"),
        "local_vol.masked_fraction": lv_summary.get("masked_fraction", 0.0),
        "backtest.price_cn_s": total("backtest.price_cn"),
        "backtest.price_cn_self_s": self_s("backtest.price_cn"),
        "backtest.cn_step_ms": per(total("backtest.price_cn"), counts.get("backtest.cn_steps", 0),
                                   1e3),
        "backtest.cn_negatives_clamped": counts.get("backtest.cn_negatives_clamped", 0),
        "backtest.price_mc_s": total("backtest.price_mc"),
        "backtest.price_mc_self_s": self_s("backtest.price_mc"),
        "backtest.mc_path_step_ns": per(total("backtest.price_mc"),
                                        counts.get("backtest.mc_paths", 0) * mc_steps, 1e9),
        "backtest.cn_option_prices_s": total("backtest.cn_option_prices"),
        "backtest.report_s": total("backtest.report"),
        "backtest.report_self_s": self_s("backtest.report"),
        "serialize.dump_json_s": total("serialize.dump_json"),
        "serialize.bytes_written": counts.get("serialize.bytes_written", 0),
    }


def check_rep(raw: dict, tally: Tally) -> Rep:
    """Output checks of one repetition; an operation fails when its stage exits
    nonzero, does not run, or its output check fails."""
    rep_dir = Path(raw["dir"])
    ran = raw["stages"]
    tag = f"{rep_dir.parent.name}/{rep_dir.name}{' traced' if raw['traced'] else ''}"
    cal_report = read_json(rep_dir / "cal" / "report.json")
    rep = Rep(traced=raw["traced"], warm_up=raw["warm_up"], ok=True, seconds={},
              model_sha=sha256(rep_dir / "cal" / "model.json"),
              test_iv_rmse=cal_report.get("test_iv_rmse", math.nan),
              backtest_iv_rmse=read_json(rep_dir / "bt" / "report.json").get("iv_rmse", math.nan))
    for name in STAGES:
        stage = ran.get(name)
        if stage is None:
            problem = "did not run"
        elif stage["rc"] != 0:
            problem = f"exited {stage['rc']}: {stage['stderr'].strip()[-300:]}"
        elif name == "calibrate" and not finite(rep.test_iv_rmse):
            problem = f"test_iv_rmse is {rep.test_iv_rmse}"
        elif name == "backtest" and not finite(rep.backtest_iv_rmse):
            problem = f"iv_rmse is {rep.backtest_iv_rmse}"
        elif name == "check-arbitrage" and json.loads(stage["stdout"]).get("violated_rows", 0):
            problem = f"violated_rows={json.loads(stage['stdout'])['violated_rows']}"
        else:
            problem = None
            rep.seconds[name] = stage["seconds"]
            rep.wall_s += stage["wall_s"] if name in PIPELINE_STAGES else 0.0
        rep.ok &= tally.op(problem is None, f"{tag}: {name} {problem}")
    if rep.ok and rep.traced:
        rep.layers = layer_metrics(raw["trace"], cal_report,
                                   read_json(rep_dir / "lv" / "summary.json"))
    return rep


def run_worker(w: Workload, seed: int, market: Path, wdir: Path, trace: bool, budget_s: float,
               deadline: float, tally: Tally) -> tuple[list, dict]:
    """One worker process: repetitions until budget_s is used, at least MIN_REPS.

    The worker's own exit is an operation too: a crash or a kill at the time
    limit fails it, and the repetitions it finished are still checked."""
    wdir.mkdir(parents=True)
    config = wdir / "config.json"
    config.write_text(json.dumps({
        "run_id": f"{w.name}-s{seed}-{wdir.name}",
        "trace": trace,
        "budget_s": budget_s,
        "min_reps": MIN_REPS_TRACED if trace else MIN_REPS,
        "reps": [{"dir": str(wdir / f"rep{i}"),
                  "stages": stage_argvs(w, seed, market, wdir / f"rep{i}")}
                 for i in range(MAX_REPS)],
    }))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "pipeline", str(config)],
                              env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.perf_counter()),
                              check=False)
        rc, error = proc.returncode, proc.stderr.strip()[-300:]
    except subprocess.TimeoutExpired:
        rc, error = None, "killed at the time limit"
    result = read_json(wdir / "result.json")
    reps = [check_rep(raw, tally) for raw in result.get("reps", [])]
    tally.op(rc == 0 and bool(reps), f"{wdir.name}: exited {rc} after {len(reps)} "
                                     f"repetition(s): {error}")
    return reps, result


def median(values, default=0.0) -> float:
    values = [v for v in values if finite(v)]
    return statistics.median(values) if values else default


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 setup_reps: int = SETUP_REPS) -> dict:
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()

    market = work / "market"
    setup_times = []
    for i in range(setup_reps):
        t0 = time.perf_counter()
        cpu0 = children_cpu_s()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), "setup", str(market), *w.gen],
                                  env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - t0), check=False)
            rc, err = proc.returncode, proc.stderr.strip()[-300:]
        except subprocess.TimeoutExpired:
            rc, err = None, "timed out"
        if not tally.op(rc == 0, f"setup {i}: gen-synthetic exited {rc}: {err}"):
            break
        setup_times.append(children_cpu_s() - cpu0)

    # The measuring window is shared out between WORKERS processes, so the
    # model bytes are compared across processes as well as within one.
    reps: list[Rep] = []
    rss, versions = [], {}
    measure_from = time.perf_counter()
    for k in range(WORKERS if setup_times else 0):
        budget = (measure_from + seconds - time.perf_counter()) / (WORKERS - k)
        worker_reps, result = run_worker(w, seed, market, work / f"worker{k}", trace, budget,
                                         deadline, tally)
        reps += worker_reps
        rss.append(result.get("peak_rss_mb", math.nan))
        versions = versions or result.get("versions", {})
    shas = [r.model_sha for r in reps if r.model_sha is not None]
    for i, sha in enumerate(shas[1:], 1):
        tally.op(sha == shas[0], f"repetition {i}: model.json bytes differ from the first "
                                 "repetition of this seed")

    plain = [r for r in reps if r.ok and not r.traced and not r.warm_up]
    traced_reps = [r for r in reps if r.ok and r.traced]
    metrics = {
        "setup_s": median(setup_times),
        "pipeline_s": median([r.pipeline_s for r in plain]),
        "calibrate_s": median([r.seconds["calibrate"] for r in plain]),
        "backtest_s": median([r.seconds["backtest"] for r in plain]),
        "test_iv_rmse": median([r.test_iv_rmse for r in reps if r.ok]),
        "backtest_iv_rmse": median([r.backtest_iv_rmse for r in reps if r.ok]),
        "peak_rss_mb": median(rss),
    }
    for name in PER_LAYER:
        metrics[name] = median([r.layers.get(name, math.nan) for r in traced_reps])
    if traced_reps and plain:
        traced_s = median([r.pipeline_s for r in traced_reps])
        metrics["trace.overhead_s"] = traced_s - metrics["pipeline_s"]
        metrics["trace.overhead_fraction"] = metrics["trace.overhead_s"] / metrics["pipeline_s"]
    return {
        "metrics": metrics,
        "tally": tally,
        "reps": reps,
        "setup_times": setup_times,
        "wall_pipeline_s": median([r.wall_s for r in plain]),
        "versions": versions,
        "wall_s": time.perf_counter() - started,
    }


def report(w_name: str, seed: int, trace: bool, out: dict) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    units = PER_LAYER if trace else END_TO_END
    tally = out["tally"]
    versions = " ".join(f"{k}={v}" for k, v in out["versions"].items())
    samples = " ".join(f"{r.pipeline_s:.3f}{' (traced)' if r.traced else ''}"
                       f"{' (warm-up)' if r.warm_up else ''}" if r.ok
                       else "failed" for r in out["reps"])
    print(f"workload={w_name} seed={seed} trace={int(trace)} wall_s={out['wall_s']:.1f}")
    print(f"samples: setup_s {' '.join(f'{t:.3f}' for t in out['setup_times'])}; "
          f"pipeline_s {samples}")
    print(f"wall clock: pipeline_s {out['wall_pipeline_s']:.3f} "
          "(the metrics below are CPU seconds)")
    print(f"machine: nproc={os.cpu_count()} VOLSURF_THREADS={THREADS} {versions} "
          f"platform={platform.machine()} src_lines={src_lines()}")
    for name, unit in units.items():
        print(f"  {name:<48} {out['metrics'][name]:>14.6g} {unit}")
    print(f"  {'failed_fraction':<48} {tally.failed / max(tally.attempted, 1):>14.6g} 1 "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")


def result_line(trace: bool, out: dict) -> str:
    units = PER_LAYER if trace else END_TO_END
    tally = out["tally"]
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def smoke() -> int:
    """Tiny books of every workload: every named metric present, same-seed bytes equal."""
    spec = read_json(ROOT / "BENCHMARK.json")
    problems = []
    declared = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
                for m in spec.get(key, [])}
    for name, w in WORKLOADS.items():
        out = run_workload(w.smoke, seed=7, seconds=0.0, trace=True,
                           work=WORK_ROOT / f"smoke-{name}", setup_reps=1)
        reported = {**END_TO_END, **PER_LAYER}
        for metric, unit in declared.items():
            if reported.get(metric) != unit:
                problems.append(f"{name}: {metric} is not reported with unit {unit}")
            elif not finite(out["metrics"].get(metric)):
                problems.append(f"{name}: {metric} has no finite value")
        for metric in reported:
            if metric not in declared:
                problems.append(f"{name}: {metric} is reported but not declared")
        problems += [f"{name}: {p}" for p in out["tally"].problems]
        if len(out["reps"]) < 2:
            problems.append(f"{name}: fewer than two repetitions ran")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    # A terminated run raises SystemExit, and subprocess.run kills and reaps
    # the child it is waiting for before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-book self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "volsurf" / "cli.py").is_file():
        print(f"no volsurf source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace,
                       work=WORK_ROOT / args.workload)
    report(args.workload, args.seed, trace, out)
    print(result_line(trace, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
