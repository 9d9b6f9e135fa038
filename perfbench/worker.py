"""Child process of the benchmark: one set-up, or a loop of pipeline repetitions.

    python3 perfbench/worker.py setup <market_dir> <gen-synthetic args...>
    python3 perfbench/worker.py pipeline <config.json>

``setup`` imports ``volsurf.cli`` from the checkout's ``src/`` and writes a
synthetic book; the parent takes the whole process's CPU time, interpreter
start included.  ``pipeline`` imports the package once and then runs repetitions
of the stages listed in the config in-process through ``volsurf.cli.main``,
until its time budget would be exceeded.  After every repetition it rewrites
``result.json`` next to the config: per-stage exit codes and seconds,
captured stdout, peak RSS and, for traced repetitions, the span summary.
Reduction and output checks happen in run.py.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import logging
import pkgutil
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_cli(every_module: bool = False):
    """volsurf.cli from this checkout's src/, never from an installed copy.

    With every_module, each volsurf module is imported too, before any
    timing: the CLI imports its collaborators inside each handler, and a
    user who calls it repeatedly pays that import once.
    """
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import volsurf
    import volsurf.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"volsurf imported from {cli.__file__}, not from {src}")
    for module in pkgutil.iter_modules(volsurf.__path__) if every_module else ():
        importlib.import_module(f"volsurf.{module.name}")
    return cli


def run_stage(cli, argv: list[str]) -> dict:
    """One CLI call; "seconds" is the CPU time of this process, "wall_s" the wall time.

    The process is single-threaded (BLAS included), so its CPU time is the
    time the stage computed.  Unlike wall time, it leaves out the time the
    hypervisor lets other tenants run on this virtual CPU (steal time).
    """
    out, err = io.StringIO(), io.StringIO()
    started_wall, started = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:           # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:                   # an error cli.main does not map to a code
        rc = 1
        err.write(traceback.format_exc())
    return {"rc": rc, "seconds": time.process_time() - started,
            "wall_s": time.perf_counter() - started_wall,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_rep(cli, rep: dict, traced: bool, run_id: str) -> dict:
    """One repetition: the stages in order, stopping at the first nonzero exit.

    A traced repetition wraps the package's module boundaries for its own
    duration only, so the spans describe exactly one pipeline.
    """
    rec = jitter = None
    if traced:
        from tracing import MessageCounter, Recorder, instrument

        rec = Recorder(run_id)
        instrument(rec)
        jitter = MessageCounter("required jitter")
        logging.getLogger("volsurf").addHandler(jitter)
    stages = {}
    try:
        for name, argv in rep["stages"]:
            if rec is None:
                stages[name] = run_stage(cli, argv)
            else:
                stages[name] = rec.call(f"cli.{name}", run_stage, cli, argv)
            if stages[name]["rc"] != 0:
                break
    finally:
        if rec is not None:
            rec.restore()
            logging.getLogger("volsurf").removeHandler(jitter)
    out = {"dir": rep["dir"], "traced": traced, "stages": stages}
    if rec is not None:
        out["trace"] = {"summary": rec.summary(), "counts": rec.counts,
                        "jitter_escalations": jitter.hits}
        (Path(rep["dir"]) / "spans.json").write_text(json.dumps(rec.to_json()))
    return out


def pipeline(config_path: Path) -> int:
    """Repetitions until the next one would overrun the budget; at least min_reps.

    The first repetition is a warm-up: a fresh process pays for first calls
    and first-touched memory there, about a third more than later ones.
    run.py checks its outputs but leaves its timings out."""
    started = time.perf_counter()
    config = json.loads(config_path.read_text())
    cli = import_cli(every_module=True)
    result = {"reps": [], "versions": versions()}
    durations = []
    for i, rep in enumerate(config["reps"]):
        if i >= config["min_reps"]:
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(durations) > config["budget_s"]:
                break
        traced = config["trace"] and i % 2 == 1
        Path(rep["dir"]).mkdir(parents=True)
        t0 = time.perf_counter()
        result["reps"].append({**run_rep(cli, rep, traced, f"{config['run_id']}-rep{i}"),
                               "warm_up": i == 0})
        durations.append(time.perf_counter() - t0)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        config_path.with_name("result.json").write_text(json.dumps(result))
    return 0


def setup(market_dir: str, gen_args: list[str]) -> int:
    cli = import_cli()
    return cli.main(["gen-synthetic", *gen_args, "--out", market_dir])


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        with contextlib.redirect_stdout(io.StringIO()):
            return setup(rest[0], rest[1:])
    if mode == "pipeline":
        return pipeline(Path(rest[0]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
