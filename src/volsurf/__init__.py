"""Arbitrage-aware option surface calibration and local volatility extraction.

Submodules:

* ``market_data``         quote loading, curves, reduced prices, unit-square scaling
* ``black_scholes``       put pricing, vega, implied-vol inversion
* ``constrained_sampling``  convex QP solver and exact HMC for truncated Gaussians
* ``gp_price_surface``    shape-constrained GP price surfaces (MLE, MAP, posterior)
* ``nn_iv``               penalized implied-vol network with analytic derivatives
* ``ssvi``                SSVI / natural-SVI surfaces and two-step calibration
* ``local_vol``           Dupire local-vol extraction (finite-difference and analytic)
* ``backtest``            Monte Carlo and Crank-Nicolson repricing backtests
* ``serialize``           JSON output and checked reading of model numbers
* ``cli``                 the ``volsurf`` command-line front end

Importing the package loads no submodule: each is imported where it is used,
so a command loads only the modules, and the scipy subpackages, it runs.
"""

__version__ = "0.1.0"

import os as _os


def _apply_thread_cap() -> int | None:
    """Let VOLSURF_THREADS cap BLAS/OpenMP threads unless a cap is already set.

    Importing any submodule runs this module first, so the cap is set before
    numpy loads; the BLAS libraries read these variables once, when they load.
    Returns the cap as an integer, or None when VOLSURF_THREADS is unset or
    not a whole number.
    """
    cap = _os.environ.get("VOLSURF_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, cap)
    return int(cap) if cap and cap.strip().isdigit() else None


# the VOLSURF_THREADS cap applied at import (a BLAS variable set before then
# keeps its own value), None when uncapped; calibrate reports it
BLAS_THREADS = _apply_thread_cap()
