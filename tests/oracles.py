"""Independent brute-force oracles shared by the unit and acceptance tests.

Nothing in here calls the solvers under test; the point is to compute the
same answers by a method slow enough to be obviously correct.
"""

import math
from itertools import combinations

import numpy as np

from volsurf.black_scholes import put_price, put_vega


def brute_force_qp(q, c, a, b, feas_tol=1e-9):
    """Global minimizer of 1/2 x'Qx + c'x s.t. a x >= b by active-set enumeration.

    Tries every subset of constraints as the active set, solves the equality
    KKT system, and keeps candidates that are primal feasible with nonnegative
    multipliers on the active rows.  Only sensible for a handful of rows.
    """
    q = np.asarray(q, float)
    c = np.asarray(c, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = c.size
    m = b.size
    best_x, best_val = None, np.inf
    for size in range(0, min(m, d) + 1):
        for subset in combinations(range(m), size):
            rows = a[list(subset)]
            kkt = np.zeros((d + size, d + size))
            kkt[:d, :d] = q
            if size:
                kkt[:d, d:] = -rows.T
                kkt[d:, :d] = rows
            rhs = np.concatenate([-c, b[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:d], sol[d:]
            if size and np.min(lam) < -feas_tol:
                continue
            if m and np.min(a @ x - b) < -feas_tol:
                continue
            val = 0.5 * x @ q @ x + c @ x
            if val < best_val - 1e-12:
                best_val, best_x = val, x
    return best_x, best_val


def qp_objective(q, c, x) -> float:
    """1/2 x'Qx + c'x, the objective solve_qp minimizes."""
    x = np.asarray(x, dtype=float)
    return float(0.5 * x @ (np.asarray(q, float) @ x) + np.asarray(c, float) @ x)


def random_feasible_qp(rng, d_max=4, m_max=6):
    """Random strictly convex QP with a guaranteed non-empty feasible region."""
    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(1, m_max + 1))
    half = rng.standard_normal((d, d))
    q = half @ half.T + 0.5 * np.eye(d)
    c = rng.standard_normal(d) * 2.0
    a = rng.standard_normal((m, d))
    witness = rng.standard_normal(d)
    b = a @ witness - rng.uniform(0.1, 2.0, size=m)
    return q, c, a, b


def truncated_standard_normal_mean() -> float:
    """Mean of a standard normal conditioned on being nonnegative."""
    return float(np.sqrt(2.0 / np.pi))


def sparse_negative_log_likelihood(params, frame, grid) -> float:
    """GP negative marginal log likelihood with the per-axis hat weights as sparse matrices.

    Forms Phi Gamma Phi' as sigma^2 (Wt Ct Wt') * (Wk Ck Wk') with scipy's
    sparse-dense products, rebuilding everything from the frame.
    """
    import scipy.linalg as sla

    from volsurf.constrained_sampling import chol_with_jitter
    from volsurf.gp_price_surface import _axis_weights, matern52

    t, k, y = frame.bid_ask_observations()
    u, v = frame.to_unit_square(t, k)
    sandwiches = []
    for coords, nodes, theta in ((u, grid.t_nodes, params.theta_t),
                                 (v, grid.k_nodes, params.theta_k)):
        w = _axis_weights(coords, nodes.size)
        c = matern52(nodes[:, None] - nodes[None, :], theta)
        sandwiches.append(np.asarray((w @ c) @ w.T.toarray()))
    gram = params.sigma**2 * np.multiply(*sandwiches)
    gram[np.diag_indices_from(gram)] += params.noise_sd**2
    root = chol_with_jitter(gram, "observation gram")
    alpha = sla.solve_triangular(root, y, lower=True, check_finite=False)
    return 0.5 * (float(alpha @ alpha) + 2.0 * float(np.sum(np.log(np.diag(root)))))


def svi_slice_objective(x, t, kappas, ivs, kappa_grid, prev_total, crossing_penalty):
    """SSVI step-2 slice objective through NaturalSviParams and svi_total_variance.

    Data points and the crossing grid are evaluated in two separate SVI calls.
    """
    from volsurf.ssvi import NaturalSviParams, svi_total_variance

    delta, mu, rho, omega, zeta = x
    p = NaturalSviParams(delta=delta, mu=mu, rho=float(np.clip(rho, -0.999, 0.999)),
                         omega=max(omega, 0.0), zeta=max(zeta, 1e-6))
    total = svi_total_variance(p, kappas)
    if np.any(total <= 0.0):
        return 1e6
    fit = math.sqrt(float(np.mean((np.sqrt(total / t) - ivs) ** 2)))
    grid_total = svi_total_variance(p, kappa_grid)
    if np.any(grid_total <= 0.0):
        return 1e6
    penalty = 0.0
    if prev_total is not None:
        gaps = np.minimum(grid_total - prev_total, 0.0)
        penalty = crossing_penalty * float(np.sum(gaps * gaps))
    return fit + penalty


def all_walls_hit(f_a, f_b, g, min_time=1e-9):
    """First positive hit time of x(t) = a sin t + b cos t on any wall f.x + g = 0.

    Evaluates both roots of every wall, reachable or not, and takes the flat
    argmin over (wall, root); returns (inf, 0) when nothing is reachable.
    """
    u = np.hypot(f_a, f_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        reachable = u > np.abs(g)
        phi = np.arctan2(-f_a, f_b)
        acos = np.arccos(np.where(reachable, -g / np.where(u > 0, u, 1.0), 0.0))
    times = np.stack([acos - phi, -acos - phi], axis=1)
    times = np.where(times < 0.0, times + 2.0 * np.pi, times)
    times = np.where(times < min_time, np.inf, times)
    times[~reachable, :] = np.inf
    flat = int(np.argmin(times))
    return float(times.flat[flat]), flat // 2


# ---------------------------------------------------------------------------
# per-quote scalar references for the vectorised quote path
# ---------------------------------------------------------------------------


def scalar_implied_vol(price, forward, strike, maturity, discount=1.0,
                       price_tol=1e-12, max_vol=20.0):
    """One quote's implied vol by the loop the array kernel must reproduce.

    Doubling of the upper bracket, bisection to a 1e-4 bracket, then at most
    60 Newton steps with the bracket fallback.  None outside the band.
    """
    lower = discount * max(strike - forward, 0.0)
    upper = discount * strike
    if not lower < price < upper:
        return None

    def f(vol):
        return float(put_price(forward, strike, maturity, vol, discount)) - price

    lo, hi = 1e-9, 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > max_vol:
            hi = max_vol
            break
    flo = f(lo)
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    vol = 0.5 * (lo + hi)
    for _ in range(60):
        diff = f(vol)
        if abs(diff) <= price_tol * (1.0 + abs(price)):
            break
        vega = put_vega(forward, strike, maturity, vol, discount)
        if vega <= 1e-16:
            break
        new_vol = vol - diff / vega
        if not lo <= new_vol <= hi:
            if diff > 0.0:
                hi = vol
            else:
                lo = vol
            new_vol = 0.5 * (lo + hi)
        vol = new_vol
    return float(vol)


def scalar_frame_points(quotes, curves, min_maturity=0.055, iv_gap_tol=0.05):
    """build_frame's points and rejections, one quote and one curve call at a time."""
    points, rejected = [], []
    for index, q in enumerate(quotes):
        if q.maturity < min_maturity:
            rejected.append((index, "below minimum maturity"))
            continue
        growth = float(curves.growth(q.maturity))
        k = float(curves.reduced_strike(q.strike, q.maturity))
        forward = float(curves.forward(q.maturity))
        discount = float(curves.discount(q.maturity))
        mid_iv = scalar_implied_vol(q.mid, forward, q.strike, q.maturity, discount)
        if mid_iv is None:
            rejected.append((index, "mid price outside arbitrage band"))
            continue
        if q.listed_iv is not None and abs(q.listed_iv - mid_iv) / q.listed_iv > iv_gap_tol:
            rejected.append((index, "listed iv inconsistent with mid price"))
            continue
        points.append((q.maturity, q.strike, k, math.log(k / curves.spot), growth * q.bid,
                       growth * q.ask, growth * q.mid, mid_iv))
    return points, rejected


def scalar_report(model_prices, frame):
    """report's rows and (price RMSE, IV RMSE, failures), one quote at a time."""
    curves = frame.curves
    rows, price_errs, iv_errs = [], [], []
    for price, p in zip(model_prices, frame.points):
        t = p.maturity
        market_price = p.reduced_mid / float(curves.growth(t))
        model_iv = scalar_implied_vol(float(price), float(curves.forward(t)), p.strike, t,
                                      float(curves.discount(t)))
        if model_iv is not None:
            iv_errs.append(model_iv - p.mid_iv)
        price_errs.append(price - market_price)
        rows.append({"maturity": t, "strike": p.strike, "model_price": float(price),
                     "market_price": float(market_price), "model_iv": model_iv,
                     "market_iv": p.mid_iv})
    price_rmse = float(np.sqrt(np.mean(np.square(price_errs))))
    iv_rmse = float(np.sqrt(np.mean(np.square(iv_errs)))) if iv_errs else float("nan")
    return rows, price_rmse, iv_rmse, len(model_prices) - len(iv_errs)


def scalar_synthetic_quotes(spec, curves, cn=None):
    """generate_synthetic's quotes as (T, K, bid, ask, iv), one quote at a time.

    cn is the CEV book's CN solution (the same grid generate_synthetic solves).
    """
    out = []
    for t in np.asarray(spec.maturities, dtype=float):
        forward = float(curves.forward(t))
        discount = float(curves.discount(t))
        for strike in np.asarray(spec.moneyness, dtype=float) * curves.spot:
            if spec.kind == "flat":
                iv = spec.sigma
                mid = put_price(forward, strike, t, iv, discount)
            elif spec.kind == "ssvi":
                from volsurf.ssvi import SsviParams, svi_total_variance

                maturities = np.asarray(spec.maturities, dtype=float)
                params = SsviParams(
                    rho=spec.rho, eta=spec.eta, theta_maturities=tuple(maturities),
                    theta_values=tuple(spec.theta_slope * m for m in maturities),
                )
                kappa = math.log(float(curves.reduced_strike(strike, t)) / curves.spot)
                iv = math.sqrt(float(svi_total_variance(params.slice_at(t), kappa)) / t)
                mid = put_price(forward, strike, t, iv, discount)
            else:
                mid = float(cn.price_at(float(t), float(curves.reduced_strike(strike, t))))
                iv = scalar_implied_vol(mid, forward, strike, t, discount)
                if iv is None:
                    continue
            out.append((float(t), float(strike), mid * (1.0 - spec.spread),
                        mid * (1.0 + spec.spread), float(iv)))
    return out
