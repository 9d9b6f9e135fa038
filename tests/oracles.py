"""Independent brute-force oracles shared by the unit and acceptance tests.

Nothing in here calls the solvers under test; the point is to compute the
same answers by a method slow enough to be obviously correct.  The
exceptions drive code under test on purpose: ``nn_loss`` scores a model as
NN training does, ``DualPrecisionWorkspace`` checks its float32 screen
against float64 passes, and ``dense_row_map_nodes`` hands the GP's QP to
``solve_qp`` as dense rows, every matrix formed.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from volsurf import local_vol, nn_iv
from volsurf.black_scholes import put_price, put_vega
from volsurf.market_data import QUOTE_COLUMNS


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


def dense_gp_posterior(params, frame, grid):
    """Unconstrained node posterior by the textbook formula, on dense matrices.

    eta = Gamma Phi' K^-1 y and cov = Gamma - Gamma Phi' K^-1 Phi Gamma with
    K = Phi Gamma Phi' + noise^2 I, where Gamma and Phi are filled entry by
    entry from `kernel` and `hat_basis` and K is applied by np.linalg.solve.
    """
    nodes = [(i, j) for i in range(grid.n_t) for j in range(grid.n_k)]
    points = [(i * grid.h_t, j * grid.h_k) for i, j in nodes]
    gamma = np.array([[kernel(x, x_prime, params) for x_prime in points] for x in points])
    u, v = frame.scaling.to_unit(np.repeat(frame.maturity, 2),
                                 np.repeat(frame.reduced_strike, 2))
    y = np.column_stack([frame.reduced_bid, frame.reduced_ask]).ravel()
    phi = np.array([[hat_basis(x, node, grid.h_t, grid.h_k) for node in nodes]
                    for x in zip(u, v)])
    cross = gamma @ phi.T
    gram = phi @ cross + params.noise_sd**2 * np.eye(y.size)
    eta = cross @ np.linalg.solve(gram, y)
    cov = gamma - cross @ np.linalg.solve(gram, cross.T)
    return eta, cov


def dense_row_map_nodes(params, frame, grid):
    """The GP MAP node values from a solve_qp on the dense whitened rows A L.

    Gamma is filled entry by entry from `kernel` and factored as Gamma = L L',
    the quote means' basis Phi_m is hat_basis_csr, and with B = sqrt(2) Phi_m L
    the whitened QP is Q = 2 (I + B'B / noise^2), c = -2 B' (sqrt(2) m) / noise^2
    over the rows shape_rows(n_t, n_k) @ L >= 0, handed to solve_qp as a dense
    QuadProgram.  Returns L x.
    """
    from volsurf.constrained_sampling import QuadProgram, solve_qp

    points = [(i * grid.h_t, j * grid.h_k) for i in range(grid.n_t) for j in range(grid.n_k)]
    gamma = np.array([[kernel(x, x_prime, params) for x_prime in points] for x in points])
    root = np.linalg.cholesky(gamma)
    u, v = frame.scaling.to_unit(frame.maturity, frame.reduced_strike)
    mean = 0.5 * (frame.reduced_bid + frame.reduced_ask)
    basis = math.sqrt(2.0) * (hat_basis_csr(u, v, grid.n_t, grid.n_k) @ root)
    noise_var = params.noise_sd**2
    q = 2.0 * (np.eye(grid.size) + basis.T @ basis / noise_var)
    rows = shape_rows(grid.n_t, grid.n_k) @ root
    problem = QuadProgram(q=0.5 * (q + q.T), c=-2.0 * basis.T @ (math.sqrt(2.0) * mean) / noise_var,
                          a_ineq=rows, b_ineq=np.zeros(rows.shape[0]))
    return root @ solve_qp(problem).x


def shape_rows(n_t, n_k):
    """The GP's shape rows on an n_t x n_k node grid, one row at a time, as CSR.

    Nondecreasing in maturity, value(i+1, j) - value(i, j) >= 0; convex in
    strike, value(i, j+2) - 2 value(i, j+1) + value(i, j) >= 0; nonnegative
    at every node; node (i, j) is column i * n_k + j.
    """
    import scipy.sparse as sp

    rows, cols, vals = [], [], []
    row = 0
    for i in range(n_t - 1):
        for j in range(n_k):
            rows += [row, row]
            cols += [(i + 1) * n_k + j, i * n_k + j]
            vals += [1.0, -1.0]
            row += 1
    for i in range(n_t):
        for j in range(n_k - 2):
            rows += [row, row, row]
            cols += [i * n_k + j + 2, i * n_k + j + 1, i * n_k + j]
            vals += [1.0, -2.0, 1.0]
            row += 1
    for n in range(n_t * n_k):
        rows.append(row)
        cols.append(n)
        vals.append(1.0)
        row += 1
    return sp.csr_matrix((vals, (rows, cols)), shape=(row, n_t * n_k))


def hat_weights(coords, n_nodes):
    """Per-axis hat weights of unit-interval coordinates, a sparse (n_points, n_nodes) matrix.

    Row p holds 1 - f at node c and f at node c + 1, with c the cell of
    coordinate x (the last cell for x = 1) and f = x (n_nodes - 1) - c.
    """
    import scipy.sparse as sp

    coords = np.clip(np.asarray(coords, dtype=float), 0.0, 1.0)
    cell = np.minimum(np.floor(coords * (n_nodes - 1)).astype(int), n_nodes - 2)
    frac = coords * (n_nodes - 1) - cell
    rows = np.repeat(np.arange(coords.size), 2)
    cols = np.stack([cell, cell + 1], axis=1).ravel()
    weights = np.stack([1.0 - frac, frac], axis=1).ravel()
    return sp.csr_matrix((weights, (rows, cols)), shape=(coords.size, n_nodes))


def hat_basis_csr(u, v, n_t, n_k):
    """The observation basis Phi of points (u, v) as CSR, one point at a time.

    Row p is the Kronecker product of row p of the maturity and of the strike
    hat_weights, so its four weights sit on node columns in ascending order.
    """
    import scipy.sparse as sp

    w_t, w_k = hat_weights(u, n_t), hat_weights(v, n_k)
    return sp.vstack([sp.kron(w_t[p], w_k[p], format="csr") for p in range(w_t.shape[0])],
                     format="csr")


def sparse_negative_log_likelihood(params, frame, grid) -> float:
    """GP negative marginal log likelihood with the per-axis hat weights as sparse matrices.

    Forms Phi Gamma Phi' as sigma^2 (Wt Ct Wt') * (Wk Ck Wk') with scipy's
    sparse-dense products, rebuilding everything from the frame.
    """
    import scipy.linalg as sla

    from volsurf.constrained_sampling import chol_with_jitter
    from volsurf.gp_price_surface import matern52

    u, v = frame.scaling.to_unit(np.repeat(frame.maturity, 2),
                                 np.repeat(frame.reduced_strike, 2))
    y = np.column_stack([frame.reduced_bid, frame.reduced_ask]).ravel()
    sandwiches = []
    for coords, nodes, theta in ((u, grid.t_nodes, params.theta_t),
                                 (v, grid.k_nodes, params.theta_k)):
        w = hat_weights(coords, nodes.size)
        c = matern52(nodes[:, None] - nodes[None, :], theta)
        sandwiches.append(np.asarray((w @ c) @ w.T.toarray()))
    gram = params.sigma**2 * np.multiply(*sandwiches)
    gram[np.diag_indices_from(gram)] += params.noise_sd**2
    root, _ = chol_with_jitter(gram, "observation gram")
    alpha = sla.solve_triangular(root, y, lower=True, check_finite=False)
    return 0.5 * (float(alpha @ alpha) + 2.0 * float(np.sum(np.log(np.diag(root)))))


def collapsed_negative_log_likelihood(params, frame, grid) -> float:
    """The same likelihood over one (bid + ask) / 2 row per quote, by sparse products.

    -log N(m; 0, Phi Gamma Phi' + noise^2/2 I) with the per-axis hat weights
    as sparse matrices, plus the closed-form density of d = bid - ask,
    N(0, 2 noise^2) per quote; the 2-pi constants are dropped.
    """
    import scipy.linalg as sla

    from volsurf.constrained_sampling import chol_with_jitter
    from volsurf.gp_price_surface import matern52

    u, v = frame.scaling.to_unit(frame.maturity, frame.reduced_strike)
    m = 0.5 * (frame.reduced_bid + frame.reduced_ask)
    d = frame.reduced_bid - frame.reduced_ask
    sandwiches = []
    for coords, nodes, theta in ((u, grid.t_nodes, params.theta_t),
                                 (v, grid.k_nodes, params.theta_k)):
        w = hat_weights(coords, nodes.size)
        c = matern52(nodes[:, None] - nodes[None, :], theta)
        sandwiches.append(np.asarray((w @ c) @ w.T.toarray()))
    gram = params.sigma**2 * np.multiply(*sandwiches)
    noise_var = params.noise_sd**2
    gram[np.diag_indices_from(gram)] += 0.5 * noise_var
    root, _ = chol_with_jitter(gram, "observation gram")
    alpha = sla.solve_triangular(root, m, lower=True, check_finite=False)
    value = 0.5 * (float(alpha @ alpha) + 2.0 * float(np.sum(np.log(np.diag(root)))))
    return value + 0.5 * (float(d @ d) / (2.0 * noise_var) + m.size * math.log(2.0 * noise_var))


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


def per_point_theta(slice_at, t_lo, t_hi, t_vals, kappa, step=1e-4):
    """(Theta, dT, dk, dkk) one (T, kappa) point and one slice_at call at a time.

    The maturity derivative is the central difference over
    [max(T - step, t_lo), min(T + step, t_hi)].  kappa goes in as a
    one-element array: numpy's array power can round differently from its
    scalar power.
    """
    from volsurf.ssvi import svi_derivatives, svi_total_variance

    out = np.empty((4, np.size(kappa)))
    for i, (t, k) in enumerate(zip(np.ravel(t_vals).tolist(), np.ravel(kappa).tolist())):
        out[[0, 2, 3], i] = np.ravel(svi_derivatives(slice_at(t), np.array([k])))
        t_plus, t_minus = min(t + step, t_hi), max(t - step, t_lo)
        out[1, i] = (svi_total_variance(slice_at(t_plus), k)
                     - svi_total_variance(slice_at(t_minus), k)) / (t_plus - t_minus)
    return tuple(row.reshape(np.shape(kappa)) for row in out)


def scalar_interpolate_slice(model, t):
    """``ssvi.interpolate_slice`` at one maturity, by scalar arithmetic on slice objects."""
    from volsurf.ssvi import SLICE_FIELDS, ExtrapolationError, NaturalSviParams

    maturities = np.asarray(model.params.theta_maturities)
    atm_curve = model.params.theta_values
    if t < maturities[0] - 1e-12 or t > maturities[-1] + 1e-12:
        raise ExtrapolationError(f"maturity {t} outside calibrated range")
    exact = np.nonzero(np.abs(maturities - t) <= 1e-12)[0]
    if exact.size:
        return model.slices[int(exact[0])]
    hi = int(np.searchsorted(maturities, t))
    lo = hi - 1
    theta_t = float(np.interp(t, maturities, np.asarray(atm_curve)))
    theta_lo, theta_hi = atm_curve[lo], atm_curve[hi]
    if theta_hi - theta_lo > 1e-14:
        alpha = (theta_t - theta_lo) / (theta_hi - theta_lo)
    else:
        alpha = (t - maturities[lo]) / (maturities[hi] - maturities[lo])
    p_lo, p_hi = model.slices[lo], model.slices[hi]
    return NaturalSviParams(**{
        name: (1 - alpha) * getattr(p_lo, name) + alpha * getattr(p_hi, name)
        for name in SLICE_FIELDS
    })


def ssvi_theta_fn(params, step=1e-4):
    """(Theta, dT, dk, dkk) of a pure SSVI surface, one ``slice_at`` call per distinct T.

    The reference surface of acceptance 09.  The maturity derivative is the
    central difference over [T - step, T + step], clamped to the ATM-curve knots.
    """
    from volsurf.ssvi import svi_derivatives, svi_total_variance

    t_lo, t_hi = params.theta_maturities[0], params.theta_maturities[-1]

    def per_maturity(formula, n_out, t_vals, kappa):
        flat_t, flat_k = t_vals.ravel(), kappa.ravel()
        out = np.empty((n_out, flat_k.size))
        for t in np.unique(flat_t):
            sel = flat_t == t
            out[:, sel] = formula(params.slice_at(float(t)), flat_k[sel])
        return out.reshape((n_out, *kappa.shape))

    def fn(t_vals, kappa):
        t_vals, kappa = np.broadcast_arrays(np.asarray(t_vals, dtype=float),
                                            np.asarray(kappa, dtype=float))
        t_plus, t_minus = np.minimum(t_vals + step, t_hi), np.maximum(t_vals - step, t_lo)
        theta, d_k, d_kk = per_maturity(svi_derivatives, 3, t_vals, kappa)
        up, down = per_maturity(svi_total_variance, 1, np.stack([t_plus, t_minus]),
                                np.stack([kappa, kappa]))[0]
        return theta, (up - down) / (t_plus - t_minus), d_k, d_kk

    return fn


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


def whitened_sample_truncated(tg, init, n_samples, seed=0, burn_in=100):
    """Exact HMC on a TruncatedGaussian, carried in whitened coordinates z.

    The reference for ``sample_truncated``: x = mean + root z, so the support
    is F z >= -g with F = A root, and the momentum is a standard normal.  z
    enters by a solve against the root and each sample leaves by a matvec
    with it; a bounce reflects across the whitened row f_j = root' a_j'
    Euclidean-wise, and the wall products follow in closed form through
    F f_j' = A (root root') a_j'.  Wall hits come from ``all_walls_hit``.
    The same seed draws the same momenta, and every restart rule is the
    same, so both samplers follow the same trajectories up to roundoff.
    """
    a, root = tg.a, tg.root
    cov = root @ root.T
    d = tg.dim
    g = a @ tg.mean - tg.b

    def products(v):
        return a @ (root @ v)

    def nonzeros(j):
        lo, hi = a.indptr[j], a.indptr[j + 1]
        return a.data[lo:hi], a.indices[lo:hi]

    z = np.linalg.solve(root, np.asarray(init, dtype=float) - tg.mean)
    f_z = products(z)
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, d))
    kept = restarts = 0
    while kept < burn_in + n_samples:
        a_vec, b_vec, remaining = rng.standard_normal(d), z, 0.5 * np.pi
        f_a, f_b = products(a_vec), f_z
        ok = False
        for _ in range(50_000):   # MAX_BOUNCES
            t_hit, wall = all_walls_hit(f_a, f_b, g)
            if t_hit >= remaining:
                ok = True
                break
            sin_t, cos_t = np.sin(t_hit), np.cos(t_hit)
            b_new = a_vec * sin_t + b_vec * cos_t
            v_hit = a_vec * cos_t - b_vec * sin_t
            vals, cols = nonzeros(wall)
            row = vals @ root[cols]
            coef = 2.0 * (row @ v_hit) / (row @ row)
            v_ref = v_hit - coef * row
            if v_ref @ row < 0.0:
                break
            f_a, f_b = (cos_t * f_a - sin_t * f_b - coef * (a @ (vals @ cov[cols])),
                        sin_t * f_a + cos_t * f_b)
            a_vec, b_vec = v_ref, b_new
            remaining -= t_hit
        if ok:
            z_new = a_vec * np.sin(remaining) + b_vec * np.cos(remaining)
            deviation = root @ z_new
            f_z_new = a @ deviation
            ok = not np.min(f_z_new + g) < 0.0
        if not ok:
            restarts += 1
            if restarts >= 100:
                raise RuntimeError("100 consecutive trajectories restarted")
            continue
        restarts = 0
        z, f_z = z_new, f_z_new
        if kept >= burn_in:
            out[kept - burn_in] = tg.mean + deviation
        kept += 1
    return out


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


def quote_table(rows):
    """A quote table (market_data.QUOTE_COLUMNS) from (T, K, bid, ask, iv) rows.

    An iv of None is NaN, as a blank CSV field reads.
    """
    values = [[math.nan if v is None else float(v) for v in row] for row in rows]
    columns = np.array(values, dtype=float).reshape(-1, len(QUOTE_COLUMNS)).T
    return {name: column.copy() for name, column in zip(QUOTE_COLUMNS, columns)}


def quote_rows(quotes):
    """A quote table's rows as (T, K, bid, ask, iv) tuples of Python floats."""
    return list(zip(*(np.asarray(quotes[name], dtype=float).tolist() for name in QUOTE_COLUMNS)))


def scalar_frame_points(quotes, curves, min_maturity=0.055, iv_gap_tol=0.05):
    """build_frame's points and rejections, one quote and one curve call at a time.

    Each rejected row gets the first reason of build_frame's ordered list.
    """
    cover = min(curves.rate_curve.max_tenor, curves.dividend_curve.max_tenor)
    points, rejected = [], []
    for index, (t, strike, bid, ask, listed_iv) in enumerate(quote_rows(quotes)):
        if not all(math.isfinite(x) for x in (t, strike, bid, ask)):
            rejected.append((index, "non-numeric field"))
            continue
        if t <= 0.0 or strike <= 0.0:
            rejected.append((index, "maturity or strike not positive"))
            continue
        if bid < 0.0:
            rejected.append((index, "negative bid"))
            continue
        if ask < bid:
            rejected.append((index, "crossed quote"))
            continue
        if t > cover:
            raise ValueError("curves do not cover the longest quote maturity")
        if t < min_maturity:
            rejected.append((index, "below minimum maturity"))
            continue
        mid = 0.5 * (bid + ask)
        growth = float(curves.growth(t))
        k = float(curves.reduced_strike(strike, t))
        forward = float(curves.forward(t))
        discount = float(curves.discount(t))
        mid_iv = scalar_implied_vol(mid, forward, strike, t, discount)
        if mid_iv is None:
            rejected.append((index, "mid price outside arbitrage band"))
            continue
        if (math.isfinite(listed_iv) and listed_iv > 0.0
                and abs(listed_iv - mid_iv) / listed_iv > iv_gap_tol):
            rejected.append((index, "listed iv inconsistent with mid price"))
            continue
        points.append((t, strike, k, math.log(k / curves.spot), growth * bid,
                       growth * ask, growth * mid, mid_iv))
    return points, rejected


def scalar_report(model_prices, frame):
    """report's rows and (price RMSE, IV RMSE, failures), one quote at a time."""
    curves = frame.curves
    rows, price_errs, iv_errs = [], [], []
    for price, (t, strike, _, _, _, _, mid, mid_iv) in zip(model_prices, frame_rows(frame)):
        market_price = mid / float(curves.growth(t))
        model_iv = scalar_implied_vol(float(price), float(curves.forward(t)), strike, t,
                                      float(curves.discount(t)))
        if model_iv is not None:
            iv_errs.append(model_iv - mid_iv)
        price_errs.append(price - market_price)
        rows.append({"maturity": t, "strike": strike, "model_price": float(price),
                     "market_price": float(market_price), "model_iv": model_iv,
                     "market_iv": mid_iv})
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


def _nn_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def nn_softplus(z):
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|), e^-|z| allowed to underflow."""
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e)


class AllocatingNnState:
    """What allocating_nn_backward needs from one allocating_nn_forward call."""

    def __init__(self, t):
        self.t = t
        self.pre, self.a, self.p, self.q, self.r = [], [], [], [], []
        self.out = ()
        self.sigma = None
        self.sigma_streams = ()


def allocating_nn_forward(model, t, kappa):
    """The NN's extended forward pass with fresh arrays for every temporary.

    The input streams p = (0, 1), q = 0 and r = (1, 0) are constants, so the
    first layer's zp and zr are columns of its weights and zq is zero.
    """
    t_flat = np.asarray(t, dtype=float).ravel()
    kappa_flat = np.asarray(kappa, dtype=float).ravel()
    x0, x1 = model.standardized_inputs(t_flat, kappa_flat)
    n = t_flat.size

    state = AllocatingNnState(t_flat)
    a = np.vstack([x0, x1])
    p = q = r = None

    n_layers = len(model.weights)
    for idx, (w, b) in enumerate(zip(model.weights, model.biases)):
        state.a.append(a)
        state.p.append(p)
        state.q.append(q)
        state.r.append(r)
        z = w @ a + b[:, None]
        if idx:
            zp, zq, zr = w @ p, w @ q, w @ r
        else:
            zp, zq, zr = w[:, 1:2], None, w[:, 0:1]
        state.pre.append((z, zp, zq, zr))
        if idx < n_layers - 1:
            f1 = _nn_sigmoid(z)
            a = nn_softplus(z)
            p = f1 * zp
            q = f1 * (1.0 - f1) * zp**2
            if idx:
                q = q + f1 * zq
            r = f1 * zr
        elif idx:
            a, p, q, r = z, zp, zq, zr
        else:
            a, p, q, r = z, np.repeat(zp, n, axis=1), np.zeros((1, n)), np.repeat(zr, n, axis=1)

    o, op, oq, orr = a[0], p[0], q[0], r[0]
    state.out = (o, op, oq, orr)
    span = model.sigma_hi - model.sigma_lo
    s = _nn_sigmoid(o)
    g1 = span * s * (1.0 - s)
    g2 = g1 * (1.0 - 2.0 * s)
    state.sigma = model.sigma_lo + span * s
    state.sigma_streams = (g1 * op, g2 * op**2 + g1 * oq, g1 * orr)
    return state


def allocating_nn_backward(model, state, bar_sigma, bar_streams=None):
    """Parameter gradients of the extended forward pass, fresh arrays throughout."""
    o, op, oq, orr = state.out
    span = model.sigma_hi - model.sigma_lo
    s = _nn_sigmoid(o)
    g1 = span * s * (1.0 - s)
    g2 = g1 * (1.0 - 2.0 * s)
    g3 = span * s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)

    bar_sigma = np.asarray(bar_sigma, dtype=float)
    if bar_streams is None:
        sp_bar = sq_bar = sr_bar = np.zeros_like(bar_sigma)
    else:
        sp_bar, sq_bar, sr_bar = (np.asarray(v, dtype=float) for v in bar_streams)

    o_bar = (
        bar_sigma * g1
        + sp_bar * g2 * op
        + sq_bar * (g3 * op**2 + g2 * oq)
        + sr_bar * g2 * orr
    )
    a_bar = o_bar[None, :]
    p_bar = (sp_bar * g1 + sq_bar * 2.0 * g2 * op)[None, :]
    q_bar = (sq_bar * g1)[None, :]
    r_bar = (sr_bar * g1)[None, :]

    n_layers = len(model.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for idx in range(n_layers - 1, -1, -1):
        z, zp, zq, zr = state.pre[idx]
        if idx < n_layers - 1:
            f1 = _nn_sigmoid(z)
            f2 = f1 * (1.0 - f1)
            f3 = f2 * (1.0 - 2.0 * f1)
            curv = f3 * zp**2 + f2 * zq if idx else f3 * zp**2
            z_bar = (
                a_bar * f1
                + p_bar * f2 * zp
                + q_bar * curv
                + r_bar * f2 * zr
            )
            zp_bar = p_bar * f1 + q_bar * 2.0 * f2 * zp
            zq_bar = q_bar * f1
            zr_bar = r_bar * f1
        else:
            z_bar, zp_bar, zq_bar, zr_bar = a_bar, p_bar, q_bar, r_bar
        if idx:
            grads_w[idx] = (
                z_bar @ state.a[idx].T
                + zp_bar @ state.p[idx].T
                + zq_bar @ state.q[idx].T
                + zr_bar @ state.r[idx].T
            )
        else:
            grads_w[idx] = z_bar @ state.a[idx].T + np.column_stack(
                [zr_bar.sum(axis=1), zp_bar.sum(axis=1)]
            )
        grads_b[idx] = z_bar.sum(axis=1)
        w = model.weights[idx]
        a_bar = w.T @ z_bar
        p_bar = w.T @ zp_bar
        q_bar = w.T @ zq_bar
        r_bar = w.T @ zr_bar
    return grads_w, grads_b


def allocating_nn_loss_and_grads(model, data_t, data_kappa, data_iv, w, lambdas, grid):
    """(total, parameter gradients) of the NN training loss on allocating passes.

    The penalty grid goes in ``nn_iv.BLOCK_WIDTH``-point blocks: the penalty
    sums and gradients are added up block by block, after the fit term's.
    """
    from volsurf.nn_iv import BLOCK_WIDTH, _penalty_pieces, _theta_tuple

    mu_w = float(np.mean(w))
    n = data_t.size

    state = allocating_nn_forward(model, data_t, data_kappa)
    rel = (state.sigma - data_iv) / data_iv
    fit = math.sqrt(float(np.mean((w * rel) ** 2)))
    denom = max(fit, 1e-12)
    bar_sigma_data = (w**2 * rel) / (data_iv * n * denom)
    gw_data, gb_data = allocating_nn_backward(model, state, bar_sigma_data)
    grads = gw_data + gb_data

    all_t, all_kappa = grid
    m_grid = all_t.size
    scale = [mu_w * v / m_grid for v in lambdas]
    sums = [0.0, 0.0, 0.0]
    for lo in range(0, m_grid, BLOCK_WIDTH):
        grid_t, grid_kappa = all_t[lo:lo + BLOCK_WIDTH], all_kappa[lo:lo + BLOCK_WIDTH]
        gstate = allocating_nn_forward(model, grid_t, grid_kappa)
        theta, d_t, d_k, d_kk = _theta_tuple(model, gstate)
        cal, butt, cal_neg, butt_neg, ratio, above, below, band_excess, usable = (
            _penalty_pieces(theta, d_t, d_k, d_kk, grid_kappa)
        )
        sums = [s + float(np.sum(v)) for s, v in zip(sums, (cal_neg, butt_neg, band_excess))]

        bar_cal = np.where(cal < 0.0, -scale[0], 0.0)
        bar_butt = np.where(butt < 0.0, -scale[1], 0.0)
        band_sign = np.where(above, 1.0, 0.0) - np.where(below, 1.0, 0.0)
        safe_butt = np.where(usable, butt, 1.0)
        bar_cal = bar_cal + np.where(usable, scale[2] * band_sign / safe_butt, 0.0)
        bar_butt = bar_butt + np.where(usable, -scale[2] * band_sign * ratio / safe_butt, 0.0)
        kap = grid_kappa
        bar_theta = bar_butt * (
            (kap / theta**2) * d_k + 0.25 * (1.0 / theta**2 - 2.0 * kap**2 / theta**3) * d_k**2
        )
        bar_dt = bar_cal
        bar_dk = bar_butt * (-kap / theta + 0.5 * (-0.25 - 1.0 / theta + kap**2 / theta**2) * d_k)
        bar_dkk = bar_butt * 0.5
        s_t, s_k = model.input_scale[0], model.input_scale[1]
        sig = gstate.sigma
        sp, sq, sr = gstate.sigma_streams
        t_arr = gstate.t
        bar_sig = (
            bar_theta * 2.0 * sig * t_arr
            + bar_dt * (2.0 * sig + 2.0 * sr / s_t)
            + bar_dk * 2.0 * t_arr * sp / s_k
            + bar_dkk * 2.0 * t_arr * sq / s_k**2
        )
        bar_sp = bar_dk * 2.0 * t_arr * sig / s_k + bar_dkk * 4.0 * t_arr * sp / s_k**2
        bar_sq = bar_dkk * 2.0 * t_arr * sig / s_k**2
        bar_sr = bar_dt * 2.0 * sig / s_t
        gw_pen, gb_pen = allocating_nn_backward(
            model, gstate, bar_sig, (bar_sp, bar_sq, bar_sr)
        )
        grads = [a + b for a, b in zip(grads, gw_pen + gb_pen)]

    pen = [mu_w * v * (s / m_grid) for v, s in zip(lambdas, sums)]
    total = fit + pen[0] + pen[1] + pen[2]
    return total, grads


def nn_loss(model, data_t, data_kappa, data_iv, w, lambdas, grid):
    """Penalized training loss and its components, as training scores a model.

    total = sqrt(mean((w_i (Sigma_i - iv_i) / iv_i)^2))
            + mu_w * mean(lambda1 cal^- + lambda2 butt^- + lambda3 band_excess)

    with w the observations' weights (``compute_weights``), mu_w their mean
    and the means taken over the (T, kappa) arrays of ``grid``
    (``build_penalty_grid``).  Returns (total, components).
    """
    total, comp, _ = nn_iv._loss_and_grads(
        model, data_t, data_kappa, data_iv, w, lambdas, grid, with_grads=False
    )
    return total, comp


class DualPrecisionWorkspace(nn_iv._Workspace):
    """A training workspace that runs every penalty-grid block in both precisions.

    Each ``screen`` call records (cleared, float64 hinge sums, drift): the
    float32 screen's verdict, the three sums the float64 pass gives the
    block, and over its points the largest |x32 - x64| / (1 + |x64|) of cal,
    butt and the ratio cal / butt (where both butts exceed the ratio's
    floor), then of edge butt - cal at each band edge, relative to
    1 + |cal| + |edge| |butt| as the screen's margin is.  A conservative
    screen clears no block with a non-zero sum.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.audit = []

    def refresh(self, model):
        super().refresh(model)
        self.model64 = model

    def screen(self, cols):
        cleared = super().screen(cols)
        t, kappa = self.grid_t[cols], self.grid_kappa[cols]
        x64 = nn_iv._penalty_pieces(
            *nn_iv._theta_tuple(self.model64, nn_iv._forward(self.model64, t, kappa)), kappa
        )
        sums = [float(np.sum(x64[i])) for i in (2, 3, 7)]
        pass32 = nn_iv._Pass(nn_iv._layer_sizes(self.model32), t.size, dtype=np.float32)
        pass32.forward(self.model32, t.astype(np.float32), kappa)
        with np.errstate(all="ignore"):
            cal, butt = local_vol.calendar_butterfly_terms(
                *nn_iv._theta_tuple(self.model32, pass32), kappa
            )
            usable = (butt > local_vol.DENOM_FLOOR) & x64[8]
            ratio = cal[usable] / butt[usable]
            pairs = [(a, b, 1.0 + np.abs(b))
                     for a, b in ((cal, x64[0]), (butt, x64[1]), (ratio, x64[4][usable]))]
            # the band as the screen tests it: edge butt - cal, against its
            # margin's 1 + |cal| + |edge| |butt|
            pairs += [(edge * butt - cal, edge * x64[1] - x64[0],
                       1.0 + np.abs(x64[0]) + abs(edge) * np.abs(x64[1]))
                      for edge in nn_iv.VARIANCE_BAND]
            drift = [float(np.max(np.abs(a - b) / scale, initial=0.0)) for a, b, scale in pairs]
        self.audit.append((cleared, sums, drift))
        return cleared


def grouped_nn_observations(frame):
    """(T, kappa, mean IV, duplicates) of a frame, one point at a time through a dict."""
    pts = {}
    for t, _, _, kappa, _, _, _, mid_iv in frame_rows(frame):
        pts.setdefault((t, kappa), []).append(mid_iv)
    keys = sorted(pts)
    return (
        np.array([k[0] for k in keys]),
        np.array([k[1] for k in keys]),
        np.array([float(np.mean(pts[k])) for k in keys]),
        sum(len(v) - 1 for v in pts.values()),
    )


# ---------------------------------------------------------------------------
# reference formulas with no caller in the package
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BsQuote:
    """A single Black-Scholes put quote in forward terms."""

    forward: float
    strike: float
    maturity: float
    vol: float
    discount: float = 1.0


def bs_put(q: BsQuote) -> float:
    """Price of one put quote."""
    return float(put_price(q.forward, q.strike, q.maturity, q.vol, q.discount))


def kernel(x, x_prime, params):
    """Separable product kernel sigma^2 * m52(dT) * m52(dk), scaled coords."""
    from volsurf.gp_price_surface import matern52

    t, k = x
    tp, kp = x_prime
    return (
        params.sigma**2
        * matern52(np.asarray(t) - tp, params.theta_t)
        * matern52(np.asarray(k) - kp, params.theta_k)
    )


def hat_basis(x, node, h_t: float, h_k: float):
    """Bilinear hat weight of grid node (i, j) at scaled point x = (t, k)."""
    t, k = x
    i, j = node
    wt = max(1.0 - abs(t - i * h_t) / h_t, 0.0)
    wk = max(1.0 - abs(k - j * h_k) / h_k, 0.0)
    return wt * wk


def marginal_log_likelihood(params, frame, grid) -> float:
    """Gaussian marginal log likelihood of a frame's bid/ask observations."""
    from volsurf.gp_price_surface import LikelihoodEvaluator

    return -LikelihoodEvaluator(frame, grid)(params)[0]


def dupire_terms(model, t, kappa):
    """Calendar numerator and butterfly denominator of an NN model's Dupire ratio."""
    from volsurf.local_vol import calendar_butterfly_terms

    theta, d_t, d_k, d_kk = model.forward_theta(t, kappa)
    if np.any(np.asarray(theta) <= 1e-12):
        raise ValueError("total variance vanished; Dupire terms undefined")
    return calendar_butterfly_terms(theta, d_t, d_k, d_kk, np.asarray(kappa, dtype=float))


# ---------------------------------------------------------------------------
# per-quote references for the columnar frame and the models' put_prices
# ---------------------------------------------------------------------------


def frame_rows(frame):
    """The frame's quotes as one tuple of Python floats per quote, in column order."""
    return list(zip(*(getattr(frame, name).tolist() for name in frame.COLUMNS)))


def per_point_put_prices(frame, iv_of):
    """Black-Scholes put prices one quote and one curve call at a time.

    iv_of(maturity, log_moneyness) gives each quote's implied vol.
    """
    curves = frame.curves
    out = []
    for t, strike, _, kappa, *_ in frame_rows(frame):
        out.append(put_price(float(curves.forward(t)), strike, t, iv_of(t, kappa),
                             float(curves.discount(t))))
    return np.array(out)


def per_point_gp_put_prices(model, frame):
    """A GP model's currency put prices, one quote and one surface call at a time."""
    curves = frame.curves
    return np.array([
        model.price(t, k) / float(curves.growth(t))
        for t, _, k, *_ in frame_rows(frame)
    ])


def term_structure_cev_frame():
    """A small CEV book under sloped rate and flat dividend curves, as a frame."""
    from volsurf.backtest import SyntheticSpec, generate_synthetic
    from volsurf.market_data import Curve, CurveSet, build_frame

    curves = CurveSet(spot=100.0, rate_curve=Curve([0.0, 1.0, 5.0], [0.01, 0.03, 0.02]),
                      dividend_curve=Curve.flat(0.015))
    spec = SyntheticSpec(kind="cev", maturities=(0.3, 0.7, 1.2, 2.0),
                         moneyness=tuple(np.linspace(0.8, 1.25, 9).tolist()))
    return build_frame(generate_synthetic(spec, curves), curves)


def searchsorted_bilinear(t_axis, k_axis, values, t, k):
    """Bilinear interpolation with both cells found by np.searchsorted.

    The kernel ``local_vol.bilinear`` replaced: 2-D fancy-index corners and
    ``1 - w`` formed per term, in the same order of operations.
    """
    it = np.clip(np.searchsorted(t_axis, t) - 1, 0, t_axis.size - 2)
    ik = np.clip(np.searchsorted(k_axis, k) - 1, 0, k_axis.size - 2)
    wt = (t - t_axis[it]) / (t_axis[it + 1] - t_axis[it])
    wk = (k - k_axis[ik]) / (k_axis[ik + 1] - k_axis[ik])
    out = (
        (1 - wt) * (1 - wk) * values[it, ik]
        + (1 - wt) * wk * values[it, ik + 1]
        + wt * (1 - wk) * values[it + 1, ik]
        + wt * wk * values[it + 1, ik + 1]
    )
    return float(out) if out.ndim == 0 else out


def searchsorted_lookup(lv, t, k):
    """``LocalVolGrid.lookup`` (filled, clamped) through ``searchsorted_bilinear``."""
    t = np.clip(np.asarray(t, dtype=float), lv.t_axis[0], lv.t_axis[-1])
    k = np.clip(np.asarray(k, dtype=float), lv.k_axis[0], lv.k_axis[-1])
    return searchsorted_bilinear(lv.t_axis, lv.k_axis, lv.filled_values(), t, k)


def row_first_lookup(lv, t, k):
    """``LocalVolGrid.lookup`` with fresh arrays at every operation.

    The filled rows bracketing the one time t make one row, which is read
    linearly in k as row[j] + w (row[j + 1] - row[j]), w clipped to [0, 1].
    On a strike axis whose every node is within 8 ulps of k0 + j h, j is
    floor((k - k0) / h) clipped to [0, n - 2] and w = (k - k0) / h - j;
    on any other axis j comes from np.searchsorted and w from the cell's
    ends.
    """
    t_axis, k_axis = lv.t_axis, lv.k_axis
    values = lv.filled_values()
    t = float(np.clip(t, t_axis[0], t_axis[-1]))
    i = int(np.clip(np.searchsorted(t_axis, t) - 1, 0, t_axis.size - 2))
    w_t = (t - t_axis[i]) / (t_axis[i + 1] - t_axis[i])
    row = (1 - w_t) * values[i] + w_t * values[i + 1]
    k = np.asarray(k, dtype=float)
    n = k_axis.size
    h = (k_axis[-1] - k_axis[0]) / (n - 1)
    nodes = k_axis[0] + h * np.arange(n)
    if np.all(np.abs(k_axis - nodes) <= 8.0 * np.spacing(np.max(np.abs(k_axis)))):
        g = (k - k_axis[0]) / h
        j = np.clip(np.floor(np.nan_to_num(g, nan=0.0)), 0, n - 2).astype(int)
        w = g - j
    else:
        j = np.clip(np.searchsorted(k_axis, k) - 1, 0, n - 2)
        w = (k - k_axis[j]) / (k_axis[j + 1] - k_axis[j])
    out = row[j] + np.clip(w, 0.0, 1.0) * (row[1:] - row[:-1])[j]
    return float(out) if out.ndim == 0 else out


def allocating_price_mc(lv, curves, options, n_paths, n_steps, seed=0):
    """``backtest.price_mc`` as a loop that allocates every step's arrays.

    Two exp(x) per step and a new x each step, with the local vol from
    ``row_first_lookup`` and a discount factor per option; the same draws
    and the same operation order.
    """
    options = [(float(t), float(k)) for t, k in options]
    t_max = max(t for t, _ in options)
    times = np.unique(
        np.concatenate([np.linspace(0.0, t_max, n_steps + 1), [t for t, _ in options]])
    )
    rng = np.random.default_rng(np.random.Philox(seed))
    x = np.full(n_paths, math.log(curves.spot))
    carry_vals = curves.carry(times)
    sums = np.zeros(len(options))
    sq_sums = np.zeros(len(options))

    def settle(time_value):
        spot_now = np.exp(x)
        for idx, (t_opt, strike) in enumerate(options):
            if t_opt == float(time_value):
                payoff = np.maximum(strike - spot_now, 0.0) * float(curves.discount(t_opt))
                sums[idx] = payoff.sum()
                sq_sums[idx] = (payoff * payoff).sum()

    settle(times[0])
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        step_carry = carry_vals[i + 1] - carry_vals[i]
        k_coord = np.exp(x) * math.exp(-carry_vals[i])
        sigma = row_first_lookup(lv, times[i], k_coord)
        normals = rng.standard_normal(n_paths)
        x = x + step_carry - 0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * normals
        settle(times[i + 1])

    prices = sums / n_paths
    variances = np.maximum(sq_sums / n_paths - prices**2, 0.0)
    return prices, np.sqrt(variances / n_paths)
