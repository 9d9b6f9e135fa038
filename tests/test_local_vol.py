import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsurf.black_scholes import put_price
from volsurf.local_vol import (
    DegenerateVarianceError,
    LocalVolGrid,
    axis_cells,
    bilinear,
    calendar_butterfly_terms,
    cap_and_report,
    dupire_fd,
    dupire_iv,
    grid_from_json,
    grid_to_json,
    write_grid_csv,
)
from volsurf.serialize import dump_json, load_json

from oracles import row_first_lookup, searchsorted_bilinear, searchsorted_lookup

S0 = 100.0

# the strike axes a lookup meets: localvol's linspace, the GP's unit axis
# mapped back to strike, any other increasing axis, and the two-node minimum
STRIKE_AXES = {
    "uniform": np.linspace(60.0, 160.0, 17),
    "affine": 60.0 + np.linspace(0.0, 1.0, 17) * 100.0,
    "non-uniform": np.geomspace(60.0, 160.0, 17),
    "two-node": np.array([60.0, 160.0]),
}


def bs_reduced_price(sigma):
    """Reduced put price surface p(T, k) for a flat Black-Scholes world.

    In reduced coordinates p(T,k) = k N(-d2) - S0 N(-d1) with
    d1 = (-log(k/S0) + w/2)/sqrt(w), w = sigma^2 T.
    """

    def surface(t, k):
        w = sigma**2 * np.asarray(t, dtype=float)
        kappa = np.log(np.asarray(k, dtype=float) / S0)
        d1 = (-kappa + 0.5 * w) / np.sqrt(w)
        d2 = d1 - np.sqrt(w)
        from scipy.special import ndtr

        return k * ndtr(-d2) - S0 * ndtr(-d1)

    return surface


def flat_theta_surface(sigma):
    def surface(t, kappa):
        t = np.asarray(t, dtype=float)
        theta = sigma**2 * t
        zero = np.zeros_like(theta)
        return theta, np.full_like(theta, sigma**2), zero, zero

    return surface


class TestDupireFd:
    def test_recovers_flat_bs_vol(self):
        surface = bs_reduced_price(0.2)
        t_axis = np.linspace(0.3, 2.5, 30)
        k_axis = np.linspace(70.0, 140.0, 30)
        grid = dupire_fd(surface, t_axis, k_axis)
        # interior cells only
        vals = grid.values[2:-2, 2:-2]
        mask = grid.mask[2:-2, 2:-2]
        assert mask.mean() > 0.95
        assert np.max(np.abs(vals[mask] - 0.2)) < 0.005

    def test_affine_in_k_fully_masked(self):
        grid = dupire_fd(
            lambda t, k: 1.0 + 0.3 * t + 0.01 * k,
            np.linspace(0.5, 2.0, 6),
            np.linspace(80.0, 120.0, 8),
        )
        assert not grid.mask.any()

    def test_constant_in_t_gives_zero_vol(self):
        grid = dupire_fd(
            lambda t, k: (k - 100.0) ** 2 + 0.0 * t,
            np.linspace(0.5, 2.0, 6),
            np.linspace(80.0, 120.0, 9),
        )
        assert grid.mask[:, 1:-1].all()
        assert np.max(grid.values[grid.mask]) == 0.0

    def test_exact_for_quadratic_k_linear_t(self):
        # p = a t + b (k - k0)^2 has dT p = a, dkk p = 2b exactly under FD
        a, b = 3.0, 0.004
        surface = lambda t, k: a * t + b * (k - 50.0) ** 2
        t_axis = np.linspace(0.5, 2.0, 7)
        k_axis = np.linspace(80.0, 120.0, 11)
        grid = dupire_fd(surface, t_axis, k_axis)
        kk = k_axis[1:-1]
        expected = np.sqrt(2.0 * a / (kk**2 * 2.0 * b))
        got = grid.values[:, 1:-1]
        assert np.allclose(got, expected[None, :], rtol=1e-10)

    def test_mesh_refinement_improves_accuracy(self):
        surface = bs_reduced_price(0.25)

        def max_err(n):
            t_axis = np.linspace(0.5, 2.0, n)
            k_axis = np.linspace(80.0, 125.0, n)
            grid = dupire_fd(surface, t_axis, k_axis)
            sel = grid.mask.copy()
            sel[: n // 4] = False
            sel[-(n // 4):] = False
            return np.max(np.abs(grid.values[sel] - 0.25))

        assert max_err(40) < max_err(20)

    def test_negative_numerator_masked(self):
        # strictly decreasing in T everywhere: arbitrageable surface
        grid = dupire_fd(
            lambda t, k: ((k - 100.0) ** 2 + 10.0) * (2.0 - t) * 0.001,
            np.linspace(0.5, 1.5, 5),
            np.linspace(90.0, 110.0, 7),
        )
        assert not grid.mask.any()
        assert grid.diagnostics["negative_numerator_cells"] > 0

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            dupire_fd(lambda t, k: t + k, [0.5, 1.0], [90.0, 100.0, 110.0])


class TestDupireIv:
    def test_flat_sigma_gives_flat_local_vol(self):
        grid = dupire_iv(
            flat_theta_surface(0.2),
            np.linspace(0.25, 2.0, 12),
            np.linspace(70.0, 140.0, 15),
            spot=S0,
        )
        assert grid.mask.all()
        assert np.allclose(grid.values, 0.2, atol=1e-12)

    def test_negative_calendar_masked_and_counted(self):
        def surface(t, kappa):
            t = np.asarray(t, dtype=float)
            theta = 0.04 * (2.5 - t)  # decreasing in maturity
            zero = np.zeros_like(theta)
            return theta, np.full_like(theta, -0.04), zero, zero

        grid = dupire_iv(
            surface, np.linspace(0.5, 2.0, 5), np.linspace(80.0, 120.0, 6), spot=S0
        )
        assert not grid.mask.any()
        assert grid.diagnostics["negative_calendar_cells"] == 30

    def test_degenerate_theta_raises(self):
        def surface(t, kappa):
            theta = np.zeros_like(np.asarray(t, dtype=float))
            return theta, theta, theta, theta

        with pytest.raises(DegenerateVarianceError):
            dupire_iv(surface, [0.5, 1.0, 1.5], [90.0, 100.0, 110.0], spot=S0)

    def test_butterfly_terms_flat_surface(self):
        cal, butt = calendar_butterfly_terms(
            theta=0.04, d_t=0.04, d_k=0.0, d_kk=0.0, kappa=0.3
        )
        assert cal == pytest.approx(0.04)
        assert butt == pytest.approx(1.0)


class TestGridOps:
    def make_grid(self):
        t = np.linspace(0.5, 2.0, 4)
        k = np.linspace(80.0, 120.0, 5)
        vals = np.full((4, 5), 0.2)
        mask = np.ones((4, 5), bool)
        return LocalVolGrid(t, k, vals, mask)

    def test_cap_noop(self):
        grid = self.make_grid()
        capped, summary = cap_and_report(grid, 2.0)
        assert summary["capped_fraction"] == 0.0
        assert np.array_equal(capped.values, grid.values)

    def test_cap_applies(self):
        grid = self.make_grid()
        grid.values[1, 1] = 3.5
        capped, summary = cap_and_report(grid, 2.0)
        assert capped.values[1, 1] == 2.0
        assert summary["capped_fraction"] == pytest.approx(1.0 / 20.0)
        assert summary["max"] == 3.5

    def test_fully_masked_summary(self):
        grid = self.make_grid()
        grid.mask[:] = False
        _, summary = cap_and_report(grid, 2.0)
        assert summary["masked_fraction"] == 1.0
        assert summary["min"] is None

    def test_fill_nearest_neighbor(self):
        grid = self.make_grid()
        grid.values[2, 3] = 0.9
        grid.mask[2, 2] = False
        grid.values[2, 2] = 0.0
        filled = grid.filled_values()
        # nearest valid neighbor is one of the adjacent cells
        assert filled[2, 2] in (0.2, 0.9)
        assert grid.values[2, 2] == 0.0  # original untouched

    def test_lookup_bilinear_and_clamped(self):
        grid = self.make_grid()
        grid.values[:, :] = np.linspace(0.1, 0.5, 5)[None, :]
        mid = grid.lookup(1.0, 90.0)
        assert mid == pytest.approx(0.2)
        # outside the box clamps to the edge value
        assert grid.lookup(0.1, 70.0) == pytest.approx(0.1)
        assert grid.lookup(5.0, 500.0) == pytest.approx(0.5)

    def test_lookup_scalar_time_bitwise(self):
        # every strike axis kind, against the row-first oracle, array and scalar k
        rng = np.random.default_rng(8)
        t_axis = np.geomspace(0.05, 2.5, 13)
        for k_axis in STRIKE_AXES.values():
            n_k = k_axis.size
            grid = LocalVolGrid(t_axis, k_axis, rng.uniform(0.1, 0.5, (13, n_k)),
                                rng.uniform(size=(13, n_k)) > 0.3)
            grid.mask[0, 0] = True
            k = np.concatenate([rng.uniform(40.0, 180.0, 500), k_axis,
                                np.nextafter(k_axis, -np.inf), np.nextafter(k_axis, np.inf)])
            times = [0.01, t_axis[0], 0.3, t_axis[6], float(np.nextafter(t_axis[6], 0.0)),
                     1.7, t_axis[-1], 4.0]
            for t in times:
                got = grid.lookup(t, k)
                want = row_first_lookup(grid, t, k)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                for point in k[::37].tolist():
                    got = grid.lookup(t, point)
                    want = row_first_lookup(grid, t, point)
                    assert type(got) is float and got == want

    def test_json_round_trip(self, tmp_path):
        grid = self.make_grid()
        grid.mask[0, 0] = False
        path = tmp_path / "lv.json"
        dump_json(grid_to_json(grid), path)
        back = grid_from_json(load_json(path))
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.mask, grid.mask)
        assert grid_to_json(back) == grid_to_json(grid)

    def test_json_version_check(self):
        with pytest.raises(ValueError, match="version"):
            grid_from_json({"version": "other/9"})

    def test_csv_export(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "lv.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "T,k,local_vol,valid"
        assert len(lines) == 1 + 20


@st.composite
def increasing_axes(draw):
    """Strictly increasing axes of the four kinds a lookup meets, n >= 2."""
    n = draw(st.integers(2, 60))
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(["uniform", "affine", "geometric", "random"]))
    if kind == "uniform":
        axis = np.linspace(lo, lo + width, n)
    elif kind == "affine":  # the GP's unit axis mapped back to maturity or strike
        axis = lo + np.linspace(0.0, 1.0, n) * width
    elif kind == "geometric":
        axis = np.geomspace(abs(lo) + 1e-3, abs(lo) + 1e-3 + width, n)
    else:
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True))
        axis = np.sort(np.array(values))
    assert np.all(np.diff(axis) > 0.0)
    return axis


def probe_points(axis, extra):
    """Nodes, their float neighbours, midpoints, points beyond both ends and non-finite x."""
    return np.concatenate([
        axis, np.nextafter(axis, -np.inf), np.nextafter(axis, np.inf),
        0.5 * (axis[:-1] + axis[1:]), [axis[0] - abs(axis[0]) - 1.0],
        [axis[-1] + abs(axis[-1]) + 1.0, np.nan, np.inf, -np.inf], extra,
    ])


class TestAxisCells:
    @settings(max_examples=300, deadline=None)
    @given(increasing_axes(), st.lists(st.floats(-2e6, 2e6), max_size=20))
    def test_equals_clipped_searchsorted(self, axis, extra):
        x = probe_points(axis, extra)
        # as given, and clamped to the edges as LocalVolGrid.lookup does
        for points in (x, np.clip(x, axis[0], axis[-1])):
            want = np.clip(np.searchsorted(axis, points) - 1, 0, axis.size - 2)
            cell, lo, hi = axis_cells(axis, points)
            assert cell.dtype == np.intp and np.array_equal(cell, want)
            assert np.array_equal(lo, axis[want]) and np.array_equal(hi, axis[want + 1])
        want = np.clip(np.searchsorted(axis, x) - 1, 0, axis.size - 2)
        for point, expected in zip(x[::7].tolist(), want[::7].tolist()):
            cell, lo, hi = axis_cells(axis, np.float64(point))
            assert np.ndim(cell) == 0 and int(cell) == expected
            assert lo == axis[expected] and hi == axis[expected + 1]


class TestLookup:
    def make_grid(self, k_axis, seed=5):
        rng = np.random.default_rng(seed)
        t_axis = np.linspace(0.1, 2.0, 7)
        values = rng.uniform(0.1, 0.5, (t_axis.size, k_axis.size))
        return LocalVolGrid(t_axis, k_axis, values, np.ones(values.shape, bool))

    @settings(max_examples=200, deadline=None)
    @given(increasing_axes(), increasing_axes(), st.lists(st.floats(-2e6, 2e6), max_size=20),
           st.integers(0, 2**32 - 1))
    def test_matches_searchsorted_bilinear(self, t_axis, k_axis, extra, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, (t_axis.size, k_axis.size))
        grid = LocalVolGrid(t_axis, k_axis, values, np.ones(values.shape, bool))
        k = probe_points(k_axis, extra)
        k = k[~np.isnan(k)]
        # a few ulps of the largest value, plus what a few ulps of a strike,
        # on the scale of the mean cell width, make of the steepest cell
        mean_step = (k_axis[-1] - k_axis[0]) / (k_axis.size - 1)
        k_scale = np.max(np.abs(k_axis)) / mean_step + k_axis.size
        steepest = np.max(np.abs(np.diff(values, axis=1)))
        tol = 8.0 * (np.spacing(values.max()) + np.finfo(float).eps * k_scale * steepest)
        for t in probe_points(t_axis, [])[:-3].tolist():
            got = grid.lookup(t, k)
            want = searchsorted_lookup(grid, np.full(k.size, t), k)
            assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("kind", STRIKE_AXES)
    def test_clamped_to_the_edges(self, kind):
        grid = self.make_grid(STRIKE_AXES[kind])
        t_axis, k_axis = grid.t_axis, grid.k_axis
        k = np.linspace(30.0, 200.0, 41)
        k_in = np.clip(k, k_axis[0], k_axis[-1])
        for t, t_edge in [(-1.0, t_axis[0]), (0.0, t_axis[0]), (9.0, t_axis[-1])]:
            got = grid.lookup(t, k)
            assert got.tobytes() == grid.lookup(t_edge, k).tobytes()
            assert got.tobytes() == row_first_lookup(grid, t, k).tobytes()
            assert np.allclose(got, searchsorted_lookup(grid, np.full(k.size, t), k_in),
                               rtol=1e-14, atol=0.0)
        row = grid.filled_values()[-1]
        assert grid.lookup(9.0, k_axis[0] - 5.0) == row[0]
        assert grid.lookup(9.0, k_axis[-1] + 5.0) == pytest.approx(row[-1], rel=1e-15)

    @pytest.mark.parametrize("kind", STRIKE_AXES)
    def test_nonfinite_strikes(self, kind):
        grid = self.make_grid(STRIKE_AXES[kind])
        k_axis = grid.k_axis
        left, right = grid.lookup(0.7, k_axis[0] - 1.0), grid.lookup(0.7, k_axis[-1] + 1.0)
        assert math.isnan(grid.lookup(0.7, np.nan))
        assert grid.lookup(0.7, -np.inf) == left
        assert grid.lookup(0.7, np.inf) == right
        k = np.array([np.nan, -np.inf, 100.0, np.inf, np.nan])
        got = grid.lookup(0.7, k)
        assert np.isnan(got[[0, 4]]).all()
        assert got[1] == left and got[3] == right
        assert got[2] == grid.lookup(0.7, 100.0)
        assert got.tobytes() == row_first_lookup(grid, 0.7, k).tobytes()

    @pytest.mark.parametrize("k_axis, searched", [
        (STRIKE_AXES["uniform"], False),
        (STRIKE_AXES["affine"], False),
        (STRIKE_AXES["two-node"], False),
        # the strike axis of gen-synthetic's CEV grid
        (np.linspace(0.2 * S0, 2.2 * S0, 80), False),
        (STRIKE_AXES["non-uniform"], True),
    ])
    def test_uniform_axes_find_cells_by_arithmetic(self, monkeypatch, k_axis, searched):
        import volsurf.local_vol as local_vol

        calls = []

        def spy(axis, x):
            calls.append(x)
            return axis_cells(axis, x)

        monkeypatch.setattr(local_vol, "axis_cells", spy)
        grid = self.make_grid(k_axis)
        grid.lookup(0.7, np.linspace(50.0, 250.0, 100))
        assert bool(calls) is searched


class TestBilinear:
    @pytest.mark.parametrize("t_kind", ["scalar", "array"])
    @pytest.mark.parametrize("k_kind", ["scalar", "array"])
    def test_bitwise_the_searchsorted_kernel(self, t_kind, k_kind):
        rng = np.random.default_rng(21)
        t_axis = np.geomspace(0.05, 2.5, 13)
        k_axis = np.linspace(60.0, 160.0, 17)
        values = rng.uniform(0.1, 0.5, (13, 17))
        t_pts = np.concatenate([rng.uniform(0.05, 2.5, 300), t_axis,
                                np.nextafter(t_axis[1:], 0.0)])
        k_pts = np.concatenate([rng.uniform(60.0, 160.0, 300), k_axis,
                                np.nextafter(k_axis[1:], 0.0)])
        if t_kind == "array" and k_kind == "array":
            n = min(t_pts.size, k_pts.size)
            cases = [(t_pts[:n], k_pts[:n]), (t_pts[:, None], k_pts[None, :40])]
        elif t_kind == "array":
            cases = [(t_pts, np.asarray(k)) for k in k_pts[::20]]
        elif k_kind == "array":
            cases = [(np.asarray(t), k_pts) for t in t_pts[::20]]
        else:
            cases = [(np.asarray(t), np.asarray(k)) for t, k in zip(t_pts[::5], k_pts[::5])]
        for t, k in cases:
            got = bilinear(t_axis, k_axis, values, t, k)
            want = searchsorted_bilinear(t_axis, k_axis, values, t, k)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCrossConsistency:
    def test_fd_matches_iv_on_flat_surface(self):
        t_axis = np.linspace(0.4, 2.0, 25)
        k_axis = np.linspace(75.0, 135.0, 25)
        fd = dupire_fd(bs_reduced_price(0.2), t_axis, k_axis)
        iv = dupire_iv(flat_theta_surface(0.2), t_axis, k_axis, spot=S0)
        # skip the first/last T rows where dT is one-sided (first order)
        both = fd.mask & iv.mask
        both[0] = False
        both[-1] = False
        assert both.mean() > 0.8
        rel = np.abs(fd.values[both] - iv.values[both]) / iv.values[both]
        assert np.max(rel) < 0.01
