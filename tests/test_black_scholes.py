import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsurf.black_scholes import (
    InversionDomainError,
    implied_vol,
    implied_vol_array,
    put_price,
    put_vega,
)

from oracles import BsQuote, bs_put, scalar_implied_vol

# Closed-form evaluation of K*N(-d2) - F*N(-d1) at F=K=100, T=1, sigma=0.2,
# frozen from an independent scipy.special.ndtr computation.
ATM_PUT_100 = 7.965567455405804


def test_atm_put_matches_closed_form():
    q = BsQuote(forward=100.0, strike=100.0, maturity=1.0, vol=0.2, discount=1.0)
    assert bs_put(q) == pytest.approx(ATM_PUT_100, abs=1e-10)


def test_zero_vol_limit_is_discounted_intrinsic():
    assert put_price(100.0, 120.0, 1.0, 0.0, 0.95) == pytest.approx(0.95 * 20.0)
    assert put_price(100.0, 80.0, 1.0, 0.0, 0.95) == 0.0
    # and the limit is approached from sigma > 0
    assert put_price(100.0, 120.0, 1.0, 1e-8, 0.95) == pytest.approx(0.95 * 20.0, abs=1e-9)


def test_huge_vol_limit_is_discounted_strike():
    assert put_price(100.0, 90.0, 1.0, 60.0, 0.97) == pytest.approx(0.97 * 90.0, rel=1e-12)


def test_price_monotone_in_vol():
    vols = np.linspace(0.01, 2.0, 80)
    prices = put_price(100.0, 110.0, 0.7, vols, 0.99)
    assert np.all(np.diff(prices) > 0.0)


def test_price_convex_in_strike():
    strikes = np.linspace(50.0, 180.0, 200)
    prices = put_price(100.0, strikes, 1.3, 0.25, 0.98)
    second = np.diff(prices, 2)
    assert np.all(second >= -1e-10)


def test_price_bounds():
    rng = np.random.default_rng(11)
    for _ in range(200):
        forward = rng.uniform(50.0, 200.0)
        strike = rng.uniform(50.0, 200.0)
        maturity = rng.uniform(0.05, 3.0)
        vol = rng.uniform(0.01, 1.5)
        df = rng.uniform(0.8, 1.0)
        p = put_price(forward, strike, maturity, vol, df)
        assert df * max(strike - forward, 0.0) <= p <= df * strike


def test_vega_matches_finite_difference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        forward = rng.uniform(60.0, 150.0)
        strike = rng.uniform(60.0, 150.0)
        maturity = rng.uniform(0.1, 2.5)
        vol = rng.uniform(0.05, 0.8)
        h = 1e-5
        fd = (
            put_price(forward, strike, maturity, vol + h)
            - put_price(forward, strike, maturity, vol - h)
        ) / (2 * h)
        an = put_vega(forward, strike, maturity, vol)
        # abs floor covers central-difference roundoff (~1e-16 * price / h)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_implied_vol_inverts_atm_example():
    assert implied_vol(ATM_PUT_100, 100.0, 100.0, 1.0, 1.0) == pytest.approx(0.2, abs=1e-8)


def test_implied_vol_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        forward = rng.uniform(50.0, 200.0)
        strike = forward * rng.uniform(0.7, 1.4)
        maturity = rng.uniform(0.05, 3.0)
        vol = rng.uniform(0.01, 2.0)
        df = rng.uniform(0.85, 1.0)
        price = put_price(forward, strike, maturity, vol, df)
        if not df * max(strike - forward, 0.0) < price < df * strike:
            continue
        got = implied_vol(price, forward, strike, maturity, df)
        assert got == pytest.approx(vol, abs=1e-8)
        back = put_price(forward, strike, maturity, got, df)
        assert back == pytest.approx(price, abs=1e-10)


def test_implied_vol_rejects_boundary_price():
    with pytest.raises(InversionDomainError):
        implied_vol(20.0 * 0.95, 100.0, 120.0, 1.0, 0.95)  # exactly intrinsic
    with pytest.raises(InversionDomainError):
        implied_vol(0.0, 100.0, 90.0, 1.0, 1.0)
    with pytest.raises(InversionDomainError):
        implied_vol(121.0, 100.0, 120.0, 1.0, 1.0)  # above df*K


# A quote: forward, strike/forward, maturity, discount, where its price sits
# relative to the band (df*(K-F)+, df*K), and a position in [0, 1] there.
quotes = st.tuples(
    st.floats(50.0, 200.0),
    st.floats(0.5, 2.0),
    st.floats(0.02, 5.0),
    st.floats(0.5, 1.0),
    st.sampled_from(["inside", "near_lower", "near_upper", "below", "above"]),
    st.floats(0.0, 1.0),
)


def _quote_price(forward, strike, maturity, discount, where, pos):
    """A price inside the band, within 1e-12 relative of an edge, or outside it."""
    lower, upper = discount * max(strike - forward, 0.0), discount * strike
    rel = 1e-15 + pos * 1e-12
    if where == "inside":
        return put_price(forward, strike, maturity, 0.01 + 2.99 * pos, discount)
    if where == "near_lower":
        return lower * (1.0 + rel) if lower > 0.0 else upper * rel
    if where == "near_upper":
        return upper * (1.0 - rel)
    if where == "below":
        return lower * (1.0 - rel) if pos > 0.5 else lower
    return upper * (1.0 + rel) if pos > 0.5 else upper


@settings(max_examples=150, deadline=None)
@given(st.lists(quotes, min_size=1, max_size=25))
def test_implied_vol_array_matches_scalar_bitwise(rows):
    fwd, ratio, mat, df = (np.array(c, dtype=float) for c in list(zip(*rows))[:4])
    strike = fwd * ratio
    price = np.array([
        _quote_price(f, k, t, d, where, pos)
        for f, k, t, d, (*_, where, pos) in zip(fwd, strike, mat, df, rows)
    ])
    got = implied_vol_array(price, fwd, strike, mat, df)
    for i in range(len(rows)):
        args = (float(price[i]), float(fwd[i]), float(strike[i]), float(mat[i]), float(df[i]))
        reference = scalar_implied_vol(*args)
        lower, upper = df[i] * max(strike[i] - fwd[i], 0.0), df[i] * strike[i]
        assert (reference is not None) == (lower < price[i] < upper)
        if reference is None:
            assert np.isnan(got[i])
            with pytest.raises(InversionDomainError):
                implied_vol(*args)
        else:
            assert got[i].tobytes() == np.float64(reference).tobytes()
            assert implied_vol(*args) == reference


def test_implied_vol_array_broadcasts_and_validates():
    vols = np.array([[0.1, 0.2], [0.4, 0.8]])
    prices = put_price(100.0, np.array([90.0, 110.0]), 1.0, vols, 0.97)
    got = implied_vol_array(prices, 100.0, np.array([90.0, 110.0]), 1.0, 0.97)
    assert got.shape == (2, 2)
    assert np.allclose(got, vols, atol=1e-8)
    assert np.isnan(implied_vol_array(0.0, 100.0, 90.0, 1.0))
    assert implied_vol_array([], [], [], [], []).shape == (0,)
    with pytest.raises(ValueError):
        implied_vol_array([5.0, 5.0], [100.0, -1.0], 100.0, 1.0)
    with pytest.raises(ValueError):
        implied_vol_array(5.0, 100.0, 100.0, 1.0, 1.2)
