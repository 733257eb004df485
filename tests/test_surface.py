import numpy as np
import pytest

from driftless.errors import ArbitrageError, InvalidSurfaceError
from driftless.surface import (
    SIGMA_MAX,
    DlvGrid,
    dlv_from_prices,
    intrinsic_row,
    prices_from_dlv_batch,
)
from driftless.var_model import desk_grid

from oracles import SingularSystemError, prices_from_dlv_solver, solve_tridiagonal


def small_grid():
    return DlvGrid(
        strikes=(0.9, 1.0, 1.1),
        maturities=(20 / 252, 40 / 252, 60 / 252),
        boundary_lo=0.5,
        boundary_hi=1.6,
    )


def wide_grid():
    return DlvGrid(
        strikes=tuple(np.arange(0.85, 1.151, 0.05)),
        maturities=(20 / 252, 40 / 252, 60 / 252),
        boundary_lo=0.5,
        boundary_hi=1.45,
    )


def dense_solve(lower, diag, upper, rhs):
    n = len(diag)
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(1, n), np.arange(n - 1)] = lower
    a[np.arange(n - 1), np.arange(1, n)] = upper
    return np.linalg.solve(a, rhs)


class TestSolveTridiagonal:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.5])
        x = solve_tridiagonal(
            np.zeros(2), np.ones(3), np.zeros(2), rhs
        )
        assert np.array_equal(x, rhs)

    def test_n3_against_dense(self):
        lower = np.array([-1.0, 2.0])
        diag = np.array([4.0, 5.0, 6.0])
        upper = np.array([1.0, -1.5])
        rhs = np.array([1.0, 2.0, 3.0])
        x = solve_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(x, dense_solve(lower, diag, upper, rhs), atol=1e-14)

    def test_random_diagonally_dominant_residual(self):
        rng = np.random.default_rng(3)
        n = 50
        lower = rng.normal(size=n - 1)
        upper = rng.normal(size=n - 1)
        diag = 3.0 + np.abs(rng.normal(size=n))
        diag[1:] += np.abs(lower)
        diag[:-1] += np.abs(upper)
        rhs = rng.normal(size=n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        resid = (
            diag * x
            + np.concatenate(([0.0], lower * x[:-1]))
            + np.concatenate((upper * x[1:], [0.0]))
            - rhs
        )
        assert np.max(np.abs(resid)) < 1e-10

    def test_matches_dense_up_to_n200(self):
        rng = np.random.default_rng(9)
        for n in (5, 50, 200):
            lower = rng.normal(size=n - 1)
            upper = rng.normal(size=n - 1)
            diag = 2.0 + np.abs(lower.sum() * 0) + np.abs(rng.normal(size=n))
            diag[1:] += np.abs(lower)
            diag[:-1] += np.abs(upper)
            rhs = rng.normal(size=n)
            x = solve_tridiagonal(lower, diag, upper, rhs)
            ref = dense_solve(lower, diag, upper, rhs)
            assert np.allclose(x, ref, rtol=1e-12, atol=1e-12)

    def test_batch_matches_single_systems(self):
        rng = np.random.default_rng(11)
        lower, upper = rng.normal(size=(2, 4, 3, 5))
        diag = 1.0 + np.abs(rng.normal(size=(4, 3, 6)))
        diag[..., 1:] += np.abs(lower)
        diag[..., :-1] += np.abs(upper)
        rhs = rng.normal(size=(4, 3, 6))
        x = solve_tridiagonal(lower, diag, upper, rhs)
        for idx in np.ndindex(4, 3):
            assert np.array_equal(
                x[idx], solve_tridiagonal(lower[idx], diag[idx], upper[idx], rhs[idx])
            )

    def test_zero_pivot_in_batch_raises(self):
        diag = np.ones((3, 2))
        diag[1, 0] = 0.0
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(np.zeros((3, 1)), diag, np.zeros((3, 1)), np.ones((3, 2)))

    def test_zero_pivot_raises(self):
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(
                np.zeros(1), np.array([0.0, 1.0]), np.zeros(1), np.ones(2)
            )


class TestGrid:
    def test_strikes_must_increase(self):
        with pytest.raises(ValueError):
            DlvGrid(strikes=(1.0, 0.9), maturities=(0.1,))

    def test_boundaries_bracket(self):
        with pytest.raises(ValueError):
            DlvGrid(strikes=(0.9, 1.0), maturities=(0.1,), boundary_lo=0.95)

    def test_roundtrip_dict(self):
        g = small_grid()
        assert DlvGrid.from_dict(g.to_dict()) == g


class TestPricesFromDlv:
    def test_zero_vol_is_intrinsic(self):
        g = small_grid()
        prices = prices_from_dlv_batch(g, np.zeros((3, 3)))
        intrinsic = intrinsic_row(g)
        for j in range(prices.shape[0]):
            assert np.allclose(prices[j], intrinsic, atol=1e-15)

    def test_flat_surface_matches_dense_oracle(self):
        g = wide_grid()
        sigma = np.full((3, 7), 0.2)
        prices = prices_from_dlv_batch(g, sigma)
        # replicate the implicit scheme with a dense solver
        xs = np.asarray(g.all_strikes)
        taus = [0.0] + list(g.maturities)
        c_prev = np.maximum(1.0 - xs, 0.0)
        for j in range(3):
            dtau = taus[j + 1] - taus[j]
            n = len(g.strikes)
            a = np.zeros((n, n))
            rhs = c_prev[1:-1].copy()
            for i in range(n):
                x = xs[i + 1]
                dx_lo = xs[i + 1] - xs[i]
                dx_hi = xs[i + 2] - xs[i + 1]
                s2 = sigma[j, i] ** 2
                alpha = 0.5 * dtau * x * x * s2 / dx_lo
                beta = 0.5 * dtau * x * x * s2 / dx_hi
                a[i, i] = 1.0 + alpha + beta
                if i > 0:
                    a[i, i - 1] = -alpha
                else:
                    rhs[i] += alpha * (1.0 - xs[0])
                if i < n - 1:
                    a[i, i + 1] = -beta
            interior = np.linalg.solve(a, rhs)
            assert np.allclose(prices[j + 1, 1:-1], interior, atol=1e-12)
            c_prev = np.concatenate(([1.0 - xs[0]], interior, [0.0]))

    def test_monotone_in_maturity_100_random_surfaces(self):
        g = small_grid()
        rng = np.random.default_rng(11)
        for _ in range(100):
            sigma = rng.uniform(0.05, 1.5, size=(3, 3))
            prices = prices_from_dlv_batch(g, sigma)
            assert np.all(np.diff(prices, axis=0) >= -1e-12)

    def test_butterfly_convexity(self):
        g = small_grid()
        rng = np.random.default_rng(12)
        for _ in range(20):
            sigma = rng.uniform(0.05, 1.0, size=(3, 3))
            prices = prices_from_dlv_batch(g, sigma)
            xs = np.asarray(g.all_strikes)
            for j in range(1, 4):
                c = prices[j]
                delta = np.diff(c) / np.diff(xs)
                assert np.all(np.diff(delta) >= -1e-12)

    @pytest.mark.parametrize("bad", [np.nan, -0.1], ids=["nan", "negative"])
    def test_bad_sigma_rejected(self, bad):
        sigma = np.full((2, 3, 3), 0.2)
        sigma[1, 2, 0] = bad
        with pytest.raises(InvalidSurfaceError):
            prices_from_dlv_batch(small_grid(), sigma)

    def test_largest_finite_solve_stays_finite(self):
        """At the domain edge SIGMA_MAX every pivot is finite, and the prices
        are finite and free of static arbitrage."""
        sigma = np.full((3, 3), 0.2)
        sigma[1, 1] = SIGMA_MAX
        prices = prices_from_dlv_batch(desk_grid(), sigma)
        assert np.array_equal(prices, prices_from_dlv_solver(desk_grid(), sigma))
        gamma = np.diff(np.diff(prices) / np.diff(desk_grid().all_strikes), axis=-1)
        assert gamma.min() >= -1e-12
        assert np.diff(prices, axis=0).min() >= -1e-12

    @pytest.mark.parametrize("big", [1.3e154, 1.4e154, 1e200])
    def test_overflowing_sigma_rejected(self, big):
        """A finite DLV whose pivot 1 + alpha + beta overflows: from about
        1.1e154 the solver gave finite prices with butterfly and calendar
        arbitrage, and from 1.4e154, where sigma**2 overflows, NaN prices.
        The domain check refuses it before the solve."""
        sigma = np.full((2, 3, 3), 0.2)
        sigma[1, 1, 1] = big
        with pytest.raises(InvalidSurfaceError, match="above SIGMA_MAX"):
            prices_from_dlv_batch(desk_grid(), sigma)

    def test_just_above_sigma_max_rejected(self):
        sigma = np.full((2, 3, 3), 0.2)
        sigma[0, 2, 1] = np.nextafter(SIGMA_MAX, np.inf)
        with pytest.raises(InvalidSurfaceError, match="above SIGMA_MAX"):
            prices_from_dlv_batch(desk_grid(), sigma)

    def test_wide_grid_overflows_inside_the_domain(self):
        """A maturity of 1e306 years overflows the pivots at sigma = 5, so
        the solve keeps its overflow check."""
        grid = DlvGrid(strikes=(1.0, 1.0001), maturities=(1e306,))
        with pytest.raises(InvalidSurfaceError, match="overflows"):
            prices_from_dlv_batch(grid, np.full((1, 2), SIGMA_MAX))


@pytest.mark.parametrize("case", [
    "desk_unbatched", "desk_50x11", "desk_20000x11", "one_by_one", "five_by_seven_zeros",
    "desk_zero",
])
def test_sweep_equals_solver_oracle_bit_for_bit(case):
    """The in-place Thomas sweep gives the prices of the general
    tridiagonal solver it replaced, bit for bit."""
    rng = np.random.default_rng(20)
    shapes = {"desk_unbatched": (3, 3), "desk_50x11": (50, 11, 3, 3),
              "desk_20000x11": (20000, 11, 3, 3)}
    if case in shapes:
        grid, sigma = desk_grid(), rng.uniform(0.0, 2.0, size=shapes[case])
    elif case == "one_by_one":
        grid = DlvGrid(strikes=(1.0,), maturities=(20 / 252,))
        sigma = rng.uniform(0.0, 2.0, size=(7, 1, 1))
    elif case == "five_by_seven_zeros":
        grid = DlvGrid(strikes=(0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4),
                       maturities=tuple(np.arange(1, 6) * 20 / 252))
        sigma = rng.uniform(0.0, 2.0, size=(9, 5, 7))
        sigma[rng.random(sigma.shape) < 0.3] = 0.0
    else:
        grid, sigma = desk_grid(), np.zeros((4, 3, 3))
    assert np.array_equal(prices_from_dlv_batch(grid, sigma), prices_from_dlv_solver(grid, sigma))


class TestDlvFromPrices:
    def test_intrinsic_prices_give_zero_vol(self):
        g = small_grid()
        intrinsic = intrinsic_row(g)
        prices = np.tile(intrinsic, (4, 1))
        s = dlv_from_prices(g, prices)
        assert np.array_equal(s, np.zeros((3, 3)))

    def test_round_trip_sigma(self):
        g = small_grid()
        rng = np.random.default_rng(21)
        sigma = rng.uniform(0.05, 1.2, size=(3, 3))
        prices = prices_from_dlv_batch(g, sigma)
        back = dlv_from_prices(g, prices)
        assert np.allclose(back, sigma, atol=1e-9)

    def test_round_trip_at_sigma_max(self):
        """Surfaces with nodes at SIGMA_MAX round-trip within A6's 1e-9:
        each node of the desk grid in turn, and all nine at once.  A node
        read back just above SIGMA_MAX comes back as SIGMA_MAX, so the read
        back DLVs reprice as they are."""
        g = desk_grid()
        rng = np.random.default_rng(23)
        worst = 0.0
        for node in [*range(9), None]:
            for _ in range(20):
                sigma = rng.uniform(0.05, 0.8, size=(3, 3))
                sigma.flat[slice(None) if node is None else node] = SIGMA_MAX
                prices = prices_from_dlv_batch(g, sigma)
                back = dlv_from_prices(g, prices)
                again = prices_from_dlv_batch(g, back)
                worst = max(worst, np.max(np.abs(back - sigma)), np.max(np.abs(again - prices)))
        assert worst < 1e-9

    def test_read_back_above_sigma_max_refused(self):
        """Prices whose node reads back more than 1e-9 above SIGMA_MAX are
        refused with InvalidSurfaceError naming the node."""
        g = desk_grid()
        prices = prices_from_dlv_batch(g, np.full((3, 3), SIGMA_MAX))
        assert np.max(dlv_from_prices(g, prices)) == SIGMA_MAX
        prices[3, 2] += 1e-6  # a larger calendar spread and a smaller butterfly
        with pytest.raises(InvalidSurfaceError, match="maturity 3, strike 2 is above SIGMA_MAX"):
            dlv_from_prices(g, prices)

    def test_round_trip_prices(self):
        g = wide_grid()
        rng = np.random.default_rng(22)
        sigma = rng.uniform(0.05, 0.9, size=(3, 7))
        prices = prices_from_dlv_batch(g, sigma)
        again = prices_from_dlv_batch(g, dlv_from_prices(g, prices))
        assert np.allclose(again, prices, atol=1e-9)

    def test_bad_prices_rejected(self):
        g = small_grid()
        prices = prices_from_dlv_batch(g, np.full((3, 3), 0.3))
        with pytest.raises(ValueError):
            dlv_from_prices(g, prices[:, 1:])
        prices[2, 2] = np.nan
        with pytest.raises(InvalidSurfaceError):
            dlv_from_prices(g, prices)

    def test_calendar_arbitrage_names_node(self):
        g = small_grid()
        sigma = np.full((3, 3), 0.3)
        prices = prices_from_dlv_batch(g, sigma)
        prices[2, 2] = prices[1, 2] - 1e-3  # negative calendar change at (2, 2)
        with pytest.raises(ArbitrageError) as err:
            dlv_from_prices(g, prices)
        assert err.value.node is not None
        assert err.value.node[0] == 2

    def test_butterfly_arbitrage_names_node(self):
        """A price above the chord of its strike neighbours is a butterfly
        arbitrage at its node; at a node that is also a calendar arbitrage,
        the butterfly is named."""
        g = small_grid()
        prices = prices_from_dlv_batch(g, np.full((3, 3), 0.3))
        bumped = prices.copy()
        bumped[2, 2] += 0.05  # concave at (2, 2); a calendar arbitrage at (3, 2) too
        with pytest.raises(ArbitrageError, match="butterfly arbitrage at maturity 2, strike 2"
                           ) as err:
            dlv_from_prices(g, bumped)
        assert err.value.node == (2, 2)
        both = prices.copy()
        both[0, 1] += 0.01  # theta < 0 at (1, 1)
        both[1, 2] -= 0.01  # gamma < 0 at (1, 1)
        with pytest.raises(ArbitrageError, match="butterfly arbitrage at maturity 1, strike 1"
                           ) as err:
            dlv_from_prices(g, both)
        assert err.value.node == (1, 1)
