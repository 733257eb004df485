"""Discrete local volatility surfaces and arbitrage-free call-price grids.

A call-price grid stores spot-relative prices C[j, i] for maturities
tau_0 = 0 < tau_1 < ... < tau_m (rows) and strikes
x_0 < x_1 < ... < x_n < x_{n+1} (columns, including the two boundary
strikes).  The discrete local volatility surface sigma[j-1, i-1] covers the
interior nodes j = 1..m, i = 1..n.  Conversion in both directions uses the
same discrete operators, so round trips are exact up to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArbitrageError,
    InvalidSurfaceError,
    SingularSystemError,
    check_keys,
    check_number,
    check_numbers,
)

DAYS_PER_YEAR = 252.0

# 0/0 in the local-vol definition: both theta and gamma below this are
# treated as a zero-vol node; theta above it with vanishing gamma is arbitrage.
_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class DlvGrid:
    """Strike/maturity grid for a local volatility surface.

    Strikes are relative to spot (dimensionless), maturities in years.
    ``boundary_lo``/``boundary_hi`` are the extra strikes x_0 and x_{n+1}
    used to pin the reconstruction boundary.
    """

    strikes: tuple
    maturities: tuple
    boundary_lo: float = 0.5
    boundary_hi: float = 0.0  # 0.0 means "use 1 + 2 * max strike"

    def __post_init__(self):
        strikes = tuple(float(x) for x in self.strikes)
        mats = tuple(float(t) for t in self.maturities)
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "maturities", mats)
        if self.boundary_hi == 0.0:
            object.__setattr__(self, "boundary_hi", 1.0 + 2.0 * strikes[-1])
        if any(b >= a for a, b in zip(strikes[1:], strikes)):
            raise ValueError("strikes must be strictly increasing")
        if not (0.0 <= self.boundary_lo < strikes[0]):
            raise ValueError("boundary_lo must satisfy 0 <= x_0 < x_1")
        if self.boundary_hi <= strikes[-1]:
            raise ValueError("boundary_hi must exceed the largest strike")
        if any(b >= a for a, b in zip(mats[1:], mats)) or mats[0] <= 0.0:
            raise ValueError("maturities must be strictly increasing and positive")

    @property
    def n_strikes(self):
        return len(self.strikes)

    @property
    def n_maturities(self):
        return len(self.maturities)

    @property
    def all_strikes(self):
        """Strikes including the two boundary columns."""
        return np.concatenate(([self.boundary_lo], self.strikes, [self.boundary_hi]))

    @property
    def all_taus(self):
        """Maturities including tau_0 = 0."""
        return np.concatenate(([0.0], self.maturities))

    @property
    def maturities_days(self):
        return tuple(round(t * DAYS_PER_YEAR, 10) for t in self.maturities)

    def to_dict(self):
        return {
            "strikes": list(self.strikes),
            "maturities_days": [t * DAYS_PER_YEAR for t in self.maturities],
            "boundary_lo": self.boundary_lo,
            "boundary_hi": self.boundary_hi,
        }

    @classmethod
    def from_dict(cls, d):
        check_keys(d, ("strikes", "maturities_days", "boundary_lo", "boundary_hi"),
                   "grid", required=("strikes", "maturities_days"))
        strikes = check_numbers(d["strikes"], "grid strikes")
        days = check_numbers(d["maturities_days"], "grid maturities_days")
        return cls(
            strikes=tuple(strikes),
            maturities=tuple(t / DAYS_PER_YEAR for t in days),
            boundary_lo=check_number(d.get("boundary_lo", 0.5), "grid boundary_lo"),
            boundary_hi=check_number(d.get("boundary_hi", 0.0), "grid boundary_hi"),
        )


@dataclass
class DlvSurface:
    """Discrete local volatility values on the interior grid nodes."""

    grid: DlvGrid
    sigma: np.ndarray  # (m, n), per-annum vol

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        m, n = self.grid.n_maturities, self.grid.n_strikes
        if self.sigma.shape != (m, n):
            raise ValueError(f"sigma must have shape {(m, n)}, got {self.sigma.shape}")
        if not np.all(np.isfinite(self.sigma)):
            raise InvalidSurfaceError("local vol surface contains non-finite entries")
        if np.any(self.sigma < 0):
            raise InvalidSurfaceError("local vol surface contains negative entries")


@dataclass
class CallGrid:
    """Spot-relative call prices on the full grid, boundaries included.

    ``prices`` has shape (m + 1, n + 2): row 0 is the tau = 0 intrinsic
    row, columns 0 and n + 1 are the boundary strikes.
    """

    grid: DlvGrid
    prices: np.ndarray

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        m, n = self.grid.n_maturities, self.grid.n_strikes
        if self.prices.shape != (m + 1, n + 2):
            raise ValueError(
                f"prices must have shape {(m + 1, n + 2)}, got {self.prices.shape}"
            )
        if not np.all(np.isfinite(self.prices)):
            raise InvalidSurfaceError("call grid contains non-finite entries")


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve tridiagonal systems by the Thomas forward/backward sweep.

    Inputs are batches (..., n) for ``diag``/``rhs`` and (..., n - 1) for
    ``lower``/``upper``; a 1-D input is a batch of one.  Raises
    SingularSystemError on a zero pivot in any system of the batch.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.shape[-1]
    if lower.shape[-1] != n - 1 or upper.shape[-1] != n - 1 or rhs.shape[-1] != n:
        raise ValueError("inconsistent tridiagonal dimensions")

    c = np.empty_like(diag)
    d = np.empty_like(rhs)
    c[..., 0] = diag[..., 0]
    d[..., 0] = rhs[..., 0]
    for i in range(n):
        if i > 0:
            w = lower[..., i - 1] / c[..., i - 1]
            c[..., i] = diag[..., i] - w * upper[..., i - 1]
            d[..., i] = rhs[..., i] - w * d[..., i - 1]
        if not np.all(c[..., i]):
            raise SingularSystemError(f"zero pivot at row {i}")
    x = np.empty_like(rhs)
    x[..., -1] = d[..., -1] / c[..., -1]
    for i in range(n - 2, -1, -1):
        x[..., i] = (d[..., i] - upper[..., i] * x[..., i + 1]) / c[..., i]
    return x


def intrinsic_row(grid):
    """tau = 0 call prices: (1 - x)^+ over all strikes incl. boundaries."""
    return np.maximum(1.0 - grid.all_strikes, 0.0)


def prices_from_dlv_batch(grid, sigma):
    """Reconstruct call grids from a batch of local vol surfaces.

    ``sigma`` has shape (..., m, n); the result has shape (..., m+1, n+2).
    Each maturity row solves the implicit finite-difference system

        (C_j - C_{j-1}) / dtau = 1/2 x^2 sigma^2 Gamma(C_j)

    with the boundary columns pinned at intrinsic value (low strike) and
    zero (high strike).  The system matrix is strictly diagonally dominant
    for finite sigma and positive strike spacings.
    """
    sigma = np.asarray(sigma, dtype=float)
    m, n = grid.n_maturities, grid.n_strikes
    if sigma.shape[-2:] != (m, n):
        raise ValueError(f"sigma must end in shape {(m, n)}")
    if not np.all(np.isfinite(sigma)):
        raise InvalidSurfaceError("local vol surface contains non-finite entries")

    xs = grid.all_strikes
    taus = grid.all_taus
    xi = xs[1:-1]
    dx_lo = xi - xs[:-2]  # x_i - x_{i-1}
    dx_hi = xs[2:] - xi  # x_{i+1} - x_i

    batch = sigma.shape[:-2]
    prices = np.empty(batch + (m + 1, n + 2))
    prices[..., 0, :] = intrinsic_row(grid)
    lo_pin = 1.0 - grid.boundary_lo
    for j in range(1, m + 1):
        dtau = taus[j] - taus[j - 1]
        half = 0.5 * dtau * xi**2 * sigma[..., j - 1, :] ** 2
        alpha = half / dx_lo
        beta = half / dx_hi
        diag = 1.0 + alpha + beta
        lower = -alpha[..., 1:]
        upper = -beta[..., :-1]
        rhs = prices[..., j - 1, 1:-1].copy()
        rhs[..., 0] += alpha[..., 0] * lo_pin
        # high-strike boundary is pinned at zero: no rhs contribution
        prices[..., j, 0] = lo_pin
        prices[..., j, -1] = 0.0
        prices[..., j, 1:-1] = solve_tridiagonal(lower, diag, upper, rhs)
    return prices


def prices_from_dlv(surface):
    """Arbitrage-free call grid reconstructed from a finite DLV surface."""
    prices = prices_from_dlv_batch(surface.grid, surface.sigma)
    return CallGrid(grid=surface.grid, prices=prices)


def dlv_from_prices(cg):
    """Discrete local volatilities extracted from a call-price grid.

    sigma^2 = 2 Theta / (x^2 Gamma) with Theta the calendar difference
    quotient and Gamma the butterfly second difference.  A 0/0 node maps
    to sigma = 0; negative Theta or Gamma (static arbitrage) raises
    ArbitrageError naming the offending node.
    """
    grid = cg.grid
    m, n = grid.n_maturities, grid.n_strikes
    xs = grid.all_strikes
    taus = grid.all_taus
    C = cg.prices

    sigma = np.zeros((m, n))
    for j in range(1, m + 1):
        dtau = taus[j] - taus[j - 1]
        delta = np.diff(C[j]) / np.diff(xs)
        gamma = np.diff(delta)
        theta = (C[j, 1:-1] - C[j - 1, 1:-1]) / dtau
        for i in range(n):
            g, th = gamma[i], theta[i]
            if abs(th) < _ZERO_TOL and abs(g) < _ZERO_TOL:
                continue  # 0/0 convention: sigma = 0
            if g < -_ZERO_TOL or (th > _ZERO_TOL and g <= _ZERO_TOL):
                raise ArbitrageError(
                    f"butterfly arbitrage at maturity {j}, strike {i + 1}",
                    node=(j, i + 1),
                )
            if th < -_ZERO_TOL:
                raise ArbitrageError(
                    f"calendar arbitrage at maturity {j}, strike {i + 1}",
                    node=(j, i + 1),
                )
            val = 2.0 * max(th, 0.0) / (xs[i + 1] ** 2 * g)
            sigma[j - 1, i] = np.sqrt(val)
    return DlvSurface(grid=grid, sigma=sigma)
