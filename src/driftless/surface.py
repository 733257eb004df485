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
    InputError,
    InvalidSurfaceError,
    check_keys,
    check_number,
    check_numbers,
)

DAYS_PER_YEAR = 252.0
# the DLV domain is [0, SIGMA_MAX]: check_dlv_domain refuses a DLV above
# it, and simulate resamples a path that breaches it
SIGMA_MAX = 5.0
# dlv_from_prices returns a DLV read back at most this far above SIGMA_MAX
# as SIGMA_MAX, the round trip's tolerance, and refuses one further above
_EDGE_TOL = 1e-9

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
        strikes = tuple(float(x) for x in check_numbers(self.strikes, "grid strikes"))
        mats = tuple(float(t) for t in check_numbers(self.maturities, "grid maturities"))
        check_number(self.boundary_lo, "grid boundary_lo")
        check_number(self.boundary_hi, "grid boundary_hi")
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "maturities", mats)
        if self.boundary_hi == 0.0:
            object.__setattr__(self, "boundary_hi", 1.0 + 2.0 * strikes[-1])
        if any(b >= a for a, b in zip(strikes[1:], strikes)):
            raise InputError("strikes must be strictly increasing")
        if not (0.0 <= self.boundary_lo < strikes[0]):
            raise InputError("boundary_lo must satisfy 0 <= x_0 < x_1")
        if self.boundary_hi <= strikes[-1]:
            raise InputError("boundary_hi must exceed the largest strike")
        if any(b >= a for a, b in zip(mats[1:], mats)) or mats[0] <= 0.0:
            raise InputError("maturities must be strictly increasing and positive")

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
        d = dict(d)
        days = check_numbers(d.pop("maturities_days"), "grid maturities_days")
        return cls(maturities=tuple(t / DAYS_PER_YEAR for t in days), **d)


def intrinsic_row(grid):
    """tau = 0 call prices: (1 - x)^+ over all strikes incl. boundaries."""
    return np.maximum(1.0 - grid.all_strikes, 0.0)


def check_dlv_domain(sigma):
    """Raise InvalidSurfaceError unless every DLV in the float array
    ``sigma`` lies in the domain [0, SIGMA_MAX]."""
    if not np.all((sigma >= 0) & (sigma <= SIGMA_MAX)):  # NaN fails both
        bad = ("non-finite entries" if not np.all(np.isfinite(sigma)) else "negative entries"
               if np.any(sigma < 0) else f"entries above SIGMA_MAX = {SIGMA_MAX}")
        raise InvalidSurfaceError(f"local vol surface contains {bad}")


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises InvalidSurfaceError
def prices_from_dlv_batch(grid, sigma):
    """Reconstruct call grids from a batch of local vol surfaces.

    ``sigma`` has shape (..., m, n); the result has shape (..., m+1, n+2).
    Each maturity row solves the implicit finite-difference system

        (C_j - C_{j-1}) / dtau = 1/2 x^2 sigma^2 Gamma(C_j)

    with the boundary columns pinned at intrinsic value (low strike) and
    zero (high strike): row i reads -alpha_i C[i-1] + (1 + alpha_i +
    beta_i) C[i] - beta_i C[i+1] = C_{j-1}[i].  One Thomas sweep solves it
    for the whole batch.  The matrix is strictly diagonally dominant for
    finite sigma and positive strike spacings, so every pivot exceeds 1 and
    the sweep needs no zero-pivot check.  Raises InputError on a ``sigma`` of
    another shape, and InvalidSurfaceError on a sigma outside the domain
    [0, SIGMA_MAX], or on a grid so wide that a pivot or price still
    overflows there: DlvGrid(strikes=(1.0, 1.0001), maturities=(1e306,))
    does at sigma = 5 (an infinite pivot would give arbitrage prices).
    """
    sigma = np.asarray(sigma, dtype=float)
    m, n = grid.n_maturities, grid.n_strikes
    if sigma.shape[-2:] != (m, n):
        raise InputError(f"sigma must end in shape {(m, n)}")
    check_dlv_domain(sigma)

    xs = grid.all_strikes
    taus = grid.all_taus
    xi = xs[1:-1]
    dx_lo = xi - xs[:-2]  # x_i - x_{i-1}
    dx_hi = xs[2:] - xi  # x_{i+1} - x_i

    batch = sigma.shape[:-2]
    prices = np.empty(batch + (m + 1, n + 2))
    prices[..., 0, :] = intrinsic_row(grid)
    lo_pin = 1.0 - grid.boundary_lo
    prices[..., 1:, 0] = lo_pin
    prices[..., 1:, -1] = 0.0  # no rhs contribution from the high boundary
    for j in range(1, m + 1):
        dtau = taus[j] - taus[j - 1]
        half = 0.5 * dtau * xi**2 * sigma[..., j - 1, :] ** 2
        alpha = half / dx_lo
        beta = half / dx_hi
        pivot = 1.0 + alpha + beta
        x = prices[..., j - 1, 1:-1].copy()  # the rhs, then the solution
        x[..., 0] += alpha[..., 0] * lo_pin
        for i in range(1, n):
            w = alpha[..., i] / pivot[..., i - 1]
            pivot[..., i] -= w * beta[..., i - 1]
            x[..., i] += w * x[..., i - 1]
        x[..., -1] /= pivot[..., -1]
        for i in range(n - 2, -1, -1):
            x[..., i] = (x[..., i] + beta[..., i] * x[..., i + 1]) / pivot[..., i]
        if not (np.all(np.isfinite(pivot)) and np.all(np.isfinite(x))):
            raise InvalidSurfaceError(f"price solve overflows at maturity {j}: local vol too large")
        prices[..., j, 1:-1] = x
    return prices


def dlv_from_prices(grid, prices):
    """Discrete local volatilities (m, n) extracted from a call-price grid
    ``prices`` (m+1, n+2), laid out as ``prices_from_dlv_batch`` returns it.

    sigma^2 = 2 Theta / (x^2 Gamma) with Theta the calendar difference
    quotient and Gamma the butterfly second difference.  A 0/0 node maps
    to sigma = 0, and one within _EDGE_TOL above SIGMA_MAX to SIGMA_MAX;
    negative Theta or Gamma (static arbitrage) raises ArbitrageError naming
    the offending node, a node further above SIGMA_MAX or a non-finite
    price InvalidSurfaceError, and ``prices`` of another shape InputError.
    """
    m, n = grid.n_maturities, grid.n_strikes
    C = np.asarray(prices, dtype=float)
    if C.shape != (m + 1, n + 2):
        raise InputError(f"prices must have shape {(m + 1, n + 2)}, got {C.shape}")
    if not np.all(np.isfinite(C)):
        raise InvalidSurfaceError("call grid contains non-finite entries")
    x2 = grid.all_strikes[1:-1] ** 2
    gamma = np.diff(np.diff(C[1:], axis=1) / np.diff(grid.all_strikes), axis=1)
    theta = np.diff(C[:, 1:-1], axis=0) / np.diff(grid.all_taus)[:, None]

    zero = (np.abs(theta) < _ZERO_TOL) & (np.abs(gamma) < _ZERO_TOL)  # 0/0: sigma = 0
    butterfly = ~zero & ((gamma < -_ZERO_TOL) | ((theta > _ZERO_TOL) & (gamma <= _ZERO_TOL)))
    calendar = ~zero & (theta < -_ZERO_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the nodes masked out
        s = np.sqrt(2.0 * np.where(theta < 0.0, 0.0, theta) / (x2 * gamma))
    above = ~(zero | butterfly | calendar) & (s > SIGMA_MAX + _EDGE_TOL)
    bad = butterfly | calendar | above
    if bad.any():
        j, i = map(int, np.unravel_index(np.argmax(bad), bad.shape))
        where = f"maturity {j + 1}, strike {i + 1}"
        if butterfly[j, i] or calendar[j, i]:
            kind = "butterfly" if butterfly[j, i] else "calendar"
            raise ArbitrageError(f"{kind} arbitrage at {where}", node=(j + 1, i + 1))
        raise InvalidSurfaceError(f"DLV {s[j, i]:.17g} at {where} "
                                  f"is above SIGMA_MAX = {SIGMA_MAX}")
    return np.where(zero, 0.0, np.minimum(s, SIGMA_MAX))
