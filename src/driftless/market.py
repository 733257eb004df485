"""Market states, instruments, path bundles and gains accounting.

Conventions: the spot is normalized to S_0 = 1 at path start; option
strikes are relative to the spot at trade time; one unit of an option
instrument is one contract on S_t notional, so all prices and gains are in
units of S_0.  Rates, dividends and repo are zero throughout.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridDomainError, InputError, InvalidSurfaceError, check_keys
from .surface import DlvGrid, DlvSurface, prices_from_dlv_batch

SIGMA_FLOOR = 1e-6  # floor before log features; keeps sigma = 0 nodes finite


def check_weights(weights, n_paths):
    """Per-path weights as a float array: one per path, finite, positive,
    with mean 1 within 1e-9.  Raises InputError otherwise."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_paths,):
        raise InputError(f"weights must be one per path: got shape {w.shape}, "
                         f"expected ({n_paths},)")
    if not np.all(np.isfinite(w)):
        raise InputError("weights must be finite")
    if np.any(w <= 0):
        raise InputError("weights must be positive")
    if not abs(w.mean() - 1.0) <= 1e-9:
        raise InputError(f"weights must have mean 1, got {w.mean():.17g}")
    return w


@dataclass(frozen=True)
class InstrumentSpec:
    """A tradable instrument: the spot, or a call/put at a relative strike
    and a time-to-maturity in business days."""

    kind: str  # "spot" | "call" | "put"
    rel_strike: float = 0.0
    ttm_days: int = 0

    def __post_init__(self):
        if self.kind not in ("spot", "call", "put"):
            raise ValueError(f"unknown instrument kind {self.kind!r}")
        if self.kind != "spot":
            if self.rel_strike <= 0:
                raise ValueError("options need a positive relative strike")
            if self.ttm_days <= 0:
                raise ValueError("options need a positive time to maturity")

    def label(self):
        if self.kind == "spot":
            return "spot"
        return f"{self.kind}_{self.rel_strike:g}_{self.ttm_days}d"


@dataclass
class MarketState:
    """Single (path, step) snapshot: spot level, DLV surface and the call
    price grid derived from it."""

    step_index: int
    spot: float
    dlv: DlvSurface
    call_prices: np.ndarray  # (m+1, n+2) spot-relative

    def __post_init__(self):
        if not self.spot > 0:
            raise ValueError("spot must be positive")
        if not np.all(np.isfinite(self.call_prices)):
            raise InvalidSurfaceError("call price grid contains non-finite entries")


@dataclass
class PathBundle:
    """A simulated market sample: spots, DLVs and derived call grids for
    every path and step, plus optional per-path weights with mean one.

    Arrays: spots (P, T+1), sigmas (P, T+1, m, n), prices (P, T+1, m+1, n+2).
    """

    grid: DlvGrid
    spots: np.ndarray
    sigmas: np.ndarray
    prices: np.ndarray
    weights: np.ndarray | None = None
    seed: int = 0
    provenance: str = ""

    def __post_init__(self):
        self.spots = np.asarray(self.spots, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        p, t1 = self.spots.shape
        m, n = self.grid.n_maturities, self.grid.n_strikes
        if self.sigmas.shape != (p, t1, m, n):
            raise ValueError("sigmas shape inconsistent with spots/grid")
        if self.prices.shape != (p, t1, m + 1, n + 2):
            raise ValueError("prices shape inconsistent with spots/grid")
        if self.weights is not None:
            self.weights = check_weights(self.weights, p)

    @property
    def n_paths(self):
        return self.spots.shape[0]

    @property
    def n_steps(self):
        return self.spots.shape[1] - 1

    def path_weights(self):
        """Weights with the uniform default filled in."""
        if self.weights is None:
            return np.ones(self.n_paths)
        return self.weights

    def state(self, path, step):
        return MarketState(
            step_index=step,
            spot=float(self.spots[path, step]),
            dlv=DlvSurface(self.grid, self.sigmas[path, step]),
            call_prices=self.prices[path, step],
        )

    def with_weights(self, weights):
        return PathBundle(
            grid=self.grid,
            spots=self.spots,
            sigmas=self.sigmas,
            prices=self.prices,
            weights=weights,
            seed=self.seed,
            provenance=self.provenance,
        )


@dataclass
class InstrumentReturn:
    """Per (path, step, instrument) hold-to-horizon returns DH and the
    trade-time mid prices used for cost accounting."""

    instruments: tuple
    dh: np.ndarray  # (P, T, I)
    mids: np.ndarray  # (P, T, I)


def bundle_from_sigmas(grid, spots, sigmas, weights=None, seed=0, provenance=""):
    """Build a PathBundle, deriving the call grids from the DLVs."""
    prices = prices_from_dlv_batch(grid, np.asarray(sigmas, dtype=float))
    return PathBundle(
        grid=grid,
        spots=spots,
        sigmas=sigmas,
        prices=prices,
        weights=weights,
        seed=seed,
        provenance=provenance,
    )


def _interp_price(grid, prices, x, tau):
    """Bilinear interpolation of spot-relative call prices.

    ``prices`` is (..., m+1, n+2); interpolates linearly in strike along the
    full strike axis and linearly in maturity between grid rows (row 0 is
    tau = 0 intrinsic).  ``x`` and ``tau`` may broadcast against the batch.
    """
    xs = grid.all_strikes
    taus = grid.all_taus
    x = np.asarray(x, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(x < xs[0] - 1e-12) or np.any(x > xs[-1] + 1e-12):
        raise GridDomainError("relative strike outside the grid span")
    if np.any(tau < -1e-12) or np.any(tau > taus[-1] + 1e-12):
        raise GridDomainError("maturity outside the grid span")

    batch_shape = prices.shape[:-2]
    x = np.broadcast_to(x, batch_shape)
    tau = np.broadcast_to(tau, batch_shape)
    ix = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    wx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    it = np.clip(np.searchsorted(taus, tau, side="right") - 1, 0, len(taus) - 2)
    wt = (tau - taus[it]) / (taus[it + 1] - taus[it])

    flat = prices.reshape((-1,) + prices.shape[-2:])
    b = np.arange(flat.shape[0])
    itf, ixf = it.ravel(), ix.ravel()
    p00 = flat[b, itf, ixf].reshape(batch_shape)
    p01 = flat[b, itf, ixf + 1].reshape(batch_shape)
    p10 = flat[b, itf + 1, ixf].reshape(batch_shape)
    p11 = flat[b, itf + 1, ixf + 1].reshape(batch_shape)
    return (1 - wt) * ((1 - wx) * p00 + wx * p01) + wt * ((1 - wx) * p10 + wx * p11)


def build_returns(bundle, instruments):
    """Hold-to-horizon returns DH = H_T - H_t for each instrument.

    Options maturing inside the horizon are settled at payoff; options
    maturing after T are valued at the time-T surface with their remaining
    maturity, interpolated linearly in strike and maturity.  Puts price via
    parity P = C - S (1 - k) at zero rates.
    """
    grid = bundle.grid
    P, T = bundle.n_paths, bundle.n_steps
    instruments = tuple(instruments)
    n_inst = len(instruments)
    dh = np.empty((P, T, n_inst))
    mids = np.empty((P, T, n_inst))

    spots = bundle.spots
    s_T = spots[:, T]
    for k, inst in enumerate(instruments):
        if inst.kind == "spot":
            for t in range(T):
                mids[:, t, k] = spots[:, t]
                dh[:, t, k] = s_T - spots[:, t]
            continue

        tau_years = inst.ttm_days / 252.0
        if not (grid.boundary_lo <= inst.rel_strike <= grid.boundary_hi):
            raise GridDomainError(
                f"strike {inst.rel_strike} outside [{grid.boundary_lo}, {grid.boundary_hi}]"
            )
        if tau_years > grid.maturities[-1] + 1e-12:
            raise GridDomainError(
                f"maturity {inst.ttm_days}d beyond the grid span"
            )
        for t in range(T):
            s_t = spots[:, t]
            c_rel = _interp_price(
                grid, bundle.prices[:, t], np.full(P, inst.rel_strike), tau_years
            )
            if inst.kind == "call":
                mid_rel = c_rel
            else:
                mid_rel = c_rel - (1.0 - inst.rel_strike)
            mids[:, t, k] = s_t * mid_rel

            expiry = t + inst.ttm_days
            if expiry <= T:
                ratio = spots[:, expiry] / s_t
                if inst.kind == "call":
                    terminal = s_t * np.maximum(ratio - inst.rel_strike, 0.0)
                else:
                    terminal = s_t * np.maximum(inst.rel_strike - ratio, 0.0)
            else:
                rem_tau = (expiry - T) / 252.0
                x_T = inst.rel_strike * s_t / s_T
                np.clip(x_T, grid.boundary_lo, grid.boundary_hi, out=x_T)
                c_T = _interp_price(grid, bundle.prices[:, T], x_T, rem_tau)
                if inst.kind == "call":
                    terminal = s_T * c_T
                else:
                    terminal = s_T * (c_T - (1.0 - x_T))
            dh[:, t, k] = terminal - mids[:, t, k]

    return InstrumentReturn(instruments=instruments, dh=dh, mids=mids)


def gains(returns, actions):
    """Per-path terminal gain: sum over steps and instruments of a * DH."""
    actions = np.asarray(actions, dtype=float)
    if actions.shape != returns.dh.shape:
        raise ValueError(
            f"actions shape {actions.shape} != returns shape {returns.dh.shape}"
        )
    return np.einsum("pti,pti->p", actions, returns.dh)


def features(state, horizon):
    """Fixed-length policy features: [t/horizon, log spot, log DLV nodes]."""
    logsig = np.log(np.maximum(state.dlv.sigma, SIGMA_FLOOR)).ravel()
    return np.concatenate(
        ([state.step_index / horizon, np.log(state.spot)], logsig)
    )


def feature_matrix(bundle):
    """Features for all (path, trading-step) states: (P, T, 2 + m*n)."""
    P, T = bundle.n_paths, bundle.n_steps
    m, n = bundle.grid.n_maturities, bundle.grid.n_strikes
    out = np.empty((P, T, 2 + m * n))
    t_axis = np.arange(T) / T
    out[:, :, 0] = t_axis[None, :]
    out[:, :, 1] = np.log(bundle.spots[:, :T])
    out[:, :, 2:] = np.log(
        np.maximum(bundle.sigmas[:, :T].reshape(P, T, m * n), SIGMA_FLOOR)
    )
    return out


# ---------------------------------------------------------------------------
# Bundle file format: a directory with meta.json, paths.csv and optionally
# weights.csv.  All floats are written as shortest round-trip decimals.
# ---------------------------------------------------------------------------

def write_bundle(bundle, directory):
    os.makedirs(directory, exist_ok=True)
    m, n = bundle.grid.n_maturities, bundle.grid.n_strikes
    meta = {
        "grid": bundle.grid.to_dict(),
        "n_paths": bundle.n_paths,
        "n_steps": bundle.n_steps,
        "seed": bundle.seed,
        "provenance": bundle.provenance,
        "has_weights": bundle.weights is not None,
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)

    header = ["path", "step", "spot"] + [
        f"dlv_{j + 1}_{i + 1}" for j in range(m) for i in range(n)
    ]
    with open(os.path.join(directory, "paths.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for p in range(bundle.n_paths):
            for t in range(bundle.n_steps + 1):
                row = [p, t, repr(float(bundle.spots[p, t]))]
                row.extend(repr(float(v)) for v in bundle.sigmas[p, t].ravel())
                w.writerow(row)

    if bundle.weights is not None:
        with open(os.path.join(directory, "weights.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path", "weight"])
            for p in range(bundle.n_paths):
                w.writerow([p, repr(float(bundle.weights[p]))])


def read_bundle(directory):
    """Read a bundle directory.  Raises InputError when meta.json lacks a
    required key or has an unknown one, or when paths.csv does not hold
    each (path, step) row of the declared sizes exactly once, with one spot
    and m*n DLVs per row."""
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    check_keys(meta, ("grid", "n_paths", "n_steps", "seed", "provenance", "has_weights"),
               "bundle meta", required=("grid", "n_paths", "n_steps"))
    grid = DlvGrid.from_dict(meta["grid"])
    P, T = meta["n_paths"], meta["n_steps"]
    m, n = grid.n_maturities, grid.n_strikes

    spots = np.empty((P, T + 1))
    sigmas = np.empty((P, T + 1, m, n))
    seen = np.zeros((P, T + 1), dtype=bool)
    width = 3 + m * n
    with open(os.path.join(directory, "paths.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if len(row) != width:
                raise InputError(f"paths.csv line {reader.line_num}: "
                                 f"{len(row)} fields, expected {width}")
            p, t = int(row[0]), int(row[1])
            if not (0 <= p < P and 0 <= t <= T) or seen[p, t]:
                raise InputError(f"paths.csv line {reader.line_num}: row (path {p}, "
                                 f"step {t}) out of range or repeated")
            seen[p, t] = True
            spots[p, t] = float(row[2])
            sigmas[p, t] = np.array([float(v) for v in row[3:]]).reshape(m, n)
    if not seen.all():
        p, t = np.argwhere(~seen)[0]
        raise InputError(f"paths.csv lacks {int((~seen).sum())} row(s), "
                         f"first (path {p}, step {t})")

    weights = None
    if meta.get("has_weights"):
        weights = read_weights_csv(os.path.join(directory, "weights.csv"))

    return bundle_from_sigmas(
        grid,
        spots,
        sigmas,
        weights=weights,
        seed=meta.get("seed", 0),
        provenance=meta.get("provenance", ""),
    )


def read_weights_csv(path):
    """Weights indexed by the path column, which must hold each of
    0..n-1 exactly once for n data rows.  Raises InputError otherwise."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = list(reader)
    n = len(rows)
    out = np.empty(n)
    seen = np.zeros(n, dtype=bool)
    for line, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise InputError(f"{path} line {line}: {len(row)} fields, expected 2")
        p = int(row[0])
        if not 0 <= p < n or seen[p]:
            raise InputError(f"{path} line {line}: path {p} out of range or repeated; "
                             f"the {n} rows must index paths 0..{n - 1}")
        seen[p] = True
        out[p] = float(row[1])
    return out


def write_weights_csv(path, weights):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "weight"])
        for p, val in enumerate(weights):
            w.writerow([p, repr(float(val))])
