"""Market states, instruments, path bundles and gains accounting.

Conventions: the spot is normalized to S_0 = 1 at path start; option
strikes are relative to the spot at trade time; one unit of an option
instrument is one contract on S_t notional, so all prices and gains are in
units of S_0.  Rates, dividends and repo are zero throughout.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import GridDomainError, InputError, InvalidSurfaceError, check_keys, check_number
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
# File IO.  Every file the package writes goes through write_text, every JSON
# file it reads through read_json, every CSV through write_csv / read_csv.
# CSV layout: a header row, then rows of ","-joined fields with no quoting or
# comments, "\r\n" line ends, floats as shortest round-trip decimals (repr),
# so a read returns the written floats bit for bit.  Rows move in blocks of
# _BLOCK_ROWS: no whole-file text is held, and a bundle read fills its arrays
# block by block.
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 10_000


def write_text(path, text):
    """Write ``text`` (a str or an iterable of str chunks) to ``path``
    atomically: into a temp file in the target directory, renamed over the
    target with os.replace; the temp file is removed on failure.  The file
    gets the mode ``open(path, "w")`` would give it: 0o666 less the umask."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path):
    """The JSON document in ``path``; InputError naming the file when it
    does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None


def write_csv(path, header, columns):
    """Write equal-length columns under ``header``: floats as repr, ints and
    strings as str."""
    columns = [np.asarray(c) for c in columns]
    formats = [repr if c.dtype.kind == "f" else str for c in columns]

    def chunks():
        yield ",".join(header) + "\r\n"
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            fields = [list(map(f, c[lo:lo + _BLOCK_ROWS].tolist()))
                      for f, c in zip(formats, columns)]
            yield "\r\n".join(map(",".join, zip(*fields, strict=True))) + "\r\n"

    write_text(path, chunks())


def read_csv(path, what, width=None):
    """Yield the float row blocks, of at most _BLOCK_ROWS rows each, of a
    CSV in the layout above.  Raises InputError naming ``what`` and the file
    on an empty file, a header with no rows, a blank or ragged row, a
    non-numeric field, or a column count other than ``width`` when given."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header == [""]:
            raise InputError(f"{what} {path} is empty")
        if width is not None and len(header) != width:
            raise InputError(f"{what} {path}: {len(header)} columns, expected {width}")
        line = 2
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            if "\n" in lines:
                blank = line + lines.index("\n")
                raise InputError(f"{what} {path} line {blank}: blank line")
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise InputError(f"{what} {path}, block from line {line}: {exc}") from None
            if block.shape[1] != len(header):
                raise InputError(f"{what} {path} line {line}: {block.shape[1]} fields, "
                                 f"header has {len(header)}")
            yield block
            line += len(lines)
    if line == 2:
        raise InputError(f"{what} {path} has a header but no rows")


def place_rows(path, blocks, keys):
    """Yield ``(index, block)`` for each row block of ``path``, where
    ``index`` is the flat C-order position of each row's key: its leading
    columns, named and sized by the dict ``keys``.  The rows must hold each
    key exactly once: raises InputError on a key that is not an integer in
    range, on a repeated key and, after the last block, on a missing one."""
    names, shape = list(keys), tuple(keys.values())
    count = np.zeros(shape, dtype=int)
    line = 2
    for block in blocks:
        key = block[:, :len(shape)]
        bad = ~((key == np.floor(key)) & (key >= 0) & (key < shape)).all(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            raise InputError(f"{path} line {line + r}: {names} {key[r].tolist()} are not "
                             f"integers in range {list(shape)}")
        index = np.ravel_multi_index(tuple(key.T.astype(np.intp)), shape)
        np.add.at(count.reshape(-1), index, 1)
        repeated = count.flat[index] > 1
        if repeated.any():
            r = int(np.argmax(repeated))
            raise InputError(f"{path} line {line + r}: row {names} "
                             f"{[int(k) for k in key[r]]} repeated")
        yield index, block
        line += len(block)
    if not count.all():
        first = [int(k) for k in np.argwhere(count == 0)[0]]
        raise InputError(f"{path} lacks {int((count == 0).sum())} row(s), first {names} {first}")


# Bundle file format: a directory with paths.csv, optionally weights.csv, and
# meta.json, which is written last.

def write_bundle(bundle, directory):
    m, n = bundle.grid.n_maturities, bundle.grid.n_strikes
    P, T1 = bundle.spots.shape
    header = ["path", "step", "spot"] + [
        f"dlv_{j + 1}_{i + 1}" for j in range(m) for i in range(n)
    ]
    write_csv(os.path.join(directory, "paths.csv"), header,
              [np.repeat(np.arange(P), T1), np.tile(np.arange(T1), P),
               bundle.spots.ravel(), *bundle.sigmas.reshape(P * T1, m * n).T])
    if bundle.weights is not None:
        write_weights_csv(os.path.join(directory, "weights.csv"), bundle.weights)
    meta = {
        "grid": bundle.grid.to_dict(),
        "n_paths": bundle.n_paths,
        "n_steps": bundle.n_steps,
        "seed": bundle.seed,
        "provenance": bundle.provenance,
        "has_weights": bundle.weights is not None,
    }
    write_text(os.path.join(directory, "meta.json"), json.dumps(meta, indent=2, sort_keys=True))


def read_bundle(directory):
    """Read a bundle directory.  Raises InputError when meta.json lacks a
    required key, has an unknown one or a size that is not a positive
    integer, or when paths.csv does not hold each (path, step) row of the
    declared sizes exactly once, with one spot and m*n DLVs per row."""
    meta = read_json(os.path.join(directory, "meta.json"))
    check_keys(meta, ("grid", "n_paths", "n_steps", "seed", "provenance", "has_weights"),
               "bundle meta", required=("grid", "n_paths", "n_steps"))
    grid = DlvGrid.from_dict(meta["grid"])
    P, T = (check_number(meta[k], f"bundle meta {k!r}", integer=True)
            for k in ("n_paths", "n_steps"))
    if P < 1 or T < 1:
        raise InputError(f"bundle meta sizes must be positive, got n_paths {P}, n_steps {T}")
    seed = check_number(meta.get("seed", 0), "bundle meta 'seed'", integer=True)
    has_weights = meta.get("has_weights", False)
    if not isinstance(has_weights, bool):
        raise InputError(f"bundle meta 'has_weights' must be true or false, got {has_weights!r}")

    m, n = grid.n_maturities, grid.n_strikes
    spots = np.empty((P, T + 1))
    sigmas = np.empty((P, T + 1, m, n))
    path = os.path.join(directory, "paths.csv")
    rows = read_csv(path, "bundle paths CSV", width=3 + m * n)
    for index, block in place_rows(path, rows, {"path": P, "step": T + 1}):
        spots.flat[index] = block[:, 2]
        sigmas.reshape(P * (T + 1), m * n)[index] = block[:, 3:]

    weights = None
    if has_weights:
        weights = read_weights_csv(os.path.join(directory, "weights.csv"))

    return bundle_from_sigmas(
        grid,
        spots,
        sigmas,
        weights=weights,
        seed=seed,
        provenance=meta.get("provenance", ""),
    )


def read_weights_csv(path):
    """Weights indexed by the path column, which must hold each of
    0..n-1 exactly once for n data rows.  Raises InputError otherwise."""
    blocks = list(read_csv(path, "weights CSV", width=2))
    weights = np.empty(sum(len(b) for b in blocks))
    for index, block in place_rows(path, blocks, {"path": len(weights)}):
        weights[index] = block[:, 1]
    return weights


def write_weights_csv(path, weights):
    write_csv(path, ["path", "weight"], [np.arange(len(weights)), weights])
