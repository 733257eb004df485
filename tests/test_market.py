import os
import stat

import numpy as np
import pytest

from driftless import market
from driftless.errors import GridDomainError, InputError
from driftless.market import (
    InstrumentSpec,
    PathBundle,
    build_returns,
    bundle_from_sigmas,
    features,
    feature_matrix,
    gains,
    read_bundle,
    read_weights_csv,
    write_bundle,
    write_text,
    write_weights_csv,
)
from driftless.surface import DlvGrid, intrinsic_row
from driftless.var_model import desk_grid, desk_params, simulate, stationary_init


def flat_bundle(n_paths=4, n_steps=3, sigma=0.2, spot_path=None):
    grid = desk_grid()
    spots = np.ones((n_paths, n_steps + 1))
    if spot_path is not None:
        spots[:] = np.asarray(spot_path)
    sigmas = np.full((n_paths, n_steps + 1, 3, 3), sigma)
    return bundle_from_sigmas(grid, spots, sigmas)


def test_zero_vol_constant_spot_all_zero_returns():
    b = flat_bundle(sigma=0.0)
    rets = build_returns(
        b, [InstrumentSpec("spot"), InstrumentSpec("call", 1.0, 20)]
    )
    assert np.allclose(rets.dh, 0.0, atol=1e-15)


def test_one_step_call_payoff_arithmetic():
    # spot 1.0 -> 1.1, one-day ATM call priced 0.02 at trade time
    grid = DlvGrid(strikes=(0.9, 1.0, 1.1), maturities=(1 / 252,),
                   boundary_lo=0.5, boundary_hi=1.6)
    spots = np.array([[1.0, 1.1]])
    prices = np.empty((1, 2, 2, 5))
    prices[:, :, 0] = intrinsic_row(grid)
    prices[:, :, 1] = np.array([1.0 - 0.5, 0.11, 0.02, 0.004, 0.0])
    bundle = PathBundle(
        grid=grid,
        spots=spots,
        sigmas=np.full((1, 2, 1, 3), 0.2),
        prices=prices,
    )
    rets = build_returns(bundle, [InstrumentSpec("call", 1.0, 1)])
    assert rets.mids[0, 0, 0] == pytest.approx(0.02)
    assert rets.dh[0, 0, 0] == pytest.approx((1.1 - 1.0) - 0.02)


def test_deferred_option_bracketed_by_grid_maturities():
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 30, 10, seed=5, grid=grid)
    # bought at t=2 with 40d: remaining maturity at T=10 is 32d,
    # between the 20d and 40d grid rows
    rets = build_returns(bundle, [InstrumentSpec("call", 1.0, 40)])
    t = 2
    s_t = bundle.spots[:, t]
    s_T = bundle.spots[:, 10]
    x_T = np.clip(1.0 * s_t / s_T, grid.boundary_lo, grid.boundary_hi)
    terminal = rets.dh[:, t, 0] + rets.mids[:, t, 0]
    from driftless.market import _interp_price

    lo = s_T * _interp_price(grid, bundle.prices[:, 10], x_T, 20 / 252)
    hi = s_T * _interp_price(grid, bundle.prices[:, 10], x_T, 40 / 252)
    assert np.all(terminal >= np.minimum(lo, hi) - 1e-12)
    assert np.all(terminal <= np.maximum(lo, hi) + 1e-12)


def test_put_parity_and_nonnegativity():
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 40, 5, seed=6, grid=grid)
    call = build_returns(bundle, [InstrumentSpec("call", 1.05, 40)])
    put = build_returns(bundle, [InstrumentSpec("put", 1.05, 40)])
    s_t = bundle.spots[:, :5]
    # parity at trade time: P = C - S (1 - k), exact
    assert np.allclose(
        put.mids[:, :, 0], call.mids[:, :, 0] - s_t * (1.0 - 1.05), atol=1e-12
    )
    # out-of-the-money puts have non-negative value
    assert np.all(put.mids[:, :, 0] >= -1e-12)


class TestGains:
    def test_zero_actions(self):
        b = flat_bundle()
        rets = build_returns(b, [InstrumentSpec("spot")])
        assert np.array_equal(gains(rets, np.zeros_like(rets.dh)), np.zeros(4))

    def test_simple_sum(self):
        b = flat_bundle(n_paths=1, n_steps=2)
        rets = build_returns(b, [InstrumentSpec("spot")])
        rets.dh[0, :, 0] = [0.1, -0.2]
        a = np.ones((1, 2, 1))
        assert gains(rets, a)[0] == pytest.approx(-0.1)

    def test_linear_in_actions(self):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 10, 4, seed=8, grid=grid)
        rets = build_returns(bundle, [InstrumentSpec("spot"),
                                      InstrumentSpec("call", 1.0, 20)])
        rng = np.random.default_rng(0)
        a, b2 = rng.normal(size=(2,) + rets.dh.shape)
        lhs = gains(rets, 2.0 * a + 0.3 * b2)
        rhs = 2.0 * gains(rets, a) + 0.3 * gains(rets, b2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_delta_form_equivalence_for_fixed_instrument(self):
        # spot is the same instrument at every step, so holding-increment
        # accounting must agree: sum a_t DH_t = sum delta_t dH_t
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 25, 6, seed=12, grid=grid)
        rets = build_returns(bundle, [InstrumentSpec("spot")])
        rng = np.random.default_rng(3)
        a = rng.normal(size=(25, 6, 1))
        lhs = gains(rets, a)
        delta = np.cumsum(a[:, :, 0], axis=1)
        dH = np.diff(bundle.spots, axis=1)
        rhs = (delta * dH).sum(axis=1)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_shape_mismatch(self):
        b = flat_bundle()
        rets = build_returns(b, [InstrumentSpec("spot")])
        with pytest.raises(ValueError):
            gains(rets, np.zeros((4, 3, 2)))


class TestFeatures:
    def test_flat_state_vector(self):
        b = flat_bundle(sigma=0.2)
        f = features(b.state(0, 0), horizon=3)
        expected = np.concatenate(([0.0, 0.0], np.full(9, np.log(0.2))))
        assert np.allclose(f, expected, atol=1e-15)

    def test_deterministic(self):
        b = flat_bundle()
        f1 = features(b.state(1, 2), horizon=3)
        f2 = features(b.state(1, 2), horizon=3)
        assert np.array_equal(f1, f2)

    def test_length(self):
        b = flat_bundle()
        assert features(b.state(0, 0), 3).shape == (2 + 9,)

    def test_zero_vol_floored(self):
        b = flat_bundle(sigma=0.0)
        f = features(b.state(0, 0), 3)
        assert np.all(np.isfinite(f))
        assert f[2] == pytest.approx(np.log(1e-6))

    def test_matrix_matches_per_state(self):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 6, 4, seed=2, grid=grid)
        fm = feature_matrix(bundle)
        assert fm.shape == (6, 4, 11)
        for pth in range(6):
            for t in range(4):
                assert np.allclose(
                    fm[pth, t], features(bundle.state(pth, t), 4), atol=1e-15
                )


class TestGridDomainErrors:
    def test_strike_outside_span(self):
        b = flat_bundle()
        with pytest.raises(GridDomainError):
            build_returns(b, [InstrumentSpec("call", 2.5, 20)])

    def test_maturity_outside_span(self):
        b = flat_bundle()
        with pytest.raises(GridDomainError):
            build_returns(b, [InstrumentSpec("call", 1.0, 120)])


class TestBundleIo:
    def test_round_trip_and_determinism(self, tmp_path):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 8, 3, seed=4, grid=grid)
        w = np.abs(np.random.default_rng(0).normal(size=8)) + 0.2
        bundle = bundle.with_weights(w / w.mean())

        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_bundle(bundle, d1)
        write_bundle(bundle, d2)
        for name in ("meta.json", "paths.csv", "weights.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

        back = read_bundle(d1)
        assert np.array_equal(back.spots, bundle.spots)
        assert np.array_equal(back.sigmas, bundle.sigmas)
        assert np.array_equal(back.weights, bundle.weights)
        assert back.seed == bundle.seed

    def test_weights_csv_round_trip(self, tmp_path):
        w = np.array([0.5, 1.5, 1.0])
        f = tmp_path / "w.csv"
        write_weights_csv(f, w)
        assert np.array_equal(read_weights_csv(f), w)

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,0.5", "1,1.5", "1,1.0"],  # duplicate
            ["0,0.5", "2,1.5"],  # missing path 1
            ["0,0.5", "1,1.5", "7,1.0"],  # out of range
            ["0,0.5", "-1,1.5"],  # negative
            ["0,0.5", "1"],  # short row
        ],
    )
    def test_weights_csv_bad_path_index_rejected(self, tmp_path, rows):
        f = tmp_path / "w.csv"
        f.write_text("\n".join(["path,weight"] + rows) + "\n")
        with pytest.raises(InputError):
            read_weights_csv(f)

    @staticmethod
    def _bundle_dir(tmp_path):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 8, 3, seed=4, grid=grid)
        d = tmp_path / "b"
        write_bundle(bundle.with_weights(np.ones(8)), d)
        return d

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:-20],  # truncated
            lambda lines: lines[:-1] + [lines[-2]],  # duplicated row
            lambda lines: lines + ["8" + lines[-1][1:]],  # path out of range
            lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],  # short row
            lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",abc"],  # non-numeric
            lambda lines: lines[:2] + ["# comment"] + lines[2:],  # comment row
            lambda lines: lines[:-1] + [lines[-1] + " # note"],  # trailing comment
            lambda lines: lines[:-1] + ['"' + lines[-1].replace(",", '","') + '"'],  # quoted
            lambda lines: lines[:2] + [""] + lines[2:],  # blank line
            lambda lines: lines[:1] + ["0.5" + lines[1][1:]] + lines[2:],  # fractional path
        ],
    )
    def test_bad_paths_csv_rejected(self, tmp_path, edit):
        d = self._bundle_dir(tmp_path)
        f = d / "paths.csv"
        f.write_text("\n".join(edit(f.read_text().splitlines())) + "\n")
        with pytest.raises(InputError):
            read_bundle(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:-1],  # missing path
            lambda lines: lines[:-1] + [lines[-2]],  # duplicated path
            lambda lines: lines + ["8,1.0"],  # path out of range
        ],
    )
    def test_bad_bundle_weights_rejected(self, tmp_path, edit):
        d = self._bundle_dir(tmp_path)
        f = d / "weights.csv"
        f.write_text("\n".join(edit(f.read_text().splitlines())) + "\n")
        with pytest.raises(InputError):
            read_bundle(d)


    def test_exact_bytes(self, tmp_path):
        grid = DlvGrid(strikes=(0.9, 1.1), maturities=(0.1,))
        spots = np.array([[1.0, 1.1], [1.0, 1 / 3]])
        sigmas = np.array([0.2, 0.25, 1e-05, 0.3, 0.2, 0.2, 2.5e16, 0.1]).reshape(2, 2, 1, 2)
        bundle = bundle_from_sigmas(grid, spots, sigmas, weights=[0.5, 1.5])
        write_bundle(bundle, tmp_path)
        assert (tmp_path / "paths.csv").read_bytes() == (
            b"path,step,spot,dlv_1_1,dlv_1_2\r\n"
            b"0,0,1.0,0.2,0.25\r\n"
            b"0,1,1.1,1e-05,0.3\r\n"
            b"1,0,1.0,0.2,0.2\r\n"
            b"1,1,0.3333333333333333,2.5e+16,0.1\r\n"
        )
        assert (tmp_path / "weights.csv").read_bytes() == b"path,weight\r\n0,0.5\r\n1,1.5\r\n"
        back = read_bundle(tmp_path)
        assert back.spots.tobytes() == spots.tobytes()
        assert back.sigmas.tobytes() == sigmas.tobytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_files_get_the_mode_open_would_give(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            d = self._bundle_dir(tmp_path)
        finally:
            os.umask(old)
        for name in ("paths.csv", "weights.csv", "meta.json"):
            assert stat.S_IMODE(os.stat(d / name).st_mode) == 0o666 & ~umask

    def test_failed_replace_keeps_old_target(self, tmp_path, monkeypatch):
        f = tmp_path / "w.csv"
        f.write_text("old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(market.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write_text(f, "new")
        assert f.read_text() == "old"
        assert list(tmp_path.glob("*.tmp")) == []


class TestBundleInvariants:
    def test_bad_weights_rejected(self):
        b = flat_bundle()
        with pytest.raises(ValueError):
            b.with_weights(np.array([2.0, 2.0, 2.0, 2.0]))
        with pytest.raises(ValueError):
            b.with_weights(np.array([0.0, 2.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            b.with_weights(np.array([np.nan, 1.0, 1.0, 1.0]))
