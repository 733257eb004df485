import hashlib
import json
import shutil

import numpy as np
import pytest

from driftless.cli import main
from driftless.market import read_weights_csv, write_weights_csv
from driftless.var_model import (
    VarParams,
    desk_grid,
    desk_params,
    synthetic_history,
    write_history_csv,
)


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("params")
    p = d / "params.json"
    desk_params(desk_grid()).to_json(p)
    return p


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, params_file):
    d = tmp_path_factory.mktemp("bundle") / "b"
    rc = main([
        "simulate", "--params", str(params_file),
        "--paths", "200", "--steps", "4", "--out", str(d),
    ])
    assert rc == 0
    return d


def write_cost(d, gamma=0.001):
    f = d / "cost.json"
    f.write_text(json.dumps({"gamma": gamma, "mode": "marginal"}))
    return f


def write_utility(d):
    f = d / "utility.json"
    f.write_text(json.dumps({"family": "exponential", "lambda": 1.0}))
    return f


def write_train(d, epochs=15):
    f = d / "train.json"
    f.write_text(json.dumps({"epochs": epochs, "lr": 0.01, "seed": 0}))
    return f


def test_fit_var_round_trip(tmp_path):
    params = desk_params(desk_grid())
    hist = synthetic_history(params, 4000, seed=1)
    hfile = tmp_path / "history.csv"
    write_history_csv(hfile, hist, desk_grid())
    out = tmp_path / "fitted.json"
    assert main(["fit-var", "--history", str(hfile), "--out", str(out)]) == 0
    fitted = VarParams.from_json(out)
    assert fitted.a1.shape == params.a1.shape
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["stage"] == "fit-var"
    assert str(hfile) in manifest["inputs"]


def test_simulate_deterministic(tmp_path, params_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main([
            "--seed", "3", "simulate", "--params", str(params_file),
            "--paths", "50", "--steps", "3", "--out", str(out),
        ])
        assert rc == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()
    manifest = json.loads((a / "run.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["stage"] == "simulate"


def test_make_q_verify_pipeline(tmp_path, bundle_dir):
    cost = write_cost(tmp_path)
    util = write_utility(tmp_path)
    train_cfg = write_train(tmp_path)
    weights = tmp_path / "weights.csv"
    rc = main([
        "make-q", "--bundle", str(bundle_dir), "--cost", str(cost),
        "--utility", str(util), "--train", str(train_cfg),
        "--out", str(weights),
    ])
    assert rc == 0
    w = read_weights_csv(weights)
    assert w.shape == (200,)
    assert np.all(w > 0)
    assert w.mean() == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "weights.csv.solution.json").exists()

    report = tmp_path / "report"
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(weights),
        "--cost", str(cost), "--report", str(report),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert len(doc["rows"]) > 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "t,instrument,mean_dh,se,band_lo,band_hi,pass"


def test_make_q_manifest_hashes_bundle_and_instruments(tmp_path, bundle_dir):
    cost = write_cost(tmp_path)
    util = write_utility(tmp_path)
    train_cfg = write_train(tmp_path, epochs=2)
    instruments = tmp_path / "instruments.json"
    instruments.write_text(json.dumps([
        {"kind": "spot"}, {"kind": "call", "rel_strike": 1.0, "ttm_days": 20},
    ]))
    rc = main([
        "make-q", "--bundle", str(bundle_dir), "--cost", str(cost),
        "--utility", str(util), "--train", str(train_cfg),
        "--instruments", str(instruments), "--out", str(tmp_path / "weights.csv"),
    ])
    assert rc == 0
    inputs = json.loads((tmp_path / "run.json").read_text())["inputs"]
    paths_csv = bundle_dir / "paths.csv"
    assert set(inputs) == {str(f) for f in (cost, util, train_cfg, instruments,
                                           bundle_dir / "meta.json", paths_csv)}
    assert inputs[str(paths_csv)] == hashlib.sha256(paths_csv.read_bytes()).hexdigest()
    assert inputs[str(instruments)] == hashlib.sha256(instruments.read_bytes()).hexdigest()


def test_verify_missing_weights_is_validation_error(tmp_path, bundle_dir, capsys):
    cost = write_cost(tmp_path)
    missing = tmp_path / "nope.csv"
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(missing),
        "--cost", str(cost), "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    [
        [f"{p},-1.0" for p in range(200)],  # all negative
        [f"{p},1.0" for p in range(199)] + ["0,1.0"],  # duplicate index
        [f"{p},1.0" for p in range(199)] + ["200,1.0"],  # out-of-range index
    ],
    ids=["negative", "duplicate", "out_of_range"],
)
def test_verify_bad_weights_exit_1(tmp_path, bundle_dir, capsys, rows):
    cost = write_cost(tmp_path)
    wfile = tmp_path / "w.csv"
    wfile.write_text("\n".join(["path,weight"] + rows) + "\n")
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(wfile),
        "--cost", str(cost), "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "error in verify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, doc",
    [
        ("utility.json", {"family": "exponential", "lam": 5.0}),
        ("cost.json", {"gamma": 0.001, "vega_cap": 1.0}),
        ("train.json", {"epochs": 5, "learning_rate": 0.01}),
    ],
)
def test_make_q_unknown_config_key_exit_1(tmp_path, bundle_dir, capsys, name, doc):
    files = {"cost.json": write_cost(tmp_path), "utility.json": write_utility(tmp_path),
             "train.json": write_train(tmp_path)}
    files[name].write_text(json.dumps(doc))
    rc = main([
        "make-q", "--bundle", str(bundle_dir), "--cost", str(files["cost.json"]),
        "--utility", str(files["utility.json"]), "--train", str(files["train.json"]),
        "--out", str(tmp_path / "w.csv"),
    ])
    assert rc == 1
    assert "unknown" in capsys.readouterr().err


def test_hedge_and_robustness(tmp_path, bundle_dir):
    cost = write_cost(tmp_path)
    util = write_utility(tmp_path)
    train_cfg = write_train(tmp_path)
    pay = tmp_path / "payoff.json"
    pay.write_text(json.dumps({
        "kind": "vanilla_call", "rel_strike": 1.0,
        "maturity_steps": 4, "side": -1,
    }))
    out = tmp_path / "hedge.json"
    rc = main([
        "hedge", "--bundle", str(bundle_dir), "--payoff", str(pay),
        "--cost", str(cost), "--utility", str(util),
        "--train", str(train_cfg), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "certainty_equivalent" in doc
    hist = (tmp_path / "hedge.json.pnl_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert sum(int(r.split(",")[2]) for r in hist[1:]) == 200

    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    rob = tmp_path / "rob.json"
    rc = main([
        "robustness", "--bundle", str(bundle_dir), "--weights", str(weights),
        "--payoff", str(pay), "--cost", str(cost), "--utility", str(util),
        "--train", str(train_cfg), "--entropies", "0.0,0.1",
        "--out", str(rob),
    ])
    assert rc == 0
    doc = json.loads(rob.read_text())
    assert [e["c"] for e in doc["entries"]] == [0.0, 0.1]
    assert doc["entries"][0]["delta_p"] == pytest.approx(0.0, abs=1e-12)


def test_missing_params_file(tmp_path, capsys):
    rc = main([
        "simulate", "--params", str(tmp_path / "absent.json"),
        "--paths", "5", "--steps", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "absent.json" in capsys.readouterr().err


def test_demo_small(tmp_path):
    rc = main([
        "--seed", "1", "demo", "--paths", "300", "--steps", "4",
        "--epochs", "20", "--out", str(tmp_path / "demo"),
    ])
    assert rc == 0
    for name in ("params.json", "weights.csv", "drift_uniform.csv",
                 "drift_q.csv", "run.json"):
        assert (tmp_path / "demo" / name).exists()


@pytest.mark.parametrize("text", ["", "r,dlogS\n", "r,dlogS\n0,0.1\n1\n"],
                         ids=["empty", "header_only", "ragged"])
def test_fit_var_bad_history_exit_1(tmp_path, capsys, text):
    hfile = tmp_path / "history.csv"
    hfile.write_text(text)
    rc = main(["fit-var", "--history", str(hfile), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert "history CSV" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"maturities_days": None},
    {"bogus": 1},
    {"strikes": 1.0},
], ids=["missing_key", "unknown_key", "not_a_list"])
def test_simulate_bad_grid_exit_1(tmp_path, params_file, capsys, change):
    doc = {k: v for k, v in {**desk_grid().to_dict(), **change}.items() if v is not None}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    rc = main([
        "simulate", "--params", str(params_file), "--grid", str(grid),
        "--paths", "5", "--steps", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    [{"kind": "spot", "strike": 1.0}],
    {"kind": "spot"},
    [{"kind": "call", "rel_strike": "1.0", "ttm_days": 20}],
], ids=["unknown_key", "not_a_list", "string_strike"])
def test_verify_bad_instruments_exit_1(tmp_path, bundle_dir, capsys, doc):
    cost = write_cost(tmp_path)
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    inst = tmp_path / "instruments.json"
    inst.write_text(json.dumps(doc))
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(weights),
        "--cost", str(cost), "--instruments", str(inst),
        "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "instrument" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"epochs": "5"}, {"seed": True}, {"lr": float("nan")},
                                 {"hidden": [8.5]}])
def test_make_q_bad_config_value_exit_1(tmp_path, bundle_dir, capsys, doc):
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(doc))
    rc = main([
        "make-q", "--bundle", str(bundle_dir), "--cost", str(write_cost(tmp_path)),
        "--utility", str(write_utility(tmp_path)), "--train", str(train_cfg),
        "--out", str(tmp_path / "w.csv"),
    ])
    assert rc == 1
    assert "train config" in capsys.readouterr().err


def write_payoff(d):
    f = d / "payoff.json"
    f.write_text(json.dumps({"kind": "vanilla_call", "rel_strike": 1.0,
                             "maturity_steps": 4, "side": -1}))
    return f


@pytest.mark.parametrize("command, name, edit, key", [
    ("verify", "cost.json", lambda d: {**d, "gamma": float("nan")}, "gamma"),
    ("verify", "cost.json", lambda d: {**d, "gamma": "0.001"}, "gamma"),
    ("make-q", "utility.json", lambda d: {**d, "lambda": float("nan")}, "lambda"),
    ("make-q", "utility.json", lambda d: {**d, "lambda": "1"}, "lambda"),
    ("hedge", "payoff.json", lambda d: {**d, "rel_strike": "1.0"}, "rel_strike"),
    ("hedge", "payoff.json", lambda d: {**d, "maturity_steps": "4"}, "maturity_steps"),
    ("hedge", "payoff.json", lambda d: {**d, "side": 1.0}, "side"),
    ("hedge", "payoff.json", lambda d: {"kind": "custom_table", "table": ["1"] * 200}, "table"),
    ("simulate", "params.json", lambda d: {}, "dim"),
    ("verify", "b/meta.json", lambda d: {**d, "n_paths": "200"}, "n_paths"),
    ("verify", "b/meta.json", lambda d: {**d, "n_steps": 2.5}, "n_steps"),
    ("verify", "b/meta.json", lambda d: {**d, "n_steps": -1}, "n_steps"),
    ("verify", "b/meta.json", lambda d: {**d, "seed": "0"}, "seed"),
    ("verify", "b/meta.json", lambda d: {**d, "has_weights": "no"}, "has_weights"),
], ids=["cost_nan_gamma", "cost_string_gamma", "utility_nan_lambda", "utility_string_lambda",
        "payoff_string_strike", "payoff_string_maturity", "payoff_float_side",
        "payoff_string_table", "params_empty", "meta_string_paths", "meta_float_steps",
        "meta_negative_steps", "meta_string_seed", "meta_string_has_weights"])
def test_bad_input_value_exit_1(tmp_path, params_file, bundle_dir, capsys, command, name, edit,
                                key):
    shutil.copytree(bundle_dir, tmp_path / "b")
    shutil.copy(params_file, tmp_path / "params.json")
    cost, util, pay = write_cost(tmp_path), write_utility(tmp_path), write_payoff(tmp_path)
    train_cfg = write_train(tmp_path)
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    f = tmp_path / name
    f.write_text(json.dumps(edit(json.loads(f.read_text()))))
    b, out = str(tmp_path / "b"), str(tmp_path / "out")
    argv = {
        "simulate": ["simulate", "--params", str(f), "--paths", "5", "--steps", "2",
                     "--out", out],
        "make-q": ["make-q", "--bundle", b, "--cost", str(cost), "--utility", str(util),
                   "--train", str(train_cfg), "--out", out],
        "verify": ["verify", "--bundle", b, "--weights", str(weights), "--cost", str(cost),
                   "--report", out],
        "hedge": ["hedge", "--bundle", b, "--payoff", str(pay), "--cost", str(cost),
                  "--utility", str(util), "--train", str(train_cfg), "--out", out],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error in {command}" in err
    assert key in err


def test_verify_unreadable_weights_exit_1(tmp_path, bundle_dir, capsys):
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(tmp_path),
        "--cost", str(write_cost(tmp_path)), "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "error in verify" in capsys.readouterr().err
