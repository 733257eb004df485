import hashlib
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from driftless.cli import _instruments, main
from driftless.errors import DriftlessError
from driftless.frictions import CostSpec
from driftless.hedging import PayoffSpec, payoff
from driftless.market import read_json, read_weights_csv, write_json, write_weights_csv
from driftless.oce import Utility
from driftless.surface import DlvGrid
from driftless.trainer import Mlp, Solution, train
from driftless.var_model import (
    VarParams,
    desk_grid,
    desk_params,
    simulate,
    stationary_init,
)

from oracles import synthetic_history, write_history_csv


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("params")
    p = d / "params.json"
    write_json(p, desk_params(desk_grid()).to_dict())
    return p


@pytest.fixture(scope="module")
def history_file(tmp_path_factory):
    grid = desk_grid()
    p = tmp_path_factory.mktemp("history") / "history.csv"
    write_history_csv(p, synthetic_history(desk_params(grid), 300, seed=1), grid)
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


def write_payoff(d):
    f = d / "payoff.json"
    f.write_text(json.dumps({"kind": "vanilla_call", "rel_strike": 1.0,
                             "maturity_steps": 4, "side": -1}))
    return f


def test_fit_var_round_trip(tmp_path):
    params = desk_params(desk_grid())
    hist = synthetic_history(params, 4000, seed=1)
    hfile = tmp_path / "history.csv"
    write_history_csv(hfile, hist, desk_grid())
    out = tmp_path / "fitted.json"
    assert main(["fit-var", "--history", str(hfile), "--out", str(out)]) == 0
    fitted = VarParams.from_dict(read_json(out))
    assert fitted.a1.shape == params.a1.shape
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["stage"] == "fit-var"
    assert str(hfile) in manifest["inputs"]


def test_fit_var_then_simulate(tmp_path):
    """A VAR fitted to a short history starts simulate at its own stationary
    log-vol mean, inside the vol ceiling."""
    grid = desk_grid()
    hfile = tmp_path / "history.csv"
    write_history_csv(hfile, synthetic_history(desk_params(grid), 600, seed=1), grid)
    fitted = tmp_path / "fitted.json"
    assert main(["fit-var", "--history", str(hfile), "--out", str(fitted)]) == 0
    rc = main(["simulate", "--params", str(fitted), "--paths", "20", "--steps", "3",
               "--out", str(tmp_path / "b")])
    assert rc == 0


def test_simulate_deterministic(tmp_path, params_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main([
            "--seed", "3", "simulate", "--params", str(params_file),
            "--paths", "50", "--steps", "3", "--out", str(out),
        ])
        assert rc == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["stage"] == "simulate"


def test_bundle_directory_holds_only_the_bundle(bundle_dir):
    """simulate writes its run.json beside the bundle directory, which
    holds exactly meta.json and paths.csv; the manifest lists those two."""
    assert sorted(p.name for p in bundle_dir.iterdir()) == ["meta.json", "paths.csv"]
    manifest = json.loads((bundle_dir.parent / "run.json").read_text())
    assert manifest["outputs"] == [str(bundle_dir / f) for f in ("meta.json", "paths.csv")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_make_q_non_finite_epoch_exit_2(tmp_path, bundle_dir, capsys):
    """One full-batch step at lr 1e200 makes the epoch's full-sample
    objective non-finite: a numerical failure, exit 2, and nothing is
    written."""
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 1, "lr": 1e200, "seed": 0}))
    out = tmp_path / "out"
    rc = main([
        "make-q", "--bundle", str(bundle_dir), "--cost", str(write_cost(tmp_path)),
        "--utility", str(write_utility(tmp_path)), "--train", str(train_cfg),
        "--out", str(out / "weights.csv"),
    ])
    assert rc == 2
    assert "full-sample objective is" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command, names, rest", [
    ("fit-var", ["history"], ["--out", "p.json"]),
    ("simulate", ["params", "grid"], ["--paths", "5", "--steps", "2", "--out", "b"]),
    ("make-q", ["bundle", "cost", "utility", "train", "instruments"], ["--out", "w.csv"]),
    ("verify", ["bundle", "weights", "cost", "instruments"], ["--report", "r"]),
    ("hedge", ["bundle", "payoff", "cost", "utility", "weights", "train", "instruments"],
     ["--out", "h.json"]),
    ("robustness", ["bundle", "weights", "payoff", "cost", "utility", "train", "instruments"],
     ["--out", "r.json"]),
], ids=["fit-var", "simulate", "make-q", "verify", "hedge", "robustness"])
def test_manifest_hashes_every_input(tmp_path, params_file, history_file, bundle_dir, command,
                                     names, rest):
    """run.json's inputs are exactly the files passed plus the bundle's
    files, each with its sha256."""
    grid = desk_grid()
    files = {"params": params_file, "cost": write_cost(tmp_path),
             "utility": write_utility(tmp_path), "train": write_train(tmp_path, epochs=2),
             "payoff": write_payoff(tmp_path), "history": history_file,
             "grid": tmp_path / "grid.json", "weights": tmp_path / "w.csv",
             "instruments": tmp_path / "instruments.json", "bundle": bundle_dir}
    files["grid"].write_text(json.dumps(grid.to_dict()))
    write_weights_csv(files["weights"], np.ones(200))
    files["instruments"].write_text(json.dumps([
        {"kind": "spot"}, {"kind": "call", "rel_strike": 1.0, "ttm_days": 20},
    ]))
    out = tmp_path / "out"
    argv = [command] + [a for n in names for a in (f"--{n}", str(files[n]))]
    assert main(argv + rest[:-1] + [str(out / rest[-1])]) == 0
    read = [files[n] for n in names if n != "bundle"]
    if "bundle" in names:
        read += [files["bundle"] / f for f in ("meta.json", "paths.csv")]
    inputs = json.loads((out / "run.json").read_text())["inputs"]
    assert inputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in read}


@pytest.mark.parametrize("text", ["nan", "abc", "-0.1", ""],
                         ids=["nan", "abc", "negative", "empty"])
def test_robustness_bad_entropies_exit_1_before_any_work(tmp_path, bundle_dir, monkeypatch,
                                                         capsys, text):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before --entropies was checked")

    monkeypatch.setattr("driftless.cli.read_bundle", unreachable)
    monkeypatch.setattr("driftless.cli.deep_hedge", unreachable)
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    rc = main([
        "robustness", "--bundle", str(bundle_dir), "--weights", str(weights),
        "--payoff", str(write_payoff(tmp_path)), "--cost", str(write_cost(tmp_path)),
        "--utility", str(write_utility(tmp_path)), "--entropies", text,
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "--entropies" in capsys.readouterr().err


def test_robustness_unreachable_entropy_exit_1(tmp_path, bundle_dir, capsys):
    """A tilt of the 200-path P&L cannot reach an entropy of log 200 = 5.3
    or more: an entropy of 6 exits 1 and names the target and the bound."""
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    rc = main([
        "robustness", "--bundle", str(bundle_dir), "--weights", str(weights),
        "--payoff", str(write_payoff(tmp_path)), "--cost", str(write_cost(tmp_path)),
        "--utility", str(write_utility(tmp_path)), "--train", str(write_train(tmp_path)),
        "--entropies", "0.05,6", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "entropy target 6.0 unreachable" in err
    assert "log(n/k)" in err


def test_seed_overrides_train_file(tmp_path, bundle_dir):
    train_cfg = write_train(tmp_path, epochs=2)
    assert json.loads(train_cfg.read_text())["seed"] == 0
    rc = main([
        "--seed", "5", "make-q", "--bundle", str(bundle_dir), "--cost", str(write_cost(tmp_path)),
        "--utility", str(write_utility(tmp_path)), "--train", str(train_cfg),
        "--out", str(tmp_path / "w.csv"),
    ])
    assert rc == 0
    assert json.loads((tmp_path / "run.json").read_text())["seed"] == 5
    solution = json.loads((tmp_path / "w.csv.solution.json").read_text())
    assert solution["config"]["seed"] == 5


def test_verify_missing_weights_is_validation_error(tmp_path, bundle_dir, capsys):
    cost = write_cost(tmp_path)
    missing = tmp_path / "nope.csv"
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(missing),
        "--cost", str(cost), "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


def test_verify_oversized_bundle_exit_1(tmp_path, bundle_dir, capsys):
    b = tmp_path / "b"
    shutil.copytree(bundle_dir, b)
    meta = b / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "n_paths": 10**12}))
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    rc = main([
        "verify", "--bundle", str(b), "--weights", str(weights),
        "--cost", str(write_cost(tmp_path)), "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "fewer than the" in capsys.readouterr().err


def test_simulate_too_many_paths_exit_1(tmp_path, params_file, capsys):
    """10^12 paths fail at their first allocation: a MemoryError is a clean
    exit 1, and nothing is written."""
    out = tmp_path / "o"
    rc = main(["simulate", "--params", str(params_file), "--paths", str(10**12),
               "--steps", "10", "--out", str(out)])
    assert rc == 1
    assert "error in simulate" in capsys.readouterr().err
    assert not out.exists()


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


def _verify_edited_bundle(tmp_path, bundle_dir, column, value):
    """Run verify on a copy of the bundle whose paths.csv line 8 has
    ``value`` in ``column``; returns the exit code."""
    b = tmp_path / "b"
    shutil.copytree(bundle_dir, b)
    lines = (b / "paths.csv").read_text().splitlines()
    fields = lines[7].split(",")
    fields[column] = value
    lines[7] = ",".join(fields)
    (b / "paths.csv").write_text("\n".join(lines) + "\n")
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    return main([
        "verify", "--bundle", str(b), "--weights", str(weights),
        "--cost", str(write_cost(tmp_path)), "--report", str(tmp_path / "r"),
    ])


def test_verify_negative_dlv_exit_1(tmp_path, bundle_dir, capsys):
    assert _verify_edited_bundle(tmp_path, bundle_dir, -1, "-0.2") == 1
    err = capsys.readouterr().err
    assert "paths.csv line 8" in err
    assert "least DLV -0.2" in err


def test_verify_overflowing_dlv_exit_1(tmp_path, bundle_dir, capsys):
    """A finite DLV whose square overflows is refused by the reader's domain
    check, which names the file, the line and the DLV, before any price
    solve."""
    assert _verify_edited_bundle(tmp_path, bundle_dir, -1, "1e200") == 1
    err = capsys.readouterr().err
    assert "paths.csv line 8" in err
    assert "largest DLV 1e+200" in err


@pytest.mark.parametrize("value", ["-1.0", "0.0", "nan", "inf"])
def test_verify_bad_spot_exit_1(tmp_path, bundle_dir, capsys, value):
    assert _verify_edited_bundle(tmp_path, bundle_dir, 2, value) == 1
    err = capsys.readouterr().err
    assert "paths.csv line 8" in err
    assert f"spot {float(value)!r}" in err


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


def test_every_json_artefact_has_one_layout(tmp_path, history_file, bundle_dir):
    """Every JSON file that fit-var, simulate, make-q, verify, hedge,
    robustness and demo write, each run.json included, is indented by two
    with sorted keys: the layout of market.write_json."""
    b, out = str(bundle_dir), tmp_path / "out"
    cost, util, pay = (str(write_cost(tmp_path)), str(write_utility(tmp_path)),
                       str(write_payoff(tmp_path)))
    train_cfg = str(write_train(tmp_path, epochs=5))
    write_weights_csv(tmp_path / "w.csv", np.ones(200))
    runs = [
        ["fit-var", "--history", str(history_file), "--out", out / "fit" / "params.json"],
        ["make-q", "--bundle", b, "--cost", cost, "--utility", util, "--train", train_cfg,
         "--out", out / "make-q" / "weights.csv"],
        ["verify", "--bundle", b, "--weights", tmp_path / "w.csv", "--cost", cost,
         "--report", out / "verify" / "report"],
        ["hedge", "--bundle", b, "--payoff", pay, "--cost", cost, "--utility", util,
         "--train", train_cfg, "--out", out / "hedge" / "hedge.json"],
        ["robustness", "--bundle", b, "--weights", tmp_path / "w.csv", "--payoff", pay,
         "--cost", cost, "--utility", util, "--train", train_cfg, "--entropies", "0.1",
         "--out", out / "robustness" / "rob.json"],
        ["demo", "--paths", "100", "--steps", "3", "--epochs", "5", "--out", out / "demo"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    written = sorted(out.rglob("*.json")) + [bundle_dir / "meta.json",
                                              bundle_dir.parent / "run.json"]
    assert sorted(str(p.relative_to(out)) for p in written[:-2]) == sorted(
        [f"{d}/run.json" for d in ("fit", "make-q", "verify", "hedge", "robustness", "demo")]
        + ["fit/params.json", "make-q/weights.csv.solution.json", "verify/report.json",
           "hedge/hedge.json", "robustness/rob.json", "demo/params.json",
           "demo/weights.csv.solution.json", "demo/drift_uniform.json", "demo/drift_q.json",
           "demo/bundle/meta.json"])
    for p in written:
        text = p.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), p


def test_json_input_that_does_not_parse_exit_1(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text("{not json")
    rc = main(["simulate", "--params", str(params), "--paths", "5", "--steps", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"error in simulate: {params}:" in capsys.readouterr().err


def test_simulate_initial_vol_above_ceiling_exit_2(tmp_path, capsys):
    """The README's d = 2 params.json with b[1] = 20 starts the DLV at its
    stationary level, about 14, above SIGMA_MAX: a numerical failure, exit
    2, and no bundle written."""
    params, grid = tmp_path / "params.json", tmp_path / "grid.json"
    params.write_text(json.dumps({"a1": [[0.0, 0.0], [0.0, -239.4]],
                                  "a2": [[0.0, 0.0], [0.0, -5.04]], "b": [0.18, 20.0],
                                  "chol": [[0.2, 0.0], [-0.159, 0.275]]}))
    grid.write_text(json.dumps({"strikes": [1.0], "maturities_days": [20]}))
    out = tmp_path / "o"
    rc = main(["simulate", "--params", str(params), "--grid", str(grid), "--paths", "5",
               "--steps", "2", "--out", str(out)])
    assert rc == 2
    assert "initial state breaches the vol ceiling" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two_to_64"])
def test_simulate_seed_outside_key_range_exit_1(tmp_path, params_file, capsys, seed):
    """The generator keys on the seed mod 2^64, so a seed outside [0, 2^64)
    would give another seed's paths under its own name: exit 1, and nothing
    is written."""
    out = tmp_path / "o"
    rc = main(["--seed", str(seed), "simulate", "--params", str(params_file),
               "--paths", "5", "--steps", "2", "--out", str(out)])
    assert rc == 1
    assert "simulate seed" in capsys.readouterr().err
    assert not out.exists()


def test_missing_params_file(tmp_path, capsys):
    rc = main([
        "simulate", "--params", str(tmp_path / "absent.json"),
        "--paths", "5", "--steps", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "absent.json" in capsys.readouterr().err


def test_demo_small(tmp_path, monkeypatch):
    """The demo writes every artefact, run.json lists them, and its
    solution file loads with the trained solution's y* and objective."""
    trained = []

    def recording_train(*args):
        trained.append(train(*args))
        return trained[-1]

    monkeypatch.setattr("driftless.cli.train", recording_train)
    rc = main([
        "--seed", "1", "demo", "--paths", "300", "--steps", "4",
        "--epochs", "20", "--out", str(tmp_path / "demo"),
    ])
    assert rc == 0
    names = ["params.json", "weights.csv", "weights.csv.solution.json", "drift_uniform.csv",
             "drift_uniform.json", "drift_q.csv", "drift_q.json"]
    for name in names + ["run.json"]:
        assert (tmp_path / "demo" / name).exists()
    outputs = json.loads((tmp_path / "demo" / "run.json").read_text())["outputs"]
    assert outputs == sorted(str(tmp_path / "demo" / name) for name in names)
    sol = Solution.from_dict(read_json(tmp_path / "demo" / "weights.csv.solution.json"))
    assert (sol.y_star, sol.objective_value) == (trained[0].y_star, trained[0].objective_value)


def test_demo_stages_reproduce_its_artefacts(tmp_path):
    """make-q and verify, run on the demo's bundle with the demo's cost,
    utility, instruments and train settings, write the demo's weights,
    solution and both drift reports byte for byte."""
    demo, bundle = tmp_path / "demo", str(tmp_path / "demo" / "bundle")
    assert main(["--seed", "2", "demo", "--paths", "300", "--steps", "4", "--epochs", "20",
                 "--out", str(demo)]) == 0
    cost = str(write_cost(tmp_path))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 20, "seed": 2}))
    out = tmp_path / "stages"
    assert main(["make-q", "--bundle", bundle, "--cost", cost,
                 "--utility", str(write_utility(tmp_path)), "--train", str(train_cfg),
                 "--out", str(out / "weights.csv")]) == 0
    write_weights_csv(tmp_path / "ones.csv", np.ones(300))
    for weights, stem in ((tmp_path / "ones.csv", "drift_uniform"),
                          (out / "weights.csv", "drift_q")):
        assert main(["verify", "--bundle", bundle, "--weights", str(weights), "--cost", cost,
                     "--report", str(out / stem)]) == 0
    for name in ("weights.csv", "weights.csv.solution.json", "drift_uniform.csv",
                 "drift_uniform.json", "drift_q.csv", "drift_q.json"):
        assert (out / name).read_bytes() == (demo / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["demo", "--paths", "50", "--steps", "3", "--epochs", "0"],
    ["demo", "--paths", "0", "--steps", "3", "--epochs", "5"],
    ["--seed", "-1", "demo", "--paths", "50", "--steps", "3", "--epochs", "1"],
], ids=["zero_epochs", "zero_paths", "negative_seed"])
def test_demo_bad_argument_writes_nothing(tmp_path, argv):
    out = tmp_path / "demo"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists() or list(out.rglob("*")) == []


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
    [],
    [{"kind": "spot", "rel_strike": 1.05, "ttm_days": 20}],
    [{"kind": "spot", "ttm_days": 20}],
], ids=["unknown_key", "not_a_list", "string_strike", "empty", "spot_strike_ttm", "spot_ttm"])
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
                                 {"hidden": [8.5]}, {"lr_decay": -1}, {"lr_decay": 0},
                                 {"seed": -1}, {"lr": 10**400}, {"hidden": 64}])
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


@pytest.mark.parametrize("command, name, edit, key", [
    ("verify", "cost.json", lambda d: {**d, "gamma": float("nan")}, "gamma"),
    ("verify", "cost.json", lambda d: {**d, "gamma": "0.001"}, "gamma"),
    ("make-q", "utility.json", lambda d: {**d, "lambda": float("nan")}, "lambda"),
    ("make-q", "utility.json", lambda d: {**d, "lambda": "1"}, "lambda"),
    ("make-q", "utility.json", lambda d: {"family": "adjusted_mean_vol", "lambda": 1e300},
     "lambda"),
    ("hedge", "payoff.json", lambda d: {**d, "rel_strike": "1.0"}, "rel_strike"),
    ("hedge", "payoff.json", lambda d: {**d, "maturity_steps": "4"}, "maturity_steps"),
    ("hedge", "payoff.json", lambda d: {**d, "side": 1.0}, "side"),
    ("hedge", "payoff.json", lambda d: {"kind": "custom_table", "table": ["1"] * 200}, "table"),
    ("simulate", "params.json", lambda d: {}, "lacks required key"),
    ("simulate", "params.json", lambda d: {**d, "dt": 0}, "dt"),
    ("simulate", "params.json", lambda d: {**d, "dt": -0.004}, "dt"),
    ("simulate", "params.json", lambda d: {**d, "a1": [*d["a1"][:-1], d["a1"][-1][:-1]]}, "'a1'"),
    ("simulate", "params.json", lambda d: {**d, "b": ["abc", *d["b"][1:]]}, "'b'"),
    ("simulate", "params.json", lambda d: {**d, "chol": np.transpose(d["chol"]).tolist()},
     "'chol'"),
    ("verify", "b/meta.json", lambda d: {**d, "n_paths": "200"}, "n_paths"),
    ("verify", "b/meta.json", lambda d: {**d, "n_steps": 2.5}, "n_steps"),
    ("verify", "b/meta.json", lambda d: {**d, "n_steps": -1}, "n_steps"),
    ("verify", "b/meta.json", lambda d: {**d, "seed": "0"}, "seed"),
    ("verify", "b/meta.json", lambda d: {**d, "has_weights": "no"}, "has_weights"),
    ("verify", "b/meta.json", lambda d: {**d, "seed": -5}, "'seed' must lie in [0, 2**64)"),
    ("fit-var", "history.csv", lambda t: t.replace("\n1,", "\n0,", 1), "repeated"),
    ("fit-var", "history.csv",
     lambda t: "\n".join(line for i, line in enumerate(t.splitlines()) if i != 2),
     "lacks row ['r'] [1]"),
    ("fit-var", "history.csv",
     lambda t: "\n".join(line.split(",")[0] for line in t.splitlines()), "Y column"),
    ("hedge", "payoff.json", lambda d: {k: v for k, v in d.items() if k != "maturity_steps"},
     "maturity_steps"),
], ids=["cost_nan_gamma", "cost_string_gamma", "utility_nan_lambda", "utility_string_lambda",
        "utility_lambda_square_overflows", "payoff_string_strike", "payoff_string_maturity",
        "payoff_float_side", "payoff_string_table", "params_empty", "params_zero_dt",
        "params_negative_dt", "params_ragged_a1", "params_string_b", "params_upper_chol",
        "meta_string_paths", "meta_float_steps", "meta_negative_steps", "meta_string_seed",
        "meta_string_has_weights", "meta_negative_seed", "history_repeated_r", "history_missing_r",
        "history_no_y_columns", "payoff_no_maturity"])
def test_bad_input_value_exit_1(tmp_path, params_file, history_file, bundle_dir, capsys, command,
                                name, edit, key):
    """Each edit of a JSON file or, for the history, of the CSV text exits 1
    with a message naming ``key``."""
    shutil.copytree(bundle_dir, tmp_path / "b")
    shutil.copy(params_file, tmp_path / "params.json")
    shutil.copy(history_file, tmp_path / "history.csv")
    cost, util, pay = write_cost(tmp_path), write_utility(tmp_path), write_payoff(tmp_path)
    train_cfg = write_train(tmp_path)
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    f = tmp_path / name
    if name.endswith(".json"):
        f.write_text(json.dumps(edit(json.loads(f.read_text()))))
    else:
        f.write_text(edit(f.read_text()))
    b, out = str(tmp_path / "b"), str(tmp_path / "out")
    argv = {
        "fit-var": ["fit-var", "--history", str(f), "--out", out],
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


@pytest.mark.parametrize("command, option, doc, kind", [
    ("simulate", "params", [], "VAR params"),
    ("simulate", "grid", [], "grid"),
    ("verify", "cost", [], "cost spec"),
    ("make-q", "utility", [], "utility"),
    ("hedge", "payoff", [], "payoff"),
    ("make-q", "train", [], "train config"),
    ("verify", "instruments", {}, "instruments"),
])
def test_json_input_of_wrong_type_exit_1(tmp_path, params_file, bundle_dir, capsys, command,
                                         option, doc, kind):
    """A JSON input that holds the wrong JSON type exits 1 with a message
    naming the input's kind, and writes nothing."""
    weights = tmp_path / "w.csv"
    write_weights_csv(weights, np.ones(200))
    files = {"params": params_file, "bundle": bundle_dir, "weights": weights,
             "cost": write_cost(tmp_path), "utility": write_utility(tmp_path),
             "payoff": write_payoff(tmp_path), "train": write_train(tmp_path),
             option: tmp_path / "bad.json"}
    files[option].write_text(json.dumps(doc))
    out = tmp_path / "out"
    options, rest = {
        "simulate": (("params", "grid"), ["--paths", "5", "--steps", "2", "--out", out / "b"]),
        "verify": (("bundle", "weights", "cost", "instruments"), ["--report", out / "r"]),
        "make-q": (("bundle", "cost", "utility", "train"), ["--out", out / "w.csv"]),
        "hedge": (("bundle", "payoff", "cost", "utility"), ["--out", out / "h.json"]),
    }[command]
    argv = [command, *(a for n in options if n in files for a in (f"--{n}", files[n])), *rest]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"error in {command}" in err and kind in err
    assert not out.exists()


def test_verify_unreadable_weights_exit_1(tmp_path, bundle_dir, capsys):
    rc = main([
        "verify", "--bundle", str(bundle_dir), "--weights", str(tmp_path),
        "--cost", str(write_cost(tmp_path)), "--report", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "error in verify" in capsys.readouterr().err


def _instruments_from(doc):
    """The instruments that ``--instruments`` parses from ``doc``."""
    return _instruments(doc)


def _custom_payoff(doc):
    return payoff(PayoffSpec.from_dict(doc), SimpleNamespace(n_paths=3))


# VAR params of dim 2: the spot return and one log vol
_PARAMS_2 = {"a1": [[0.0, 0.0], [0.0, 0.0]],
             "a2": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0], "chol": [[0.2, 0.0], [0.0, 0.1]]}
_GRID_1X1 = DlvGrid(strikes=(1.0,), maturities=(20 / 252,))


def _params_from(changes):
    """VarParams parsed from _PARAMS_2 with ``changes``."""
    return VarParams.from_dict({**_PARAMS_2, **changes})


def _simulate(changes):
    """simulate the _PARAMS_2 market on a 1x1 grid, with ``changes`` to its
    keyword arguments."""
    params = _params_from({})
    kwargs = {"n_paths": 2, "n_steps": 1, "seed": 0, "grid": _GRID_1X1, **changes}
    return simulate(params, stationary_init(params), **kwargs)


@pytest.mark.parametrize("reader, doc", [
    (Utility.from_dict, {"family": "power"}),
    (Utility.from_dict, {"family": "exponential", "lambda": 0.0}),
    (PayoffSpec.from_dict, {"kind": "barrier"}),
    (PayoffSpec.from_dict, {"kind": "vanilla_call", "rel_strike": -1.0}),
    (PayoffSpec.from_dict, {"kind": "vanilla_put", "side": 2}),
    (_custom_payoff, {"kind": "custom_table", "table": [1.0, 2.0]}),
    (DlvGrid.from_dict, {"strikes": [1.1, 0.9], "maturities_days": [20]}),
    (DlvGrid.from_dict, {"strikes": [0.9, 1.1], "maturities_days": [40, 20]}),
    (DlvGrid.from_dict, {"strikes": [0.9, 1.1], "maturities_days": [20], "boundary_lo": 0.95}),
    (DlvGrid.from_dict, {"strikes": [0.9, 1.1], "maturities_days": [20], "boundary_hi": 1.05}),
    (_instruments_from, [{"kind": "future"}]),
    (_instruments_from, [{"kind": "call", "rel_strike": 0.0, "ttm_days": 20}]),
    (_instruments_from, [{"kind": "put", "rel_strike": 0.95, "ttm_days": 0}]),
    (CostSpec.from_dict, {"gamma": -0.1}),
    (_params_from, {"chol": [[0.2, 0.1], [0.0, 0.1]]}),
    (_params_from, {"a1": [[0.0, 0.0], [0.0]]}),
    (_params_from, {"b": ["abc", 0.0]}),
    (_params_from, {"b": [float("nan"), 0.0]}),
    (_params_from, {"dim": 3}),
    (_simulate, {"n_paths": 0}),
    (_simulate, {"grid": DlvGrid(strikes=(0.95, 1.05), maturities=(20 / 252,))}),
    (_params_from, {"b": 0.0}),
    (_params_from, {"b": [[0.0], [0.0]]}),  # a column: its length would pass for dim 2
    (_params_from, {"a2": [[0.0]]}),
    (Mlp.from_dict, {"weights": {}, "biases": []}),
    (_simulate, {"n_paths": 10.5}),
    (_simulate, {"n_paths": "4"}),
])
def test_bad_config_raises_package_error(reader, doc):
    """A config that parses but breaks a domain rule raises a package
    error (an InputError, so the CLI exits 1), not a bare ValueError."""
    with pytest.raises(DriftlessError):
        reader(doc)
