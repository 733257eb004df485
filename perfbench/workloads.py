"""The three benchmark workloads, their output checks and digests.

Every call into the package goes through a module attribute
(``var_model.simulate``, not a name imported into this file), so spans
patched onto the package modules see the benchmark's own calls too.
Checks and digests run after the timed region of an iteration.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time

import numpy as np

import driftless.cli as cli
import driftless.market as market
import driftless.measure as measure
import driftless.trainer as trainer
import driftless.var_model as var_model
from driftless.frictions import CostSpec
from driftless.oce import Utility

clock = time.perf_counter

INSTRUMENTS = cli.default_instruments()
SPEC = CostSpec(gamma_prop=0.001, mode="marginal")
UTILITY = Utility("exponential", 1.0)
# the acceptance suite's desk configuration
DESK_CFG = trainer.TrainConfig(epochs=60, batch_size=1000, lr=0.005, lr_decay=0.99, seed=0)
DESK_SEED = 7  # the acceptance suite's desk seed; A3 is asserted on it

CLI_INPUTS = {
    "payoff.json": {"kind": "digital_call", "rel_strike": 1.0, "maturity_steps": 10, "side": -1},
    "cost.json": {"gamma": 0.001, "mode": "marginal"},
    "utility.json": {"family": "exponential", "lambda": 1.0},
    "train.json": {"epochs": 60, "lr": 0.01, "lr_decay": 0.995},
}
CLI_DEMO_ARTEFACTS = (
    "params.json", "bundle/meta.json", "bundle/paths.csv", "weights.csv",
    "drift_uniform.csv", "drift_q.csv", "drift_q.json", "run.json",
)
CLI_ROBUSTNESS_ARTEFACTS = ("robustness.json", "run.json")


def sha256_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def q_quality(u_failed, q_report, weights):
    """Deterministic quality counters of a Q* on one seed."""
    w = np.asarray(weights, dtype=float)
    return {
        "u_rows_failed": u_failed,
        "q_rows_failed": q_report["rows_failed"],
        "bucket_rows_failed": q_report["bucket_rows_failed"],
        "ess_frac": float(w.sum() ** 2 / (w.size * np.dot(w, w))),
        "max_weight": float(w.max()),
    }


def report_counts(report):
    return {
        "rows": len(report.rows),
        "rows_failed": report.n_failed,
        "bucket_rows_failed": sum(not r.passed for _, r in report.bucket_rows),
    }


def drift_checks(seed, u_failed, q_failed, n_rows):
    """The A3 condition: uniform weights fail at least one row and, on the
    acceptance seed, Q* passes every row.  The acceptance suite asserts
    the Q* half on seed 7 only; on other seeds the desk Q* is not a
    near-martingale on every seed (seed 8 fails 10/40 rows), so there only
    fewer failed rows than under uniform weights is checked."""
    checks = [("uniform fails >= 1 row", u_failed >= 1), ("40 drift rows", n_rows == 40),
              ("Q* fails fewer rows than uniform", q_failed < u_failed)]
    if seed == DESK_SEED:
        checks.append(("Q* fails 0 rows (A3, seed 7)", q_failed == 0))
    return checks


class Context:
    """The desk market every workload runs on."""

    def __init__(self, grid, params, init):
        self.grid, self.params, self.init = grid, params, init


def setup():
    """Calibrate the desk market and warm every stage on a tiny sample."""
    grid = var_model.desk_grid()
    params = var_model.desk_params(grid)
    init = var_model.stationary_init(params)
    bundle = var_model.simulate(params, init, 64, 10, seed=0, grid=grid)
    returns = market.build_returns(bundle, INSTRUMENTS)
    cfg = trainer.TrainConfig(epochs=2, batch_size=32, lr=0.005, seed=0)
    sol = trainer.train(bundle, returns, SPEC, UTILITY, cfg)
    dw = measure.density(sol, bundle, returns, SPEC, UTILITY)
    measure.verify_drift(bundle, returns, dw.weights, SPEC)
    return Context(grid, params, init)


class Outcome:
    """What one iteration produced: stage times, outputs to check, and the
    size of its bundle in path-steps."""

    def __init__(self, path_steps):
        self.path_steps = path_steps
        self.times = {}
        self.checks = []
        self.digest = {}
        self.quality = {}
        self.notes = {}


# -- desk ------------------------------------------------------------------

def run_desk(ctx, seed, work):
    out = Outcome(10_000 * 10)
    t0 = clock()
    bundle = var_model.simulate(ctx.params, ctx.init, 10_000, 10, seed=seed, grid=ctx.grid)
    returns = market.build_returns(bundle, INSTRUMENTS)
    sol = trainer.train(bundle, returns, SPEC, UTILITY, DESK_CFG)
    dw = measure.density(sol, bundle, returns, SPEC, UTILITY)
    rep_u = measure.verify_drift(bundle, returns, np.ones(bundle.n_paths), SPEC)
    rep_q = measure.verify_drift(bundle, returns, dw.weights, SPEC)
    t1 = clock()
    out.times = {"wall_s": t1 - t0, "time_to_q_s": t1 - t0}

    u, q = report_counts(rep_u), report_counts(rep_q)
    w = dw.weights
    out.checks = drift_checks(seed, u["rows_failed"], q["rows_failed"], q["rows"]) + [
        ("Q* weights positive", bool(np.all(w > 0))),
        ("Q* weights mean 1", abs(float(w.mean()) - 1.0) <= 1e-9),
        ("objective finite", bool(np.isfinite(sol.objective_value))),
        ("objective improves after epoch 0", max(sol.trace) > sol.trace[0]),
    ]
    out.digest = {
        "bundle": sha256_arrays(bundle.spots, bundle.sigmas, bundle.prices),
        "q_weights": sha256_arrays(w),
    }
    out.quality = q_quality(u["rows_failed"], q, w)
    out.notes = {"objective": sol.objective_value, "best_epoch": int(np.argmax(sol.trace))}
    return out


# -- sim_io ----------------------------------------------------------------

def run_sim_io(ctx, seed, work):
    P, T = 20_000, 10
    out = Outcome(P * T)
    bundle_dir = os.path.join(work, "bundle")
    t0 = clock()
    bundle = var_model.simulate(ctx.params, ctx.init, P, T, seed=seed, grid=ctx.grid)
    market.write_bundle(bundle, bundle_dir)
    back = market.read_bundle(bundle_dir)
    returns = market.build_returns(back, INSTRUMENTS)
    rep_u = measure.verify_drift(back, returns, np.ones(back.n_paths), SPEC)
    t1 = clock()
    out.times = {"wall_s": t1 - t0, "time_to_q_s": t1 - t0}

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    out.checks = [
        ("read spots bit-identical", same(bundle.spots, back.spots)),
        ("read sigmas bit-identical", same(bundle.sigmas, back.sigmas)),
        ("read prices bit-identical", same(bundle.prices, back.prices)),
        ("path and step counts", (back.n_paths, back.n_steps) == (P, T)),
        ("40 drift rows", len(rep_u.rows) == 40),
    ]
    out.digest = {
        "bundle": sha256_arrays(bundle.spots, bundle.sigmas, bundle.prices),
        "bundle_read": sha256_arrays(back.spots, back.sigmas, back.prices),
    }
    out.quality = {
        "u_rows_failed": rep_u.n_failed, "q_rows_failed": 0, "bucket_rows_failed": 0,
        "ess_frac": 0.0, "max_weight": 0.0,
    }
    return out


# -- cli -------------------------------------------------------------------

def prepare_cli(work):
    for name, doc in CLI_INPUTS.items():
        with open(os.path.join(work, name), "w") as fh:
            json.dump(doc, fh)


def _cli(argv, log):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    log.append({"argv": argv, "rc": rc, "output": buf.getvalue().strip()})
    return rc


def _parses(path):
    """True when the artefact exists and parses as JSON or CSV."""
    try:
        with open(path, newline="") as fh:
            if path.endswith(".json"):
                json.load(fh)
                return True
            rows = list(csv.reader(fh))
    except (OSError, ValueError):
        return False
    return len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows)


def run_cli(ctx, seed, work):
    P, T = 2000, 10
    out = Outcome(P * T)
    prepare_cli(work)
    demo, rob = os.path.join(work, "demo"), os.path.join(work, "rob")
    log = []
    t0 = clock()
    rc_demo = _cli(["--seed", str(seed), "demo", "--paths", str(P), "--steps", str(T),
                    "--epochs", "150", "--out", demo], log)
    t1 = clock()
    rc_rob = _cli([
        "robustness", "--bundle", os.path.join(demo, "bundle"),
        "--weights", os.path.join(demo, "weights.csv"),
        "--payoff", os.path.join(work, "payoff.json"),
        "--cost", os.path.join(work, "cost.json"),
        "--utility", os.path.join(work, "utility.json"),
        "--train", os.path.join(work, "train.json"),
        "--entropies", "0.05,0.5", "--out", os.path.join(rob, "robustness.json"),
    ], log)
    t2 = clock()
    out.times = {"wall_s": t2 - t0, "time_to_q_s": t1 - t0, "time_to_hedge_s": t2 - t1}

    out.checks = [("demo exits 0", rc_demo == 0), ("robustness exits 0", rc_rob == 0)]
    out.checks += [(f"demo/{a} parses", _parses(os.path.join(demo, a))) for a in CLI_DEMO_ARTEFACTS]
    out.checks += [(f"rob/{a} parses", _parses(os.path.join(rob, a))) for a in CLI_ROBUSTNESS_ARTEFACTS]
    out.notes = {"commands": log}
    if not all(ok for _, ok in out.checks):
        return out

    w = market.read_weights_csv(os.path.join(demo, "weights.csv"))
    with open(os.path.join(demo, "drift_q.json")) as fh:
        q_doc = json.load(fh)
    with open(os.path.join(demo, "drift_uniform.csv"), newline="") as fh:
        u_failed = sum(row["pass"] == "0" for row in csv.DictReader(fh))
    q = {
        "rows_failed": sum(not r["pass"] for r in q_doc["rows"]),
        "bucket_rows_failed": sum(not r["pass"] for r in q_doc["buckets"]),
    }
    out.checks.append(("Q* weights positive with mean 1",
                       bool(np.all(w > 0)) and abs(float(w.mean()) - 1.0) <= 1e-9))
    out.checks.append(("Q* fails fewer rows than uniform", q["rows_failed"] < u_failed))
    out.digest = {
        name: sha256_file(os.path.join(work, name))
        for name in ("demo/weights.csv", "demo/bundle/paths.csv", "rob/robustness.json")
    }
    out.quality = q_quality(u_failed, q, w)
    return out


WORKLOADS = {
    "desk": run_desk,
    "sim_io": run_sim_io,
    "cli": run_cli,
}
