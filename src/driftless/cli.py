"""Command-line pipeline: fit -> simulate -> make-q -> verify -> hedge ->
robustness, plus an end-to-end demo.

Every subcommand is deterministic given its inputs and seed.  Every file
it writes goes through ``market.write_text``, so each artifact, run.json
included, is replaced atomically (temp file + rename); a bundle's meta.json
is written after its CSVs.  A run.json manifest records input hashes, the
seed and versions.  Exit codes: 0 success, 1 validation error or unreadable
file, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DriftlessError,
    InputError,
    SimulationError,
    TrainingError,
    check_keys,
    check_number,
)
from .frictions import CostSpec
from .hedging import PayoffSpec, deep_hedge, payoff, robustness_eval
from .market import (
    InstrumentSpec,
    build_returns,
    read_bundle,
    read_json,
    read_weights_csv,
    write_bundle,
    write_csv,
    write_text,
    write_weights_csv,
)
from .measure import density, verify_drift
from .oce import Utility
from .trainer import TrainConfig, train
from .var_model import (
    VarParams,
    desk_grid,
    desk_params,
    fit_var,
    read_history_csv,
    simulate,
    stationary_init,
)
from .surface import DlvGrid


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _bundle_files(directory, bundle):
    """The files ``read_bundle`` read to load ``bundle`` from ``directory``."""
    names = ["meta.json", "paths.csv"] + (["weights.csv"] if bundle.weights is not None else [])
    return [os.path.join(directory, name) for name in names]


def _manifest(out_dir, stage, inputs, outputs, seed=None):
    """Write run.json: the sha256 of each input that is a file (``None``
    stands for an optional input not given), the outputs, seed and versions."""
    doc = {
        "stage": stage,
        "version": __version__,
        "numpy": np.__version__,
        "seed": seed,
        "inputs": {p: _sha256(p) for p in inputs if p is not None and os.path.isfile(p)},
        "outputs": sorted(outputs),
    }
    write_text(os.path.join(out_dir, "run.json"), json.dumps(doc, indent=2, sort_keys=True))


def _load_grid(path):
    return DlvGrid.from_dict(read_json(path))


def _load_instruments(path_or_none):
    if path_or_none is None:
        return default_instruments()
    doc = read_json(path_or_none)
    if not isinstance(doc, list):
        raise InputError("instruments JSON must be a list of instrument objects")
    out = []
    for d in doc:
        check_keys(d, ("kind", "rel_strike", "ttm_days"), "instrument", required=("kind",))
        out.append(InstrumentSpec(
            kind=d["kind"],
            rel_strike=check_number(d.get("rel_strike", 0.0), "instrument rel_strike"),
            ttm_days=check_number(d.get("ttm_days", 0), "instrument ttm_days", integer=True),
        ))
    return out


def default_instruments():
    """Demo hedging set: spot plus ATM calls at 20 and 40 days and a
    95-strike put at 20 days."""
    return [
        InstrumentSpec("spot"),
        InstrumentSpec("call", 1.0, 20),
        InstrumentSpec("call", 1.0, 40),
        InstrumentSpec("put", 0.95, 20),
    ]


def _train_config(args):
    if getattr(args, "train", None):
        return TrainConfig.from_json(args.train)
    return TrainConfig(epochs=300, lr=0.01, lr_decay=0.995, seed=args.seed)


# -- subcommands -----------------------------------------------------------

def cmd_fit_var(args):
    history = read_history_csv(args.history)
    params = fit_var(history, dt=1.0 / 252.0)
    params.to_json(args.out)
    _manifest(os.path.dirname(args.out) or ".", "fit-var", [args.history], [args.out])
    return 0


def cmd_simulate(args):
    params = VarParams.from_json(args.params)
    grid = _load_grid(args.grid) if args.grid else desk_grid()
    init = stationary_init(params)
    bundle = simulate(params, init, args.paths, args.steps, args.seed, grid)
    write_bundle(bundle, args.out)
    _manifest(
        args.out,
        "simulate",
        [args.params, args.grid],
        [os.path.join(args.out, f) for f in ("meta.json", "paths.csv")],
        seed=args.seed,
    )
    return 0


def cmd_make_q(args):
    bundle = read_bundle(args.bundle)
    spec = CostSpec.from_json(args.cost)
    util = Utility.from_json(args.utility)
    instruments = _load_instruments(args.instruments)
    rets = build_returns(bundle, instruments)
    cfg = _train_config(args)
    sol = train(bundle, rets, spec, util, cfg)
    dw = density(sol, bundle, rets, spec, util)
    write_weights_csv(args.out, dw.weights)
    sol_path = args.out + ".solution.json"
    sol.to_json(sol_path)
    _manifest(
        os.path.dirname(args.out) or ".",
        "make-q",
        [args.cost, args.utility, args.train, args.instruments,
         *_bundle_files(args.bundle, bundle)],
        [args.out, sol_path],
        seed=cfg.seed,
    )
    print(
        f"density: raw mean error {dw.mean_error:.4g}, objective "
        f"{sol.objective_value:.6g}"
    )
    return 0


def cmd_verify(args):
    bundle = read_bundle(args.bundle)
    weights = read_weights_csv(args.weights)
    spec = CostSpec.from_json(args.cost)
    instruments = _load_instruments(args.instruments)
    rets = build_returns(bundle, instruments)
    report = verify_drift(bundle, rets, weights, spec)
    report.to_csv(args.report + ".csv")
    report.to_json(args.report + ".json")
    _manifest(
        os.path.dirname(args.report) or ".",
        "verify",
        [args.weights, args.cost, args.instruments, *_bundle_files(args.bundle, bundle)],
        [args.report + ".csv", args.report + ".json"],
    )
    print(f"verify: {len(report.rows) - report.n_failed}/{len(report.rows)} rows pass")
    return 0


def cmd_hedge(args):
    bundle = read_bundle(args.bundle)
    spec = CostSpec.from_json(args.cost)
    util = Utility.from_json(args.utility)
    pay = PayoffSpec.from_json(args.payoff)
    weights = read_weights_csv(args.weights) if args.weights else None
    instruments = _load_instruments(args.instruments)
    rets = build_returns(bundle, instruments)
    z = payoff(pay, bundle)
    cfg = _train_config(args)
    result = deep_hedge(bundle, rets, weights, z, spec, util, cfg)
    result.to_json(args.out)
    counts, edges = np.histogram(result.pnl, bins=60)
    write_csv(args.out + ".pnl_hist.csv", ["bin_lo", "bin_hi", "count"],
              [edges[:-1], edges[1:], counts])
    _manifest(
        os.path.dirname(args.out) or ".",
        "hedge",
        [args.payoff, args.cost, args.utility, args.weights, args.train, args.instruments,
         *_bundle_files(args.bundle, bundle)],
        [args.out, args.out + ".pnl_hist.csv"],
        seed=cfg.seed,
    )
    print(f"hedge CE: {result.certainty_equivalent:.6g}")
    return 0


def cmd_robustness(args):
    bundle = read_bundle(args.bundle)
    spec = CostSpec.from_json(args.cost)
    util = Utility.from_json(args.utility)
    pay = PayoffSpec.from_json(args.payoff)
    q_weights = read_weights_csv(args.weights)
    instruments = _load_instruments(args.instruments)
    rets = build_returns(bundle, instruments)
    z = payoff(pay, bundle)
    cfg = _train_config(args)
    hedge_p = deep_hedge(bundle, rets, None, z, spec, util, cfg)
    hedge_q = deep_hedge(bundle, rets, q_weights, z, spec, util, cfg)
    c_list = [float(c) for c in args.entropies.split(",")]
    report = robustness_eval(
        bundle, rets, hedge_p, hedge_q, z, spec, util, c_list
    )
    write_text(args.out, json.dumps(report, indent=2, sort_keys=True))
    _manifest(
        os.path.dirname(args.out) or ".",
        "robustness",
        [args.payoff, args.cost, args.utility, args.weights, args.train, args.instruments,
         *_bundle_files(args.bundle, bundle)],
        [args.out],
        seed=cfg.seed,
    )
    for e in report["entries"]:
        print(
            f"c={e['c']}: dCE(P-hedge)={e['delta_p']:.6g} "
            f"dCE(Q-hedge)={e['delta_q']:.6g}"
        )
    return 0


def cmd_demo(args):
    """End-to-end pipeline on the synthetic desk-scale market."""
    out = args.out
    grid = desk_grid()
    params = desk_params(grid)
    params.to_json(os.path.join(out, "params.json"))
    bundle = simulate(
        params, stationary_init(params), args.paths, args.steps, args.seed, grid
    )
    bundle_dir = os.path.join(out, "bundle")
    write_bundle(bundle, bundle_dir)

    spec = CostSpec(gamma_prop=0.001, mode="marginal")
    util = Utility("exponential", 1.0)
    instruments = default_instruments()
    rets = build_returns(bundle, instruments)
    cfg = TrainConfig(epochs=args.epochs, lr=0.01, lr_decay=0.995, seed=args.seed)
    sol = train(bundle, rets, spec, util, cfg)
    dw = density(sol, bundle, rets, spec, util)
    write_weights_csv(os.path.join(out, "weights.csv"), dw.weights)

    report_u = verify_drift(bundle, rets, np.ones(bundle.n_paths), spec)
    report_q = verify_drift(bundle, rets, dw.weights, spec)
    report_u.to_csv(os.path.join(out, "drift_uniform.csv"))
    report_q.to_csv(os.path.join(out, "drift_q.csv"))
    report_q.to_json(os.path.join(out, "drift_q.json"))
    _manifest(
        out,
        "demo",
        [],
        [
            os.path.join(out, f)
            for f in (
                "params.json",
                "weights.csv",
                "drift_uniform.csv",
                "drift_q.csv",
                "drift_q.json",
            )
        ],
        seed=args.seed,
    )
    print(
        f"demo: uniform {report_u.n_failed}/{len(report_u.rows)} rows fail; "
        f"Q* {report_q.n_failed}/{len(report_q.rows)} rows fail; "
        f"raw density mean error {dw.mean_error:.4g}"
    )
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="driftless",
        description="Simulate option markets, remove statistical arbitrage by "
        "reweighting, and train drift-robust hedges.",
    )
    p.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit-var", help="fit the VAR(2) model to a Y-history CSV")
    sp.add_argument("--history", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit_var)

    sp = sub.add_parser("simulate", help="simulate a path bundle")
    sp.add_argument("--params", required=True)
    sp.add_argument("--grid", default=None, help="grid JSON (default: demo grid)")
    sp.add_argument("--paths", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("make-q", help="train the statarb policy and emit weights")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--cost", required=True)
    sp.add_argument("--utility", required=True)
    sp.add_argument("--train", default=None)
    sp.add_argument("--instruments", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_make_q)

    sp = sub.add_parser("verify", help="drift-band report for given weights")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--cost", required=True)
    sp.add_argument("--instruments", default=None)
    sp.add_argument("--report", required=True, help="report path stem")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hedge", help="deep-hedge a payoff")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--weights", default=None)
    sp.add_argument("--payoff", required=True)
    sp.add_argument("--cost", required=True)
    sp.add_argument("--utility", required=True)
    sp.add_argument("--train", default=None)
    sp.add_argument("--instruments", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_hedge)

    sp = sub.add_parser("robustness", help="entropy-tilt robustness report")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--payoff", required=True)
    sp.add_argument("--cost", required=True)
    sp.add_argument("--utility", required=True)
    sp.add_argument("--train", default=None)
    sp.add_argument("--instruments", default=None)
    sp.add_argument("--entropies", default="0.05,0.5")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_robustness)

    sp = sub.add_parser("demo", help="end-to-end pipeline on the synthetic market")
    sp.add_argument("--paths", type=int, default=2000)
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--epochs", type=int, default=150)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_demo)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, DriftlessError) as exc:
        if isinstance(exc, (SimulationError, TrainingError)):
            print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
            return 2
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
