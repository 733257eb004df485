"""Command-line pipeline: fit -> simulate -> make-q -> verify -> hedge ->
robustness, plus an end-to-end demo.

Every subcommand is deterministic given its inputs and seed, for a fixed
BLAS build and thread count.  Only the CLI reads a JSON config; each class
parses it with its ``from_dict`` (instruments with ``errors.from_config``).
Every file a subcommand writes goes through ``market.write_text``, a JSON
one through ``market.write_json``, so each artifact, run.json included, is
replaced atomically (temp file + rename); a bundle's meta.json is written
after its CSVs.  Each subcommand reads and checks every input before it
starts work, and its run.json manifest records the sha256 of exactly the
files read, the seed used and versions.
Exit codes: 0 success; 1 validation error, unreadable file, or sizes too
large to allocate (MemoryError); 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DriftlessError,
    InputError,
    SimulationError,
    TrainingError,
    from_config,
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
    write_json,
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


def _manifest(args, read, outputs, seed=None, beside=None):
    """Write run.json next to ``beside`` (default: the first output): the
    stage, the sha256 of each file in ``read``, the outputs, seed, versions."""
    doc = {
        "stage": args.command,
        "version": __version__,
        "numpy": np.__version__,
        "seed": seed,
        "inputs": {p: _sha256(p) for p in read},
        "outputs": sorted(outputs),
    }
    out_dir = os.path.dirname(beside or outputs[0]) or "."
    write_json(os.path.join(out_dir, "run.json"), doc)


def _instruments(doc):
    if not isinstance(doc, list) or not doc:
        raise InputError("instruments JSON must be a non-empty list of instrument objects")
    return [from_config(InstrumentSpec, d, "instrument") for d in doc]


def default_instruments():
    """Demo hedging set: spot plus ATM calls at 20 and 40 days and a
    95-strike put at 20 days."""
    return [
        InstrumentSpec("spot"),
        InstrumentSpec("call", 1.0, 20),
        InstrumentSpec("call", 1.0, 40),
        InstrumentSpec("put", 0.95, 20),
    ]


def _entropies(text):
    """Parse --entropies: a non-empty comma list of finite numbers >= 0."""
    try:
        c_list = [float(c) for c in text.split(",")]
    except ValueError:
        c_list = []
    if not c_list or not all(0 <= c < np.inf for c in c_list):
        raise InputError(f"--entropies must be a comma list of finite numbers >= 0, got {text!r}")
    return c_list


def _load(args):
    """Check --entropies, then replace each input option recorded by
    ``_inputs`` with what it holds: a CSV or bundle through its reader, a
    JSON config through read_json and its parser (a grid, instruments or
    train config not given gets its default).  Resolve the seed: an explicit
    --seed overrides the train config's, and an unset one means 0.  Returns
    the files read; a bundle contributes its meta.json and paths.csv."""
    if "entropies" in args:
        args.entropies = _entropies(args.entropies)
    readers = {"history": read_history_csv, "bundle": read_bundle, "weights": read_weights_csv}
    parsers = {
        "params": VarParams.from_dict,
        "grid": DlvGrid.from_dict,
        "cost": CostSpec.from_dict,
        "utility": Utility.from_dict,
        "payoff": PayoffSpec.from_dict,
        "train": TrainConfig.from_dict,
        "instruments": _instruments,
    }
    defaults = {
        "grid": desk_grid,
        "instruments": default_instruments,
        "train": TrainConfig,
    }
    read = []
    for name in args.inputs:
        path = getattr(args, name)
        if path is None:
            setattr(args, name, defaults[name]() if name in defaults else None)
            continue
        setattr(args, name, readers[name](path) if name in readers
                else parsers[name](read_json(path)))
        if name == "bundle":
            read += [os.path.join(path, f) for f in ("meta.json", "paths.csv")]
        else:
            read.append(path)
    if "train" in args.inputs:
        if args.seed is not None:
            args.train = dataclasses.replace(args.train, seed=args.seed)
        args.seed = args.train.seed
    elif args.seed is None:
        args.seed = 0
    return read


# -- subcommands -----------------------------------------------------------

def cmd_fit_var(args, read):
    params, _ = fit_var(args.history)
    write_json(args.out, params.to_dict())
    _manifest(args, read, [args.out])
    return 0


def cmd_simulate(args, read):
    bundle = simulate(args.params, stationary_init(args.params), args.paths, args.steps,
                      args.seed, args.grid)
    _manifest(args, read, write_bundle(bundle, args.out), seed=args.seed,
              beside=os.path.normpath(args.out))
    return 0


def _make_q(bundle, rets, spec, utility, config, out):
    """Train the statarb policy, run ``density``, and write the weights CSV
    ``out`` and ``<out>.solution.json``.  Returns the solution, the density
    weights and the two paths."""
    sol = train(bundle, rets, spec, utility, config)
    dw = density(sol, bundle, rets, spec, utility)
    write_weights_csv(out, dw.weights)
    write_json(out + ".solution.json", sol.to_dict())
    return sol, dw, [out, out + ".solution.json"]


def _verify(bundle, rets, weights, spec, stem):
    """Run ``verify_drift`` and write its report to ``<stem>.csv`` and
    ``<stem>.json``.  Returns the report and the two paths."""
    report = verify_drift(bundle, rets, weights, spec)
    report.to_csv(stem + ".csv")
    write_json(stem + ".json", report.to_dict())
    return report, [stem + ".csv", stem + ".json"]


def cmd_make_q(args, read):
    rets = build_returns(args.bundle, args.instruments)
    sol, dw, written = _make_q(args.bundle, rets, args.cost, args.utility, args.train, args.out)
    _manifest(args, read, written, seed=args.seed)
    print(f"density: raw mean error {dw.mean_error:.4g}, objective {sol.objective_value:.6g}")
    return 0


def cmd_verify(args, read):
    rets = build_returns(args.bundle, args.instruments)
    report, written = _verify(args.bundle, rets, args.weights, args.cost, args.report)
    _manifest(args, read, written)
    print(f"verify: {len(report.rows) - report.n_failed}/{len(report.rows)} rows pass")
    return 0


def cmd_hedge(args, read):
    rets = build_returns(args.bundle, args.instruments)
    z = payoff(args.payoff, args.bundle)
    result = deep_hedge(args.bundle, rets, args.weights, z, args.cost, args.utility, args.train)
    write_json(args.out, result.to_dict())
    counts, edges = np.histogram(result.pnl, bins=60)
    write_csv(args.out + ".pnl_hist.csv", ["bin_lo", "bin_hi", "count"],
              [edges[:-1], edges[1:], counts])
    _manifest(args, read, [args.out, args.out + ".pnl_hist.csv"], seed=args.seed)
    print(f"hedge CE: {result.certainty_equivalent:.6g}")
    return 0


def cmd_robustness(args, read):
    bundle, spec, util, cfg = args.bundle, args.cost, args.utility, args.train
    rets = build_returns(bundle, args.instruments)
    z = payoff(args.payoff, bundle)
    hedge_p = deep_hedge(bundle, rets, None, z, spec, util, cfg)
    hedge_q = deep_hedge(bundle, rets, args.weights, z, spec, util, cfg)
    report = robustness_eval(hedge_p, hedge_q, util, args.entropies)
    write_json(args.out, report)
    _manifest(args, read, [args.out], seed=args.seed)
    for e in report["entries"]:
        print(
            f"c={e['c']}: dCE(P-hedge)={e['delta_p']:.6g} "
            f"dCE(Q-hedge)={e['delta_q']:.6g}"
        )
    return 0


def cmd_demo(args, read):
    """End-to-end pipeline on the synthetic desk-scale market: params.json
    and the bundle, then the make-q and verify routines at the demo's cost,
    utility and instruments.  The arguments are checked, by building the
    train config and simulating, before anything is written."""
    out = args.out
    grid = desk_grid()
    params = desk_params(grid)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed)
    bundle = simulate(params, stationary_init(params), args.paths, args.steps, args.seed, grid)
    write_json(os.path.join(out, "params.json"), params.to_dict())
    written_b = write_bundle(bundle, os.path.join(out, "bundle"))

    spec = CostSpec(gamma_prop=0.001, mode="marginal")
    util = Utility("exponential", 1.0)
    rets = build_returns(bundle, default_instruments())
    _, dw, written = _make_q(bundle, rets, spec, util, cfg, os.path.join(out, "weights.csv"))
    report_u, written_u = _verify(bundle, rets, np.ones(bundle.n_paths), spec,
                                  os.path.join(out, "drift_uniform"))
    report_q, written_q = _verify(bundle, rets, dw.weights, spec, os.path.join(out, "drift_q"))
    _manifest(args, read, [os.path.join(out, "params.json"), *written_b, *written, *written_u,
                           *written_q], seed=args.seed)
    print(
        f"demo: uniform {report_u.n_failed}/{len(report_u.rows)} rows fail; "
        f"Q* {report_q.n_failed}/{len(report_q.rows)} rows fail; "
        f"raw density mean error {dw.mean_error:.4g}"
    )
    return 0


def _inputs(sp, required, optional=()):
    """Add an input-file option per name to ``sp`` (the ``optional`` ones
    default to None) and record the names for ``_load``."""
    for name in required + optional:
        sp.add_argument(f"--{name}", required=name in required)
    sp.set_defaults(inputs=required + optional)


def build_parser():
    p = argparse.ArgumentParser(
        prog="driftless",
        description="Simulate option markets, remove statistical arbitrage by "
        "reweighting, and train drift-robust hedges.",
    )
    p.add_argument("--seed", type=int, default=None,
                   help="global RNG seed (default 0); overrides the seed of a --train file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit-var", help="fit the VAR(2) model to a Y-history CSV")
    _inputs(sp, ("history",))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit_var)

    sp = sub.add_parser("simulate", help="simulate a path bundle (default --grid: the demo grid)")
    _inputs(sp, ("params",), ("grid",))
    sp.add_argument("--paths", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("make-q", help="train the statarb policy and emit weights")
    _inputs(sp, ("bundle", "cost", "utility"), ("train", "instruments"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_make_q)

    sp = sub.add_parser("verify", help="drift-band report for given weights")
    _inputs(sp, ("bundle", "weights", "cost"), ("instruments",))
    sp.add_argument("--report", required=True, help="report path stem")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hedge", help="deep-hedge a payoff")
    _inputs(sp, ("bundle", "payoff", "cost", "utility"), ("weights", "train", "instruments"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_hedge)

    sp = sub.add_parser("robustness", help="entropy-tilt robustness report")
    _inputs(sp, ("bundle", "weights", "payoff", "cost", "utility"), ("train", "instruments"))
    sp.add_argument("--entropies", default="0.05,0.5")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_robustness)

    sp = sub.add_parser("demo", help="end-to-end pipeline on the synthetic market")
    sp.add_argument("--paths", type=int, default=2000)
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--epochs", type=int, default=150)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_demo, inputs=())

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _load(args))
    except (OSError, ValueError, MemoryError, DriftlessError) as exc:
        if isinstance(exc, (SimulationError, TrainingError)):
            print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
            return 2
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
