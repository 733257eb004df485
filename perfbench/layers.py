"""Which package callables are spans, and the per-layer metrics derived
from one traced iteration.

Layers are named by module.  ``frictions`` is too small to time on its
own; its cost shows inside ``trainer`` and ``measure``.  A layer that a
workload never calls reads 0.
"""

from __future__ import annotations

import importlib
import math
import os

import numpy as np


def _resamples(tracer, args, kwargs, result):
    retry = args[4] if len(args) > 4 else kwargs.get("retry", 0)
    if retry > 0:
        tracer.count("resample_draws")


def _grids(tracer, args, kwargs, result):
    sigma = np.asarray(args[1] if len(args) > 1 else kwargs["sigma"])
    tracer.count("grids_solved", math.prod(sigma.shape[:-2]))


def _bundle_bytes(tracer, args, kwargs, result):
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    for name in os.listdir(directory):
        tracer.count("bundle_bytes", os.path.getsize(os.path.join(directory, name)))


# (module, attribute, span name, on_call hook, keep results)
SPANS = (
    ("driftless.var_model", "simulate", "var_model.simulate", None, False),
    ("driftless.var_model", "step_normals", "var_model.step_normals", _resamples, False),
    ("driftless.var_model", "iterate_var", "var_model.iterate_var", None, False),
    ("driftless.var_model", "desk_params", "var_model.desk_params", None, False),
    ("driftless.surface", "prices_from_dlv_batch", "surface.prices_from_dlv_batch", _grids, False),
    ("driftless.market", "bundle_from_sigmas", "market.bundle_from_sigmas", None, False),
    ("driftless.market", "build_returns", "market.build_returns", None, False),
    ("driftless.market", "write_bundle", "market.write_bundle", _bundle_bytes, False),
    ("driftless.market", "read_bundle", "market.read_bundle", None, False),
    ("driftless.market", "read_weights_csv", "market.read_weights_csv", None, False),
    ("driftless.market", "write_weights_csv", "market.write_weights_csv", None, False),
    ("driftless.trainer", "train", "trainer.train", None, True),
    ("driftless.trainer", "forward", "trainer.forward", None, False),
    ("driftless.autograd", "Tensor.backward", "autograd.backward", None, False),
    ("driftless.oce", "oce_sup", "oce.oce_sup", None, False),
    ("driftless.measure", "density", "measure.density", None, False),
    ("driftless.measure", "verify_drift", "measure.verify_drift", None, False),
    ("driftless.hedging", "deep_hedge", "hedging.deep_hedge", None, False),
    ("driftless.hedging", "tilt", "hedging.tilt", None, False),
    ("driftless.hedging", "robustness_eval", "hedging.robustness_eval", None, False),
    ("driftless.cli", "cmd_demo", "cli.demo", None, False),
    ("driftless.cli", "cmd_robustness", "cli.robustness", None, False),
)

# bindings the callers look up; each must hold a wrapper once spans are on
REQUIRED_BINDINGS = (
    ("driftless.var_model", "step_normals"),
    ("driftless.var_model", "bundle_from_sigmas"),
    ("driftless.market", "prices_from_dlv_batch"),
    ("driftless.trainer", "forward"),
    ("driftless.trainer", "oce_sup"),
    ("driftless.hedging", "oce_sup"),
)

_SIM = ("var_model.simulate", "var_model.step_normals", "var_model.iterate_var",
        "surface.prices_from_dlv_batch", "market.bundle_from_sigmas")
_Q = ("market.build_returns", "trainer.train", "trainer.forward", "autograd.backward",
      "oce.oce_sup", "measure.density", "measure.verify_drift")

# spans each workload must fire at least once in its traced iteration
EXPECTED = {
    "desk": _SIM + _Q,
    "sim_io": _SIM + ("market.write_bundle", "market.read_bundle", "market.build_returns",
                      "measure.verify_drift"),
    "cli": _SIM + _Q + ("var_model.desk_params", "market.write_bundle", "market.read_bundle",
                        "market.read_weights_csv", "market.write_weights_csv",
                        "hedging.deep_hedge", "hedging.tilt", "hedging.robustness_eval",
                        "cli.demo", "cli.robustness"),
}


def install(tracer):
    """Wrap every span callable; returns the required bindings left
    unwrapped (empty when the patching reached every caller)."""
    for mod_name, attr, name, hook, keep in SPANS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            tracer.patch_method(getattr(mod, cls_name), meth, name, hook, keep)
        else:
            tracer.patch_function(mod, attr, name, hook, keep)
    return [
        f"{m}.{a}" for m, a in REQUIRED_BINDINGS
        if not hasattr(getattr(importlib.import_module(m), a), "__wrapped__")
    ]


def _tail(durations):
    """The highest whole percentile with at least ten samples beyond it,
    and the duration there; (0, 0.0) with fewer than eleven samples."""
    n = len(durations)
    if n < 11:
        return 0, 0.0
    pct = math.floor(100 * (n - 10) / n)
    return pct, float(np.percentile(durations, pct))


def per_layer(tracer, quality, wall_s, untraced_wall_s, wrapper_call_s):
    """Per-layer metrics of one traced iteration: {name: (value, unit)}.
    ``wrapper_call_s`` is the cost of one span wrapper (see
    ``spans.wrapper_cost_s``)."""
    table = tracer.table()

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    train_s = total("trainer.train")
    eval_s = sum(tracer.durations_of("trainer.forward", under="trainer.train"))
    bwd = tracer.durations_of("autograd.backward")
    bwd_in_train = sum(tracer.durations_of("autograd.backward", under="trainer.train"))
    sols = tracer.results.get("trainer.train", [])
    tail_pct, tail_s = _tail(bwd)
    n_draws = calls("var_model.step_normals")
    layer_sum = sum(tracer.self_times())

    m = {
        "var_model.simulate_s": (total("var_model.simulate"), "s"),
        "var_model.step_normals_s": (total("var_model.step_normals"), "s"),
        "var_model.step_normals_calls": (n_draws, "count"),
        "var_model.iterate_var_s": (total("var_model.iterate_var"), "s"),
        "var_model.resample_frac": (
            tracer.counters.get("resample_draws", 0) / n_draws if n_draws else 0.0, "frac"),
        "surface.prices_from_dlv_batch_s": (total("surface.prices_from_dlv_batch"), "s"),
        "surface.grids_solved": (tracer.counters.get("grids_solved", 0), "count"),
        "market.write_bundle_s": (total("market.write_bundle"), "s"),
        "market.read_bundle_s": (total("market.read_bundle"), "s"),
        "market.bundle_bytes": (tracer.counters.get("bundle_bytes", 0), "bytes"),
        "market.build_returns_s": (total("market.build_returns"), "s"),
        "trainer.train_s": (train_s, "s"),
        "trainer.policies_trained": (calls("trainer.train"), "count"),
        "trainer.eval_s": (eval_s, "s"),
        "trainer.eval_calls": (len(tracer.durations_of("trainer.forward", under="trainer.train")),
                               "count"),
        "trainer.self_s": (train_s - eval_s - bwd_in_train, "s"),
        "trainer.best_epoch": (int(np.argmax(sols[0].trace)) if sols else 0, "epoch"),
        "trainer.objective": (float(sols[0].objective_value) if sols else 0.0, "S0"),
        "autograd.backward_s": (float(sum(bwd)), "s"),
        "autograd.backward_calls": (len(bwd), "count"),
        "autograd.backward_ms_p50": (float(np.median(bwd)) * 1e3 if bwd else 0.0, "ms"),
        "autograd.backward_ms_tail": (tail_s * 1e3, "ms"),
        "oce.oce_sup_s": (total("oce.oce_sup"), "s"),
        "oce.oce_sup_calls": (calls("oce.oce_sup"), "count"),
        "measure.density_s": (total("measure.density"), "s"),
        "measure.verify_drift_s": (total("measure.verify_drift"), "s"),
        "measure.u_rows_failed": (quality.get("u_rows_failed", 0), "count"),
        "measure.q_rows_failed": (quality.get("q_rows_failed", 0), "count"),
        "measure.bucket_rows_failed": (quality.get("bucket_rows_failed", 0), "count"),
        "measure.ess_frac": (quality.get("ess_frac", 0.0), "frac"),
        "measure.max_weight": (quality.get("max_weight", 0.0), "ratio"),
        "hedging.deep_hedge_s": (total("hedging.deep_hedge"), "s"),
        "hedging.tilt_s": (total("hedging.tilt"), "s"),
        "hedging.robustness_eval_s": (total("hedging.robustness_eval"), "s"),
        "cli.demo_s": (total("cli.demo"), "s"),
        "cli.robustness_s": (total("cli.robustness"), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_s": (wall_s - untraced_wall_s, "s"),
        "trace.wrapper_s": (wrapper_call_s * len(tracer.names), "s"),
        "trace.unattributed_s": (wall_s - layer_sum, "s"),
    }
    detail = {
        "backward_tail_percentile": tail_pct,
        "wrapper_call_us": wrapper_call_s * 1e6,
        "layer_self_s": _layer_self(tracer),
        "layer_wrapper_s": _layer_wrapper(tracer, wrapper_call_s),
        "spans": table,
    }
    return m, detail


def _layer_self(tracer):
    out = {}
    for s, name in zip(tracer.self_times(), tracer.names):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + s
    return out


def _layer_wrapper(tracer, wrapper_call_s):
    """Estimated wrapper cost of each layer's spans: calls x cost per call.
    Part of it lands in the span's own time, the rest in its caller's."""
    out = {}
    for name in tracer.names:
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + wrapper_call_s
    return out
