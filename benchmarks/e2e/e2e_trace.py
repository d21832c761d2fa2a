"""Outside-in layer tracing for the end-to-end benchmark.

The program carries no spans of its own.  For the duration of a traced
pass, :class:`LayerTracer` replaces the public entry points of each
layer (methods on their classes, functions in every ``repro`` module
that binds them) with timing wrappers, and puts the originals back on
exit.  Every wrapper records one span: its duration, minus the time its
child spans cover, is added to the layer's self time, so the self times
of all layers plus ``trace.unattributed_s`` add up to the traced wall
time.  Counters ride on the same boundaries (bytes an im2col returned,
attempts a transmit radiated, clusters a fleet step stacked).

Run a pass untraced for the end-to-end numbers and traced for these;
the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.experiments as experiments_pkg
from repro.core.deployment import EncoderDeployment
from repro.core.fleet import FleetTrainer
from repro.core.orchestrator import OrchestratedTrainer
from repro.core.rounds import IdealRoundLoop, SegmentedFleetExecutor
from repro.core.scheduler import EdgeTrainingScheduler
from repro.datasets import SensorField, generate_digits, generate_signs
from repro.nn import functional as nn_functional
from repro.nn.layers import Module
from repro.nn.losses import Loss
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor
from repro.sim.channel import UnreliableChannel
from repro.sim.events import EventScheduler
from repro.wsn import aggregation
from repro.wsn.network import WSNetwork

#: Counter hook: ``(tracer, args, result)``, called after the span closes.
CounterHook = Callable[["LayerTracer", tuple, object], None]

EXPERIMENT_NAMES: Tuple[str, ...] = tuple(sorted(experiments_pkg.EXPERIMENTS))


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def _count_optimizer_elements(tracer, args, result):
    tracer.counts["optim_elements"] += sum(p.data.size for p in args[0].params)


def _count_im2col_bytes(tracer, args, result):
    tracer.counts["im2col_bytes"] += result.nbytes


def _count_stack_width(tracer, args, result):
    tracer.counts["fleet_steps"] += 1
    tracer.counts["stacked_clusters"] += len(result)


def _count_fused(tracer, args, result):
    tracer.counts["fused_rounds"] += result.fused_rounds
    tracer.counts["scheduled_rounds"] += sum(result.rounds_per_cluster.values())


def _count_attempts(tracer, args, result):
    tracer.counts["transmit_attempts"] += result.attempts
    tracer.counts["transmit_delivered"] += result.delivered


def _count_contributors(tracer, args, result):
    tracer.counts["contributors"] += len(result.contributors)
    tracer.counts["devices"] += args[0].network.num_devices


# ----------------------------------------------------------------------
# Where each layer's spans go
# ----------------------------------------------------------------------
def _methods(name: str, owners, attr: str, counter: Optional[CounterHook] = None):
    return [(name, ("method", owner, attr), counter) for owner in owners]


def _functions(name: str, fns, counter: Optional[CounterHook] = None):
    return [(name, ("function", fn), counter) for fn in fns]


def _overriders(base: type, modules: Tuple[str, ...], attr: str) -> List[type]:
    """Every subclass of ``base`` defined in ``modules`` with its own ``attr``."""
    found, queue = [], [base]
    while queue:
        cls = queue.pop()
        queue.extend(cls.__subclasses__())
        if cls.__module__ in modules and attr in vars(cls):
            found.append(cls)
    return found


def _targets():
    return (
        _methods("nn.optim.step", _overriders(Optimizer, ("repro.nn.optim",), "step"),
                 "step", _count_optimizer_elements)
        + _methods("nn.batched.step",
                   _overriders(Optimizer, ("repro.nn.batched",), "step"), "step")
        + _methods("nn.build", _overriders(Module, ("repro.nn.layers",), "__init__")
                   + _overriders(Optimizer, ("repro.nn.optim", "repro.nn.batched"),
                                 "__init__"), "__init__")
        + _methods("nn.losses.forward", [Loss], "__call__")
        + _methods("nn.losses.forward", [Loss], "per_cluster")
        + _functions("nn.functional.im2col", [nn_functional.im2col_array],
                     _count_im2col_bytes)
        + _functions("nn.functional.col2im", [nn_functional.col2im_array])
        + _functions("nn.functional.conv2d", [nn_functional.conv2d,
                                              nn_functional.conv_transpose2d])
        + _methods("nn.tensor.backward", [Tensor], "backward")
        + _methods("nn.tensor.matmul", [Tensor], "matmul")
        + _methods("nn.layers.forward", [Module], "__call__")
        + _methods("core.fleet.step", [FleetTrainer], "step", _count_stack_width)
        + _methods("core.rounds.execute", [SegmentedFleetExecutor], "execute")
        + _methods("core.rounds.ideal_loop", [IdealRoundLoop], "run")
        + _methods("core.scheduler.run", [EdgeTrainingScheduler], "run",
                   _count_fused)
        + _methods("core.orchestrator.step", [OrchestratedTrainer], "step")
        + _methods("sim.channel.record", [UnreliableChannel], "record_trace")
        + _methods("sim.channel.record", [UnreliableChannel], "rerecord_trace")
        + _methods("sim.channel.transmit", [UnreliableChannel], "transmit",
                   _count_attempts)
        + _methods("sim.events.step", [EventScheduler], "step")
        + _functions("wsn.aggregation.simulate", [
            aggregation.simulate_raw_aggregation,
            aggregation.simulate_hybrid_aggregation,
            aggregation.simulate_masked_hybrid_aggregation,
            aggregation.simulate_encoder_distribution])
        + _functions("wsn.aggregation.encode", [
            aggregation.hybrid_encode, aggregation.hybrid_encode_partial])
        + _methods("wsn.network.uplink", [WSNetwork], "uplink_to_edge")
        + _methods("core.deployment.round", [EncoderDeployment],
                   "end_to_end_round")
        + _methods("core.deployment.round", [EncoderDeployment],
                   "compressed_round", _count_contributors)
        + _functions("datasets.generate", [generate_digits, generate_signs])
        + _methods("datasets.generate", [SensorField], "step")
        + _methods("datasets.generate", [SensorField], "read")
    )


# ----------------------------------------------------------------------
# Per-layer metrics: name -> (unit, how it is derived from the tracer)
# ----------------------------------------------------------------------
def _self(span):
    return lambda t: t.self_s[span] / t.ops


def _calls(span):
    return lambda t: t.calls[span] / t.ops


def _per_op(counter):
    return lambda t: t.counts[counter] / t.ops


def _ratio(numerator, denominator):
    def derive(t):
        base = t.counts[denominator]
        return t.counts[numerator] / base if base else 0.0
    return derive


def _experiment_total(name):
    return lambda t: t.total_s[f"experiments.{name}"] / t.ops


PER_LAYER_METRICS: Dict[str, Tuple[str, Callable[["LayerTracer"], float]]] = {
    "nn.optim.self_s": ("s/op", _self("nn.optim.step")),
    "nn.optim.calls": ("count/op", _calls("nn.optim.step")),
    "nn.optim.elements": ("count/op", _per_op("optim_elements")),
    "nn.functional.im2col_self_s": ("s/op", _self("nn.functional.im2col")),
    "nn.functional.col2im_self_s": ("s/op", _self("nn.functional.col2im")),
    "nn.functional.conv2d_self_s": ("s/op", _self("nn.functional.conv2d")),
    "nn.functional.im2col_bytes": ("B/op", _per_op("im2col_bytes")),
    "nn.tensor.backward_self_s": ("s/op", _self("nn.tensor.backward")),
    "nn.tensor.matmul_self_s": ("s/op", _self("nn.tensor.matmul")),
    "nn.layers.forward_self_s": ("s/op", _self("nn.layers.forward")),
    "nn.batched.step_self_s": ("s/op", _self("nn.batched.step")),
    "nn.build_self_s": ("s/op", _self("nn.build")),
    "nn.losses.forward_self_s": ("s/op", _self("nn.losses.forward")),
    "core.fleet.step_self_s": ("s/op", _self("core.fleet.step")),
    "core.fleet.step_calls": ("count/op", _calls("core.fleet.step")),
    "core.fleet.stack_width": ("clusters", _ratio("stacked_clusters", "fleet_steps")),
    "core.rounds.execute_self_s": ("s/op", _self("core.rounds.execute")),
    "core.rounds.ideal_loop_self_s": ("s/op", _self("core.rounds.ideal_loop")),
    "core.rounds.fused_share": ("ratio", _ratio("fused_rounds", "scheduled_rounds")),
    "core.scheduler.run_self_s": ("s/op", _self("core.scheduler.run")),
    "core.orchestrator.step_self_s": ("s/op", _self("core.orchestrator.step")),
    "core.orchestrator.step_calls": ("count/op", _calls("core.orchestrator.step")),
    "sim.channel.record_self_s": ("s/op", _self("sim.channel.record")),
    "sim.channel.transmit_self_s": ("s/op", _self("sim.channel.transmit")),
    "sim.channel.transmit_calls": ("count/op", _calls("sim.channel.transmit")),
    "sim.channel.attempts_per_delivery": (
        "attempts", _ratio("transmit_attempts", "transmit_delivered")),
    "sim.events.step_self_s": ("s/op", _self("sim.events.step")),
    "sim.events.steps": ("count/op", _calls("sim.events.step")),
    "wsn.aggregation.simulate_self_s": ("s/op", _self("wsn.aggregation.simulate")),
    "wsn.aggregation.encode_self_s": ("s/op", _self("wsn.aggregation.encode")),
    "wsn.network.uplink_self_s": ("s/op", _self("wsn.network.uplink")),
    "core.deployment.round_self_s": ("s/op", _self("core.deployment.round")),
    "core.deployment.contributor_share": ("ratio", _ratio("contributors", "devices")),
    "datasets.generate_self_s": ("s/op", _self("datasets.generate")),
    **{f"experiments.{name}_s": ("s/op", _experiment_total(name))
       for name in EXPERIMENT_NAMES},
    "trace.unattributed_s": ("s/op", lambda t: t.unattributed_s() / t.ops),
}

#: Reported next to the layer metrics, derived from both passes.
OVERHEAD_METRIC = "trace.overhead_ratio"


class LayerTracer:
    """Wraps every layer entry point while active (``with tracer:``).

    ``measure(fn)`` runs one benchmark operation as the root span; only
    time inside roots is attributed.  Spans nest through one stack of
    accumulated child time, so self time is exact for recursive entry
    points too (a ``Sequential`` calling its layers' ``__call__``).
    """

    ROOT = "op"

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: List[float] = [0.0]
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn, counter: Optional[CounterHook]):
        stack, self_s, total_s, calls = (self._stack, self.self_s,
                                         self.total_s, self.calls)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                total_s[name] += elapsed
                calls[name] += 1
                stack[-1] += elapsed
            if counter is not None:
                counter(self, args, result)
            return result

        return span

    def _install(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        try:
            for name, (kind, *where), counter in _targets():
                if kind == "method":
                    owner, attr = where
                    self._install(owner, attr,
                                  self._wrap(name, vars(owner)[attr], counter))
                else:
                    self._patch_function(name, where[0], counter)
            registry = experiments_pkg.EXPERIMENTS
            for exp in EXPERIMENT_NAMES:
                self._restore.append((registry, exp, registry[exp]))
                registry[exp] = self._wrap(f"experiments.{exp}", registry[exp], None)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch_function(self, name: str, fn, counter: Optional[CounterHook]) -> None:
        """Rebind ``fn`` in every ``repro`` module that imported it by name."""
        wrapped = self._wrap(name, fn, counter)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._install(module, attr, wrapped)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def measure(self, fn, *args):
        """Run ``fn(*args)`` as one root span; returns (result, seconds)."""
        wrapped = self._wrap(self.ROOT, fn, None)
        start = time.perf_counter()
        result = wrapped(*args)
        elapsed = time.perf_counter() - start
        self.ops += 1
        return result, elapsed

    def unattributed_s(self) -> float:
        """Traced time no layer span covers: the roots' self time plus
        each experiment's own code outside every layer it calls."""
        return self.self_s[self.ROOT] + sum(
            self.self_s[f"experiments.{name}"] for name in EXPERIMENT_NAMES)

    def metrics(self, overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``, normalised
        per traced operation."""
        if not self.ops:
            raise RuntimeError("no traced operation ran")
        out = {name: (float(derive(self)), unit)
               for name, (unit, derive) in PER_LAYER_METRICS.items()}
        out[OVERHEAD_METRIC] = (float(overhead_ratio), "ratio")
        return out


__all__ = ["EXPERIMENT_NAMES", "LayerTracer", "PER_LAYER_METRICS"]
