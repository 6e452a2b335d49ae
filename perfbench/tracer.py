"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of the
``repro`` package (see :func:`install`) and keeps a stack of open spans.
Each span's *self time* (its duration minus the spans nested inside it) is
added to the span's layer bucket, so the buckets of one run never double
count and their sum is the covered part of the run.  Pass timings come
from :func:`repro.ir.pass_manager.collect_pass_timings`: every pass the
program runs is reported after it ends, with its duration, and is slotted
into the span stack as a child of the innermost open span.

Nothing here is imported by an untraced run: the wrappers exist only in a
process that calls :func:`install`.
"""

from __future__ import annotations

import collections
import functools
import math
import re
import time

#: Pass buckets with a metric of their own; any other pass lands in
#: ``pass.other.s`` so that design points never mint metric names.
PASS_NAMES = (
    "canonicalize", "design-point-prefix", "design-point-suffix",
    "simplify-affine-if", "affine-store-forward", "simplify-memref-access",
    "cse", "array-partition", "dnn-loop-opt",
)

_SCOPE = re.compile(r"^.*/")
_OPTIONS = re.compile(r"\{.*$")


def pass_bucket(display_name: str) -> str:
    """``prefix.k/canonicalize{x=1}`` -> ``pass.canonicalize.s``."""
    name = _OPTIONS.sub("", _SCOPE.sub("", display_name))
    return f"pass.{name if name in PASS_NAMES else 'other'}.s"


class _Frame:
    __slots__ = ("name", "start", "child_total", "children", "absorb_passes")

    def __init__(self, name: str, start: float, absorb_passes: bool):
        self.name = name
        self.start = start
        self.child_total = 0.0
        #: (start, duration) of finished direct children, in end order.
        self.children: list[tuple[float, float]] = []
        self.absorb_passes = absorb_passes


class LayerTracer:
    """Span stack plus per-layer self-time, count and sample buckets."""

    def __init__(self):
        self.seconds: "collections.Counter[str]" = collections.Counter()
        self.counts: "collections.Counter[str]" = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self.pass_scope = None
        self._stack: list[_Frame] = []

    # -- spans -------------------------------------------------------------------------------

    def open(self, name: str, absorb_passes: bool = False) -> None:
        self._stack.append(_Frame(name, time.perf_counter(), absorb_passes))

    def close(self) -> float:
        """Close the innermost span; returns its duration."""
        frame = self._stack.pop()
        duration = time.perf_counter() - frame.start
        self.seconds[frame.name] += duration - frame.child_total
        if self._stack:
            parent = self._stack[-1]
            parent.child_total += duration
            parent.children.append((frame.start, duration))
        return duration

    def on_pass(self, display_name: str, seconds: float) -> None:
        """A pass just ended: make it a child of the innermost open span.

        Spans that finished inside the pass's interval become its children,
        so the pass bucket gets only the pass's own self time.
        """
        if not self._stack:
            return
        parent = self._stack[-1]
        if parent.absorb_passes:
            return  # counted in the enclosing span's self time
        start = time.perf_counter() - seconds
        nested = 0.0
        while parent.children and parent.children[-1][0] >= start:
            nested += parent.children.pop()[1]
        parent.children.append((start, seconds))
        parent.child_total += seconds - nested
        self.seconds[pass_bucket(display_name)] += seconds - nested

    def wrap(self, fn, name: str, absorb_passes: bool = False, after=None):
        """``fn`` inside a span; ``after(duration, result, args)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name, absorb_passes)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.close()
            if after is not None:
                after(duration, result, args)
            return result

        return traced


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point of ``repro`` with ``tracer`` spans.

    Call before the flow runs; the wrappers and the pass-timing collector
    stay for the process lifetime.
    """
    import repro.dse.runtime.model as model_mod
    import repro.dse.runtime.parallel as parallel_mod
    import repro.dse.runtime.worker as worker_mod
    import repro.frontend.models as models_mod
    import repro.pipeline as pipeline_mod
    import repro.transforms as transforms_mod
    from repro.dse.engine import ExplorationPolicy
    from repro.dse.incremental import PrefixSnapshotCache
    from repro.dse.runtime.cache import EstimateCache
    from repro.dse.runtime.checkpoint import CheckpointStore
    from repro.dse.runtime.worker import SerialBackend
    from repro.dse.space import KernelDesignSpace
    from repro.emit.hlscpp_emitter import HLSCppEmitter
    from repro.estimation.estimator import QoREstimator
    from repro.ir.module import ModuleOp
    from repro.ir.pass_manager import collect_pass_timings

    wrap = tracer.wrap
    counts = tracer.counts

    def count(name):
        def after(duration, result, args):
            counts[name] += 1
        return after

    # frontend: parsing, and the raise pipeline (its passes count here).
    pipeline_mod.parse_c_to_module = wrap(pipeline_mod.parse_c_to_module,
                                          "frontend.parse.s")
    pipeline_mod.compile_kernel = wrap(pipeline_mod.compile_kernel,
                                       "frontend.raise.s", absorb_passes=True)

    # graph: model building and dataflow staging + lowering to loops.
    build_model = wrap(models_mod.build_model, "graph.build.s")
    models_mod.build_model = pipeline_mod.build_model = build_model
    pipeline_mod.prepare_dnn_stages = wrap(pipeline_mod.prepare_dnn_stages,
                                           "graph.stage.s")
    pipeline_mod.function_flops = wrap(pipeline_mod.function_flops,
                                       "graph.stage.s")
    lower = wrap(transforms_mod.lower_graph_to_loops, "graph.stage.s")
    transforms_mod.lower_graph_to_loops = pipeline_mod.lower_graph_to_loops = lower

    # estimation; the op count walks the IR inside the span.
    def estimation(fn, name):
        @functools.wraps(fn)
        def traced(self, target, *args, **kwargs):
            tracer.open(name)
            try:
                counts["estimation.calls.n"] += 1
                counts["estimation.ops_in.n"] += sum(1 for _ in target.walk())
                return fn(self, target, *args, **kwargs)
            finally:
                tracer.close()
        return traced

    QoREstimator.estimate_function = estimation(QoREstimator.estimate_function,
                                                "estimation.function.s")
    QoREstimator.estimate_module = estimation(QoREstimator.estimate_module,
                                              "estimation.module.s")

    # dse: design space, exploration policy, prefix snapshots.
    from_function = KernelDesignSpace.from_function.__func__
    KernelDesignSpace.from_function = classmethod(
        wrap(from_function, "dse.space.s"))
    for attr in ("initial_batch", "propose_batch"):
        setattr(ExplorationPolicy, attr, staticmethod(
            wrap(getattr(ExplorationPolicy, attr), "dse.propose.s")))
    for attr in ("frontier_of", "finalize"):
        setattr(ExplorationPolicy, attr, staticmethod(
            wrap(getattr(ExplorationPolicy, attr), "dse.frontier.s")))
    model_mod.compose_model_frontier = wrap(model_mod.compose_model_frontier,
                                            "dse.frontier.s")

    checkout = PrefixSnapshotCache.checkout

    def snapshot_checkout(self, *args, **kwargs):
        hits = self.hits
        result = checkout(self, *args, **kwargs)
        counts["dse.snapshot.lookups.n"] += 1
        counts["dse.snapshot.hits.n"] += self.hits - hits
        return result

    PrefixSnapshotCache.checkout = wrap(snapshot_checkout, "dse.snapshot.s")

    # dse.runtime: estimate cache, checkpoints, dispatch, evaluation.
    cache_get = EstimateCache.get

    def cache_lookup(self, *args, **kwargs):
        record = cache_get(self, *args, **kwargs)
        counts["dse.cache.lookups.n"] += 1
        counts["dse.cache.hits.n"] += record is not None
        return record

    EstimateCache.get = wrap(cache_lookup, "dse.cache.s")
    for attr in ("__init__", "put", "close"):
        setattr(EstimateCache, attr, wrap(getattr(EstimateCache, attr), "dse.cache.s"))
    CheckpointStore.save = wrap(CheckpointStore.save, "dse.checkpoint.s",
                                after=count("dse.checkpoint.saves.n"))
    CheckpointStore.load = wrap(CheckpointStore.load, "dse.checkpoint.s")
    SerialBackend.evaluate = wrap(SerialBackend.evaluate, "dse.dispatch.s")

    def evaluated(duration, result, args):
        counts["dse.evals.n"] += 1
        tracer.samples["eval"].append(duration)

    worker_mod.evaluate_encoded = wrap(worker_mod.evaluate_encoded,
                                       "dse.evaluate.s", after=evaluated)
    apply_design_point = wrap(worker_mod.apply_design_point, "dse.apply.s")
    worker_mod.apply_design_point = parallel_mod.apply_design_point = apply_design_point

    # ir: whole-module clones (snapshot checkouts, materialization, DNN
    # compiles); op-level clones inside passes belong to the pass.
    ModuleOp.clone = wrap(ModuleOp.clone, "ir.clone.s", after=count("ir.clone.n"))

    # emit.
    def emitted(duration, result, args):
        counts["emit.bytes.n"] += len(result.encode("utf-8"))

    HLSCppEmitter.emit_module = wrap(HLSCppEmitter.emit_module, "emit.s",
                                     after=emitted)

    # transforms: every pass the program runs reports into the span stack.
    # The tracer holds the collector's scope open for the process lifetime.
    tracer.pass_scope = collect_pass_timings()
    tracer.pass_scope.__enter__().add = tracer.on_pass


#: Every per-layer metric a traced run prints, with its unit.
LAYER_METRICS = (
    *((f"pass.{name}.s", "s") for name in (*PASS_NAMES, "other")),
    ("estimation.function.s", "s"), ("estimation.module.s", "s"),
    ("estimation.calls.n", "count"), ("estimation.ops_in.n", "count"),
    ("dse.space.s", "s"), ("dse.propose.s", "s"), ("dse.frontier.s", "s"),
    ("dse.snapshot.s", "s"), ("dse.snapshot.hit_frac", "fraction"),
    ("dse.cache.s", "s"), ("dse.cache.hit_frac", "fraction"),
    ("dse.checkpoint.s", "s"), ("dse.checkpoint.saves.n", "count"),
    ("dse.dispatch.s", "s"), ("dse.evaluate.s", "s"), ("dse.apply.s", "s"),
    ("dse.evals.n", "count"), ("dse.quarantined.n", "count"),
    ("eval.p50.s", "s"), ("eval.p75.s", "s"),
    ("frontend.parse.s", "s"), ("frontend.raise.s", "s"),
    ("graph.build.s", "s"), ("graph.stage.s", "s"),
    ("ir.clone.s", "s"), ("ir.clone.n", "count"),
    ("emit.s", "s"), ("emit.bytes.n", "count"),
    ("other.s", "s"), ("trace.run.s", "s"), ("trace.covered_frac", "fraction"),
    ("trace.overhead.s", "s"),
)


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def report(tracer: LayerTracer, run_seconds: float) -> dict[str, float]:
    """Per-layer values of a traced process (``trace.overhead.s`` excluded).

    Seconds are self times summed over set-up and the main call; ``other.s``
    and ``trace.covered_frac`` cover the main call only, whose span is the
    root bucket ``other.s``.
    """
    counts, evals = tracer.counts, tracer.samples["eval"]
    values = {name: 0.0 for name, _ in LAYER_METRICS if name.endswith(".s")}
    values.update((name, value) for name, value in tracer.seconds.items()
                  if name in values)
    values.update((name, counts[name]) for name, unit in LAYER_METRICS
                  if unit == "count")

    def share(hits: str, lookups: str) -> float:
        return counts[hits] / counts[lookups] if counts[lookups] else 0.0

    values["dse.snapshot.hit_frac"] = share("dse.snapshot.hits.n",
                                            "dse.snapshot.lookups.n")
    values["dse.cache.hit_frac"] = share("dse.cache.hits.n", "dse.cache.lookups.n")
    values["eval.p50.s"] = percentile(evals, 0.50)
    values["eval.p75.s"] = percentile(evals, 0.75)
    values["trace.run.s"] = run_seconds
    values["trace.covered_frac"] = 1.0 - values["other.s"] / run_seconds
    del values["trace.overhead.s"]
    return values
