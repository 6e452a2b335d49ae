"""The four benchmark workloads, driven through ``repro.pipeline``.

Each workload has three timed-or-checked phases, run in one fresh process:

* ``setup()`` — what a user pays before the main call: the C parse and raise
  (or the model builds) and the baseline estimate.
* ``run()`` — the main call, timed as ``run_s``.
* ``summary()`` and ``check(seed)`` — deterministic results and the
  correctness checks, outside the timed region.

Only this module and ``tracer.py`` import ``repro``.  Calls go through the
``repro.pipeline`` module attributes, so that a traced run sees the
wrappers ``tracer.install`` puts there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from repro import pipeline
from repro.emit import emit_hlscpp
from repro.estimation.platform import VU9P_SLR, XC7Z020
from repro.frontend import models

#: The DSE seed: the CLI default.  Fixed, because another seed visits other
#: design points and so does another amount of work.
DSE_SEED = 2022

#: The kernel DSE budget: the ``dse`` CLI defaults.
KERNEL_BUDGET = dict(num_samples=16, max_iterations=24, batch_size=8)

#: The model DSE budget (``batch_size`` stays at the ``explore_dnn`` default, 4).
MODEL_BUDGET = dict(graph_level=4, num_samples=16, max_iterations=24)

#: The Table V recipe: models, and (graph level, loop level) configurations.
TABLE5_MODELS = ("resnet18", "vgg16", "mobilenet")
TABLE5_CONFIGS = ((3, 3), (4, 4), (5, 4))


def hypervolume(points, dsp_budget: int) -> float:
    """Area dominated by ``(speedup, dsp)`` points, reference corner (0, 0).

    The plane is x = log10(speedup), y = 1 - dsp / dsp_budget; points with
    no speedup or no spare DSPs dominate nothing.  Unlike the runtime's
    ``frontier_hypervolume`` the reference is fixed, so values compare across
    commits.
    """
    corners = sorted(((math.log10(speedup), 1.0 - dsp / dsp_budget)
                      for speedup, dsp in points), reverse=True)
    area, best_y = 0.0, 0.0
    for (x, y), (next_x, _) in zip(corners, corners[1:] + [(0.0, 0.0)]):
        best_y = max(best_y, y)
        if x > 0 and best_y > 0:
            area += (x - max(next_x, 0.0)) * best_y
    return area


def geomean(values) -> float:
    if min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def braces_balanced(code: str) -> bool:
    depth = 0
    for char in code:
        depth += (char == "{") - (char == "}")
        if depth < 0:
            return False
    return depth == 0


def sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def fits(platform, resources) -> bool:
    # Memory stays out of the fit test, as in the DSE finalization and
    # the Table V recipe (weights are kept on chip).
    return platform.fits(resources, memory_margin=float("inf"))


class Check:
    """Named correctness checks of one run; failures are kept, not raised."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def __call__(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


# -- kernel DSE -------------------------------------------------------------------------------


def reference_trmm(alpha, A, B):
    """NumPy TRMM: ``B[i][j] = alpha * (B[i][j] + sum_{k>i} A[k][i] * B[k][j])``.

    Row ``i`` reads only rows ``k > i`` of ``B``, which the kernel has not
    overwritten yet, so the result uses the original ``B`` throughout.
    """
    A = A.astype(np.float64)
    B = B.astype(np.float64)
    return alpha * (B + np.tril(A, -1).T @ B)


class KernelDSE:
    """``explore_kernel`` on one PolyBench kernel, then materialize and emit."""

    platform = XC7Z020

    def __init__(self, kernel: str, size: int):
        self.kernel, self.size = kernel, size

    def setup(self) -> None:
        self.module = pipeline.compile_kernel(self.kernel, self.size)
        self.baseline = pipeline.kernel_baseline(self.module, self.platform)

    def run(self) -> None:
        self.result = pipeline.explore_kernel(self.module, self.platform, jobs=1,
                                              seed=DSE_SEED, **KERNEL_BUDGET)
        self.design = self.result.best_design()
        self.code = pipeline.emit_kernel_cpp(self.design)

    def summary(self) -> dict:
        result, best = self.result, self.result.best_record
        frontier = result.frontier_records()
        speedups = [(self.baseline.latency / record.qor.latency, record.qor.dsp)
                    for record in frontier if fits(self.platform, record.qor.resources)]
        return {
            "best_speedup": self.baseline.latency / best.qor.latency,
            "frontier_hv": hypervolume(speedups, self.platform.dsp),
            "digest": sha256_json({
                "fingerprint": result.fingerprint,
                "num_evaluations": result.num_evaluations,
                "frontier": [record.to_json_dict() for record in frontier],
                "best": best.to_json_dict(),
                "cpp_sha256": hashlib.sha256(self.code.encode("utf-8")).hexdigest(),
            }),
            "attempted": result.num_evaluations,
            "failed": result.num_quarantined,
        }

    def check(self, seed: int) -> Check:
        from repro.ir.interpreter import interpret_kernel
        from repro.testing import reference_gemm

        check = Check()
        best, design = self.result.best_record, self.design
        check("materialized QoR equals the recorded QoR",
              design.qor.latency == best.qor.latency
              and design.qor.resources == best.qor.resources)
        check("finalized design fits the platform",
              fits(self.platform, design.qor.resources))
        check("emitted C++ is non-empty with balanced braces",
              self.code.strip() and braces_balanced(self.code))

        rng = np.random.default_rng(seed)
        n = self.size
        alpha, beta = (float(v) for v in rng.uniform(0.5, 1.5, size=2))
        if self.kernel == "gemm":
            arrays = {name: rng.uniform(-1, 1, (n, n)).astype(np.float32)
                      for name in ("C", "A", "B")}
            expected = reference_gemm(alpha, beta, arrays["C"], arrays["A"], arrays["B"])
            scalars, output = {"alpha": alpha, "beta": beta}, "C"
        else:
            arrays = {name: rng.uniform(-1, 1, (n, n)).astype(np.float32)
                      for name in ("A", "B")}
            expected = reference_trmm(alpha, arrays["A"], arrays["B"])
            scalars, output = {"alpha": alpha}, "B"
        got = interpret_kernel(design.module, self.kernel,
                               {name: array.copy() for name, array in arrays.items()},
                               scalars)[output]
        check(f"finalized {self.kernel} matches the NumPy reference",
              np.allclose(got, expected, rtol=1e-4, atol=1e-4))
        return check


# -- whole-model DSE --------------------------------------------------------------------------


class ModelDSE:
    """``explore_dnn`` on resnet18 with a fresh estimate cache and checkpoints."""

    platform = VU9P_SLR
    model = "resnet18"

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir

    def setup(self) -> None:
        self.baseline = pipeline.dnn_baseline(self.model, self.platform).qor

    def run(self) -> None:
        self.result = pipeline.explore_dnn(
            self.model, self.platform, jobs=1, seed=DSE_SEED,
            cache_path=os.path.join(self.tmp_dir, "estimates.jsonl"),
            checkpoint_dir=os.path.join(self.tmp_dir, "checkpoints"),
            **MODEL_BUDGET)

    def summary(self) -> dict:
        result = self.result
        speedups = [(self.baseline.interval / point.interval, point.resources.dsp)
                    for point in result.frontier
                    if fits(self.platform, point.resources)]
        quarantined = sum(node.num_quarantined for node in result.node_results.values())
        return {
            "best_speedup": self.baseline.interval / result.best_point().interval,
            "frontier_hv": hypervolume(speedups, self.platform.dsp),
            "digest": hashlib.sha256(result.frontier_json().encode("utf-8")).hexdigest(),
            "attempted": result.num_evaluations,
            "failed": quarantined,
        }

    def check(self, seed: int) -> Check:
        check = Check()
        frontier = self.result.frontier
        check("model frontier is non-empty", frontier)
        check("every frontier point has 0 < interval <= latency",
              all(0 < point.interval <= point.latency for point in frontier))
        check("selected design fits the platform",
              fits(self.platform, self.result.best_point().resources))
        return check


# -- Table V recipe ---------------------------------------------------------------------------


class Table5Compile:
    """The Table V recipe for three models, then emission of each choice."""

    platform = VU9P_SLR

    def setup(self) -> None:
        self.models = {name: models.build_model(name) for name in TABLE5_MODELS}

    def run(self) -> None:
        self.outcomes = {}
        for name, module in self.models.items():
            baseline = pipeline.dnn_baseline(name, self.platform, model_module=module)
            candidates = {
                (graph, loop): pipeline.compile_dnn(
                    name, graph_level=graph, loop_level=loop, directive_level=True,
                    platform=self.platform, model_module=module)
                for graph, loop in TABLE5_CONFIGS}
            chosen = None
            for config, candidate in candidates.items():
                if fits(self.platform, candidate.qor.resources) and (
                        chosen is None
                        or candidate.qor.interval < candidates[chosen].qor.interval):
                    chosen = config
            if chosen is None:  # the recipe's fallback
                chosen = (3, 2)
                candidates[chosen] = pipeline.compile_dnn(
                    name, graph_level=3, loop_level=2, directive_level=True,
                    platform=self.platform, model_module=module)
            code = emit_hlscpp(candidates[chosen].module)
            self.outcomes[name] = (baseline.qor, candidates, chosen, code)

    def summary(self) -> dict:
        speedups, volumes, record = [], [], {}
        for name, (baseline, candidates, chosen, code) in self.outcomes.items():
            speedups.append(baseline.interval / candidates[chosen].qor.interval)
            volumes.append(hypervolume(
                [(baseline.interval / c.qor.interval, c.qor.dsp)
                 for c in candidates.values() if fits(self.platform, c.qor.resources)],
                self.platform.dsp))
            record[name] = {
                "baseline": [baseline.latency, baseline.interval],
                "candidates": {f"G{g}L{l}": [c.qor.latency, c.qor.interval,
                                             c.qor.dsp, c.qor.lut]
                               for (g, l), c in candidates.items()},
                "chosen": list(chosen),
                "cpp_sha256": hashlib.sha256(code.encode("utf-8")).hexdigest(),
            }
        return {
            "best_speedup": geomean(speedups),
            "frontier_hv": geomean(volumes),
            "digest": sha256_json(record),
            # One baseline, the candidates and one emission per model.
            "attempted": sum(len(c) + 2 for _, c, _, _ in self.outcomes.values()),
            "failed": 0,
        }

    def check(self, seed: int) -> Check:
        check = Check()
        for name, (baseline, candidates, chosen, code) in self.outcomes.items():
            check(f"{name}: every design has 0 < interval <= latency",
                  0 < baseline.interval <= baseline.latency and all(
                      0 < c.qor.interval <= c.qor.latency for c in candidates.values()))
            check(f"{name}: chosen design fits the platform",
                  fits(self.platform, candidates[chosen].qor.resources))
            check(f"{name}: emitted C++ is non-empty with balanced braces",
                  code.strip() and braces_balanced(code))
        return check


#: name -> factory(tmp_dir)
WORKLOADS = {
    "gemm-32-dse": lambda tmp: KernelDSE("gemm", 32),
    "trmm-20-dse": lambda tmp: KernelDSE("trmm", 20),
    "resnet18-dse": ModelDSE,
    "tablev-compile": lambda tmp: Table5Compile(),
}
