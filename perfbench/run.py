"""The repo benchmark: DSE and DNN flows end to end, and by layer when traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload gemm-32-dse [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``perfbench/README.md``): ``gemm-32-dse``, ``trmm-20-dse``,
``resnet18-dse``, ``tablev-compile``.  Every repetition runs in a fresh
single-threaded process (``child.py``), one at a time, with ``jobs=1``.

``--trace 0`` repeats the workload while the next repetition still fits in
``--seconds`` (at least once), measures set-up in at least
``SETUP_SAMPLES`` fresh processes, and prints the end-to-end metrics as
medians.  ``--trace 1`` runs one untraced and one traced repetition and
prints the per-layer metrics of the traced one.  Either way the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--seed`` seeds the correctness-check inputs; the DSE seed is fixed
(``workloads.DSE_SEED``) so that every run of a workload does the same
work.  Each run checks correctness once, and requires the same frontier
digest from every repetition, traced or not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("gemm-32-dse", "trmm-20-dse", "resnet18-dse", "tablev-compile")

#: Fresh processes that measure set-up in each untraced run.
SETUP_SAMPLES = 5

#: A run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "best_speedup": "x", "frontier_hv": "unitless",
                    "ok_frac": "fraction"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts one child process at a time and keeps the run's tallies."""

    def __init__(self, args, tmp_dir: str):
        self.args = args
        self.tmp_dir = tmp_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.evaluations = 0
        self.quarantined = 0
        self.checks: list[tuple[str, bool]] = []
        self.deterministic = True
        self.failures: list[str] = []
        self.digests: set[str] = set()

    def child(self, trace: int = 0, check: bool = False,
              setup_only: bool = False) -> dict:
        rep_dir = tempfile.mkdtemp(prefix="rep-", dir=self.tmp_dir)
        command = [sys.executable, os.path.join(HERE, "child.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--tmp", rep_dir,
                   "--trace", str(trace), "--check", str(int(check))]
        if setup_only:
            command.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before the next repetition")
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"repetition exceeded the {DEADLINE_S:.0f} s "
                                 f"run deadline") from error
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if done.returncode != 0:
            raise BenchmarkError(f"repetition failed (exit {done.returncode}):\n"
                                 f"{done.stderr.strip()}")
        out = json.loads(done.stdout.strip().splitlines()[-1])
        if not setup_only:
            self._tally(out)
        return out

    def _tally(self, out: dict) -> None:
        # Every repetition does the same work, so the tallies count one
        # repetition's operations, and its quarantines if any repetition had
        # some: ok_frac then means the same however many repetitions fit.
        summary = out["summary"]
        self.evaluations = max(self.evaluations, summary["attempted"])
        self.quarantined = max(self.quarantined, summary["failed"])
        if summary["failed"]:
            self.failures.append(f"{summary['failed']} evaluation(s) quarantined")
        self.digests.add(summary["digest"])
        for name, ok in out.get("checks", []):
            self.checks.append((name, ok))
            if not ok:
                self.failures.append(f"check failed: {name}")

    def check_determinism(self, repetitions: int) -> None:
        """All repetitions must agree on the frontier digest."""
        self.deterministic = len(self.digests) == 1
        if not self.deterministic:
            self.failures.append(f"{len(self.digests)} distinct frontier digests "
                                 f"over {repetitions} repetitions")

    @property
    def attempted(self) -> int:
        """One repetition's operations, the checks and the determinism check."""
        return self.evaluations + len(self.checks) + 1

    @property
    def failed(self) -> int:
        return (self.quarantined + sum(not ok for _, ok in self.checks)
                + (not self.deterministic))


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    started = time.monotonic()
    reps = [runner.child(check=True)]
    while True:
        # The correctness check runs once and is not part of a repetition.
        elapsed = time.monotonic() - started - reps[0]["check_s"]
        if elapsed + elapsed / len(reps) > seconds:
            break
        reps.append(runner.child())
    runner.check_determinism(len(reps))
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child(setup_only=True)["setup_s"])
    print(f"{runner.args.workload}: {len(reps)} repetition(s), "
          f"{len(setups)} set-up sample(s); run_s of each: "
          + " ".join(f"{rep['run_s']:.4f}" for rep in reps))
    summary = reps[0]["summary"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "best_speedup": summary["best_speedup"],
        "frontier_hv": summary["frontier_hv"],
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def per_layer(runner: Runner) -> dict[str, float]:
    untraced = runner.child(check=True)
    traced = runner.child(trace=1)
    runner.check_determinism(2)
    layers = traced["layers"]
    layers["trace.overhead.s"] = traced["run_s"] - untraced["run_s"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022,
                        help="seed of the correctness-check inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the temp directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "pipeline.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    runner = Runner(args, tmp_dir)
    try:
        values = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    except BenchmarkError as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it

    if args.trace:
        import tracer

        units = dict(tracer.LAYER_METRICS)
    else:
        units = END_TO_END_UNITS
    for failure in runner.failures:
        print(f"FAILED: {failure}")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
