"""One repetition of a workload in a fresh process (started by ``run.py``).

Times set-up from before ``import repro`` to the start of the main call,
then the main call; prints one JSON object on its last stdout line.  With
``--trace 1`` it installs the layer wrappers first and adds the per-layer
values; without it, no wrapper exists in the process.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    layer_tracer = None
    if args.trace:
        import tracer

        layer_tracer = tracer.LayerTracer()
        tracer.install(layer_tracer)
        layer_tracer.open("setup.other.s")

    import workloads
    from repro import obs

    workload = workloads.WORKLOADS[args.workload](args.tmp)
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    if layer_tracer is not None:
        layer_tracer.close()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    # An observability session would switch the serial backend onto its
    # capture path and so measure another program.
    if obs.active() is not None:
        raise SystemExit("a repro.obs session is active")

    if layer_tracer is not None:
        layer_tracer.open("other.s")
    started = time.perf_counter()
    workload.run()
    run_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if layer_tracer is not None:
        run_s = layer_tracer.close()

    summary = workload.summary()
    out = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
           "summary": summary}
    if args.check:
        check_started = time.perf_counter()
        out["checks"] = workload.check(args.seed).results
        out["check_s"] = time.perf_counter() - check_started
    if layer_tracer is not None:
        layers = tracer.report(layer_tracer, run_s)
        layers["dse.quarantined.n"] = summary["failed"]
        out["layers"] = layers
    print(json.dumps(out))


if __name__ == "__main__":
    main()
