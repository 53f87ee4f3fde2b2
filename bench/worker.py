"""One benchmark process for one workload; started by run.py.

Modes:
  setup   import dezakit, build the inputs from the seed, report the time
  timed   setup, then passes until --seconds have elapsed; the first pass
          is an untimed warm-up that also re-derives every output with
          the oracles
  traced  as timed, with a traced pass after each untraced one; reports
          per-layer figures for the traced passes

The last stdout line is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MAX_REPORTED_FAILURES = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np
    import dezakit
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "dezakit": dezakit.__file__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    module = importlib.import_module(f"workloads.{args.workload}")
    workload = module.Workload(args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    from common import run_pass

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
    # the first pass warms up and runs the deep checks; it counts towards
    # --seconds and towards the failures, but not towards the timings
    start = time.perf_counter()
    warm = run_pass(workload, deep=True)
    timed, traced = [], []
    while True:
        timed.append(run_pass(workload, deep=False))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(workload, deep=False))
            finally:
                tracer.uninstall()
        # start another pass only if most of it fits in the time asked for
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.busy_s for r in timed + traced)
        if elapsed + typical / 2 >= args.seconds:
            break
    out["peak_rss_mb"] = peak_rss_mb()

    reference = list(zip(warm.names, warm.summaries))
    failures = [f for r in [warm] + timed + traced for f in r.failures]
    for result in timed + traced:
        same = list(zip(result.names, result.summaries)) == reference
        if not same:
            failures.append("a pass returned other verdicts than the first pass")
    # a workload may add checks over the whole of its last pass
    failures += getattr(workload, "cross_check", lambda: [])()

    attempted = sum(len(r.names) for r in [warm] + timed + traced)
    out.update({
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "jobs_per_pass": len(reference),
        "warmup_pass_s": warm.busy_s,
        "passes_s": [r.busy_s for r in timed],
        # each job's mean latency over the timed passes: the host's speed
        # switches between a fast and a slow state, and a mean follows the
        # share of each smoothly where a median jumps between them
        "job_means_s": [statistics.fmean(lat) for lat in
                        zip(*(r.latencies_s for r in timed))],
        "env": environment(),
    })
    if tracer is not None:
        # the tracer summed every traced pass; report per-pass figures
        layers = {key: (value if key.endswith("_ratio") else value / len(traced))
                  for key, value in tracer.metrics().items()}
        classes = traced[0].stats["search_classes"]
        layers["search.classes"] = classes
        labelled = layers["search.labelled"]
        layers["search.useful_ratio"] = classes / labelled if labelled else 0.0
        untraced_s = statistics.median(r.busy_s for r in timed)
        traced_s = statistics.median(r.busy_s for r in traced)
        layers["trace.overhead_s"] = traced_s - untraced_s
        out.update({"layers": layers, "traced_passes_s": [r.busy_s for r in traced],
                    "layer_self_total_s": sum(tracer.layer_self().values()) / len(traced),
                    "top_self": tracer.top()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
