"""dezakit benchmark entry point.

    python3 bench/run.py --workload {families,catalogue,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in fresh processes with BLAS threads capped
at the number of usable cores:

* eight set-up probes (import dezakit and build the inputs from the
  seed), whose median with the main process's own set-up is ``setup_s``;
* one main process, which runs passes over the job list for about
  ``--seconds``, checking every job's verdicts against closed forms
  outside the jobs' time.  The first pass is an untimed warm-up that
  also re-derives every output independently.

Each job's latency is its mean over the run's timed passes; ``run_s`` is
the sum of these means (the mean time of a timed pass) and the job
latency percentiles ``job_p50_ms`` and ``job_p90_ms`` are taken over them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the main process follows each untraced pass with a
traced one and the last line reports per-layer metrics, including the
tracing overhead.  The line before it records the environment, the job
latency percentiles, sample counts and any failures.  Exit status is 0 only when a result was
produced.
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
from pathlib import Path

WORKLOADS = ("families", "catalogue", "cli")
SETUP_PROBES = 8
DEADLINE_S = 175
PERCENTILES = (("job_p50_ms", 0.5), ("job_p90_ms", 0.9))


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def quantile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _terminate(signum, _frame):
    # turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the running worker and the temporary directory is removed
    raise SystemExit(128 + signum)


def run_worker(env, args, mode, workdir, deadline):
    bench = Path(__file__).resolve().parent
    cmd = [sys.executable, str(bench / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next process")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, _terminate)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "dezakit" / "__init__.py").is_file():
        return fail(f"no dezakit sources under {src}; run from a source checkout")
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(cores), OMP_NUM_THREADS=str(cores),
               MKL_NUM_THREADS=str(cores))

    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        probes = [run_worker(env, args, "setup", workdir / f"probe{i}", deadline)["setup_s"]
                  for i in range(SETUP_PROBES)]
        mode = "traced" if args.trace else "timed"
        res = run_worker(env, args, mode, workdir / "main", deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run is still using it
            pass

    loaded = Path(res["env"]["dezakit"]).resolve()
    if src.resolve() not in loaded.parents:
        return fail(f"dezakit was imported from {loaded}, not from {src}")

    setups = probes + [res["setup_s"]]
    job_means = res["job_means_s"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {**res["env"], "nproc": cores, "blas_threads": cores},
        "jobs_per_pass": res["jobs_per_pass"], "warmup_pass_s": res["warmup_pass_s"],
        "passes_s": res["passes_s"],
        # reported, not gated: see "Baseline, noise and bounds" in README.md
        **{name: 1000 * quantile(job_means, q) for name, q in PERCENTILES},
        "latency_samples": len(job_means), "timed_passes": len(res["passes_s"]),
        "setup_samples": len(setups),
        "fail_ratio": res["failed"] / res["attempted"], "failures": res["failures"],
    }
    if args.trace:
        info.update({"traced_passes_s": res["traced_passes_s"],
                     "layer_self_total_s": res["layer_self_total_s"],
                     "top_self": res["top_self"]})
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": sum(job_means),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
