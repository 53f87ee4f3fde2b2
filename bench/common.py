"""The job record and the closed-loop pass runner shared by the
workloads."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Job:
    """One unit of client work.

    ``run`` calls the library and returns ``(summary, artifacts)``: the
    summary holds small plain values (verdicts, parameters, exit codes)
    and is compared across passes; the artifacts (matrices, files) are
    dropped once the job is checked.  ``expect`` compares a summary with
    the paper's closed forms; ``deep`` re-derives the artifacts
    independently.  Neither check is part of the job's time.
    """

    name: str
    run: Callable[[], tuple[dict, object]]
    expect: Callable[[dict], list[str]]
    deep: Callable[[dict, object], list[str]] | None = None


@dataclass
class PassResult:
    busy_s: float               # sum of job latencies: the pass without its checks
    names: list[str]
    summaries: list[dict]
    latencies_s: list[float]
    failures: list[str]         # one entry per failed job
    stats: dict


def run_pass(workload, deep: bool) -> PassResult:
    """Run every job of one pass in order, one at a time (closed loop,
    single client, no think time).  After each job returns, and outside
    its time, its summary is checked against the closed forms and, with
    ``deep``, its artifacts against the oracles.  An exception becomes a
    failed job instead of ending the run."""
    names, summaries, latencies, failures = [], [], [], []
    clock = time.perf_counter
    for job in workload.jobs():
        t0 = clock()
        try:
            summary, artifacts = job.run()
        except Exception as exc:  # a library defect must not stop the benchmark
            summary, artifacts = {"error": f"{type(exc).__name__}: {exc}"}, None
        latencies.append(clock() - t0)
        if "error" in summary:
            errs = [summary["error"]]
        else:
            errs = list(job.expect(summary))
            if deep and not errs and job.deep is not None:
                errs = list(job.deep(summary, artifacts))
        del artifacts
        if errs:
            failures.append(f"{job.name}: {'; '.join(errs)}")
        names.append(job.name)
        summaries.append(summary)
    return PassResult(sum(latencies), names, summaries, latencies, failures,
                      workload.pass_stats())
