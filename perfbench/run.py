#!/usr/bin/env python3
"""End-to-end benchmark of aaltune (see perfbench/README.md).

    python3 perfbench/run.py --workload tune-bted-bao --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. Builds the library, the tune harness and
the tuning daemon from source into .bench_build/ (Release), runs one
workload for about --seconds, checks its outputs, prints a human-readable
report and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from a separate traced run. Exits
non-zero, without a result line, if the build fails or a workload cannot
run. A failed output check prints a result with "correct": false and exits
non-zero.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"

sys.path.insert(0, BENCH_DIR)
import serve_workload  # noqa: E402
import spans  # noqa: E402

# Threads and connections each workload asks of the host. The benchmark
# refuses to run where any one of these exceeds nproc, because the figures
# would then measure oversubscription rather than the program.
TUNE_JOBS = {"tune-bted-bao": 1, "tune-autotvm": 3}
WORKLOADS = ("tune-bted-bao", "tune-autotvm", "serve-mixed")


def host_nproc():
    return len(os.sched_getaffinity(0))


def thread_budget(workload):
    """Returns {what: count} for the workload's thread/connection needs."""
    if workload == "serve-mixed":
        return {
            "daemon workers + measure lanes":
                serve_workload.WORKERS + serve_workload.MEASURE_LANES,
            "client threads": serve_workload.CLIENT_THREADS,
            "client connections": serve_workload.CLIENT_CONNECTIONS,
        }
    return {"tune jobs": TUNE_JOBS[workload]}


def build():
    """Configures and builds the benchmark targets; raises on failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    gen = []
    if (not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja")):
        gen = ["-G", "Ninja"]
    subprocess.run([cmake, "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([cmake, "--build", BUILD_DIR,
                    "-j", str(min(host_nproc(), 4)),
                    "--target", "perfbench_tune", "aaltune_serve"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return {"tune_bin": os.path.join(BUILD_DIR, "perfbench_tune"),
            "serve_bin": os.path.join(BUILD_DIR, "aaltune_serve")}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# Span name -> per-layer metric prefix on the tune workloads.
TUNE_LAYERS = (
    ("graph.lower", "graph.lower_ms"),
    ("pipeline.task_setup", "pipeline.task_setup_ms"),
    ("session.task", "session.task_ms"),
    ("tuner.begin", "tuner.begin_ms"),
    ("core.init", "core.init_ms"),
    ("acquire", "acquire.ms"),
    ("surrogate.fit", "surrogate.fit_ms"),
    ("tuner.observe", "tuner.observe_ms"),
    ("tuner.finalize", "tuner.finalize_ms"),
    ("measure.batch", "measure.batch_ms"),
)


def run_tune(ctx, workload, seed, seconds, trace, corrupt=False):
    args = [ctx["tune_bin"], "tune", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    span_path = os.path.join(ctx["out_dir"],
                             "spans-%s-%d.json" % (workload, seed))
    if trace:
        args += ["--spans", span_path]
    if corrupt:
        args.append("--corrupt")
    proc = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    values = dict(out["metrics"])
    calls = values.pop("call_s")
    cpu = values.pop("call_cpu_s")
    values["setup_s"] = statistics.median(values["setup_s"])
    # The fastest call: a busy host slows some calls of a run more than
    # others, and the fastest is the one it slowed least, so this follows
    # the work a call does more closely than the median does.
    values["tune_s"] = min(calls)
    values["tune_cpu_s"] = statistics.median(cpu)
    # The result line must carry every end-to-end metric on every workload.
    # A tune workload's job is one tune_model call with no queue in front of
    # it, so the job figures are statistics of the same call times.
    values["job_p50_s"] = statistics.median(calls)
    values["job_p90_s"] = spans.quantile(calls, 0.9)
    values["jobs_per_s"] = len(calls) / sum(calls)
    values["job.samples"] = len(calls)
    values["fail_frac"] = out["failed"] / out["attempted"]
    values["slo_miss_frac"] = values["fail_frac"]
    if trace:
        span_list = spans.load(span_path)
        values.update(spans.layer_metrics(span_list, TUNE_LAYERS))
        values["surrogate.fits"] = values["surrogate.fit_ms.count"]
        values["trace.attributed_frac"] = spans.attributed_frac(
            span_list, "tune_model", ("session.task",))
        values["trace.overhead_frac"] = (
            min(values.pop("traced_call_s")) / values["tune_s"] - 1.0)
    return values, out["attempted"], out["failed"], out["errors"]


def run_workload(ctx, workload, seed, seconds, trace, corrupt=False):
    if workload == "serve-mixed":
        return serve_workload.run(ctx, seed, seconds, trace)
    return run_tune(ctx, workload, seed, seconds, trace, corrupt)


def select_metrics(spec, values, trace):
    """BENCHMARK.json's metric list for this mode, with measured values.

    A per-layer metric of a layer the workload never calls into (serve
    queues on a tune workload, tuner spans inside the daemon) reads 0.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            value = values[name]
        elif trace:
            value = 0
        else:
            raise RuntimeError("workload produced no value for " + name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the daemon and harness processes
    # this run started are stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    nproc = host_nproc()
    for what, count in thread_budget(args.workload).items():
        if count > nproc:
            print("error: %s = %d exceeds nproc = %d" % (what, count, nproc),
                  file=sys.stderr)
            return 2
    spec = load_spec()
    ctx = build()
    ctx["out_dir"] = OUT_DIR
    os.makedirs(OUT_DIR, exist_ok=True)

    # A gauge of host speed, taken before the workload: fixed work that uses
    # no library code (see README.md, "Measured spread").
    host_ref_ms = json.loads(subprocess.run(
        [ctx["tune_bin"], "host-ref"], check=True, stdout=subprocess.PIPE,
        text=True).stdout)["ref_ms"]
    values, attempted, failed, errors = run_workload(
        ctx, args.workload, args.seed, args.seconds, args.trace)
    values["host.ref_ms"] = host_ref_ms
    correct = failed == 0 and not errors
    metrics = select_metrics(spec, values, args.trace)

    print("# host=%s nproc=%d build=%s host_ref_ms=%.3f workload=%s seed=%d "
          "seconds=%d trace=%d"
          % (platform.node(), nproc, BUILD_TYPE, host_ref_ms, args.workload,
             args.seed, args.seconds, args.trace))
    print("# samples: %d jobs, fail_frac=%.4f (%d/%d), slo_miss_frac=%.4f" %
          (values.get("job.samples", 0), failed / max(attempted, 1), failed,
           attempted, values.get("slo_miss_frac", 0.0)))
    if args.workload == "serve-mixed":
        print("# job class: share of jobs / share of tasks hitting the "
              "store: " + ", ".join(
                  "%s=%.2f/%.2f" % (c, values["serve.share_" + c],
                                    values["serve.store_hit_frac." + c])
                  for c in serve_workload.CLASSES))
    for name, m in metrics.items():
        print("# %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("# check failed: " + e)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}, separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        print("error: %s" % e, file=sys.stderr)
        sys.exit(2)
