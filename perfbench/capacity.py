#!/usr/bin/env python3
"""Measures the tuning daemon's capacity on the serve-mixed job mix.

    python3 perfbench/capacity.py --seed 1 --seconds 60 --rates 1.0,1.5,2.0

Run from the repository root. First a closed loop: one client keeps
INFLIGHT jobs queued or running, so the daemon's workers never wait for
work, and the completion rate is the daemon's capacity on this mix. Then an
open loop at each of --rates (jobs/s), reporting job latency from the
scheduled send time, the queue's high-water mark and the SLO miss share.
serve_workload.RATE_PER_S, the rate the benchmark offers, is chosen from
these figures; README.md records them.
"""

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402
import serve_workload  # noqa: E402

# Two jobs per worker: one running and one queued behind it.
INFLIGHT = 2 * serve_workload.WORKERS


def report(label, values, attempted, failed):
    print("%-22s jobs_per_s=%.3f job_p50_s=%.3f job_p90_s=%.3f "
          "run_p50_s=%.3f queue_high_water=%d slo_miss_frac=%.3f "
          "jobs=%d failed=%d" %
          (label, values["jobs_per_s"], values["job_p50_s"],
           values["job_p90_s"], values["tune_s"],
           values["serve.queue_high_water"], values["slo_miss_frac"],
           attempted, failed), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--rates", default="",
                        help="comma-separated open-loop rates in jobs/s")
    args = parser.parse_args()
    ctx = run.build()
    ctx["out_dir"] = run.OUT_DIR
    os.makedirs(run.OUT_DIR, exist_ok=True)

    values, attempted, failed, errors = serve_workload.run(
        ctx, args.seed, args.seconds, 0, inflight=INFLIGHT)
    report("closed loop (%d in flight)" % INFLIGHT, values, attempted, failed)
    for rate in [float(r) for r in args.rates.split(",") if r]:
        values, attempted, failed, more = serve_workload.run(
            ctx, args.seed, args.seconds, 0, rate=rate)
        errors += more
        report("open loop %.2f/s" % rate, values, attempted, failed)
    for e in errors:
        print("check failed: " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
