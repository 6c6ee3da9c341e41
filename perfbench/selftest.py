#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py          # from the repository root

1. Short mode: every workload, untraced and traced, with a 2-second window.
   Each run must pass its output checks and emit exactly the metrics
   BENCHMARK.json names for that mode, with their units; end-to-end values
   must be non-zero, and on tune-bted-bao the layer spans must account for
   at least 90% of the traced tune_model call.
2. The output checks must reject corrupted results: a tune run whose best
   GFLOPS was altered, and serve audits with a lost job, a duplicated job
   and a truncated store tail. The 90% span-coverage check must reject a
   span set whose task spans leave a gap no layer span covers.
3. The serve schedule is a function of the seed alone and has the job-class
   shares BENCHMARK.json records, and the recorded SLO is the one applied.
   Every fresh, transfer and native job has a model of its own.

Exits 0 when every check passes.
"""

import copy
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402
import serve_workload  # noqa: E402
import spans  # noqa: E402

FAILURES = []


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        FAILURES.append(what)


def short_mode(spec):
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "2",
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False)
            tag = "%s trace=%d" % (workload, trace)
            expect(proc.returncode == 0, tag + ": exit code 0")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], tag + ": result keys")
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, tag + ": outputs check")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            got = result["metrics"]
            expect(list(got) == [m["name"] for m in wanted],
                   tag + ": every listed metric, in order")
            expect(all(got[m["name"]]["unit"] == m["unit"] for m in wanted
                       if m["name"] in got), tag + ": units")
            if not trace:
                expect(all(v["value"] > 0 for v in got.values()),
                       tag + ": end-to-end values non-zero")
            elif workload == "tune-bted-bao":
                expect(got["trace.attributed_frac"]["value"] >= 0.9,
                       tag + ": layer spans account for >= 90% of tune_model")


def corrupted_results():
    ctx = run.build()
    ctx["out_dir"] = run.OUT_DIR
    os.makedirs(run.OUT_DIR, exist_ok=True)
    _, _, failed, errors = run.run_tune(ctx, "tune-bted-bao", 1, 1, 0,
                                        corrupt=True)
    expect(failed >= 1 and any("history maximum" in e for e in errors),
           "tune check rejects an altered best GFLOPS")

    schedule = [(0.0, "fresh", {}, {}), (1.0, "fresh", {}, {})]
    jobs = [{"job": 1, "state": "done"}, {"job": 2, "state": "done"}]
    listed = [{"job": 1}, {"job": 2}]
    stats = {"submitted": 2, "done": 2, "store_records": 10}
    reopened = {"records": 10, "truncated_tails": 0, "latency_ms": 1.0,
                "gflops_geomean": 1.0}
    args = (schedule, jobs, listed, 0, stats, reopened, 5)
    expect(serve_workload.check_serve(*args) == [],
           "serve check accepts a clean run")
    lost = copy.deepcopy(args)
    lost[1][1]["state"] = "running"
    lost[2].pop()
    expect(serve_workload.check_serve(*lost) != [],
           "serve check rejects a lost job")
    dup = copy.deepcopy(args)
    dup[2].append({"job": 2})
    expect(serve_workload.check_serve(*dup) != [],
           "serve check rejects a duplicated job")
    torn = copy.deepcopy(args)
    torn[5]["truncated_tails"] = 1
    expect(serve_workload.check_serve(*torn) != [],
           "serve check rejects a truncated store tail")
    short = copy.deepcopy(args)
    short[5]["records"] = 9
    expect(serve_workload.check_serve(*short) != [],
           "serve check rejects a store missing reported records")


def span_coverage():
    def span(name, sid, parent, start, end):
        return {"name": name, "id": sid, "parent": parent, "task": 2,
                "start_ms": start, "end_ms": end}
    covered = [span("tune_model", 1, 0, 0.0, 100.0),
               span("session.task", 2, 1, 0.0, 99.0),
               span("core.init", 3, 2, 0.0, 60.0),
               span("surrogate.fit", 4, 3, 10.0, 20.0),
               span("acquire", 5, 2, 60.0, 98.0)]
    frac = spans.attributed_frac(covered, "tune_model", ("session.task",))
    expect(abs(frac - 0.98) < 1e-9, "span coverage counts layer spans")
    expect(spans.self_times(covered)[3] == 50.0,
           "self time subtracts child spans")
    gap = covered[:4]  # no acquire span: 39 ms of the task is uncovered
    frac = spans.attributed_frac(gap, "tune_model", ("session.task",))
    expect(frac < 0.9, "span coverage check rejects an uncovered task gap")


def schedule_properties(spec):
    model_dir = os.path.join(run.OUT_DIR, "serve-models")
    a = serve_workload.make_schedule(7, 30, model_dir)
    expect(a == serve_workload.make_schedule(7, 30, model_dir),
           "serve schedule repeats for a seed")
    expect(a != serve_workload.make_schedule(8, 30, model_dir),
           "serve schedule changes with the seed")
    earlier_ok = True
    seen = []
    for _, cls, s, _ in a:
        if cls == "fresh":
            seen.append(s)
        elif cls == "repeat" and s not in seen:
            earlier_ok = False
    expect(earlier_ok, "every repeat copies an earlier fresh spec")
    own = [shape for _, cls, _, shape in a if cls != "repeat"]
    keys = [(m["h"], m["c"]) for m in own] + [m["u"] for m in own]
    expect(len(set(keys)) == len(keys),
           "fresh, transfer and native jobs share no model shape")
    shapes = serve_workload.model_shapes(6 * len(serve_workload.MODEL_SIZES))
    expect(len({(m["h"], m["c"]) for m in shapes}) == len(shapes),
           "model shapes stay distinct for the longest run")
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == "serve-mixed")
    for cls in serve_workload.CLASSES:
        share = sum(1 for _, c, _, _ in a if c == cls) / len(a)
        expect("%s %d%%" % (cls, round(100 * share)) in why,
               "BENCHMARK.json records the %s share" % cls)
    expect("SLO %g s" % serve_workload.SLO_S in why,
           "BENCHMARK.json records the SLO")
    expect("%g jobs/s" % serve_workload.RATE_PER_S in why,
           "BENCHMARK.json records the offered rate")


def main():
    spec = run.load_spec()
    schedule_properties(spec)
    span_coverage()
    corrupted_results()
    short_mode(spec)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
