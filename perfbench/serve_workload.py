"""The serve-mixed workload: open-loop job traffic to the tuning daemon.

The daemon (aaltune_serve) runs as a child process over a record store that
set-up seeds; this process is the one client. It sends a schedule of submits
drawn from the workload seed over one Unix-socket connection and polls job
states with the protocol's `list` op on the same connection (one thread, one
connection). Job latency runs from a job's scheduled send time to the poll
that first sees it terminal, so a stalled daemon also delays the jobs queued
behind it.

Every job but a repeat tunes a small model generated for it (written to
.bench_out/serve-models/ before set-up), so its task keys are new to the
store; a repeat resends an earlier fresh spec and reads that job's records.
The run reports each class's measured store-hit share beside its share of
the jobs.
"""

import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import time

import spans

# Daemon shape: workers + measure lanes, and the client's threads and
# connections, must each fit within nproc (run.py checks before starting).
WORKERS = 2
MEASURE_LANES = 1
CLIENT_THREADS = 1
CLIENT_CONNECTIONS = 1

# Offered load: a fixed open-loop rate chosen from the daemon's measured
# capacity on this mix (capacity.py; the figures are in README.md). Job
# specs are small-budget bted+bao tunes, so BTED initialisation dominates
# each job.
RATE_PER_S = 2.0
BUDGET = 16
# A job misses its service-level objective when it fails, is refused, is
# lost, or completes later than this after its scheduled send time.
SLO_S = 2.0
POLL_S = 0.01
DRAIN_TIMEOUT_S = 60.0
SETUP_REPS = 15

# One block of five jobs: two fresh specs, one exact repeat of an earlier
# fresh spec, one transfer job and one native-template job on a non-GPU
# target. Shares are therefore exact: 40/20/20/20 percent.
BLOCK = ("fresh", "fresh", "repeat", "transfer", "native")
CLASSES = ("fresh", "repeat", "transfer", "native")
NATIVE_TARGETS = ("cpu-simd", "fpga-systolic")
# A repeat copies a fresh spec due at least this long before it, so the
# original has normally finished and flushed its records to the store.
REPEAT_LAG_S = 4.0
TERMINAL = ("done", "failed", "cancelled")

# Generated model shapes. Every fresh, transfer and native job tunes its own
# model, so its task keys are new to the store and its tasks miss it; only
# repeats read the store. Sizes avoid the zoo models the store is seeded
# with (power-of-two channels, 56 and 224 pixel inputs).
MODEL_SIZES = tuple(h for h in range(36, 101, 2) if h != 56)
MODEL_CHANNELS = (24, 40, 48, 72, 80, 88)
MODEL_TEXT = """# Generated by perfbench/serve_workload.py for the serve-mixed workload.
%%data = input(shape=[1,3,%(h)d,%(h)d])
%%c1   = conv2d(%%data, channels=%(c)d, kernel=3, stride=2, pad=1)
%%r1   = relu(%%c1)
%%dw   = depthwise_conv2d(%%r1, kernel=3, stride=1, pad=1)
%%r2   = relu(%%dw)
%%pw   = conv2d(%%r2, channels=%(c2)d, kernel=1, stride=1, pad=0)
%%r3   = relu(%%pw)
%%c3   = conv2d(%%r3, channels=%(c2)d, kernel=3, stride=2, pad=1)
%%r4   = relu(%%c3)
%%gap  = global_avg_pool2d(%%r4)
%%f    = flatten(%%gap)
%%fc   = dense(%%f, units=%(u)d)
%%out  = softmax(%%fc)
"""


def model_shapes(count):
    """`count` distinct model shapes, the same list for every seed.

    Shape i has input size h, stem channels c and dense units u; no two
    shapes share a task (every task depends on (h, c) or on u), so a run's
    models never share a store key. Sizes step through MODEL_SIZES and
    channels through MODEL_CHANNELS.
    """
    if count > len(MODEL_SIZES) * len(MODEL_CHANNELS):
        raise ValueError("serve-mixed needs %d models; --seconds is too long"
                         % count)
    shapes = []
    for i in range(count):
        # Pass p = i // len(MODEL_SIZES) over the sizes shifts the channel
        # index by p more than the previous pass did, so (h, c) repeats
        # only after len(MODEL_CHANNELS) passes.
        h = MODEL_SIZES[i % len(MODEL_SIZES)]
        c = MODEL_CHANNELS[(i - i // len(MODEL_SIZES)) % len(MODEL_CHANNELS)]
        shapes.append({"h": h, "c": c, "c2": 2 * c, "u": 11 + i})
    return shapes


def write_models(schedule, model_dir):
    """Writes the .model file every scheduled spec names."""
    os.makedirs(model_dir, exist_ok=True)
    for _, _, spec, shape in schedule:
        with open(spec["model"], "w", encoding="utf-8") as f:
            f.write(MODEL_TEXT % shape)


def make_schedule(seed, seconds, model_dir, rate=RATE_PER_S):
    """Returns [(due_s, class, spec, shape)] for one run, from `seed` alone.

    Each class draws its models from a fixed slice of model_shapes(), so the
    work in a run is the same for every seed; the seed draws the order of
    classes within each block, the order of models within each class, the
    arrival jitter, the originals the repeats copy and the tuner seeds.
    """
    rng = random.Random(seed * 7919 + 17)
    n = max(len(BLOCK), int(round(rate * seconds)))
    classes = []
    for _ in range(n // len(BLOCK)):
        block = list(BLOCK)
        rng.shuffle(block)
        # A repeat must follow some fresh spec.
        while not classes and block.index("repeat") < block.index("fresh"):
            rng.shuffle(block)
        classes.extend(block)

    count = {c: classes.count(c) for c in CLASSES}
    shapes = model_shapes(count["fresh"] + count["transfer"] +
                          count["native"])
    pools, k = {}, 0
    for cls in ("fresh", "transfer", "native"):
        pool = [(shape, NATIVE_TARGETS[i % len(NATIVE_TARGETS)])
                for i, shape in enumerate(shapes[k:k + count[cls]])]
        k += count[cls]
        rng.shuffle(pool)
        pools[cls] = pool
    used_seeds = set()

    def fresh_seed():
        while True:
            s = rng.randrange(1, 1 << 30)
            if s not in used_seeds:
                used_seeds.add(s)
                return s

    schedule = []
    sent_fresh = []  # (due, spec, shape)
    period = 1.0 / rate
    for i, cls in enumerate(classes):
        due = i * period + rng.uniform(0.0, 0.5 * period)
        if cls == "repeat":
            settled = [f for f in sent_fresh if f[0] <= due - REPEAT_LAG_S]
            _, spec, shape = rng.choice(settled or sent_fresh[:1])
            spec = dict(spec)
        else:
            shape, target = pools[cls].pop()
            spec = {"model": os.path.join(
                        model_dir, "m%dx%d-u%d.model" %
                        (shape["h"], shape["c"], shape["u"])),
                    "budget": BUDGET, "seed": fresh_seed()}
            if cls == "transfer":
                spec["transfer"] = True
            elif cls == "native":
                spec.update(target=target, template="native")
            else:
                sent_fresh.append((due, spec, shape))
        schedule.append((due, cls, spec, shape))
    return schedule


class Client:
    """Blocking line-JSON protocol client over one Unix-socket connection."""

    def __init__(self, path, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")
        self.next_id = 0

    def close(self):
        self.file.close()
        self.sock.close()

    def _send(self, op, fields):
        self.next_id += 1
        req = {"id": self.next_id, "op": op}
        req.update(fields)
        self.file.write(json.dumps(req, separators=(",", ":")) + "\n")
        self.file.flush()

    def _read(self):
        line = self.file.readline()
        if not line:
            raise RuntimeError("daemon closed the connection")
        return json.loads(line)

    def call(self, op, **fields):
        self._send(op, fields)
        return self._read()

    def frames(self, op, **fields):
        """Sends a multi-frame op (`list`, `stream`); returns its frames."""
        self._send(op, fields)
        out = []
        while True:
            frame = self._read()
            if not frame.get("ok", False):
                raise RuntimeError("%s failed: %s" % (op, frame))
            out.append(frame)
            if frame.get("frame") == "end":
                return out


def _peak_rss_mb(pid):
    with open("/proc/%d/status" % pid, encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for daemon pid %d" % pid)


def _cpu_seconds(pid):
    """User + system CPU time of a process so far."""
    with open("/proc/%d/stat" % pid, encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _layer(metrics, name, durations_ms):
    """Count, p50, p90 and summed time of a layer timed without child spans."""
    metrics[name + ".count"] = len(durations_ms)
    metrics[name + ".p50"] = spans.quantile(durations_ms, 0.5)
    metrics[name + ".p90"] = spans.quantile(durations_ms, 0.9)
    metrics[name + ".self"] = sum(durations_ms)


class Daemon:
    """aaltune_serve child process; stop() always reaps it."""

    def __init__(self, binary, sock, store, log):
        if os.path.exists(sock):
            os.unlink(sock)
        self.proc = subprocess.Popen(
            [binary, "--socket", sock, "--workers", str(WORKERS),
             "--measure-threads", str(MEASURE_LANES), "--store", store],
            stdout=log, stderr=log)
        self.client = None
        try:
            self.client = Client(sock)
            hello = self.client.call("hello")
            if not hello.get("ok"):
                raise RuntimeError("hello failed: %s" % hello)
        except BaseException:
            self.stop()
            raise

    def shutdown(self):
        """Graceful: drain and exit. Returns the daemon's exit code."""
        self.client.call("shutdown")
        self.client.close()
        self.client = None
        return self.proc.wait(timeout=60)

    def stop(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _json_cmd(args):
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_serve(schedule, jobs, listed, rejected, stats_after, reopened,
                records_before):
    """Output checks for one serve run; returns a list of failures.

    Every scheduled job must reach exactly one terminal state (none lost,
    none duplicated), the daemon must count exactly the jobs sent, and the
    store reopened after the run must have no truncated tail and hold at
    least every record the daemon reported.
    """
    errors = []
    submitted = [j for j in jobs if j.get("job") is not None]
    ids = [j["job"] for j in submitted]
    if len(set(ids)) != len(ids):
        errors.append("a job id was assigned twice")
    if len(submitted) + rejected != len(schedule):
        errors.append("%d jobs scheduled but %d submitted + %d refused" %
                      (len(schedule), len(submitted), rejected))
    seen = {}
    for frame in listed:
        seen[frame["job"]] = seen.get(frame["job"], 0) + 1
    for j in submitted:
        if seen.get(j["job"], 0) != 1:
            errors.append("job %d listed %d times" % (j["job"],
                                                      seen.get(j["job"], 0)))
        elif j.get("state") not in TERMINAL:
            errors.append("job %d never reached a terminal state" % j["job"])
    extra = set(seen) - set(ids)
    if extra:
        errors.append("daemon lists jobs never submitted: %s" % sorted(extra))
    if stats_after.get("submitted") != len(submitted):
        errors.append("daemon counts %s submits, client sent %d" %
                      (stats_after.get("submitted"), len(submitted)))
    terminal = sum(stats_after.get(k, 0) for k in TERMINAL)
    if terminal != len(submitted):
        errors.append("daemon reports %d terminal jobs of %d" %
                      (terminal, len(submitted)))
    if reopened["truncated_tails"] != 0:
        errors.append("reopened store has %d truncated tails" %
                      reopened["truncated_tails"])
    floor = max(records_before, stats_after.get("store_records", 0))
    if reopened["records"] < floor:
        errors.append("reopened store holds %d records, expected >= %d" %
                      (reopened["records"], floor))
    for key in ("latency_ms", "gflops_geomean"):
        if not 0 < reopened[key] < float("inf"):
            errors.append("deployed %s is not finite and positive" % key)
    return errors


def start_daemon(ctx, seed, log, reps=1):
    """Set-up: seeds a fresh store and starts the daemon, up to the first
    answered hello, `reps` times; the last daemon stays up.

    Returns (daemon, set-up times in s, store open times in ms, records).
    """
    store = os.path.join(ctx["out_dir"], "serve-store")
    sock = os.path.relpath(os.path.join(ctx["out_dir"], "serve.sock"))
    setup_times, open_ms, daemon = [], [], None
    try:
        for _ in range(reps):
            if daemon is not None:
                daemon.shutdown()
                daemon = None
            t0 = time.monotonic()
            shutil.rmtree(store, ignore_errors=True)
            seeded = _json_cmd([ctx["tune_bin"], "seed-store", "--dir",
                                store, "--seed", str(seed)])
            daemon = Daemon(ctx["serve_bin"], sock, store, log)
            setup_times.append(time.monotonic() - t0)
            open_ms.append(seeded["open_ms"])
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon, setup_times, open_ms, seeded["records"]


def run(ctx, seed, seconds, trace, rate=RATE_PER_S, inflight=0):
    """Runs serve-mixed; returns (values, attempted, failed, errors).

    With `inflight` > 0 the client runs closed-loop instead: it ignores the
    schedule's due times and keeps that many jobs queued or running, which
    measures the daemon's capacity on the same mix (capacity.py).
    """
    out_dir = ctx["out_dir"]
    store = os.path.join(out_dir, "serve-store")
    schedule = make_schedule(seed, seconds,
                             os.path.join(out_dir, "serve-models"), rate)
    write_models(schedule, os.path.join(out_dir, "serve-models"))

    with open(os.path.join(out_dir, "serve-daemon.log"), "w",
              encoding="utf-8") as log:
        daemon, setup_times, open_ms, records_before = start_daemon(
            ctx, seed, log, SETUP_REPS)
        try:
            cpu0 = _cpu_seconds(daemon.proc.pid)
            result = _drive(daemon, schedule, inflight)
            result["cpu_s"] = _cpu_seconds(daemon.proc.pid) - cpu0
            result["peak_rss_mb"] = _peak_rss_mb(daemon.proc.pid)
            code = daemon.shutdown()
            daemon = None
            if code != 0:
                raise RuntimeError("daemon exited with code %d" % code)
        finally:
            if daemon is not None:
                daemon.stop()

    # Delivered quality: every model the run tuned, deployed on its target
    # with the store's best record per task, whichever job measured it. The
    # set of models is the same for every seed (make_schedule).
    deployed = sorted({(spec["model"], spec.get("target", "gpu-pascal"),
                        spec.get("template", ""))
                       for _, _, spec, _ in schedule})
    args = [ctx["tune_bin"], "reopen-store", "--dir", store]
    for d in deployed:
        args += ["--deploy", "%s|%s|%s" % d]
    reopened = _json_cmd(args)
    jobs = result["jobs"]
    errors = check_serve(schedule, jobs, result["listed"], result["rejected"],
                         result["stats"], reopened, records_before)

    done = [j for j in jobs if j.get("state") == "done"]
    waits = [j["terminal_at"] - j["due"] for j in done]
    missed = sum(1 for j in jobs if j.get("state") != "done" or
                 j["terminal_at"] - j["due"] > SLO_S)
    failed = len(jobs) - len(done)  # failed, refused, cancelled or lost
    if not done:
        errors.append("no job completed")
    first_due = min(j["due"] for j in jobs)
    last_end = max((j["terminal_at"] for j in done), default=first_due + 1.0)
    values = {
        "setup_s": statistics.median(setup_times),
        "tune_s": statistics.median(
            [j["terminal_at"] - j["running_at"] for j in done] or [0.0]),
        "tune_cpu_s": result["cpu_s"] / max(len(done), 1),
        "model_latency_ms": reopened["latency_ms"],
        "best_gflops_geomean": reopened["gflops_geomean"],
        "job_p50_s": spans.quantile(waits, 0.5),
        "job_p90_s": spans.quantile(waits, 0.9),
        "jobs_per_s": len(done) / max(last_end - first_due, 1e-9),
        "peak_rss_mb": result["peak_rss_mb"],
        "slo_miss_frac": missed / len(schedule),
        "fail_frac": failed / len(schedule),
        "serve.jobs": len(schedule),
        "serve.queue_high_water": result["high_water"],
        "job.samples": len(waits),
    }
    values.update(class_shares(jobs, result["streams"]))
    values["serve.send_lateness_ms.p90"] = spans.quantile(
        [1e3 * j["late"] for j in jobs], 0.9)
    if trace:
        values.update(_trace_metrics(result, jobs, open_ms, reopened))
        _write_spans(os.path.join(out_dir, "spans-serve-mixed-%d.json" % seed),
                     jobs)
    return values, len(schedule), failed + len(errors), errors


def class_shares(jobs, streams):
    """Each job class's share of the jobs sent (the label), and the share of
    its tasks that read records from the store (measured from the streamed
    store_hit events: one per task whose preload found records)."""
    out = {}
    for cls in CLASSES:
        mine = [j for j in jobs if j["class"] == cls]
        out["serve.share_" + cls] = len(mine) / len(jobs)
        tasks = hits = 0
        for j in mine:
            events = streams.get(j.get("job"), ())
            tasks += sum(1 for e in events if e["type"] == "session_begin")
            hits += sum(1 for e in events if e["type"] == "store_hit")
        out["serve.store_hit_frac." + cls] = hits / tasks if tasks else 0.0
    return out


def _drive(daemon, schedule, inflight=0):
    """The timed section: submits plus polling until drained.

    Open loop (inflight == 0): each job is sent at its due time. Closed
    loop: the next job is sent as soon as fewer than `inflight` are pending,
    and its due time is its send time.
    """
    client = daemon.client
    stats_before = client.call("stats")
    jobs, by_id = [], {}
    rejected, high_water = 0, 0
    t0 = time.monotonic() + 0.05
    nxt, next_poll = 0, 0.0
    pending = 0
    deadline = None
    while nxt < len(schedule) or pending > 0:
        now = time.monotonic() - t0
        if nxt < len(schedule) and (
                pending < inflight if inflight else now >= schedule[nxt][0]):
            due, cls, spec, _ = schedule[nxt]
            nxt += 1
            sent = time.monotonic() - t0
            if inflight:
                due = sent
            resp = client.call("submit", **spec)
            acked = time.monotonic() - t0
            job = {"due": due, "class": cls, "late": sent - due,
                   "sent": sent, "acked": acked, "state": None}
            jobs.append(job)
            if resp.get("ok"):
                job["job"] = resp["job"]
                by_id[resp["job"]] = job
                pending += 1
            else:
                rejected += 1
                job["state"] = "refused"
            continue
        if now >= next_poll:
            frames = client.frames("list")
            now = time.monotonic() - t0
            queued = 0
            for f in frames:
                if f.get("frame") != "job" or f["job"] not in by_id:
                    continue
                job = by_id[f["job"]]
                state = f["state"]
                if state == "queued":
                    queued += 1
                if (state in ("running", "cancelling")
                        and "running_at" not in job):
                    job["running_at"] = now
                if state in TERMINAL and job["state"] not in TERMINAL:
                    job.setdefault("running_at", now)
                    job["terminal_at"] = now
                    pending -= 1
                job["state"] = state
            high_water = max(high_water, queued)
            next_poll = now + POLL_S
            if nxt == len(schedule) and deadline is None:
                deadline = now + DRAIN_TIMEOUT_S
            if deadline is not None and now > deadline:
                break  # remaining jobs count as lost
        wake = next_poll
        if nxt < len(schedule) and not inflight:
            wake = min(wake, schedule[nxt][0])
        delay = wake - (time.monotonic() - t0)
        if delay > 0:
            time.sleep(delay)

    # After the timed section: the final listing, every job's streamed
    # trace and the daemon's counters.
    listed = [f for f in client.frames("list") if f.get("frame") == "job"]
    streams = {
        j["job"]: [json.loads(f["line"]) for f in
                   client.frames("stream", job=j["job"], **{"from": 0})
                   if f.get("frame") == "trace"]
        for j in jobs if j.get("job") is not None}
    return {"jobs": jobs, "listed": listed, "rejected": rejected,
            "high_water": high_water, "stats_before": stats_before,
            "streams": streams, "stats": client.call("stats")}


def _trace_metrics(result, jobs, open_ms, reopened):
    """Per-layer metrics: client timestamps plus streamed job traces."""
    m = {}
    _layer(m, "serve.admit_ms", [1e3 * (j["acked"] - j["sent"]) for j in jobs])
    timed = [j for j in jobs if "terminal_at" in j]
    _layer(m, "serve.queue_wait_ms",
           [1e3 * (j["running_at"] - j["due"]) for j in timed])
    _layer(m, "serve.run_ms",
           [1e3 * (j["terminal_at"] - j["running_at"]) for j in timed])
    _layer(m, "store.open_ms", open_ms)
    _layer(m, "store.reopen_ms", [reopened["reopen_ms"]])
    events = [e for lines in result["streams"].values() for e in lines]
    transfer_tasks = sum(
        1 for j in jobs if j["class"] == "transfer" and j.get("job") is not None
        for e in result["streams"][j["job"]] if e["type"] == "session_begin")
    activations = sum(1 for e in events if e["type"] == "transfer_seed")
    checked = sum(e.get("checked", 0) for e in events
                  if e["type"] == "constraint_prune")
    pruned = sum(e.get("pruned", 0) for e in events
                 if e["type"] == "constraint_prune")
    stats = result["stats"]
    m.update({
        "store.hits": sum(e.get("hits", 0) for e in events
                          if e["type"] == "store_hit"),
        "store.appends": stats["store_records"] -
                         result["stats_before"]["store_records"],
        "store.records": reopened["records"],
        "store.truncated_tails": reopened["truncated_tails"],
        "transfer.activations": activations,
        "transfer.skipped": transfer_tasks - activations,
        "space.pruned_frac": pruned / checked if checked else 0.0,
        "serve.rejected": stats["rejected"],
        "obs.trace_events": len(events),
    })
    return m


def _write_spans(path, jobs):
    """One `serve.job` span per job (due → terminal) with its phases."""
    spans, next_id = [], 1
    for j in jobs:
        if "terminal_at" not in j:
            continue
        root = next_id
        parts = [("serve.job", 0, j["due"], j["terminal_at"]),
                 ("serve.admit", root, j["sent"], j["acked"]),
                 ("serve.queue_wait", root, j["due"], j["running_at"]),
                 ("serve.run", root, j["running_at"], j["terminal_at"])]
        for name, parent, start, end in parts:
            spans.append({"name": name, "id": next_id, "parent": parent,
                          "task": root, "start_ms": 1e3 * start,
                          "end_ms": 1e3 * end})
            next_id += 1
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spans, f, indent=0)
