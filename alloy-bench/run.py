#!/usr/bin/env python3
"""alloy-bench: POST /invoke through the default AsVisorRouter edge.

    python3 alloy-bench/run.py --workload warm-tiny --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the AlloyStack libraries and the
benchmark's server and client (CMake, into $CARGO_TARGET_DIR or
.bench_build), starts one server process per set-up, drives it from one
client process, checks every answer and prints one JSON object as the last
line of stdout. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. See NOTES.md for what each metric means and what the
benchmark deliberately does not cover.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))

# Open-loop rate (requests/s) and client connections per workload. A fixed
# rate has to leave room for the host: on the 4-vCPU VM this benchmark was
# built on, neighbours slowed whole runs by up to 3.8x, and an open loop
# whose rate exceeds the capacity of the moment builds a backlog that
# swamps every latency (one warm-tiny run at 6000/s read p50 = 133 ms).
# Each rate is therefore half of the slowest closed-loop capacity_rps
# measured for the workload in any run on that host (NOTES.md lists them).
# The two tiny workloads share one rate, from the lower of their two, so
# that the pair differs only in the boot path. Every run records the load
# it actually ran at (rate / that run's capacity_rps).
#
# Each client connection serves one tenant, so no tenant has two requests
# in flight, and dataflow-wordcount has one connection. Both keep the runs
# clear of two known defects that fail a random number of requests
# (NOTES.md): the 15-pkey budget, which four tenants with default pools
# overrun as soon as one tenant has two requests in flight, and the server
# crash when two WordCount invocations overlap under the hardware MPK
# backend.
SLOWEST_CAPACITY_RPS = {"warm-tiny": 4972.0, "cold-tiny": 9708.0,
                        "dataflow-wordcount": 124.0}
TINY_RATE = 0.5 * min(SLOWEST_CAPACITY_RPS["warm-tiny"],
                      SLOWEST_CAPACITY_RPS["cold-tiny"])
WORKLOADS = {
    "warm-tiny": {"rate": TINY_RATE, "conns": 4},
    "cold-tiny": {"rate": TINY_RATE, "conns": 4},
    "dataflow-wordcount": {"rate": 0.5 * SLOWEST_CAPACITY_RPS["dataflow-wordcount"],
                           "conns": 1},
}
ROUNDS = 20          # server lifetimes per --trace 0 run; metrics are medians
MIN_ROUND_S = 1.5    # fewer rounds when --seconds is short
QUIET_STEAL = 0.02   # share of the vCPUs the hypervisor may take in a quiet round
QUIET_ROUNDS = 5     # quietest rounds used when fewer rounds than this are quiet
OPEN_SHARE = 0.6     # share of each round's measured time spent in open loop
WINDOW = 500         # correct answers per latency window (p95 keeps 25 beyond)
PREWARM_S = 0.2      # unmeasured open-loop traffic before the timed phases
MAX_LAG_P95_US = 1000.0  # generator validity limit
MAX_EXTRA_ROUNDS = 5 # rounds added while fewer than QUIET_ROUNDS are valid
MAX_TRACED_REDOS = 2 # traced-run chunk pairs redone after the generator fell behind
MAX_UNPLACED_SHARE = 0.01  # traced answers whose spans are missing or do not nest
READY_TIMEOUT_S = 60.0
CLIENT_SLACK_S = 60.0


def log(message):
    print(message, file=sys.stderr, flush=True)


LIVE_SERVERS = []


class ServerDied(Exception):
    """The server process ended, or stopped answering, while it served."""


def fail(message, code=1):
    log("alloy-bench: " + message)
    for server in list(LIVE_SERVERS):
        server.stop()
    sys.exit(code)


# ----------------------------------------------------------------- build

def build():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "alloy-bench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    runs = os.path.join(build_root, "alloy-bench-runs")
    os.makedirs(runs, exist_ok=True)
    return (os.path.join(build_dir, "alloy_bench_server"),
            os.path.join(build_dir, "alloy_bench_client"), runs)


# ----------------------------------------------------------- processes

class Server:
    def __init__(self, exe, workload, trace, spans_out, log_path):
        command = [exe, "--workload", workload]
        if trace:
            command += ["--trace", "1", "--spans-out", spans_out]
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True)
        LIVE_SERVERS.append(self)
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            fail("server did not start (%s)" % line.strip())
        self.info = json.loads(line[len("READY "):])

    def stats(self):
        """The server's getrusage: CPU seconds, minor faults, context
        switches and peak RSS, threads that already exited included.
        Raises ServerDied when the server no longer answers."""
        try:
            self.proc.stdin.write("usage\n")
            self.proc.stdin.flush()
        except OSError:
            raise ServerDied()
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("{"):
            raise ServerDied()
        usage = json.loads(line)
        usage["utime"] = usage["utime_us"] / 1e6
        usage["stime"] = usage["stime_us"] / 1e6
        return usage

    def scrape(self):
        """Sums each Prometheus series of the server's registry over labels."""
        url = "http://127.0.0.1:%d/metrics" % self.info["port"]
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                text = response.read().decode()
        except OSError:
            raise ServerDied()
        totals = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_labels, _, value = line.rpartition(" ")
            name = name_labels.split("{", 1)[0]
            try:
                totals[name] = totals.get(name, 0.0) + float(value)
            except ValueError:
                pass
        return totals

    def stop(self):
        """Asks the server to exit; returns its exit code (negative = signal)."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self in LIVE_SERVERS:
            LIVE_SERVERS.remove(self)
        return self.proc.returncode


def run_client(exe, server, workload, seed, mode, port=None, seconds=None,
               rate=None, conns=None, trace=False, spans_out=None, rid_base=0,
               latencies_out=None):
    command = [exe, "--port", str(port or server.info["port"]),
               "--workload", workload, "--workflows",
               ",".join(server.info["workflows"]), "--seed", str(seed),
               "--mode", mode]
    if seconds is not None:
        command += ["--seconds", "%.3f" % seconds]
    if rate is not None:
        command += ["--rate", str(rate)]
    if conns is not None:
        command += ["--conns", str(conns)]
    if trace:
        command += ["--trace", "1", "--spans-out", spans_out,
                    "--rid-base", str(rid_base)]
    if latencies_out:
        command += ["--latencies-out", latencies_out]
    timeout = (seconds or 0) + CLIENT_SLACK_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("client did not finish within %.0f s" % timeout)
    if done.returncode != 0:
        fail("client failed (%d): %s" % (done.returncode, done.stderr.strip()))
    return json.loads(done.stdout.strip().splitlines()[-1])


class Ledger:
    """Attempted / ok / failed per phase; every phase counts toward the run."""

    def __init__(self):
        self.phases = []

    def add(self, name, summary):
        self.phases.append((name, summary))
        log("  %-12s attempted=%-7d ok=%-7d failed=%-5d (non200=%d wrong=%d "
            "transport=%d pkey=%d)" % (
                name, summary["attempted"], summary["ok"], summary["failed"],
                summary["non200"], summary["wrong"], summary["transport"],
                summary["pkey_exhausted"]))
        return summary

    def crash(self, exit_code):
        """A server that crashed, hung or exited non-zero counts as one more
        failed attempt, on top of the requests its clients saw fail."""
        self.phases.append(("crash", {
            "attempted": 1, "ok": 0, "failed": 1, "non200": 0, "wrong": 0,
            "transport": 0, "pkey_exhausted": 0, "server_exit": exit_code}))
        log("  %-12s server exit %s" % ("crash", exit_code))

    def total(self, key):
        return sum(summary[key] for _, summary in self.phases)

    def fail(self, message, code=1):
        """Fails the run after logging what was attempted until then."""
        log("alloy-bench: so far attempted=%d ok=%d failed=%d crashes=%d" % (
            self.total("attempted"), self.total("ok"), self.total("failed"),
            sum(1 for name, _ in self.phases if name == "crash")))
        fail(message, code)


def read_latencies(path):
    """(latencies of correct answers, lags of every request), in us."""
    latencies, lags = [], []
    with open(path) as f:
        for line in f:
            latency, lag = line.split()
            if float(latency) >= 0:
                latencies.append(float(latency))
            lags.append(float(lag))
    return latencies, lags


def generator_kept_up(lags, phase):
    """An open-loop phase whose generator fell behind is invalid: its
    latencies are not recorded."""
    lag = percentile(lags, 0.95)
    if lag > MAX_LAG_P95_US:
        log("alloy-bench: %s invalid: the open-loop generator ran %.0f us late "
            "at p95 (limit %.0f us); not recorded" % (phase, lag, MAX_LAG_P95_US))
        return False
    return True


def fingerprint(server):
    cpuinfo = open("/proc/cpuinfo").read()
    flags = next((line for line in cpuinfo.splitlines()
                  if line.startswith("flags")), "")
    try:
        clocksource = open("/sys/devices/system/clocksource/clocksource0/"
                           "current_clocksource").read().strip()
    except OSError:
        clocksource = "unknown"
    return {"nproc": os.cpu_count(), "pku": " pku" in flags,
            "clocksource": clocksource,
            "mpk_backend": server.info["mpk_backend"],
            "sim_scale": server.info["sim_scale"],
            "build_type": server.info["build_type"],
            "shards": server.info["shards"]}


def host_steal_s():
    """CPU seconds the hypervisor has taken from this machine's vCPUs
    (the steal column of /proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------- end-to-end run

def start_server(paths, args, stem, ledger):
    """Starts a server and runs the warm-up; returns it and the set-up time:
    process start, router start, registration, input generation and one
    checked request per input (the first full boots and snapshot captures)."""
    started = time.perf_counter()
    server = Server(paths[0], args.workload, False, None, stem + "-server.log")
    ledger.add("warmup", run_client(paths[1], server, args.workload,
                                    args.seed, "warmup"))
    return server, time.perf_counter() - started


def run_round(args, paths, config, ledger, r, setups):
    """One server lifetime: set-up (its time is appended to `setups`), a
    little unmeasured traffic, one open-loop chunk, one closed-loop chunk.
    Returns the round's figures, or None when the generator fell behind.
    Raises ServerDied (with the server stopped) when the server crashed or
    hung."""
    client_exe, runs = paths[1], paths[2]
    stem = os.path.join(runs, "%s-seed%d-r%d" % (args.workload, args.seed, r))
    chunk = float(args.seconds) / round_count(args.seconds)
    seed = args.seed * 1000 + r
    server, setup_s = start_server(paths, args, stem, ledger)
    setups.append(setup_s)
    try:
        ledger.add("prewarm", run_client(
            client_exe, server, args.workload, seed + 500, "open",
            seconds=PREWARM_S, rate=config["rate"], conns=config["conns"]))
        before = server.stats()
        steal_before = host_steal_s()
        started = time.perf_counter()
        latency_file = stem + "-latency.txt"
        open_loop = ledger.add("open", run_client(
            client_exe, server, args.workload, seed, "open",
            seconds=chunk * OPEN_SHARE, rate=config["rate"],
            conns=config["conns"], latencies_out=latency_file))
        after = server.stats()
        latencies, lags = read_latencies(latency_file)
        if not generator_kept_up(lags, "round %d" % r):
            exit_code = server.stop()
            if exit_code != 0:
                ledger.crash(exit_code)
            return None
        closed = ledger.add("closed", run_client(
            client_exe, server, args.workload, seed, "closed",
            seconds=chunk * (1 - OPEN_SHARE), conns=config["conns"]))
        server.stats()
        steal_share = (host_steal_s() - steal_before) / (
            (time.perf_counter() - started) * (os.cpu_count() or 1))
    except ServerDied:
        ledger.crash(server.stop())
        raise
    exit_code = server.stop()
    if exit_code != 0:
        ledger.crash(exit_code)
    if open_loop["ok"] == 0 or closed["ok"] == 0:
        ledger.fail("no correct completions to measure")
    cpu_s = (after["utime"] + after["stime"]) - (before["utime"] + before["stime"])
    buckets = [count / closed["bucket_s"] for count in closed["ok_per_bucket"]]
    return {
        # Peak RSS after the open-loop chunk, so after the same number of
        # requests in every round: the server's RSS grows with the requests
        # it has served (NOTES.md).
        "rss_kb": after["maxrss_kb"], "server_exit": exit_code,
        "steal_share": steal_share,
        "cpu_us_per_req": cpu_s * 1e6 / open_loop["ok"],
        "client_cpu_us_per_req":
            open_loop["client_cpu_s"] * 1e6 / open_loop["attempted"],
        "lag_p99_us": open_loop["lag_p99_us"],
        "load": config["rate"] / statistics.median(buckets),
        "latencies": latencies, "lags": lags, "buckets": buckets,
        "fingerprint": fingerprint(server)}


def round_count(seconds):
    return max(1, min(ROUNDS, int(seconds / MIN_ROUND_S)))


def run_end_to_end(args, paths, config, ledger):
    # Every round is its own server lifetime. Each metric is a median over
    # rounds or over short windows, so neither a burst of outside load nor
    # one server's luck sets the result. A round whose generator fell behind
    # is not recorded; a round whose server crashed counts in the ledger and
    # is not recorded either. Rounds are added while fewer than QUIET_ROUNDS
    # are valid.
    rounds, setups = [], []
    crashed = invalid = 0
    planned = round_count(args.seconds)
    for r in range(planned + MAX_EXTRA_ROUNDS):
        if r >= planned and len(rounds) >= min(QUIET_ROUNDS, planned):
            break
        try:
            measured = run_round(args, paths, config, ledger, r, setups)
        except ServerDied:
            crashed += 1
            continue
        if measured is None:
            invalid += 1
        else:
            rounds.append(measured)

    if not rounds:
        ledger.fail("run invalid: no valid round (%d crashed, %d with a "
                    "generator that fell behind)" % (crashed, invalid),
                    code=1 if crashed else 3)
    # The load figures come from the quiet rounds, those the hypervisor took
    # little CPU from, or the QUIET_ROUNDS quietest when fewer are quiet: on
    # a shared host a round whose vCPUs were stolen from measures the
    # neighbours (NOTES.md, "Quiet rounds"). Peak RSS and set-up time are
    # medians over every round.
    quiet = [r for r in rounds if r["steal_share"] <= QUIET_STEAL]
    if len(quiet) < QUIET_ROUNDS:
        quietest = sorted(rounds, key=lambda r: r["steal_share"])[:QUIET_ROUNDS]
        quiet = [r for r in rounds if any(r is q for q in quietest)]
    for r in rounds:
        r["quiet"] = any(r is q for q in quiet)
    latencies = [x for r in quiet for x in r["latencies"]]
    lags = [x for r in quiet for x in r["lags"]]
    buckets = [x for r in quiet for x in r["buckets"]]
    info = rounds[-1]["fingerprint"]
    for r in rounds:
        for key in ("latencies", "lags", "buckets", "fingerprint"):
            del r[key]

    def median_of(key, among):
        return statistics.median(r[key] for r in among)

    metrics = {
        "p25_ms": metric(windowed_percentile(latencies, WINDOW, 0.25) / 1e3, "ms"),
        "capacity_rps": metric(statistics.median(buckets), "1/s"),
        "cpu_us_per_req": metric(median_of("cpu_us_per_req", quiet), "us"),
        "rss_mb": metric(median_of("rss_kb", rounds) / 1024.0, "MiB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    # The tail is reported but not gated: on a shared host it swings with
    # the neighbours' load far beyond any usable bound (NOTES.md).
    extra = {"fingerprint": info, "rounds": rounds, "setups_s": setups,
             "crashed_rounds": crashed, "invalid_rounds": invalid,
             "load": median_of("load", quiet),
             "steal_share": median_of("steal_share", rounds),
             "quiet_steal_share": median_of("steal_share", quiet),
             "quiet_rounds": len(quiet),
             "p50_ms": windowed_percentile(latencies, WINDOW, 0.5) / 1e3,
             "p95_ms": windowed_percentile(latencies, WINDOW, 0.95) / 1e3,
             "p99_ms": windowed_percentile(latencies, 2 * WINDOW, 0.99) / 1e3,
             "latency_samples": len(latencies),
             "gen_lag_p99_us": percentile(lags, 0.99)}
    return metrics, extra


# ---------------------------------------------------------- traced run

def union_length(intervals):
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def percentile(values, q):
    """Nearest-rank q-quantile, as the client computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def windowed_percentile(values, size, q):
    """Median over consecutive windows of `size` values (a short tail window
    joins the one before) of each window's q-quantile."""
    windows = [values[i:i + size] for i in range(0, len(values), size)]
    if len(windows) > 1 and len(windows[-1]) < size:
        short = windows.pop()
        windows[-1] += short
    return statistics.median(percentile(w, q) for w in windows)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def load_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def nesting_errors(http, span, flight, fns, calls_of):
    """What breaks the span tree of one request; empty when the spans nest.

    The client's due and send/receive stamps, the dispatch span, the
    shard's queue wait and invoke interval, the invoke's phase durations,
    the function spans and their call spans must nest in that order, with
    no phase longer than the interval that holds it.
    """
    errors = []
    queue_start = flight["start"] - flight["queue_wait"]
    order = [("due", http["due"]), ("send", http["start"]),
             ("dispatch start", span["start"]), ("queue start", queue_start),
             ("invoke start", flight["start"]), ("invoke end", flight["end"]),
             ("dispatch end", span["end"]), ("last byte", http["end"])]
    for (a, ta), (b, tb) in zip(order, order[1:]):
        if ta > tb:
            errors.append("%s after %s" % (a, b))
    if flight["total"] != flight["end"] - flight["start"]:
        errors.append("invoke total is not its interval")
    if flight["lease"] + flight["exec"] + flight["reset"] > flight["total"]:
        errors.append("lease + exec + reset exceed the invoke")
    for f in fns:
        if not flight["start"] <= f["start"] <= f["end"] <= flight["end"]:
            errors.append("function span outside the invoke")
        for c in calls_of(f):
            if not f["start"] <= c["start"] <= c["end"] <= f["end"]:
                errors.append("call span outside its function")
    if union_length([(f["start"], f["end"]) for f in fns]) > flight["exec"]:
        errors.append("function spans exceed Orchestrator::Run")
    return errors


def attribute(http_rows, server_rows):
    """Per-request layer self times (ns) from the spans and flight records,
    the number of correct answers without spans or flight record, and per
    failed check the number whose spans do not nest.

    Each layer is given only the intervals it is known to run in: the
    generator from due to send; the HTTP round trip from send to dispatch
    start and from dispatch end to the last byte; the router from dispatch
    start until the request enters the shard's admission queue; the queue
    wait; the visor from invoke start to invoke end, less the lease, exec
    and reset it timed; the orchestrator, function and call spans below
    exec. The time from the invoke's end until Dispatch returns (the
    visor's post-flight bookkeeping and the hand-back to the dispatching
    thread) belongs to no single span and is reported as `unattributed`.
    Requests whose spans do not nest (nesting_errors) are not attributed;
    every attributed request is checked to add up to its end-to-end time.
    """
    dispatch = {}
    flights = {}
    functions = {}
    calls = {}
    for row in server_rows:
        kind = row["kind"]
        if kind == "flight":
            if row["outcome"] == "ok":
                flights.setdefault((row["workflow"], row["total"]), []).append(row)
        elif row["name"] == "router.dispatch":
            dispatch[row["rid"]] = row
        elif row["name"].startswith("fn."):
            functions.setdefault(row["rid"], []).append(row)
        else:
            calls.setdefault(row["parent"], []).append(row)

    def calls_of(fn):
        return calls.get(fn["id"], [])

    requests = []
    unmatched = 0
    broken = {}
    for http in http_rows:
        if http["status"] != 200 or not http["correct"]:
            continue
        rid = http["rid"]
        span = dispatch.get(rid)
        fns = functions.get(rid, [])
        # Durations collide across requests; the invocation that answered
        # this request also ran inside its dispatch span.
        flight = None if span is None else next(
            (f for f in flights.get((http["workflow"], http["invoke_nanos"]), [])
             if span["start"] <= f["start"] and f["end"] <= span["end"]), None)
        if flight is None or not fns:
            unmatched += 1
            continue
        errors = nesting_errors(http, span, flight, fns, calls_of)
        if errors:
            for error in errors:
                broken[error] = broken.get(error, 0) + 1
            continue
        call_rows = [c for f in fns for c in calls_of(f)]
        fn_union = union_length([(f["start"], f["end"]) for f in fns])
        call_union = union_length([(c["start"], c["end"]) for c in call_rows])
        e2e = http["end"] - http["due"]
        cold = not flight["warm_start"]
        full_boot = cold and flight["module_load"] > 0
        layers = {
            "gen.wait": http["start"] - http["due"],
            "http.self": (span["start"] - http["start"]) + (http["end"] - span["end"]),
            "router.self": flight["start"] - flight["queue_wait"] - span["start"],
            "admission.queue_wait": flight["queue_wait"],
            "visor.self": flight["total"] - flight["lease"] - flight["exec"] - flight["reset"],
            "lease": flight["lease"],
            "pool.reset": flight["reset"],
            "orch.self": flight["exec"] - fn_union,
            "fn.self": fn_union - call_union,
            "asstd.call": call_union,
        }
        unattributed = span["end"] - flight["end"]
        if min(layers.values()) < 0 or sum(layers.values()) + unattributed != e2e:
            broken["self times do not add up"] = broken.get("self times do not add up", 0) + 1
            continue
        by_stage = {}
        for f in fns:
            by_stage.setdefault(f["stage"], []).append(f["end"])
        sums = {}
        for c in call_rows:
            sums[c["name"]] = sums.get(c["name"], 0) + c["end"] - c["start"]
        requests.append({
            "e2e": e2e, "layers": layers, "unattributed": unattributed,
            "cold": cold, "full_boot": full_boot,
            "lease": flight["lease"], "module_load": flight["module_load"],
            "exec": flight["exec"],
            "fanin": sum(max(ends) - min(ends) for ends in by_stage.values()),
            "calls": sums,
            "enters": max(f["enters"][1] for f in fns) - min(f["enters"][0] for f in fns),
            "switches": max(f["switches"][1] for f in fns) - min(f["switches"][0] for f in fns),
            "syscalls": max(f["syscalls"][1] for f in fns) - min(f["syscalls"][0] for f in fns),
        })
    return requests, unmatched, broken


def run_traced(args, paths, config, ledger):
    client_exe, runs = paths[1], paths[2]
    stem = os.path.join(runs, "%s-seed%d-trace" % (args.workload, args.seed))
    server_spans = stem + "-server.jsonl"
    server = Server(paths[0], args.workload, True, server_spans,
                    stem + "-server.log")
    try:
        counters_start = server.scrape()
        ledger.add("warmup", run_client(client_exe, server, args.workload,
                                        args.seed, "warmup"))
        counters_ready = server.scrape()
        info = fingerprint(server)
        ledger.add("prewarm", run_client(
            client_exe, server, args.workload, args.seed + 1, "open",
            seconds=PREWARM_S, rate=config["rate"], conns=config["conns"]))

        # Untraced and traced chunks alternate so drift hits both alike.
        chunk = float(args.seconds) / 4
        untraced, traced, http_files, latencies, lags = [], [], [], [], []
        proc = {"cpu": 0.0, "stime": 0.0, "minflt": 0, "vcsw": 0, "ivcsw": 0}
        counters_before = server.scrape()
        attempted_traced = 0  # every request sent while the counters ran
        for i in range(2 + MAX_TRACED_REDOS):
            if len(traced) == 2:
                break
            before = server.stats()
            latency_file = "%s-latency%d.txt" % (stem, i)
            summary = ledger.add("untraced", run_client(
                client_exe, server, args.workload, args.seed + 10 * i, "open",
                seconds=chunk, rate=config["rate"], conns=config["conns"],
                latencies_out=latency_file))
            after = server.stats()
            attempted_traced += summary["attempted"]
            chunk_latencies, chunk_lags = read_latencies(latency_file)
            if not generator_kept_up(chunk_lags, "untraced chunk %d" % i):
                continue
            latencies += chunk_latencies
            lags += chunk_lags
            untraced.append(summary)
            proc["cpu"] += after["utime"] + after["stime"] - before["utime"] - before["stime"]
            proc["stime"] += after["stime"] - before["stime"]
            proc["minflt"] += after["minflt"] - before["minflt"]
            proc["vcsw"] += after["vcsw"] - before["vcsw"]
            proc["ivcsw"] += after["ivcsw"] - before["ivcsw"]
            http_file = "%s-client%d.jsonl" % (stem, i)
            http_files.append(http_file)
            summary = ledger.add("traced", run_client(
                client_exe, server, args.workload, args.seed + 10 * i + 5, "open",
                port=server.info["trace_port"], seconds=chunk, rate=config["rate"],
                conns=config["conns"], trace=True, spans_out=http_file,
                rid_base=i * 10_000_000))
            attempted_traced += summary["attempted"]
            traced.append(summary)
        counters_after = server.scrape()
    except ServerDied:
        ledger.crash(server.stop())
        ledger.fail("the server crashed or hung during the traced run")
    exit_code = server.stop()
    if exit_code != 0:
        ledger.crash(exit_code)
        ledger.fail("server exited with %d" % exit_code)
    if not traced:
        fail("run invalid: the open-loop generator fell behind in %d chunks"
             % (2 + MAX_TRACED_REDOS), code=3)

    http_rows = [row for path in http_files for row in load_jsonl(path)]
    server_rows = load_jsonl(server_spans)
    requests, unmatched, broken = attribute(http_rows, server_rows)
    traced_ok = len(requests) + unmatched + sum(broken.values())
    unplaced = traced_ok - len(requests)
    log("alloy-bench: %d of %d traced answers attributed (%d without spans, "
        "not nested: %s)" % (len(requests), traced_ok, unmatched, broken or "none"))
    if not requests or unplaced > MAX_UNPLACED_SHARE * traced_ok:
        fail("run invalid: the spans of %d of %d traced answers are missing or "
             "do not nest" % (unplaced, traced_ok), code=3)

    def delta(name):
        return counters_after.get(name, 0.0) - counters_before.get(name, 0.0)

    untraced_ok = sum(s["ok"] for s in untraced)
    untraced_attempted = sum(s["attempted"] for s in untraced)
    us = 1e-3
    layer_names = list(requests[0]["layers"])
    layer_means = {name: mean([r["layers"][name] for r in requests]) * us
                   for name in layer_names}
    e2e_mean = mean([r["e2e"] for r in requests]) * us
    unattributed = mean([r["unattributed"] for r in requests]) * us
    log("alloy-bench: %.1f us of %.1f us end-to-end is unattributed"
        % (unattributed, e2e_mean))

    warm = [r for r in requests if not r["cold"]]
    clones = [r for r in requests if r["cold"] and not r["full_boot"]]
    # Full boots are rare after set-up, so they are taken from every
    # invocation of the server's lifetime, the warm-up's first boots included.
    fulls = [row["lease"] + row["module_load"] for row in server_rows
             if row["kind"] == "flight" and row["outcome"] == "ok"
             and not row["warm_start"] and row["module_load"] > 0]
    hits = delta("alloy_visor_pool_hits_total")
    misses = delta("alloy_visor_pool_misses_total")
    loads = delta("alloy_libos_module_loads_total")

    def modeled_ns(before, after):
        """SimCostModel spin implied by the counters: dlmopen per module
        load, plus WRPKRU per PKRU switch when the backend is emulated."""
        def change(name):
            return after.get(name, 0.0) - before.get(name, 0.0)
        nanos = change("alloy_libos_module_loads_total") * server.info["dlmopen_per_module_nanos"]
        if server.info["mpk_backend"] == "emulated":
            nanos += change("alloy_mpk_domain_switches_total") * server.info["wrpkru_nanos"]
        return nanos * server.info["sim_scale"]
    queue_waits = [r["layers"]["admission.queue_wait"] * us for r in requests]
    untraced_p50 = mean([s["p50_us"] for s in untraced])
    traced_p50 = mean([s["p50_us"] for s in traced])
    client_cpu = sum(s["client_cpu_s"] for s in untraced)

    def call_mean(name):
        return mean([r["calls"].get(name, 0) for r in requests]) * us

    metrics = {
        "gen.wait_us": metric(layer_means["gen.wait"], "us"),
        "http.self_us": metric(layer_means["http.self"], "us"),
        "http.req_bytes": metric(mean([s["req_bytes_mean"] for s in untraced]), "bytes"),
        "router.self_us": metric(layer_means["router.self"], "us"),
        "router.redirects": metric(delta("alloy_rebalance_queue_handoffs_total"), "count"),
        "admission.queue_wait_p50_us": metric(percentile(queue_waits, 0.5), "us"),
        "admission.queue_wait_p99_us": metric(percentile(queue_waits, 0.99), "us"),
        "admission.rejected": metric(delta("alloy_visor_rejections_total"), "count"),
        "visor.self_us": metric(layer_means["visor.self"], "us"),
        "pool.hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "pool.lease_us": metric(mean([r["lease"] for r in warm]) * us, "us"),
        "pool.reset_us": metric(layer_means["pool.reset"], "us"),
        "boot.clone_us": metric(mean([r["lease"] for r in clones]) * us, "us"),
        "boot.full_us": metric(mean(fulls) * us, "us"),
        "boot.full_count": metric(len(fulls), "count"),
        "snapshot.fallbacks": metric(delta("alloy_visor_snapshot_fallback_boots_total"), "count"),
        "libos.load_us": metric(mean([r["module_load"] for r in requests]) * us, "us"),
        "libos.loads": metric(loads / attempted_traced, "count"),
        "orch.run_us": metric(mean([r["exec"] for r in requests]) * us, "us"),
        "orch.self_us": metric(layer_means["orch.self"], "us"),
        "orch.fanin_wait_us": metric(mean([r["fanin"] for r in requests]) * us, "us"),
        "fn.self_us": metric(layer_means["fn.self"], "us"),
        "asstd.call_us": metric(layer_means["asstd.call"], "us"),
        "asstd.fs_write_us": metric(call_mean("asstd.fs_write"), "us"),
        "asstd.fs_read_us": metric(call_mean("asstd.fs_read"), "us"),
        "asstd.syscalls": metric(mean([r["syscalls"] for r in requests]), "count"),
        "asbuf.alloc_us": metric(call_mean("asbuf.alloc"), "us"),
        "asbuf.acquire_us": metric(call_mean("asbuf.acquire"), "us"),
        "mpk.trampoline_enters": metric(mean([r["enters"] for r in requests]), "count"),
        "mpk.pkru_switches": metric(mean([r["switches"] for r in requests]), "count"),
        "mpk.key_exhausted": metric(ledger.total("pkey_exhausted"), "count"),
        "alloc.resident_kb": metric(counters_after.get("alloy_visor_pool_resident_bytes", 0.0) / 1024, "KiB"),
        "proc.minflt_per_req": metric(proc["minflt"] / untraced_ok, "count"),
        "proc.sys_share": metric(proc["stime"] / proc["cpu"] if proc["cpu"] else 0.0, "ratio"),
        "proc.vcsw_per_req": metric(proc["vcsw"] / untraced_ok, "count"),
        "proc.ivcsw_per_req": metric(proc["ivcsw"] / untraced_ok, "count"),
        "model.ms_per_req": metric(modeled_ns(counters_before, counters_after) / attempted_traced / 1e6, "ms"),
        "model.setup_ms": metric(modeled_ns(counters_start, counters_ready) / 1e6, "ms"),
        "tail.p50_ms": metric(windowed_percentile(latencies, WINDOW, 0.5) / 1e3, "ms"),
        "tail.p95_ms": metric(windowed_percentile(latencies, WINDOW, 0.95) / 1e3, "ms"),
        "tail.p99_ms": metric(windowed_percentile(latencies, 2 * WINDOW, 0.99) / 1e3, "ms"),
        "gen.lag_p99_us": metric(percentile(lags, 0.99), "us"),
        "gen.cpu_us_per_req": metric(client_cpu * 1e6 / untraced_attempted, "us"),
        "trace.overhead_pct": metric(100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
        "unattributed_us": metric(unattributed, "us"),
    }
    extra = {"fingerprint": info, "server_exit": exit_code,
             "attributed_requests": len(requests),
             "unattributed_requests": {"no spans": unmatched, **broken},
             "e2e_mean_us": e2e_mean, "spans": [server_spans] + http_files}
    return metrics, extra


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", code=2)

    paths = build()
    config = WORKLOADS[args.workload]
    ledger = Ledger()
    log("alloy-bench: %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        metrics, extra = run_traced(args, paths, config, ledger)
    else:
        metrics, extra = run_end_to_end(args, paths, config, ledger)

    attempted = ledger.total("attempted")
    failed = ledger.total("failed")
    correct = ledger.total("wrong") == 0
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "phases": [{"phase": name, **summary}
                         for name, summary in ledger.phases],
              "metrics": metrics, **extra}
    with open(os.path.join(paths[2], "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    print("fingerprint " + json.dumps(extra["fingerprint"], sort_keys=True))
    print("%s: attempted=%d ok=%d failed=%d wrong=%d" % (
        args.workload, attempted, ledger.total("ok"), failed, ledger.total("wrong")))
    for name, value in metrics.items():
        print("  %-28s %14.4f %s" % (name, value["value"], value["unit"]))
    for name in ("p50_ms", "p95_ms", "p99_ms"):
        if name in extra:
            print("  %-28s %14.4f ms (not gated)" % (name, extra[name]))
    if "load" in extra:
        print("  %-28s %14.4f of capacity_rps (open-loop rate %.0f/s)" % (
            "load", extra["load"], config["rate"]))
        print("  %-28s %14.4f of the vCPUs (%.4f in the %d quiet rounds)" % (
            "host steal", extra["steal_share"], extra["quiet_steal_share"],
            extra["quiet_rounds"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
