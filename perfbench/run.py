#!/usr/bin/env python3
"""PrivIM* benchmark: training wall-clock and open-loop serving latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a privim checkout. The first run builds the library,
privim_serve and the harness (perfbench/CMakeLists.txt) into .bench_build/.

--trace 0 (timed) measures the end-to-end metrics in BENCHMARK.json with no
in-program tracing and no --metrics-out:
  train_*  fresh-process RunPrivIm repetitions until --seconds have passed;
  serve_*  three privim_serve processes, each timed from launch to its
           first warm-up reply (set-up) and then offered an equal share of
           open-loop windows at the fixed rates lo and hi over one HTTP and
           one JSON-lines connection; a short upward rate sweep follows on
           the last one.
--trace 1 (traced) reports every per-layer metric: RunPrivIm's phases, composed
and alternated with RunPrivIm itself, and a DP-SGD replay on the workload's
graph, then the serving layers in-process and over TCP for the model that run
released, under the workload's request mix (perfbench/workloads.json maps each
layer metric to the end-to-end metric and workload it should move).

Inputs are generated from --seed by the harness (never by privim), and each
result prints the digests of its edge list and request schedule. Output
checks run in the same command; a failed check prints the reason and exits
with status 1. The last stdout line is the JSON result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = []  # every child still running, stopped on any exit path


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


# ---------------------------------------------------------------- build --

def build(root):
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_root, "build.log")
    with open(logfile, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                      "perfbench_harness", "privim_serve"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=root) != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    bins = {"harness": os.path.join(build_dir, "perfbench_harness"),
            "serve": os.path.join(build_dir, "privim", "tools",
                                  "privim_serve")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            die("build produced no " + path)
    return bins


# -------------------------------------------------------------- helpers --

def harness(bins, *args):
    """Runs one harness subcommand; returns its JSON result line."""
    cmd = [bins["harness"]] + [str(a) for a in args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise CheckFailed("harness %s failed: %s" %
                          (args[0], proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed("no VmHWM for pid %d" % pid)


class Server:
    """privim_serve --listen on an ephemeral loopback port."""

    def __init__(self, bins, work, graph, model, threads, tag):
        self.port_file = os.path.join(work, "port-%s" % tag)
        self.err_path = os.path.join(work, "serve-%s.err" % tag)
        cmd = [bins["serve"], "--graph", graph, "--undirected",
               "--model", model, "--listen", "127.0.0.1:0",
               "--port-file", self.port_file, "--threads", str(threads),
               "--assets-sketch-index", os.path.join(work, "sketch.idx"),
               "--assets-build-sketch-index"]
        self.err = open(self.err_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        PROCESSES.append(self.proc)
        self.addr = None

    def wait_ready(self):
        """Connects and sends the warm-up lookup (which pays the memoized
        full-graph forward); returns launch -> first ok reply seconds."""
        deadline = time.perf_counter() + 120
        while True:
            if self.proc.poll() is not None:
                raise CheckFailed("privim_serve exited during start-up: " +
                                  open(self.err_path).read()[-1000:])
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.addr = text
                    reply = self.request('{"id":"warmup","op":"influence",'
                                         '"nodes":[0]}')
                    check('"ok":true' in reply, "warm-up reply not ok: " +
                          reply)
                    return time.perf_counter() - self.started
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if time.perf_counter() > deadline:
                raise CheckFailed("privim_serve did not come up")
            time.sleep(0.002)

    def request(self, line):
        host, port = self.addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=60) as s:
            s.sendall(line.encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        return data.decode().strip()

    def stop(self):
        """SIGTERM (graceful drain); returns privim_serve's stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        PROCESSES.remove(self.proc)
        self.err.close()
        with open(self.err_path) as f:
            return f.read()


def stop_all():
    for proc in list(PROCESSES):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        PROCESSES.remove(proc)


# --------------------------------------------------------------- inputs --

def mix_shares(mix):
    """The mix's request shares: every class takes an equal share of the
    server's compute time at the costs recorded in workloads.json."""
    return benchlib.equal_cpu_shares(mix["cost_us"])


def make_inputs(bins, cfg, w, seed, work, mix, requests):
    d = cfg["defaults"]
    graph = os.path.join(work, "graph.txt")
    args = ["gen", "--nodes", w["nodes"], "--m", d["m"], "--seed", seed,
            "--graph-out", graph]
    if mix:
        shares = mix_shares(mix)
        args += ["--shares", ",".join("%s=%.17g" % kv
                                      for kv in sorted(shares.items())),
                 "--requests", requests,
                 "--requests-out", os.path.join(work, "requests.jsonl"),
                 "--probes-out", os.path.join(work, "probes.jsonl")]
    info = harness(bins, *args)
    info["graph"] = graph
    info["requests"] = os.path.join(work, "requests.jsonl")
    info["probes"] = os.path.join(work, "probes.jsonl")
    return info


def sketch_requests(inp, offset, count):
    """How many of the schedule's requests [offset, offset + count) are
    top-k requests with method=sketch."""
    with open(inp["requests"]) as f:
        lines = f.read().splitlines()[offset:offset + count]
    return sum('"method":"sketch"' in line for line in lines)


def check_sketch_served(err, sent):
    """privim_serve's exit stats must show the index attached, no request
    fallen back to CELF, and some served from the index when `sent` > 0."""
    stats = benchlib.sketch_stats(err)
    check(benchlib.sketch_index_served(stats, sent),
          "sketch requests not served from the index (%d sent; served, "
          "fallbacks, index: %s)" % (sent, stats))


def train_args(cfg, w, seed, graph):
    d = cfg["defaults"]
    return ["--graph", graph, "--iterations", w["iterations"],
            "--sampling-rate", w["sampling_rate"], "--epsilon", d["epsilon"],
            "--k", d["k"], "--seed", seed, "--threads", d["train_threads"]]


def check_train(rep):
    check(rep["failures"] == "", "training output check: " + rep["failures"])


# ------------------------------------------------------------ workloads --

def timed_train(bins, cfg, w, seed, seconds, inp, out):
    reps = []
    start = time.perf_counter()
    while len(reps) < 3 or (time.perf_counter() - start < seconds
                            and len(reps) < 20):
        rep = harness(bins, "train", *train_args(cfg, w, seed, inp["graph"]),
                      "--loads", w["loads_per_rep"],
                      "--coverage", 1 if not reps else 0)
        check_train(rep)
        reps.append(rep)
    digests = {r["model_digest"] for r in reps}
    check(len(digests) == 1,
          "model bytes differ across repetitions: %s" % sorted(digests))
    walls = [r["wall_s"] for r in reps]
    loads = [s for r in reps for s in r["load_s"]]
    out.sample("setup_s", "s", loads)
    out.sample("train_wall_s", "s", walls)
    out.sample("p50_ms", "ms", [x * 1e3 for x in walls])
    out.value("train_wall_s.max", "s", max(walls),
              "slowest of %d runs (too few for a P99)" % len(walls))
    out.value("coverage_pct", "%", reps[0]["coverage_pct"], "deterministic")
    out.sample("peak_rss_mb", "MiB", [r["peak_rss_mb"] for r in reps])
    out.info("model_digest", reps[0]["model_digest"])
    out.info("achieved_epsilon", reps[0]["achieved_epsilon"])
    out.info("empirical_max_occurrence", reps[0]["max_occurrence"])
    out.info("operations", "%d RunPrivIm runs attempted, %d ok" %
             (len(reps), len(reps)))
    out.count(len(reps), 0)


def window_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            i, conn, due, sent, recv, status = line.split()
            rows.append((int(i), int(conn), float(due), float(sent),
                         float(recv), status))
    return rows


def run_window(bins, server, inp, work, offset, count, rate, tag):
    samples = os.path.join(work, "samples-%s.txt" % tag)
    replies = os.path.join(work, "replies-%s.txt" % tag)
    harness(bins, "loadgen", "--addr", server.addr, "--requests",
            inp["requests"], "--offset", offset, "--count", count,
            "--rate", rate, "--samples-out", samples, "--replies-out",
            replies)
    rows = window_rows(samples)
    lat = benchlib.open_loop_latencies([(r[2], r[3], r[4], r[5])
                                        for r in rows])
    statuses = {}
    for r in rows:
        statuses[r[5]] = statuses.get(r[5], 0) + 1
    return rows, lat, statuses, replies


def windows_plan(mix, seconds):
    """(tag, rate, duration) for each window of a timed serving run."""
    lo, hi = mix["lo_qps"], mix["hi_qps"]
    return [("lo", lo, 0.3 * seconds), ("hi", hi, 0.5 * seconds)] + \
        [("sweep%d" % i, hi * f, 0.1 * seconds)
         for i, f in enumerate((4 / 3, 16 / 9))]


def schedule_size(plan):
    return sum(int(rate * secs) for _tag, rate, secs in plan) + 16


# RunPrivIm / composition pairs in a traced run. Phase coverage is the
# median over pairs, and an even count lets half the pairs compose first.
TRACE_PAIRS = 4
# The least phase coverage the traced run accepts. Back-to-back runs of the
# same work differ by up to ~10% on a shared 4-core VM, and the median of a
# correct composition read 92.5-102%; a RunPrivIm doing 14% more work than
# its composition read 87.5%.
MIN_PHASE_COVERAGE_PCT = 90.0


def serve_prep(bins, cfg, w, seed, work, inp, trace):
    """Trains the model the server will hold (untimed) and returns it."""
    model = os.path.join(work, "model.privim")
    args = train_args(cfg, w, seed, inp["graph"]) + ["--model-out", model]
    if trace:
        rep = harness(bins, "train-trace", *args, "--loads", 3,
                      "--pairs", TRACE_PAIRS)
    else:
        rep = harness(bins, "train", *args, "--coverage", 1)
    check_train(rep)
    return model, rep


# Server processes per timed serving run. Each gets an equal share of the lo
# and hi windows and the gated median is the median over processes, so one
# process's unlucky thread placement moves one of three numbers.
LAUNCHES = 3


def timed_serve(bins, cfg, w, seed, seconds, work, out):
    mix = cfg["mixes"][w["mix"]]
    plan = windows_plan(mix, seconds)
    inp = make_inputs(bins, cfg, w, seed, work, mix, schedule_size(plan))
    out.info("graph_digest", inp["graph_digest"])
    out.info("schedule_digest", inp["schedule_digest"])
    model, prep = serve_prep(bins, cfg, w, seed, work, inp, trace=False)
    threads = cfg["defaults"]["serve_threads"]
    k = cfg["defaults"]["k"]

    setups, rss, hi_medians = [], [], []
    pooled, late, statuses = {}, {}, {}
    offset, attempted, failed = 0, 0, 0
    for launch in range(LAUNCHES):
        first = offset
        server = Server(bins, work, inp["graph"], model, threads,
                        "launch%d" % launch)
        setups.append(server.wait_ready())
        reply = json.loads(server.request(
            '{"id":"check","op":"topk","method":"model","k":%d}' % k))
        check(reply.get("ok") is True and
              ",".join(str(v) for v in reply["seeds"]) == prep["seeds"],
              "served topk method=model differs from the released seeds")
        for tag, rate, secs in plan:
            sweep = tag.startswith("sweep")
            if sweep and launch + 1 < LAUNCHES:
                continue  # the sweep runs once, on the last process
            count = max(2, int(rate * secs / (1 if sweep else LAUNCHES)))
            rows, lat, st, _ = run_window(bins, server, inp, work, offset,
                                          count, rate, tag)
            offset += count
            pooled.setdefault(rate, []).extend(lat)
            late.setdefault(tag, []).extend((r[3] - r[2]) * 1e3
                                            for r in rows)
            for key, n in st.items():
                statuses.setdefault(tag, {}).setdefault(key, 0)
                statuses[tag][key] += n
            if sweep:
                continue  # the sweep may overload on purpose; reported below
            fails = count - st.get("ok", 0)
            attempted += count
            failed += fails
            check(fails == 0, "%d of %d requests at rate %s not answered "
                  "ok: %s" % (fails, count, tag, st))
            if tag == "hi":
                hi_medians.append(benchlib.median(lat))
        rss.append(vm_hwm_mb(server.proc.pid))
        check_sketch_served(server.stop(),
                            sketch_requests(inp, first, offset - first))

    out.sample("setup_s", "s", setups)
    for tag, rate, _secs in plan:
        out.info("window.%s" % tag, "%g req/s: %s" %
                 (rate, json.dumps(statuses[tag])))
        if not tag.startswith("sweep"):
            out.sample("p50_ms.%s" % tag, "ms", pooled[rate])
            out.sample("p99_ms.%s" % tag, "ms", pooled[rate], stat="tail")
            out.sample("gen.late_ms.%s" % tag, "ms", late[tag], stat="tail")
    # The gated median is read at rate hi: at rate lo the vCPUs idle between
    # requests, and the median mostly measures how fast the host wakes them.
    out.value("p50_ms", "ms", benchlib.median(hi_medians),
              "median over %d processes of p50_ms.hi (n=%d)" %
              (LAUNCHES, len(pooled[mix["hi_qps"]])))
    best = benchlib.max_rate(pooled, mix["p99_limit_ms"])
    out.value("max_rate_qps", "1/s", best or 0.0,
              "highest of %s meeting P99 <= %g ms%s" %
              (sorted(pooled), mix["p99_limit_ms"],
               " (lower bound: every rate met it)"
               if best == max(pooled) else ""))
    out.sample("peak_rss_mb", "MiB", rss)
    out.value("coverage_pct", "%", prep["coverage_pct"], "deterministic")
    out.count(attempted, failed)


# --------------------------------------------------------------- traced --

def traced(bins, cfg, w, seed, seconds, work, out):
    """Every per-layer metric, on any workload: training layers from the
    workload's PrivIM* run, serving layers for the model it released."""
    mix = cfg["mixes"][w["mix"]]
    lo, hi = mix["lo_qps"], mix["hi_qps"]
    # Shorter than the timed windows, but the hi window keeps >= 1010
    # requests so the queue-wait P99 has ten samples beyond it.
    plan = [("lo", lo, 0.15 * seconds),
            ("hi", hi, max(0.15 * seconds, 1010 / hi))]
    inp = make_inputs(bins, cfg, w, seed, work, mix, schedule_size(plan))
    out.info("graph_digest", inp["graph_digest"])
    out.info("schedule_digest", inp["schedule_digest"])
    out.info("probes_digest", inp["probes_digest"])

    model, tr = serve_prep(bins, cfg, w, seed, work, inp, trace=True)
    for key in ("graph.load_s", "sampling.extract_s", "sampling.subgraphs",
                "sampling.stage2_share", "sampling.max_occurrence",
                "dp.account_s", "core.train_s", "core.ctx_setup_s",
                "core.subgraph_grads_per_s", "nn.forward_ms",
                "nn.backward_ms", "dp.clip_ms", "dp.noise_ms",
                "dp.clip_rate", "core.reduce_step_ms", "nn.arena_bytes",
                "gnn.select_forward_s", "im.select_topk_s"):
        out.layer(key, tr[key])
    # The phase spans against RunPrivIm's wall, pair by pair: work that
    # RunPrivIm does and the composition leaves out shows as a gap.
    coverage = benchlib.paired_ratio_pct(tr["phases_s"], tr["train_wall_s"])
    overhead = benchlib.paired_ratio_pct(tr["composed_wall_s"],
                                         tr["train_wall_s"]) - 100.0
    note = "median of %d RunPrivIm/composition pairs" % TRACE_PAIRS
    out.value("core.phase_coverage_pct", "%", coverage, note)
    out.value("trace.overhead_pct", "%", overhead, note)
    check(coverage >= MIN_PHASE_COVERAGE_PCT,
          "training phases cover only %.1f%% of RunPrivIm's wall" % coverage)

    server = Server(bins, work, inp["graph"], model,
                    cfg["defaults"]["serve_threads"], "trace")
    server.wait_ready()
    tcp, offset, attempted, specs = {}, 0, 0, []
    for tag, rate, secs in plan:
        count = max(2, int(rate * secs))
        rows, lat, statuses, replies = run_window(bins, server, inp, work,
                                                  offset, count, rate, tag)
        check(statuses.get("ok", 0) == count,
              "TCP window %s not all ok: %s" % (tag, statuses))
        tcp[tag] = (rows, replies)
        specs.append("%d:%d:%s" % (offset, count, rate))
        offset += count
        attempted += count
    check_sketch_served(server.stop(), sketch_requests(inp, 0, offset))

    inproc_replies = os.path.join(work, "replies-inproc.txt")
    st = harness(bins, "serve-trace", "--graph", inp["graph"], "--model",
                 model, "--probes", inp["probes"], "--requests",
                 inp["requests"], "--windows", ",".join(specs), "--threads",
                 cfg["defaults"]["serve_threads"], "--replies-out",
                 inproc_replies)
    check(st["failures"] == "", "serving trace: " + st["failures"])
    with open(inproc_replies) as f:
        inproc = f.read().splitlines()
    sent = []
    for tag, _rate, _secs in plan:
        with open(tcp[tag][1]) as f:
            sent += f.read().splitlines()
    check(inproc == sent, "in-process replies differ from the TCP replies")

    for key in ("serve.assets_build_s", "nn.infer.full_forward_s",
                "im.sketch.build_s", "serve.parse_us", "serve.serialize_us",
                "serve.lookup_us", "serve.topk_model_us",
                "serve.cache_hit_us",
                "nn.infer.subgraph_us", "im.sketch.topk_us",
                "im.celf.topk_ms", "im.ris.topk_ms",
                "diffusion.mc_spread_ms", "serve.compute_overhead_us",
                "serve.batch_size_mean"):
        out.layer(key, st[key])
    # The mix's basis: each class's solo cost now against the cost its
    # share was derived from.
    for cls, share in sorted(mix_shares(mix).items()):
        out.info("cost_us.%s" % cls, "%.4g now, %.4g recorded; %.4f of "
                 "requests" % (benchlib.median(st["execute_us." + cls]),
                               mix["cost_us"][cls], share))
    out.layer("serve.queue_wait_ms.p50", st["serve.queue_wait_ms"], "median")
    out.layer("serve.queue_wait_ms.p99", st["serve.queue_wait_ms"], "p99")
    # Socket and framing cost per connection at rate hi, where p50_ms is
    # read: TCP send->reply minus in-process submit->callback for the same
    # requests.
    rows_hi = tcp["hi"][0]
    inproc_hi = st["inproc_ms.w1"]
    for conn, name in ((0, "http"), (1, "jsonl")):
        tcp_ms = [(r[4] - r[3]) * 1e3 for r in rows_hi if r[1] == conn]
        mem_ms = [inproc_hi[r[0]] for r in rows_hi if r[1] == conn]
        out.layer("serve.net_us.%s" % name,
                  (benchlib.median(tcp_ms) - benchlib.median(mem_ms)) * 1e3)
    out.layer("gen.late_ms.p99", [(r[3] - r[2]) * 1e3 for r in rows_hi],
              "p99")
    out.count(attempted + 2, 0)


# --------------------------------------------------------------- output --

class Result:
    """Collects metrics and prints one line per metric with unit and
    sample count, then the JSON result line."""

    def __init__(self, wanted):
        self.wanted = wanted  # name -> unit, the metrics the JSON carries
        self.metrics = {}
        self.lines = []
        self.attempted = 0
        self.failed = 0

    def _put(self, name, unit, value, note):
        self.lines.append("%-28s %14.6g %-6s %s" % (name, value, unit, note))
        if name in self.wanted:
            self.metrics[name] = {"value": value, "unit": self.wanted[name]}

    def sample(self, name, unit, values, stat="median"):
        """stat: "median", "p99" (the sample must support a P99), or "tail"
        (the highest percentile the sample supports)."""
        s = benchlib.summarize(values)
        if stat == "tail":
            check("tail_p" in s, "%s: too few samples for a tail" % name)
            value = s["tail"]
            note = "P%g of n=%d (median %.6g)" % (s["tail_p"], s["n"],
                                                 s["median"])
        elif stat == "p99":
            check(s.get("tail_p", 0) >= 99.0,
                  "%s: %d samples cannot support a P99" % (name, s["n"]))
            value = benchlib.percentile(values, 99.0)
            note = "P99 of n=%d (median %.6g)" % (s["n"], s["median"])
        else:
            value = s["median"]
            note = "median of n=%d" % s["n"]
            if "tail_p" in s:
                note += ", P%g %.6g" % (s["tail_p"], s["tail"])
        check(math.isfinite(value), "%s is not finite (failed requests)"
              % name)
        self._put(name, unit, value, note)

    def value(self, name, unit, value, note=""):
        self._put(name, unit, value, note)

    def layer(self, name, data, stat="median"):
        unit = self.wanted[name]
        if isinstance(data, list):
            self.sample(name, unit, data, stat)
        else:
            self._put(name, unit, data, "n=1")

    def info(self, name, value):
        self.lines.append("%-28s %s" % (name, value))

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception so the cleanup below still stops and
    # waits for every child process.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = os.getcwd()
    for need in ("CMakeLists.txt", os.path.join("src", "privim"),
                 os.path.join("tools", "privim_serve.cpp")):
        if not os.path.exists(os.path.join(root, need)):
            die("run from the root of a privim checkout (no %s)" % need, 2)
    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in cfg["workloads"]:
        die("unknown workload %s (have %s)" %
            (args.workload, ", ".join(cfg["workloads"])), 2)
    w = cfg["workloads"][args.workload]
    key = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[key]}
    bad = [n for n in wanted if not benchlib.valid_metric_name(n)]
    if bad:
        die("invalid metric names in BENCHMARK.json: %s" % bad, 2)

    bins = build(root)
    work = os.path.join(root, ".bench_build", "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    out = Result(wanted)
    correct = True
    try:
        if args.trace:
            traced(bins, cfg, w, args.seed, args.seconds, work, out)
        elif w["kind"] == "train":
            inp = make_inputs(bins, cfg, w, args.seed, work, None, 0)
            out.info("graph_digest", inp["graph_digest"])
            timed_train(bins, cfg, w, args.seed, args.seconds, inp, out)
        else:
            timed_serve(bins, cfg, w, args.seed, args.seconds, work, out)
    except CheckFailed as e:
        correct = False
        log("perfbench: CHECK FAILED: %s" % e)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s seed %d (%s)" % (args.workload, args.seed,
                                        "traced" if args.trace else "timed"))
    for line in out.lines:
        print("  " + line)
    if not correct:
        sys.exit(1)
    missing = sorted(set(wanted) - set(out.metrics))
    if missing:
        die("metrics not measured: %s" % missing)
    print(json.dumps({"correct": True, "attempted": out.attempted,
                      "failed": out.failed, "metrics": out.metrics}))


if __name__ == "__main__":
    main()
