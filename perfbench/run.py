#!/usr/bin/env python3
"""Wall-clock benchmark of the real ProBFT SMR service.

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 24 \
        --trace 0

Run from the repository root. Builds probft_node, perfbench_loadgen and
perfbench_traced into .bench_build/ (or $CARGO_TARGET_DIR), launches n = 4
probft_node --smr processes on 127.0.0.1, drives them open loop, checks the
outputs, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer ones, from an untraced cluster run plus the in-process traced run
(perfbench_traced). Earlier stdout lines carry host metadata (META) and
every metric the run computed (RESULT). A correctness-gate violation prints
the result with "correct": false and exits 1. See NOTES.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402

N = 4
# A --trace 0 run launches SETUPS set-up-only clusters, then MEASURED
# clusters that share --seconds; setup_s is the median over all launches.
SETUPS = 5
MEASURED = 4
SLOT_CAP = 1024  # smr::SmrOptions::max_slots, which probft_node keeps
QUIESCE_S = 0.3
LISTEN_TIMEOUT_S = 30
NODE_FLAGS = ["--smr", "1", "--f", "1", "--l", "1.5", "--window", "8",
              "--batch", "64", "--stats", "1", "--linger-ms", "0"]

# steps: (rate ops/s, share of --seconds). primary: which writes the
# write_p50_ms / write_p99_ms metrics cover.
WORKLOADS = {
    "kv-write": {"suite": "sim", "reads": False, "read_frac": 0.0,
                 "steps": [(500, 1 / 3), (2000, 1 / 3), (8000, 1 / 3)],
                 "primary": "first-step"},
    "kv-write-ed25519": {"suite": "ed25519", "reads": False,
                         "read_frac": 0.0, "steps": [(500, 1.0)],
                         "primary": "all"},
    "kv-read-heavy": {"suite": "sim", "reads": True, "read_frac": 0.9,
                      "steps": [(2000, 1.0)], "primary": "all",
                      "prefill": True},
    "leader-crash": {"suite": "sim", "reads": False, "read_frac": 0.0,
                     "steps": [(200, 1.0)], "primary": "after-kill",
                     "kill_at": 0.3},
}

# The bounded metrics. write_p99_ms and the workload-specific ones are
# per-layer (see NOTES.md, "Metrics").
E2E = [("setup_s", "s"), ("write_p50_ms", "ms")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds the benchmark's CMake package, then
    flushes dirty pages so the build's writeback does not land on the
    measured WAL fsyncs."""
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        raise SystemExit("perfbench: repository sources not found next to "
                         "perfbench/; run from a full checkout")
    with open(os.path.join(out, "build.log"), "a") as logf:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=logf, stderr=logf, check=True)
        subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                       stdout=logf, stderr=logf, check=True)
    os.sync()


def host_meta(out, workload, seed):
    cache = {}
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                k, _, v = line.strip().partition("=")
                cache[k.split(":")[0]] = v
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "git_sha": sha or "unknown (not a git checkout)",
            "seed": seed, "workload": workload, "n": N}


# ------------------------------------------------------------------ cluster

def free_ports(count):
    """`count` distinct loopback ports below the ephemeral range, so the
    nodes' own outgoing dials cannot take them before they bind."""
    rng = random.Random(os.getpid() ^ time.monotonic_ns())
    ports = []
    while len(ports) < count:
        port = rng.randrange(20000, 32000)
        if port in ports:
            continue
        with socket.socket() as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
    return ports


def listening_ports():
    """Loopback TCP ports in LISTEN state, read from /proc/net (no
    connection is made, so the nodes see nothing)."""
    ports = set()
    for path in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(path) as f:
                for line in f.readlines()[1:]:
                    fields = line.split()
                    if fields[3] == "0A":
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except OSError:
            pass
    return ports


def proc_snapshot(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            cpu = analysis.parse_proc_stat(f.read(),
                                           os.sysconf("SC_CLK_TCK"))
        with open(f"/proc/{pid}/status") as f:
            rss = analysis.parse_proc_status_hwm_mb(f.read())
        return {"cpu_ms": cpu, "rss_mb": rss}
    except OSError:
        return None


class Cluster:
    """n probft_node --smr processes on loopback, each with a WAL dir."""

    live = []  # every started cluster, for cleanup on any exit path

    def __init__(self, bindir, rundir, suite, reads, seconds):
        self.bindir, self.rundir = bindir, rundir
        ports = free_ports(2 * N)
        self.peer_ports, self.client_ports = ports[:N], ports[N:]
        peers = ",".join(f"127.0.0.1:{p}" for p in self.peer_ports)
        self.flags = NODE_FLAGS + ["--suite", suite, "--reads",
                                   "1" if reads else "0"]
        self.cmds = []
        for i in range(N):
            self.cmds.append(
                [os.path.join(bindir, "probft_node"), "--id", str(i + 1),
                 "--peers", peers, "--client-port",
                 str(self.client_ports[i]),
                 "--wal-dir", os.path.join(rundir, f"wal-{i + 1}"),
                 "--run-ms", str(int((seconds + 120) * 1000))] + self.flags)
        self.procs = [None] * N  # replica order; None = not launched
        self.launched = 0.0

    def spawn(self, i):
        with open(os.path.join(self.rundir, f"node-{i + 1}.out"), "w") as out:
            self.procs[i] = subprocess.Popen(self.cmds[i], stdout=out,
                                             stderr=subprocess.STDOUT)

    def start(self):
        """Launches replicas 2..n, waits until they listen, then replica 1.
        A node dials its peers from its first send, and replica 1 with
        --reads 1 sends at once (a lease request); a dial refused because
        the peer is not listening yet waits out the transport's 100 ms
        reconnect delay, which made set-up time bimodal on a simultaneous
        launch (NOTES.md, "Findings")."""
        os.makedirs(self.rundir, exist_ok=True)
        Cluster.live.append(self)
        self.launched = time.monotonic()
        for i in range(1, N):
            self.spawn(i)
        waiting = set(self.client_ports[1:])  # opened after the peer port
        deadline = self.launched + LISTEN_TIMEOUT_S
        while waiting - listening_ports():
            if time.monotonic() > deadline or any(
                    p.poll() is not None for p in self.procs[1:]):
                raise RuntimeError("replicas 2..n did not start listening")
            time.sleep(0.0005)
        self.spawn(0)

    def servers(self):
        return ",".join(f"127.0.0.1:{p}" for p in self.client_ports)

    def stop(self):
        """SIGTERM (the nodes print SMRLOG/STATS), reap, parse outputs."""
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if self in Cluster.live:
            Cluster.live.remove(self)
        nodes = []
        for i, p in enumerate(self.procs):
            with open(os.path.join(self.rundir, f"node-{i + 1}.out")) as f:
                nodes.append(analysis.parse_node_output(f.read()))
            nodes[-1]["exit"] = p.returncode
        return nodes


def cleanup():
    for c in list(Cluster.live):
        for p in c.procs:
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
        Cluster.live.remove(c)


def run_loadgen(bindir, rundir, cluster, seed, wl, seconds, setup_only,
                kill_pid=0):
    hist = os.path.join(rundir, "history.csv")
    cmd = [os.path.join(bindir, "perfbench_loadgen"), "--servers",
           cluster.servers(), "--seed", str(seed), "--out", hist]
    if setup_only:
        cmd += ["--setup-only", "1"]
    else:
        cmd += load_args(wl, seconds)
        if kill_pid:
            cmd += ["--kill-pid", str(kill_pid), "--kill-at-ms",
                    str(int(wl["kill_at"] * seconds * 1000))]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=seconds + 90)
    if res.returncode != 0:
        raise RuntimeError("load generator failed: " + res.stderr.strip() +
                           res.stdout.strip())
    with open(hist) as f:
        return analysis.parse_history(f.read())


def load_args(wl, seconds):
    steps = ",".join(f"{r}:{share * seconds:.6f}" for r, share in wl["steps"])
    return ["--steps", steps, "--read-frac", str(wl["read_frac"]),
            "--prefill", "1" if wl.get("prefill") else "0"]


# ------------------------------------------------------------------ metrics

def primary_writes(wl, meta, ops, seconds):
    writes = [o for o in ops if o.phase == "M" and o.kind == "W"]
    if wl["primary"] == "first-step":
        end = meta["t0_us"] + int(wl["steps"][0][1] * seconds * 1e6)
        return [o for o in writes if o.due < end]
    if wl["primary"] == "after-kill":
        return [o for o in writes if o.due >= meta["kill_us"]]
    return writes


def client_metrics(wl, runs, seconds):
    """Metrics computed from the generators' histories alone, pooled over
    the measured clusters. `runs` holds one (meta, ops) per cluster."""
    measured, writes, all_writes, reads, per_step = [], [], [], [], []
    unavail, slots, span_s, writes_acked = [], 0, 0.0, 0
    stale = []
    for meta, ops in runs:
        bad = {id(o) for o in analysis.stale_reads(ops)}
        stale += [o for o in ops if id(o) in bad]
        m = [o for o in ops if o.phase == "M"]
        measured += [(o, id(o) in bad) for o in m]
        all_writes += [o for o in m if o.kind == "W"]
        reads.append([analysis.FAILED if id(o) in bad else o.latency_ms()
                      for o in m if o.kind == "R"])
        primary = primary_writes(wl, meta, ops, seconds)
        writes.append([o.latency_ms() for o in primary])
        windows = analysis.step_windows(
            meta["t0_us"],
            [(rate, share * seconds) for rate, share in wl["steps"]])
        per_step.append(analysis.step_latencies(m, windows))
        if meta.get("kill_us"):
            after = [o.done for o in m
                     if o.kind == "W" and o.ok and o.sent > meta["kill_us"]]
            unavail.append((min(after) - meta["kill_us"]) / 1e6 if after
                           else analysis.FAILED_MS / 1000)
        acked = [o for o in primary if o.ok]
        writes_acked += len(acked)
        if acked:
            slots += len({o.slot for o in acked})
            span_s += (max(o.done for o in acked) -
                       min(o.due for o in acked)) / 1e6
    w = analysis.latency_summary(writes)
    r = analysis.latency_summary(reads)
    failed = sum(1 for o, is_stale in measured if not o.ok or is_stale)
    return {
        "write_p50_ms": analysis.finite_ms(w["p50"]),
        "write_p99_ms": analysis.finite_ms(w["p99"]),
        "write_p99_used": w["p99_used"], "write_samples": w["n"],
        "read_p50_ms": analysis.finite_ms(r["p50"]) if r["n"] else 0.0,
        "read_p99_ms": analysis.finite_ms(r["p99"]) if r["n"] else 0.0,
        "read_p99_used": r["p99_used"], "read_samples": r["n"],
        "fail_frac": failed / len(measured) if measured else 0.0,
        "max_rate_ops_s": float(analysis.max_rate(
            [rate for rate, _ in wl["steps"]], per_step)),
        "unavail_s": statistics.median(unavail) if unavail else 0.0,
        "loadgen.late_p99_ms": analysis.tail_percentile(
            [o.late_ms() for o, _ in measured])[0] or 0.0,
        "loadgen.resends_per_write":
            sum(o.resends for o in all_writes) / max(1, len(all_writes)),
        "smr.slots_per_s": slots / span_s if span_s else 0.0,
        "smr.writes_per_slot": writes_acked / max(1, slots),
        "_attempted": len(measured), "_failed": failed,
        "_stale": len(stale),
    }


def node_metrics(clusters):
    """Per-process counts from the STATS/SMRLOG lines and /proc snapshots
    of the measured clusters, summed over them."""
    tags, cpu_leader, cpu_follower = {}, [], []
    writes = slots = reads = 0
    slots_max, rss_max, lifetime = 0, 0.0, 0.0
    for c in clusters:
        logs = [n["smrlog"] for n in c["nodes"] if n["smrlog"]]
        writes += max((l["cmds"] for l in logs), default=0)
        cluster_slots = max((l["slots"] for l in logs), default=0)
        slots += cluster_slots
        slots_max = max(slots_max, cluster_slots)
        reads += sum(1 for o in c["ops"] if o.kind == "R")
        lifetime += c["lifetime"]
        for n in c["nodes"]:
            for t, (sends, nbytes) in n["tags"].items():
                old = tags.get(t, (0, 0))
                tags[t] = (old[0] + sends, old[1] + nbytes)
        alive = [p for p in c["procs"] if p is not None]
        if alive:  # the lowest live replica leads (view 1, or after a kill)
            cpu_leader.append(alive[0]["cpu_ms"])
            if len(alive) > 1:
                cpu_follower.append(statistics.mean(
                    p["cpu_ms"] for p in alive[1:]))
            rss_max = max([rss_max] + [p["rss_mb"] for p in alive])

    def sends(t):
        return tags.get(t, (0, 0))[0]

    writes, slots = max(1, writes), max(1, slots)
    replica_tags = range(0x20, 0x28)
    return {
        "net.msgs_per_write": sum(sends(t) for t in replica_tags) / writes,
        "net.bytes_per_write":
            sum(tags.get(t, (0, 0))[1] for t in replica_tags) / writes,
        "net.consensus_msgs_per_slot": sends(0x20) / slots,
        "net.forward_msgs_per_write": sends(0x21) / writes,
        "net.ckpt_msgs_per_slot": sends(0x24) / slots,
        "net.catchup_msgs": float(sends(0x22) + sends(0x23)),
        "net.lease_msgs_per_s": sends(0x26) / lifetime if lifetime else 0.0,
        "net.readindex_msgs_per_read": sends(0x27) / reads if reads else 0.0,
        "smr.slots_max": float(slots_max),
        "smr.cap_hit": 1.0 if slots_max >= SLOT_CAP else 0.0,
        "node.cpu_ms_per_write.leader": sum(cpu_leader) / writes,
        "node.cpu_ms_per_write.follower": sum(cpu_follower) / writes,
        "node.rss_mb.max": rss_max,
    }


def gate(nodes, ops, dead):
    problems = analysis.check_replicas(nodes, dead) + \
        analysis.check_logs(nodes) + analysis.check_exactly_once(nodes, ops)
    stale = len(analysis.stale_reads(ops))
    if stale:
        problems.append(f"{stale} reads returned a stale or unwritten value")
    bad = sum(1 for o in ops if o.status == analysis.WRONG_PAYLOAD)
    if bad:
        problems.append(f"{bad} write replies carried another payload")
    return problems


# ------------------------------------------------------------------ runs

def cluster_run(bindir, rundir, wl, seed, share, setups, measured):
    """Launches `setups` set-up-only clusters, then `measured` clusters
    that each run the workload's schedule over `share` seconds. Every
    launch contributes a set-up time. Returns (set-up samples, per-cluster
    records, problems)."""
    samples, clusters, problems = [], [], []
    for k in range(setups + measured):
        setup_only = k < setups
        c = Cluster(bindir, os.path.join(rundir, f"cluster-{k}"), wl["suite"],
                    wl["reads"], share)
        c.start()
        kill = "kill_at" in wl and not setup_only
        kill_pid = c.procs[0].pid if kill else 0
        meta, ops = run_loadgen(bindir, c.rundir, c, seed * 100 + k, wl, share,
                                setup_only, kill_pid)
        samples.append(meta["first_reply_us"] / 1e6 - c.launched)
        if setup_only:
            c.stop()
            continue
        time.sleep(QUIESCE_S)
        procs = [proc_snapshot(p.pid) if p.poll() is None else None
                 for p in c.procs]
        lifetime = time.monotonic() - c.launched
        nodes = c.stop()
        problems += [f"cluster {k}: {p}"
                     for p in gate(nodes, ops, {1} if kill else set())]
        clusters.append({"meta": meta, "ops": ops, "nodes": nodes,
                         "procs": procs, "lifetime": lifetime})
    return samples, clusters, problems


def traced_run(bindir, rundir, wl, seed, seconds):
    """The in-process traced run; returns its per-layer metrics."""
    tdir = os.path.join(rundir, "traced")
    cmd = [os.path.join(bindir, "perfbench_traced"), "--seed", str(seed),
           "--suite", wl["suite"], "--reads", "1" if wl["reads"] else "0",
           "--dir", tdir] + load_args(wl, seconds)
    if "kill_at" in wl:
        cmd += ["--kill-at-ms", str(int(wl["kill_at"] * seconds * 1000))]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=seconds + 90)
    if res.returncode != 0:
        raise RuntimeError("traced run failed: " + res.stderr.strip())
    with open(os.path.join(tdir, "history.csv")) as f:
        meta, ops = analysis.parse_history(f.read())
    with open(os.path.join(tdir, "trace.txt")) as f:
        trace = parse_trace(f.read())
    return trace_metrics(wl, meta, ops, trace, seconds), (meta, ops)


def parse_trace(text):
    trace = {"req": {}, "read": [], "crypto": {}, "wal": [], "count": {}}
    for line in text.splitlines():
        f = line.split()
        if f[0] == "REQ":
            trace["req"][(int(f[1]), int(f[2]))] = tuple(map(int, f[3:7]))
        elif f[0] == "READ":
            trace["read"].append(int(f[1]))
        elif f[0] == "CRYPTO":
            trace["crypto"][f[1]] = (int(f[2]), float(f[3]))
        elif f[0] == "WAL":
            trace["wal"].append((float(f[1]), float(f[2])))
        elif f[0] == "COUNT":
            trace["count"][f[1]] = float(f[2])
    return trace


def trace_metrics(wl, meta, ops, trace, seconds):
    """Per-layer times of the traced run. Request spans are joined to the
    generator's history by (client, seq) and restricted to the same
    primary writes the end-to-end latency uses."""
    writes = [o for o in primary_writes(wl, meta, ops, seconds) if o.ok]
    batch_wait, order, exec_reply, hop = [], [], [], []
    for o in writes:
        span = trace["req"].get((o.client, o.seq))
        if not span or 0 in span:
            continue
        submit, propose, commit, reply = span
        batch_wait.append((propose - submit) / 1000.0)
        order.append((commit - propose) / 1000.0)
        exec_reply.append(reply - commit)
        hop.append((submit - o.due + o.done - reply) / 1000.0)
    p50 = analysis.median
    total = p50([o.latency_ms() for o in writes]) or 0.0
    slots = max(1.0, trace["count"].get("slots", 1.0))
    m = {}
    for name, (calls, us_p50) in sorted(trace["crypto"].items()):
        m[f"crypto.{name}.calls_per_slot"] = calls / slots
        m[f"crypto.{name}.us_p50"] = us_p50
    m["crypto.busy_ms_per_slot"] = \
        trace["count"].get("crypto_us", 0.0) / 1000.0 / slots
    parts = [p50(batch_wait) or 0.0, p50(order) or 0.0,
             p50(exec_reply) or 0.0, p50(hop) or 0.0]
    m["smr.batch_wait_ms_p50"] = parts[0]
    m["core.order_ms_p50"] = parts[1]
    m["smr.exec_reply_us_p50"] = parts[2]
    m["trace.client_hop_ms_p50"] = parts[3]
    m["smr.on_message.self_us_per_slot"] = \
        trace["count"].get("handler_self_us", 0.0) / slots
    m["net.send.us_per_slot"] = trace["count"].get("send_us", 0.0) / slots
    m["sync.timers_per_slot"] = trace["count"].get("timers", 0.0) / slots
    appends = [a for a, _ in trace["wal"]]
    syncs = [s for _, s in trace["wal"]]
    m["store.append_us_p50"] = p50(appends) or 0.0
    m["store.sync_us_p50"] = p50(syncs) or 0.0
    m["store.sync_us_p99"] = analysis.tail_percentile(syncs)[0] or 0.0
    m["smr.read_us_p50"] = float(p50(trace["read"]) or 0.0)
    m["smr.read_us_p99"] = float(
        analysis.tail_percentile(trace["read"])[0] or 0.0)
    explained = parts[0] + parts[1] + parts[2] / 1000.0 + parts[3]
    m["trace.explained_frac"] = explained / total if total else 0.0
    m["_traced_write_p50_ms"] = total
    return m


# ------------------------------------------------------------------ main

def per_layer_names():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    build(out)
    rundir = os.path.join(out, "runs",
                          f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        result = measure(out, rundir, wl, args)
    finally:
        cleanup()
        shutil.rmtree(rundir, ignore_errors=True)
    print(result, flush=True)
    return 0 if json.loads(result)["correct"] else 1


def measure(out, rundir, wl, args):
    # A --trace 0 run gives each measured cluster a quarter of --seconds. A
    # --trace 1 run measures one untraced cluster over all of --seconds
    # (process counts, the base of trace.overhead_frac, and a run long
    # enough to reach the slot cap on kv-write), then the traced process
    # over a quarter.
    quarter = args.seconds / MEASURED
    if args.trace == 0:
        setups, measured, share = SETUPS, MEASURED, quarter
    else:
        setups, measured, share = 0, 1, args.seconds
    meta = host_meta(out, args.workload, args.seed)
    meta["node_flags"] = NODE_FLAGS + ["--suite", wl["suite"], "--reads",
                                       "1" if wl["reads"] else "0",
                                       "--wal-dir", "<per node>"]
    meta["load"] = {"steps_per_cluster":
                    [[r, s * share] for r, s in wl["steps"]],
                    "read_frac": wl["read_frac"],
                    "prefill": bool(wl.get("prefill")),
                    "kill_replica_1_at_s":
                        wl["kill_at"] * share if "kill_at" in wl else None,
                    "setup_only_clusters": setups,
                    "measured_clusters": measured,
                    "traced_s": quarter if args.trace else None}
    print("META " + json.dumps(meta, sort_keys=True), flush=True)

    samples, clusters, problems = cluster_run(
        out, rundir, wl, args.seed, share, setups, measured)
    cm = client_metrics(wl, [(c["meta"], c["ops"]) for c in clusters], share)
    every = {"setup_s": statistics.median(samples)}
    every.update({k: v for k, v in cm.items() if not k.startswith("_")})
    every.update(node_metrics(clusters))
    if args.trace:
        tm, (_, tops) = traced_run(out, rundir, wl, args.seed, quarter)
        untraced = cm["write_p50_ms"]
        tm["trace.overhead_frac"] = \
            tm.pop("_traced_write_p50_ms") / untraced - 1 if untraced else 0.0
        every.update(tm)
        if analysis.stale_reads(tops):
            problems.append("traced run: stale reads")
    for p in problems:
        log("CORRECTNESS VIOLATION: " + p)
    units = dict(E2E + per_layer_names())
    print("RESULT " + json.dumps(
        {k: {"value": v, "unit": units[k]} if k in units else v
         for k, v in every.items()}, sort_keys=True), flush=True)

    metrics = {}
    for name, unit in E2E if args.trace == 0 else per_layer_names():
        value = every.get(name, 0.0)
        if value is None or (isinstance(value, float) and
                             not math.isfinite(value)):
            value = analysis.FAILED_MS
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": not problems,
                       "attempted": cm["_attempted"],
                       "failed": cm["_failed"], "metrics": metrics})


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        cleanup()
        log(f"perfbench: {e}")
        sys.exit(2)
