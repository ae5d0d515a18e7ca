"""Pure functions that turn recorded runs into metrics and verdicts.

Everything here works on data already collected (the load generator's
operation history, the nodes' stdout, /proc snapshots), so it can be unit
tested against recorded output without starting a cluster.
"""

import math
import re

# A failed operation's latency: it sorts beyond every limit.
FAILED = math.inf
# How a percentile that lands on a failed operation is printed (JSON has no
# infinity): 1e9 ms, far beyond any limit the benchmark applies.
FAILED_MS = 1e9

MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it
# Status the generator records for a write whose reply carried another
# payload than the write.
WRONG_PAYLOAD = 99


# ---------------------------------------------------------------- percentiles

def percentile(values, q):
    """Nearest-rank percentile of `values` (0 < q <= 1)."""
    data = sorted(values)
    if not data:
        return None
    rank = max(1, math.ceil(q * len(data)))
    return data[rank - 1]


def tail_percentile(values, q=0.99):
    """The highest percentile <= q with at least MIN_BEYOND samples beyond
    it, as (value, percentile used, sample count).

    With n samples the nearest-rank q-percentile has n - ceil(q*n) samples
    above it; when that is below MIN_BEYOND the percentile is lowered to
    (n - MIN_BEYOND) / n. Below 2 * MIN_BEYOND samples it falls back to
    the median, and with no samples it returns (None, None, 0).
    """
    n = len(values)
    if n == 0:
        return None, None, 0
    used = q
    if n - math.ceil(q * n) < MIN_BEYOND:
        used = max(0.5, (n - MIN_BEYOND) / n)
    return percentile(values, used), used, n


def median(values):
    data = sorted(values)
    if not data:
        return None
    mid = len(data) // 2
    if len(data) % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2


def finite_ms(value):
    return FAILED_MS if value is None or math.isinf(value) else value


# ---------------------------------------------------------------- history

class Op:
    __slots__ = ("phase", "kind", "key", "client", "seq", "due", "sent",
                 "done", "status", "resends", "slot", "value")

    def __init__(self, fields):
        (self.phase, self.kind, key, client, seq, due, sent, done, status,
         resends, slot) = fields[:11]
        self.key = int(key)
        self.client = int(client)
        self.seq = int(seq)
        self.due = int(due)
        self.sent = int(sent)
        self.done = int(done)
        self.status = int(status)
        self.resends = int(resends)
        self.slot = int(slot)
        self.value = fields[11] if len(fields) > 11 else ""

    @property
    def ok(self):
        """Answered kExecuted with the expected content."""
        return self.done != 0 and self.status == 0

    def latency_ms(self):
        """Due time to executed answer; FAILED when never answered."""
        if not self.ok:
            return FAILED
        return (self.done - self.due) / 1000.0

    def late_ms(self):
        """How late the generator sent the operation."""
        return (self.sent - self.due) / 1000.0 if self.sent else 0.0


def parse_history(text):
    """(meta dict, [Op]) from a perfbench_loadgen history file."""
    meta, ops = {}, []
    for line in text.splitlines():
        if line.startswith("META "):
            for item in line[5:].split():
                k, _, v = item.partition("=")
                meta[k] = int(v)
        elif line:
            ops.append(Op(line.split(",", 11)))
    return meta, ops


# ---------------------------------------------------------------- node output

SMRLOG_RE = re.compile(
    r"^SMRLOG id=(\d+) slots=(\d+) base=(\d+) cmds=(\d+) digest=([0-9a-f]+)$")
STATS_TAG_RE = re.compile(r"^STATS tag=0x([0-9a-f]{2}) sends=(\d+) bytes=(\d+)$")
STATS_TOTAL_RE = re.compile(
    r"^STATS total sends=(\d+) delivered=(\d+) dropped=(\d+) "
    r"duplicates=(\d+) bytes=(\d+)$")


def parse_node_output(text):
    """The SMRLOG line and per-tag STATS of one probft_node's stdout.

    Returns {"smrlog": {...} or None, "tags": {tag: (sends, bytes)},
    "total": {...} or None}.
    """
    out = {"smrlog": None, "tags": {}, "total": None}
    for line in text.splitlines():
        line = line.strip()
        m = SMRLOG_RE.match(line)
        if m:
            out["smrlog"] = {"id": int(m.group(1)), "slots": int(m.group(2)),
                             "base": int(m.group(3)), "cmds": int(m.group(4)),
                             "digest": m.group(5)}
            continue
        m = STATS_TAG_RE.match(line)
        if m:
            out["tags"][int(m.group(1), 16)] = (int(m.group(2)),
                                                int(m.group(3)))
            continue
        m = STATS_TOTAL_RE.match(line)
        if m:
            out["total"] = {"sends": int(m.group(1)),
                            "delivered": int(m.group(2)),
                            "dropped": int(m.group(3)),
                            "bytes": int(m.group(5))}
    return out


def parse_proc_stat(text, ticks_per_s=100):
    """CPU ms (user + system) from the text of /proc/<pid>/stat."""
    # The command name (field 2) may hold spaces; fields resume after ')'.
    rest = text[text.rindex(")") + 2:].split()
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) * 1000.0 / ticks_per_s


def parse_proc_status_hwm_mb(text):
    """Peak resident set (VmHWM) in MiB from /proc/<pid>/status."""
    m = re.search(r"^VmHWM:\s+(\d+) kB", text, re.M)
    return int(m.group(1)) / 1024.0 if m else 0.0


# ---------------------------------------------------------------- gate

def check_logs(nodes):
    """Surviving replicas must agree on slots and digest. Returns a list of
    violation strings (empty = agreement)."""
    logs = [n["smrlog"] for n in nodes if n["smrlog"] is not None]
    if not logs:
        return ["no replica printed an SMRLOG line"]
    found = sorted({(l["slots"], l["digest"]) for l in logs})
    if len(found) > 1:
        return ["replicas disagree on the log: " +
                ", ".join(f"id={l['id']} slots={l['slots']} "
                          f"digest={l['digest'][:12]}" for l in logs)]
    return []


def check_replicas(nodes, dead=()):
    """Every replica except the ones killed on purpose (1-based ids in
    `dead`; `nodes` is in replica order) ran to the end: it printed its
    SMRLOG line and, when its exit code was recorded, exited with 0. A
    replica that crashed mid-run would otherwise go unnoticed, since the
    others still agree and f = 1 keeps the service live."""
    problems = []
    for rid, n in enumerate(nodes, 1):
        if rid in dead:
            continue
        if n["smrlog"] is None:
            problems.append(f"replica {rid} printed no SMRLOG line")
        if n.get("exit", 0) != 0:
            problems.append(f"replica {rid} exited with code {n['exit']}")
    return problems


def check_exactly_once(nodes, ops):
    """Each replica executed every acknowledged write exactly once: its
    cmds equals the acknowledged writes when none failed, and lies between
    acknowledged and attempted otherwise (an unanswered write may or may
    not have executed)."""
    writes = [o for o in ops if o.kind == "W"]
    acked = sum(1 for o in writes if o.ok)
    problems = []
    for n in nodes:
        log = n["smrlog"]
        if log is None:
            continue
        if acked == len(writes):
            if log["cmds"] != acked:
                problems.append(f"replica {log['id']} executed {log['cmds']} "
                                f"commands for {acked} distinct writes")
        elif not acked <= log["cmds"] <= len(writes):
            problems.append(f"replica {log['id']} executed {log['cmds']} "
                            f"commands; {acked} acknowledged of "
                            f"{len(writes)} attempted")
    return problems


def stale_reads(ops):
    """Reads that returned a value linearizability does not allow.

    A read sent at s and answered at e may return the value of write W only
    if W was invoked before e and W is not older (in log order) than the
    latest write to the key acknowledged before s. Values are unique, so a
    value identifies its write. Log order is the reply slot; two writes of
    one key decided in the same slot are not ordered by the client's view,
    so either is accepted. Returns the list of offending read ops.
    """
    by_value = {}
    by_key = {}
    for o in ops:
        if o.kind == "W":
            by_value[(o.key, o.value)] = o
            by_key.setdefault(o.key, []).append(o)
    bad = []
    for r in ops:
        if r.kind != "R" or not r.ok:
            continue
        acked_before = [w for w in by_key.get(r.key, [])
                        if w.ok and w.done < r.sent]
        latest = max(acked_before, key=lambda w: w.slot, default=None)
        if r.value == "":
            if latest is not None:
                bad.append(r)
            continue
        w = by_value.get((r.key, r.value))
        if w is None or w.sent >= r.done:
            bad.append(r)  # never written, or written after the reply
            continue
        if w.ok and r.slot != w.slot:
            bad.append(r)  # the reply names another write's slot
            continue
        if latest is not None and w.ok and w.slot < latest.slot:
            bad.append(r)
    return bad


# ---------------------------------------------------------------- metrics

def step_windows(t0, steps):
    """[(rate, start_us, end_us)] for a ladder starting at t0."""
    out, start = [], t0
    for rate, seconds in steps:
        end = start + int(seconds * 1e6)
        out.append((rate, start, end))
        start = end
    return out


def backlog_grows(lat_ms):
    """True when the last quarter of a step's writes waited clearly longer
    than the first quarter: the queue grew during the step."""
    q = len(lat_ms) // 4
    if q < MIN_BEYOND:
        return False
    first, last = median(lat_ms[:q]), median(lat_ms[-q:])
    return last > max(2 * first, first + 10.0)


def step_latencies(ops, windows):
    """For each ladder step, the latencies of the writes due in it, in due
    order."""
    return [[o.latency_ms() for o in sorted(
        (o for o in ops if o.kind == "W" and start <= o.due < end),
        key=lambda o: o.due)] for _, start, end in windows]


def max_rate(rates, clusters, limit_ms=50.0):
    """Highest ladder rate whose write tail latency (as latency_summary
    takes it over clusters) meets `limit_ms`, with no failed write and no
    cluster's backlog growing during the step; 0 when none does.
    `clusters` holds one step_latencies() list per cluster."""
    best = 0
    for i, rate in enumerate(rates):
        step = [steps[i] for steps in clusters]
        if not any(step) or any(math.isinf(x) for lat in step for x in lat):
            continue
        if latency_summary(step)["p99"] > limit_ms:
            continue
        if any(backlog_grows(steps[i]) for steps in clusters):
            continue
        best = max(best, rate)
    return best


def latency_summary(clusters):
    """Latency summary over the measured clusters of a run, given one list
    of latencies per cluster: the p50 of all samples pooled, and as the
    tail the median over clusters of each cluster's tail_percentile — a
    stall that hits one cluster does not decide the run's tail. Failures
    sort last. Returns {p50, p99, p99_used (lowest percentile used), n}."""
    pooled = [x for lat in clusters for x in lat]
    tails = [tail_percentile(lat) for lat in clusters if lat]
    return {"p50": percentile(pooled, 0.5),
            "p99": median([t[0] for t in tails]),
            "p99_used": min((t[1] for t in tails), default=None),
            "n": len(pooled)}
