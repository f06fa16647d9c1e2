#!/usr/bin/env python3
"""End-to-end training benchmark of the threaded runtime.

Runs one of the paper's training workloads (MF, KGE, W2V) through
`run_threaded` for about `--seconds` seconds, as repeated fresh
repetitions, and prints the end-to-end metrics (`--trace 0`) or the
per-layer metrics of traced repetitions (`--trace 1`). The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

    python3 perfbench/run.py --workload mf-lapse --seed 1 --seconds 45 --trace 0

Every repetition is a child process (`perfbench run ...`, built from
`perfbench/` with cargo) under a hang watchdog: a child whose call counter
stops moving for NO_PROGRESS_S seconds is killed, reported, and its calls
count as failed. See README.md for the metrics and the layer map.
"""

import argparse
import hashlib
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mf-lapse", "kge-lapse", "w2v-adaptive")

# Workloads whose per-epoch loss sequence must be bit-identical across
# every run of one commit with the same seed (a mismatch means a race on
# data-clustered keys in the local fast path).
DETERMINISTIC = ("mf-lapse",)

# A child whose progress counter does not move for this long is hung.
NO_PROGRESS_S = 15.0
# Hard cap on one child, progress or not.
CHILD_CAP_S = 90.0
# A repetition during which the hypervisor stole more than this share of
# the machine's CPU time (the `steal` column of /proc/stat) is calm no
# longer: on a shared virtual machine a burst of steal can halve the
# throughput of the wake-up-heavy workloads for tens of seconds, and it
# says nothing about the program. The medians are taken over the calm
# repetitions, and a run goes on for up to EXTRA_S past --seconds to
# collect MIN_REPS of them; if it cannot, the MIN_REPS repetitions with
# the least steal count.
MAX_STEAL = 0.03
EXTRA_S = 10.0
# Repetitions every run makes at least (medians need a few).
MIN_REPS = 3
# Rounds of one untraced and one traced repetition a traced run makes.
MIN_TRACED_ROUNDS = 2
# Counted from the end of the build: no new repetition starts after
# LAST_START_S, and every child is killed at DEADLINE_S, so that a run
# ends within its 180 s budget even if every repetition hangs.
LAST_START_S = 100.0
DEADLINE_S = 170.0

END_TO_END = (
    ("examples_per_s", "examples/s"),
    ("setup_s", "s"),
    ("loss", "loss"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_ratio", "ratio"),
)

# (name, unit); the values come from the traced child, except the overhead.
PER_LAYER = (
    ("ml.self_share", "share"),
    ("ml.self_ns_per_example", "ns"),
    ("core.pull.per_example", "calls/example"),
    ("core.pull.p50_ns", "ns"),
    ("core.pull.p99_ns", "ns"),
    ("core.pull.share", "share"),
    ("core.pull.samples", "count"),
    ("core.push.per_example", "calls/example"),
    ("core.push.p50_ns", "ns"),
    ("core.push.p99_ns", "ns"),
    ("core.push.share", "share"),
    ("core.push.samples", "count"),
    ("core.localize_async.p50_ns", "ns"),
    ("core.localize_async.p99_ns", "ns"),
    ("core.localize_async.share", "share"),
    ("core.localize_async.samples", "count"),
    ("core.localize_async.ready_ratio", "ratio"),
    ("core.wait.p50_ns", "ns"),
    ("core.wait.p99_ns", "ns"),
    ("core.wait.share", "share"),
    ("core.wait.samples", "count"),
    ("core.localize.p50_ns", "ns"),
    ("core.localize.samples", "count"),
    ("core.pull_if_local.hit_ratio", "ratio"),
    ("core.advance_clock.share", "share"),
    ("core.barrier.share", "share"),
    ("proto.server.relocations_per_example", "count/example"),
    ("proto.server.reloc_p50_ns", "ns"),
    ("proto.server.reloc_p99_ns", "ns"),
    ("net.messages_per_example", "msgs/example"),
    ("net.bytes_per_example", "bytes/example"),
    ("net.coalesce.msgs_per_batch", "msgs/batch"),
    ("proto.adaptive.promotions", "count"),
    ("proto.adaptive.demotions", "count"),
    ("proto.adaptive.sketch_samples_per_example", "count/example"),
    ("proto.replica.flushes_per_example", "count/example"),
    ("proto.replica.refreshes_per_example", "count/example"),
    ("proto.client.local_ratio", "ratio"),
    ("proto.client.queued_ratio", "ratio"),
    ("proto.client.remote_ratio", "ratio"),
    ("proto.client.replica_ratio", "ratio"),
    ("proto.storage.heap_allocs_per_example", "count/example"),
    ("proto.storage.value_bytes_per_example", "bytes/example"),
    ("proto.tracker.in_flight_at_end", "count"),
    ("proto.server.unexpected_relocates", "count"),
    ("trace.overhead_share", "share"),
)


def log(msg):
    print(msg, flush=True)


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Builds the child binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed with code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("LAPSE_")}


def cpu_ticks():
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return 0, 0


def run_child(binary, args, deadline):
    """Runs one child under the watchdog.

    Returns (status, result, progress): status is "ok", "hung", "capped"
    or "crashed"; result the child's result object (or None); progress the
    last call count it reported.
    """
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    last_move = time.monotonic()
    cap = min(last_move + CHILD_CAP_S, deadline)
    progress, result, buf, status = 0, None, b"", None
    try:
        while status is None:
            now = time.monotonic()
            if now - last_move > NO_PROGRESS_S:
                status = "hung"
                break
            if now > cap:
                status = "capped"
                break
            if not sel.select(timeout=0.5):
                continue
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                text = line.decode(errors="replace")
                if text.startswith("progress "):
                    n = int(text.split()[1])
                    if n != progress:
                        progress, last_move = n, time.monotonic()
                elif text.startswith("result "):
                    result = json.loads(text[len("result "):])
                    last_move = time.monotonic()
    finally:
        sel.close()
        if status is not None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if status is None:
        status = "ok" if proc.returncode == 0 and result is not None else "crashed"
    return status, result, progress


def check(rep):
    """Correctness checks of one repetition; returns the failures."""
    bad = []
    for key in ("unexpected_relocates", "tracker_in_flight"):
        if rep[key] != 0:
            bad.append(f"{key}={rep[key]}")
    expected = rep["expected_examples"]
    if expected is not None and rep["examples"] != expected:
        bad.append(f"examples={rep['examples']} expected={expected}")
    for key in ("loss", "examples_per_s", "setup_s", "peak_rss_mb"):
        v = rep[key]
        if v is None or not math.isfinite(v) or v <= 0:
            bad.append(f"{key}={v}")
    return bad


def check_golden(binary, workload, seed, reps):
    """The loss sequence of a deterministic workload must be bit-identical
    across its repetitions and with every earlier run of the same binary
    and seed (recorded under the target directory)."""
    if workload not in DETERMINISTIC or not reps:
        return []
    seqs = {tuple(r["loss_bits"]) for r in reps}
    if len(seqs) > 1:
        return [f"loss sequence differs across {len(reps)} repetitions"]
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    golden_dir = os.path.join(target_dir(), "perfbench-golden")
    path = os.path.join(golden_dir, f"{workload}-seed{seed}-{build_id}.json")
    current = list(seqs.pop())
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != current:
                return [f"loss sequence differs from the earlier run recorded in {path}"]
        return []
    os.makedirs(golden_dir, exist_ok=True)
    with open(path, "w") as f:
        json.dump(current, f)
    return []


def epoch_rates(rep):
    return [rep["examples"] / rep["epochs"] / s for s in rep["epoch_s"]]


def describe(values, worse_high):
    """Median, the percentile on the bad side with at least ten samples
    beyond it, and the sample count."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.6g}"
    if n >= 20:
        q = min(0.99, 1 - 10 / n)
        ranked = sorted(values, reverse=not worse_high)
        tail = ranked[math.ceil(q * n) - 1]
        text += f", p{100 * (q if worse_high else 1 - q):.3g} {tail:.6g}"
    return text + f", n={n}"


class Runs:
    """Repetitions of one workload and what they add up to."""

    def __init__(self, binary, workload, seed):
        self.binary, self.workload, self.seed = binary, workload, seed
        self.started = time.monotonic()
        self.deadline = self.started + DEADLINE_S
        self.ok = []            # results of completed repetitions that passed
        self.failed_reps = 0
        self.check_failed = False
        self.attempted_ops = 0
        self.failed_ops = 0
        self.lost = []          # calls reported by repetitions that never finished

    def rep(self, extra=()):
        args = ["run", "--workload", self.workload, "--seed", str(self.seed), *extra]
        steal0, total0 = cpu_ticks()
        status, result, progress = run_child(self.binary, args, self.deadline)
        steal1, total1 = cpu_ticks()
        if status != "ok":
            log(f"FAILED repetition: workload={self.workload} seed={self.seed} "
                f"status={status} calls_before_failure={progress}")
            self.failed_reps += 1
            self.lost.append(progress)
            return None
        self.attempted_ops += int(result["ops"])
        bad = check(result)
        if bad:
            self.fail_check("; ".join(bad))
            self.failed_reps += 1
            self.failed_ops += int(result["ops"])
            return None
        result["steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
        log(f"repetition {len(self.ok) + 1}: "
            f"{statistics.median(epoch_rates(result)):.6g} examples/s (epoch median), "
            f"setup {result['setup_s']:.4g} s, loss {result['loss']:.6g}, "
            f"host steal {100 * result['steal_share']:.1f}%")
        self.ok.append(result)
        return result

    def fail_check(self, what):
        log(f"CHECK FAILED: workload={self.workload} seed={self.seed}: {what}")
        self.check_failed = True

    def settle(self):
        """Counts a repetition that never finished as failing as many calls
        as a completed one makes (or as it reported, if more), runs the
        determinism check, and says whether every check passed."""
        typical = statistics.median(r["ops"] for r in self.ok) if self.ok else 0
        for progress in self.lost:
            n = int(max(typical, progress, 1))
            self.attempted_ops += n
            self.failed_ops += n
        self.lost = []
        for what in check_golden(self.binary, self.workload, self.seed, self.ok):
            self.fail_check(what)
            self.failed_ops += sum(int(r["ops"]) for r in self.ok)
        return bool(self.ok) and not self.check_failed

    def calm(self, traced=False):
        return [r for r in self.ok if ("layers" in r) == traced and r["steal_share"] <= MAX_STEAL]

    def measured(self, traced=False):
        """The completed (un)traced repetitions the medians are taken over:
        the calm ones, or if fewer than MIN_REPS are calm, the MIN_REPS
        with the least steal."""
        reps = sorted((r for r in self.ok if ("layers" in r) == traced),
                      key=lambda r: r["steal_share"])
        calm = self.calm(traced)
        return calm if len(calm) >= MIN_REPS else reps[:MIN_REPS]

    def median(self, key):
        values = [r[key] for r in self.measured()]
        return statistics.median(values) if values else 0.0

    def epoch_rate(self, traced=False):
        """Median examples per second over every epoch of the measured
        repetitions: a short burst of interference from other load on the
        host then costs a few epochs, not a whole repetition."""
        rates = [x for r in self.measured(traced) for x in epoch_rates(r)]
        return statistics.median(rates) if rates else 0.0


def repeat(runs, seconds, min_rounds, kinds=((),), min_calm=0):
    """Runs rounds of one repetition of each kind (extra child arguments)
    until `seconds` have passed, at least `min_rounds` rounds ran and
    `min_calm` untraced repetitions were calm; from `seconds + EXTRA_S` on
    it stops anyway."""
    started = time.monotonic()
    last_start = min(seconds + EXTRA_S, LAST_START_S)
    rounds = 0
    while True:
        for extra in kinds:
            runs.rep(extra)
        rounds += 1
        elapsed = time.monotonic() - started
        done = elapsed >= seconds and rounds >= min_rounds and len(runs.calm()) >= min_calm
        if done or elapsed >= last_start or time.monotonic() - runs.started >= LAST_START_S:
            return


def emit(correct, runs, metrics):
    attempted = max(runs.attempted_ops, 1)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": min(runs.failed_ops, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    runs = Runs(binary, a.workload, a.seed)
    log(f"workload={a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace}")

    if a.trace == 0:
        repeat(runs, a.seconds, MIN_REPS, min_calm=MIN_REPS)
        correct = runs.settle()
        ok_ratio = 1.0 - runs.failed_ops / max(runs.attempted_ops, 1)
        metrics = {
            "examples_per_s": runs.epoch_rate(),
            "setup_s": runs.median("setup_s"),
            "loss": runs.median("loss"),
            "peak_rss_mb": runs.median("peak_rss_mb"),
            "ops_ok_ratio": ok_ratio,
        }
        measured = runs.measured()
        samples = {
            "examples_per_s": describe([x for r in measured for x in epoch_rates(r)], False) + " epochs",
            "setup_s": describe([r["setup_s"] for r in measured], True) + " repetitions",
            "loss": describe([r["loss"] for r in measured], True) + " repetitions",
            "peak_rss_mb": describe([r["peak_rss_mb"] for r in measured], True) + " repetitions",
            "ops_ok_ratio": f"{runs.attempted_ops - runs.failed_ops} of {runs.attempted_ops} calls, "
                            f"{runs.failed_reps} failed repetitions",
        }
        log(f"end-to-end over {len(measured)} of {len(runs.ok)} completed repetitions "
            f"(calm ones, at most {100 * MAX_STEAL:.0f}% host steal, else those with the "
            f"least); correct={correct}:")
        for name, unit in END_TO_END:
            log(f"  {name:<15} {metrics[name]:>14.6g} {unit:<11} {samples[name]}")
        emit(correct, runs, {k: (metrics[k], u) for k, u in END_TO_END})
        return 0

    # Traced: untraced and traced repetitions in turn (the untraced ones
    # are the overhead baseline), then the simulator.
    spans_dir = os.path.join(target_dir(), "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.tsv")
    repeat(runs, a.seconds, MIN_TRACED_ROUNDS, ((), ("--trace", "--spans", spans)))
    traced = runs.measured(traced=True)
    correct = runs.settle() and bool(traced)
    layers = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]} if traced else {}
    baseline, traced_rate = runs.epoch_rate(), runs.epoch_rate(traced=True)
    if traced and baseline:
        layers["trace.overhead_share"] = 1.0 - traced_rate / baseline
        log(f"traced: {traced_rate:.6g} examples/s over {len(traced)} repetitions against "
            f"{baseline:.6g} untraced over {len(runs.measured())} (epoch medians): "
            f"tracing overhead {100 * layers['trace.overhead_share']:.1f}%; "
            f"spans of the last traced repetition in {spans}")
    log(f"per-layer metrics, median over the traced repetitions (correct={correct}):")
    for name, unit in PER_LAYER:
        note = ""
        if name.endswith(".p99_ns"):
            op = name[: -len(".p99_ns")]
            q, n = layers.get(op + ".tail_q", 0), layers.get(op + ".samples", 0)
            if n == 0:
                note = "  (no samples)"
            elif q < 0.99:
                note = f"  (too few samples for p99: p{100 * q:.3g} of n={n:.0f})"
        log(f"  {name:<44} {layers.get(name, 0.0):>14.6g} {unit}{note}")

    status, sim, _ = run_child(binary, ["sim", "--workload", a.workload, "--seed", str(a.seed)],
                               runs.deadline)
    if traced and baseline and status == "ok":
        wall_epoch = traced[0]["examples"] / traced[0]["epochs"] / baseline
        log(f"simulator (information only): virtual epoch time {sim['virtual_epoch_s']:.4g} s "
            f"against a wall-clock epoch time of {wall_epoch:.4g} s (untraced median)")
    else:
        log(f"simulator comparison unavailable: simulator run {status}")
    emit(correct, runs, {k: (layers.get(k, 0.0), u) for k, u in PER_LAYER})
    return 0


if __name__ == "__main__":
    sys.exit(main())
