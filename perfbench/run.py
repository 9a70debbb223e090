#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads against the pm2 runtime.

Run from the repository root:

  python3 perfbench/run.py --workload rpc_open --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload migrate_tour --seed 1 --trace 1
  python3 perfbench/run.py --repeat 10 --workload ckpt_cycle   # steadiness
  python3 perfbench/run.py --smoke                              # all checks
  python3 perfbench/run.py --selftest                           # own tests

The first call builds perfbench/ (the pm2 library from src/ plus the
pm2bench binary) into $CARGO_TARGET_DIR, default .bench_build.  A run prints
human-readable diagnostics, then one JSON line: {"correct", "attempted",
"failed", "metrics"}.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones, derived from the Chrome trace
the traced run writes to .bench_run/.  Exit status: 0 ok, 1 a check failed,
2 the build or the run itself failed.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = ".bench_run"
WORKLOADS = ("rpc_open", "migrate_tour", "ckpt_cycle")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- statistics ---------------------------------------------------------------


def iqm(values):
    """Interquartile mean: drop the lowest and highest quarter, average the rest."""
    v = sorted(values)
    if not v:
        return 0.0
    k = len(v) // 4
    mid = v[k:len(v) - k]
    return sum(mid) / len(mid)


def quantile(values, q):
    """Nearest-rank quantile, as pm2bench computes them."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = max(1, min(len(v), math.ceil(q * len(v))))
    return v[rank - 1]


def rung_passes(rung, limit_us):
    """A rung holds when nothing failed, its p99 is under the limit and its
    backlog did not grow (mean in-flight in the last quarter of its requests
    at most twice the first quarter's, plus slack for bursts)."""
    return (rung["failed"] == 0 and rung["p99_us"] <= limit_us
            and rung["inflight_last"] <= 2 * rung["inflight_first"] + 16)


def sustained_rate(ladder, limit_us):
    """Highest offered rate of the ladder whose rung holds (0 if none)."""
    ok = [r["rate"] for r in ladder if rung_passes(r, limit_us)]
    return max(ok) if ok else 0.0


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


# --- trace analysis -----------------------------------------------------------


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    spans, counters = [], {}
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            spans.append({
                "name": e["name"], "ts": e["ts"], "dur": e["dur"],
                "id": e["args"]["id"], "parent": e["args"]["parent"],
                "op": e["args"]["op"], "lane": e["tid"],
            })
        elif e["ph"] == "C":
            for k, v in e["args"].items():
                counters[k] = counters.get(k, 0) + v
    return spans, counters, doc.get("otherData", {})


def self_times(spans):
    """Span id -> self time (duration minus the union of its children)."""
    kids = {}
    for s in spans:
        if s["parent"]:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        ivs = sorted((max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
                     for c in kids.get(s["id"], []))
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = s["dur"] - covered
    return out


def durations(spans, name):
    return [s["dur"] for s in spans if s["name"] == name]


def stage_sums(spans, root, stages):
    """Per root op, the sum of its stage spans; and the number of root ops
    whose stages are broken.  `stages` lists, per stage, the span names that
    may fill it; an op is broken when a stage is missing or doubled, or has
    a negative length (a stamp left over from an earlier op, or one that
    never fired).  With no stages the op's own span is its one stage."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    sums, bad = [], 0
    for r in spans:
        if r["name"] != root:
            continue
        got = kids.get(r["id"], []) if stages else [r]
        slots = [[k for k in got if k["name"] in names] for names in stages] or [got]
        if any(len(ks) != 1 or ks[0]["dur"] < 0 for ks in slots):
            bad += 1
            continue
        sums.append(sum(ks[0]["dur"] for ks in slots))
    return sums, bad


def ratio(a, b):
    return a / b if b else 0.0


def node_sum(counters, suffix):
    return sum(v for k, v in counters.items()
               if k.startswith("n") and k.endswith("." + suffix))


def per_layer(path):
    """Per-layer metrics (name -> value) and notes, from one trace file."""
    spans, c, other = load_trace(path)
    wl = other["workload"]
    ops = max(other.get("ops", 0), 1)
    med = lambda name: statistics.median(durations(spans, name) or [0.0])
    m, notes = {}, []
    # Layer counters every workload has.
    m["fabric.msgs_per_op"] = node_sum(c, "fabric.msgs") / ops
    m["fabric.wire_bytes_per_op"] = node_sum(c, "fabric.bytes") / ops
    m["fabric.copy_bytes_per_op"] = node_sum(c, "fabric.copy_bytes") / ops
    m["marcel.handoffs_per_op"] = node_sum(c, "sched.handoffs") / ops
    m["marcel.idle_wakeups_per_op"] = node_sum(c, "sched.idle_wakeups") / ops
    m["marcel.steals_per_op"] = node_sum(c, "sched.steals") / ops
    m["marcel.steal_success_ratio"] = ratio(
        node_sum(c, "sched.steals"),
        node_sum(c, "sched.steals") + node_sum(c, "sched.steal_failures"))
    m["marcel.future_pool_hit_ratio"] = ratio(
        c.get("g.future_pool.hits", 0),
        c.get("g.future_pool.hits", 0) + c.get("g.future_pool.misses", 0))
    m["madeleine.chunk_pool_hit_ratio"] = ratio(
        c.get("g.chunk_pool.hits", 0),
        c.get("g.chunk_pool.hits", 0) + c.get("g.chunk_pool.misses", 0))
    m["madeleine.chunk_misses_per_op"] = c.get("g.chunk_pool.misses", 0) / ops
    m["pm2.pool_hit_ratio"] = ratio(
        node_sum(c, "pool.hits"),
        node_sum(c, "pool.hits") + node_sum(c, "pool.misses"))
    m["pm2.rpc.timeouts"] = node_sum(c, "rpc.timeouts")
    m["pm2.rpc.late_replies"] = node_sum(c, "rpc.late_replies")
    m["pm2.migrate.rollbacks"] = node_sum(c, "mig.rollbacks")
    cpu_key = "n%d.cpu_ns" % other["server_node"] if "server_node" in other else None
    cpu_ns = c.get(cpu_key, 0) if cpu_key else node_sum(c, "cpu_ns")
    m["node.cpu_us_per_op"] = cpu_ns / 1e3 / ops

    if wl == "rpc_open":
        root, stages = "rpc.op", [{"gen.late"}, {"pm2.rpc.issue"},
                                  {"pm2.rpc.request_leg"}, {"echo", "put", "get"},
                                  {"pm2.rpc.reply_leg"}]
        m["pm2.rpc.issue_us"] = med("pm2.rpc.issue")
        m["pm2.rpc.request_leg_us"] = med("pm2.rpc.request_leg")
        m["pm2.rpc.reply_leg_us"] = med("pm2.rpc.reply_leg")
        m["madeleine.pack_ns"] = med("madeleine.pack") * 1e3
        m["gen.late_p99_us"] = quantile(durations(spans, "gen.late"), 0.99)
    elif wl == "migrate_tour":
        root, stages = "mig.hop", [{"pm2.migrate.depart"}, {"pm2.migrate.transit"},
                                   {"marcel.resume"}]
        m["pm2.migrate.depart_us"] = med("pm2.migrate.depart")
        m["pm2.migrate.transit_us"] = med("pm2.migrate.transit")
        m["pm2.migrate.ack_us"] = med("pm2.migrate.ack")
        m["marcel.resume_us"] = med("marcel.resume")
        m["pm2.migrate.payload_ratio"] = ratio(other.get("live_bytes", 0),
                                               node_sum(c, "fabric.bytes"))
        m["isomalloc.alloc_us"] = med("isomalloc.alloc")
        m["isomalloc.free_us"] = med("isomalloc.free")
        m["isomalloc.slot_attach_per_hop"] = node_sum(c, "heap.slot_attach") / ops
        m["isomalloc.negotiations_per_hop"] = node_sum(c, "nego.initiated") / ops
    else:
        # op_p50_us times the checkpoint call alone, which has no stage
        # visible from outside the runtime.
        root, stages = "pm2.checkpoint", []
        t = other["traced"]
        m["ckpt.bytes_written_per_round"] = t["bytes_written_per_round"]
        m["ckpt.skip_ratio"] = ratio(
            t["bytes_skipped_per_round"],
            t["bytes_written_per_round"] + t["bytes_skipped_per_round"])
        notes.append("ckpt.skip_ratio counts bytes of demoted threads only: "
                     "soft-dirty page tracking is absent on this kernel, so "
                     "rounds write every live extent; soft-dirty savings: absent")
        restores = other.get("restores", [])
        m["restore.ms"] = statistics.median([r["restore_ms"] for r in restores] or [0])
        m["restore.bytes"] = statistics.median([r["bytes_in"] for r in restores] or [0])
        m["store.demote_us"] = med("store.demote")
        m["store.faultback_p99_us"] = quantile(durations(spans, "store.faultback"), 0.99)
        m["store.faultback_bytes"] = ratio(node_sum(c, "store.bytes_in"),
                                           node_sum(c, "store.fault_backs"))
    roots = durations(spans, root)
    m["op.p99_us"] = quantile(roots, 0.99)
    m["op.p999_us"] = quantile(roots, 0.999)
    # Both against the untraced phase of the same seed and schedule, an
    # independent measurement of the same operations.
    untraced = other.get("untraced_p50_us", 0)
    m["trace.overhead_ratio"] = ratio(statistics.median(roots or [0]), untraced)
    sums, bad = stage_sums(spans, root, stages)
    m["trace.stage_sum_ratio"] = ratio(statistics.median(sums or [0]), untraced)
    m["trace.stage_bad_ops"] = bad
    # Self time per span name (diagnostic).
    st = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(st[s["id"]])
    for name in sorted(by_name):
        notes.append("self time %-22s median %10.3f us over %d spans" % (
            name, statistics.median(by_name[name]), len(by_name[name])))
    return m, notes


# --- end-to-end metrics ---------------------------------------------------------


def win_median(phase, key, whole):
    """Median over a phase's 250 ms windows; the whole-phase value when the
    phase had no window with enough samples (short --seconds, slow host)."""
    return statistics.median(phase[key] or [phase[whole]])


def end_to_end(res):
    """End-to-end metrics (name -> value) and notes, from a result file."""
    wl, sess = res["workload"], res["sessions"]
    notes = []
    if wl == "rpc_open":
        refs = [s["reference"] for s in sess]
        p50 = iqm([win_median(r, "win_p50_us", "p50_us") for r in refs])
        p99 = iqm([win_median(r, "win_p99_us", "p99_us") for r in refs])
        ops_s = iqm([s["closed_ops_s"] for s in sess])
        cpu = iqm([s["server_cpu_us_per_op"] for s in sess])
        notes.append("server cpu_us_per_op at the reference rate %.2f (diagnostic: "
                     "wake-up cost, follows the host)"
                     % iqm([s["ref_server_cpu_us_per_op"] for s in sess]))
        ladder, limit = sess[-1].get("ladder", []), res["limit_us"]
        for r in ladder:
            notes.append("rung %6.0f req/s: p50 %9.1f us  p99 %10.1f us  in-flight %5.1f -> %5.1f  %s"
                         % (r["rate"], r["p50_us"], r["p99_us"], r["inflight_first"],
                            r["inflight_last"], "holds" if rung_passes(r, limit) else "fails"))
        notes.append("rpc.sustained_ops_s (ladder, limit p99 <= %.0f us): %.0f"
                     % (limit, sustained_rate(ladder, limit)))
    elif wl == "migrate_tour":
        p50 = iqm([win_median(s, "win_p50_us", "p50_us") for s in sess])
        p99 = iqm([win_median(s, "win_p99_us", "p99_us") for s in sess])
        ops_s = iqm([win_median(s, "win_ops_s", "hops_s") for s in sess])
        cpu = iqm([s["cpu_us_per_op"] for s in sess])
    else:
        p50 = iqm([win_median(s, "win_p50_us", "p50_us") for s in sess])
        p99 = iqm([s["p99_us"] for s in sess])
        ops_s = iqm([1e6 / s["cycle_p50_us"] for s in sess])
        cpu = iqm([s["cpu_us_per_op"] for s in sess])
        fb = iqm([s["faultback_p99_us"] for s in sess])
        rms = [r["restore_ms"] for r in res.get("restores", [])]
        notes.append("faultback_p99_us %.1f; restore_ms %s (median %.2f)"
                     % (fb, ["%.2f" % x for x in rms], statistics.median(rms or [0])))
    notes.append("op_p99_us %.1f (diagnostic: host-stall dominated on shared VMs)" % p99)
    notes.append("ops_failed_ratio %g (%d of %d)" % (
        ratio(res["failed"], res["attempted"]), res["failed"], res["attempted"]))
    m = {
        "op_p50_us": p50,
        "ops_s": ops_s,
        "cpu_us_per_op": cpu,
        "setup_s": iqm(res["setup_s"]),
        "session_mem_mb": iqm([s["session_mem_mb"] for s in sess]),
    }
    return m, notes


# --- running -----------------------------------------------------------------------


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure and build perfbench/ once; returns the pm2bench path."""
    bdir = build_dir()
    src = os.path.relpath(HERE)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", src, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            raise RuntimeError("cmake configure failed")
    rc = subprocess.call(["cmake", "--build", bdir, "-j", "3"],
                         stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(bdir, "pm2bench")
    if rc != 0 or not os.path.exists(exe):
        raise RuntimeError("build failed")
    return exe


def git_sha():
    root = os.path.dirname(HERE)
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(exe, workload, seed, seconds, trace):
    os.makedirs(RUN_DIR, exist_ok=True)
    out = os.path.join(RUN_DIR, "result.json")
    tfile = os.path.join(RUN_DIR, "trace_%s.json" % workload)
    for p in (out, tfile):
        if os.path.exists(p):
            os.unlink(p)
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out, "--run-dir", RUN_DIR]
    if trace:
        cmd += ["--trace-file", tfile]
    # The runtime reads PM2_* variables (fault plans, deadlines, worker
    # counts); the benchmark's configuration is its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PM2_")}
    rc = subprocess.call(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S, env=env)
    if not os.path.exists(out):
        raise RuntimeError("pm2bench exited %d without a result" % rc)
    with open(out) as f:
        res = json.load(f)
    return rc, res, tfile


def cmd_run(args):
    spec = load_spec()
    exe = build()
    rc, res, tfile = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    log("machine:", json.dumps(res["machine"]), "git:", git_sha(),
        "fabric:", res["fabric"], "workers:", res["workers"], "cpus:", res["cpus"],
        "cpus kept busy:", res["cpus_kept_busy"],
        "seed:", args.seed)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        measured, notes = per_layer(tfile)
        # trace.stage_sum_ratio is reported, not checked: the untraced phase it
        # divides by is a separate run of the schedule, and one host stall
        # there moves it by orders of magnitude.
        if measured["trace.stage_bad_ops"] > 0:
            log("CHECK FAILED: %d traced ops have missing, doubled or negative stages"
                % measured["trace.stage_bad_ops"])
            res["correct"] = False
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measured, notes = end_to_end(res)
    for n in notes:
        log(n)
    metrics = {}
    for name in names:
        if name not in measured:
            log("%-34s n/a on %s (reported as 0)" % (name, args.workload))
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": units[name]}
        log("%-34s %16.4f %s" % (name, value, units[name]))
    correct = bool(res["correct"]) and rc == 0
    if not correct:
        log("CHECK FAILED; replay: python3 perfbench/run.py --workload %s --seed %d "
            "--seconds %g --trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps({"correct": correct, "attempted": max(int(res["attempted"]), 1),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0 if correct else 1


def cmd_repeat(args):
    """Run one workload N times (seeds seed..seed+N-1), per set; print each
    end-to-end metric's median, quartiles and spread, and flag spreads over
    the metric's bound (and over a third of it)."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for s in range(args.sets):
        values = {}
        for i in range(args.repeat):
            seed = args.seed + i
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            doc = json.loads(line)
            if out.returncode != 0 or not doc.get("correct"):
                log("set %d seed %d: run failed (exit %d)" % (s + 1, seed, out.returncode))
                return 1
            for k, v in doc["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            log("set %d seed %d: %s" % (s + 1, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in doc["metrics"].items())))
        sets.append(values)
    worst = 0
    for name, b in bounds.items():
        for s, values in enumerate(sets):
            med, q1, q3, sp = spread(values[name])
            flag = "ok"
            if sp > b["bound"]:
                flag, worst = "OVER BOUND", 1
            elif sp > b["bound"] / 3:
                flag = "over a third of the bound"
            print("set %d %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f "
                  "(bound %.2f) %s" % (s + 1, name, med, q1, q3, sp, b["bound"], flag))
        if len(sets) == 2:
            m1, m2 = statistics.median(sets[0][name]), statistics.median(sets[1][name])
            worse = (m2 - m1) / m1 if b["better"] == "lower" else (m1 - m2) / m1
            agree = abs(m2 - m1) / m1 <= b["bound"]
            worst |= 0 if agree else 1
            print("    %-16s set 2 vs set 1: %+.3f worse (bound %.2f either way) %s"
                  % (name, worse, b["bound"], "agree" if agree else "DISAGREE"))
    return worst


def cmd_smoke(args):
    """Short untraced and traced runs of every workload, every check on."""
    bad = 0
    for wl in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl,
                 "--seed", str(args.seed), "--seconds", "3", "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            ok = out.returncode == 0 and '"correct": true' in out.stdout
            print("%-5s %-13s trace %d" % ("ok" if ok else "FAIL", wl, trace))
            if not ok:
                bad += 1
                sys.stderr.write(out.stderr[-2000:])
    return 1 if bad else 0


def cmd_selftest(args):
    exe = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    rc = subprocess.call([exe, "selftest", "--run-dir", RUN_DIR])
    sys.path.insert(0, HERE)
    import unittest
    import test_run
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_run)
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return cmd_selftest(args)
        if args.smoke:
            return cmd_smoke(args)
        if not args.workload:
            ap.error("--workload is required")
        if args.repeat:
            return cmd_repeat(args)
        return cmd_run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log("error:", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
