#!/usr/bin/env python3
"""End-to-end benchmark of the lucid program lifecycle, the native packet
path and the control plane. Run from the root of a checkout:

    python3 perfbench/run.py --workload burst|trickle --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (CMake; build dir $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs three rounds of three fresh
lucid_perfbench processes, one per lifecycle phase, each with a JIT temp
dir this script owns:

  cold      serial build of the ten paper apps, source -> first packet,
            on an empty temp dir A;
  parallel  the same build on min(nproc, 4) threads, empty temp dir B;
  restart   the serial build again on temp dir A.

After its build every process runs a ninth of --seconds of steady-state
work on the same seeded inputs: the native packet path (--workload picks
burst or trickle arrivals) and SFW on the interpreter under control-plane
churn. On a shared machine the speed of a process varies more than the
speed within one, so every time is a median over processes: lifecycle
times over the three rounds, rates and set-up time over all nine.

Every process checks its outputs (interp-vs-native differential per app,
interpreter replay of a packet prefix, control-plane invariants). The last
stdout line is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics (self times from
a Perfetto trace written under .bench_out/) with --trace 1. Exits non-zero
if any check failed.
"""
import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("burst", "trickle")
PHASES = ("cold", "parallel", "restart")
APPS = ("SFW", "RR", "DNS", "StarFlow", "SRO", "DFW", "DFWA", "RIP", "NAT",
        "CM")
LIFECYCLE_ROUNDS = 3
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "lucid_perfbench")


def run_child(cmd, env, deadline):
    """Runs one phase process in its own process group; returns its last
    stdout line parsed as JSON, or None. Kills the group on timeout and
    waits until every process in it has exited."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timeout: {' '.join(cmd)}")
        out = ""
    for _ in range(200):  # JIT compiler grandchildren share the group
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        os.killpg(proc.pid, signal.SIGKILL)
        time.sleep(0.05)
    lines = out.strip().splitlines()
    if not lines:
        log(f"no output (rc={proc.returncode}): {' '.join(cmd)}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"bad output (rc={proc.returncode}): {lines[-1][:200]}")
        return None


def machine(proc):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "compiler": proc["compiler"], "build_type": proc["build_type"]}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def rate(procs, section, key):
    """Median over processes of a steady section's work per wall second."""
    return statistics.median(p[section][key] / p[section]["wall_s"]
                             for p in procs)


def percentile(values, p):
    """Percentile p in 1..99, interpolated between the two nearest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(res):
    """The end-to-end metrics from every phase process (untraced)."""
    procs = [r for phase in PHASES for r in res[phase]]
    # Every process ran its own churn stream: pool their latency samples.
    apply_ns = [ns for p in procs for ns in p["churn"]["apply_ns"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in procs), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in procs) / 1024, "MB"),
        "cold_total_s": (statistics.median(
            r["lifecycle_s"] for r in res["cold"]), "s"),
        "restart_total_s": (statistics.median(
            r["lifecycle_s"] for r in res["restart"]), "s"),
        "parallel_total_s": (statistics.median(
            r["lifecycle_s"] for r in res["parallel"]), "s"),
        "packet_mpps": (rate(procs, "packet", "work") / 1e6, "Mpps"),
        "churn_kpps": (rate(procs, "churn", "work") / 1e3, "kpps"),
        "installs_per_s": (rate(procs, "churn", "installs"), "1/s"),
        "apply_p50_sim_us": (percentile(apply_ns, 50) / 1e3, "us"),
        "apply_p99_sim_us": (percentile(apply_ns, 99) / 1e3, "us"),
    }


def determinism_errors(procs):
    """Every process ran the same seeded packet inputs, so its packet counts
    must match the first process's exactly."""
    def counts(p):
        return [(a["app"], a["executed"], a["recirculations"],
                 a["delayed_enqueues"], a["fingerprint"])
                for a in p["packet"]["apps"]]
    ref = counts(procs[0])
    return [f"process {i} ({p['phase']}) counts differ from process 0"
            for i, p in enumerate(procs) if counts(p) != ref]


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def spans(events, workload, name=None):
    """The harness's own complete spans (category = workload)."""
    return [e for e in events
            if e.get("ph") == "X" and e.get("cat") == workload
            and (name is None or e["name"] == name)]


def union_us(intervals):
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def by_app(evs):
    out = {}
    for e in evs:
        app = e.get("args", {}).get("app", "")
        d = out.setdefault(app, [0.0, 0])
        d[0] += e["dur"]
        d[1] += e.get("args", {}).get("n", 0)
    return out


def per_layer(res, traces, workload, debris):
    """Per-layer metrics: self times of the harness's spans (their only
    children are library spans, which are ignored), next to the counts.
    Lifecycle layers are means over the rounds' cold (or parallel) builds;
    packet and control layers sum the spans of all processes, control
    counts sum over the processes' churn streams."""
    m = {}
    procs = [r for phase in PHASES for r in res[phase]]
    rounds = len(traces["cold"])
    cold = [e for evs in traces["cold"] for e in evs]
    par = [e for evs in traces["parallel"] for e in evs]
    every = [e for phase in PHASES for evs in traces[phase] for e in evs]

    def rows(metric, unit, per_app, agg=None):
        vals = {a: per_app.get(a, 0.0) for a in APPS}
        m[metric] = (agg if agg is not None else sum(vals.values()), unit)
        for a in APPS:
            m[f"{metric}.{a}"] = (vals[a], unit)

    def mean_ms(evs, name, field=0):
        """Per app: summed span duration (field 0) or count argument
        (field 1) in microseconds, as milliseconds per round."""
        per = by_app(spans(evs, workload, name))
        return {a: d[field] / 1e3 / rounds for a, d in per.items()}

    for metric, layer in (("frontend.parse_ms", "frontend.parse"),
                          ("sema.ms", "sema"),
                          ("ir.lower_ms", "ir.lower"),
                          ("opt.layout_ms", "opt.layout")):
        m[metric] = (sum(mean_ms(cold, layer).values()), "ms")
    rows("native.emit_ms", "ms", mean_ms(cold, "native.emit"))
    # The build span's count argument is Module::compile_ms in microseconds.
    rows("native.jit.compile_ms", "ms", mean_ms(cold, "native.build", 1))
    waits = [e["dur"] - e["args"]["n"]
             for e in spans(par, workload, "native.build")]
    m["native.jit.wait_ms"] = (sum(waits) / 1e3 / rounds, "ms")
    m["native.jit.tmp_dirs_left"] = (debris, "count")
    rows("native.first_packet_ms", "ms", mean_ms(cold, "native.first_packet"))

    def ns_per(name):
        per = by_app(spans(every, workload, name))
        vals = {a: 1e3 * d[0] / d[1] for a, d in per.items() if d[1]}
        tot_us = sum(d[0] for d in per.values())
        tot_n = sum(d[1] for d in per.values())
        return vals, (1e3 * tot_us / tot_n if tot_n else 0.0)

    for metric, layer in (("native.inject_ns_per_pkt", "native.inject"),
                          ("native.loop_ns_per_pkt", "native.run_until"),
                          ("native.kernel_ns_per_pkt", "native.kernel")):
        vals, agg = ns_per(layer)
        rows(metric, "ns", vals, agg)

    pk_apps = {a["app"]: a for a in procs[0]["packet"]["apps"]}
    for metric, key in (("native.executed", "executed"),
                        ("native.recirculations", "recirculations"),
                        ("native.delayed_enqueues", "delayed_enqueues")):
        rows(metric, "count", {a: pk_apps[a][key] for a in pk_apps})

    churns = [p["churn"] for p in procs]
    m["interp.ns_per_pass"] = (ns_per("sim.run_until")[1], "ns")
    m["interp.schedule_ns_per_pkt"] = (ns_per("interp.schedule")[1], "ns")
    m["ctrl.submit_ns_per_op"] = (ns_per("ctrl.submit")[1], "ns")
    m["ctrl.apply_points"] = (sum(c["apply_points"] for c in churns), "count")
    m["ctrl.max_queue_depth"] = (max(c["max_queue_depth"] for c in churns),
                                 "count")
    m["ctrl.modeled_busy_us"] = (
        sum(c["modeled_busy_ns"] for c in churns) / 1e3, "us")

    # Coverage: the share of every timed wall covered by layer spans. A
    # lifecycle wall is its region span (union of the spans inside, over all
    # threads); the steady walls are the section walls each process timed.
    covered = wall = 0.0
    for evs in (e for phase in PHASES for e in traces[phase]):
        for region in spans(evs, workload, "lifecycle"):
            lo, hi = region["ts"], region["ts"] + region["dur"]
            inside = [(e["ts"], e["ts"] + e["dur"])
                      for e in spans(evs, workload)
                      if e["name"] != "lifecycle" and e["ts"] >= lo
                      and e["ts"] + e["dur"] <= hi]
            covered += union_us(inside)
            wall += region["dur"]
    steady_layers = ("native.inject", "native.run_until", "interp.schedule",
                     "sim.run_until", "ctrl.submit")
    covered += sum(e["dur"] for e in spans(every, workload)
                   if e["name"] in steady_layers)
    wall += 1e6 * sum(p[sec]["wall_s"] for p in procs
                      for sec in ("packet", "churn"))
    m["trace.coverage"] = (covered / wall if wall else 0.0, "ratio")
    m["trace.overhead_ratio"] = (statistics.median(
        p["traced_steady_s"] / p["untraced_steady_s"] for p in procs),
        "ratio")
    return m


def merge_traces(traces, path):
    """One Perfetto/Chrome trace: each phase process on its own pid."""
    events = []
    pid = 0
    for r in range(len(traces["cold"])):
        for phase in PHASES:
            pid += 1
            events.append({"name": "process_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": 0,
                           "args": {"name": f"round {r} {phase}"}})
            events.extend(dict(e, pid=pid) for e in traces[phase][r])
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_phases(binary, args, tmp):
    """Every phase process of the run, in round order. Returns (results,
    traces), each a dict phase -> list over rounds; None marks a process
    that gave no result."""
    res = {p: [] for p in PHASES}
    traces = {p: [] for p in PHASES}
    deadline = time.time() + RUN_BUDGET_S
    for r in range(LIFECYCLE_ROUNDS):
        dirs = {"cold": os.path.join(tmp, f"a{r}"),
                "parallel": os.path.join(tmp, f"b{r}"),
                "restart": os.path.join(tmp, f"a{r}")}
        for phase in PHASES:
            os.makedirs(dirs[phase], exist_ok=True)
            cmd = [binary, "--workload", args.workload, "--phase", phase,
                   "--seed", str(args.seed),
                   "--stream", str(r * len(PHASES) + PHASES.index(phase)),
                   "--seconds", str(args.seconds / LIFECYCLE_ROUNDS
                                    / len(PHASES))]
            tpath = os.path.join(tmp, f"trace-{r}-{phase}.json")
            if args.trace:
                cmd += ["--trace-out", tpath]
            out = run_child(cmd, dict(os.environ, TMPDIR=dirs[phase]),
                            deadline)
            res[phase].append(out)
            if out is None:
                return res, traces
            if args.trace:
                traces[phase].append(load_trace(tpath))
    return res, traces


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    start = time.time()
    tmp = os.path.join(root, ".bench_tmp",
                       f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        res, traces = run_phases(binary, args, tmp)
        # Isolation: count the JIT work dirs the processes left, then remove
        # everything this run created.
        debris = len(glob.glob(os.path.join(tmp, "*", "lucid-native-*")))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_tmp"))
        except OSError:
            pass

    procs = [r for phase in PHASES for r in res[phase]]
    for r in procs:
        for e in (r or {}).get("errors", []):
            log(f"check failed: {e}")
    if (len(procs) != LIFECYCLE_ROUNDS * len(PHASES) or None in procs
            or any("packet" not in r for r in procs)):
        log("a phase process failed; no result")
        return 1

    attempted = sum(r["attempted"] for r in procs) + 1
    failed = sum(r["failed"] for r in procs)
    for e in determinism_errors(procs):
        log(f"check failed: {e}")
        failed += 1
    first = procs[0]
    print("# machine " + json.dumps(machine(first)))
    print("# inputs " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "packet": {a["app"]: a["fingerprint"]
                   for a in first["packet"]["apps"]},
        "churn": [r["churn"]["fingerprint"] for r in procs]}))
    print("# detail " + json.dumps({
        "cold_jit_compile_s": [sum(a["compile_ms"] for a in r["apps"]) / 1e3
                               for r in res["cold"]],
        "churn_wall_s": [r["churn"]["wall_s"] for r in procs],
        "tmp_dirs_left": debris,
        "run_s": time.time() - start}))
    if args.trace:
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        tpath = os.path.join(root, ".bench_out",
                             f"trace-{args.workload}-seed{args.seed}.json")
        merge_traces(traces, tpath)
        print(f"# trace {os.path.relpath(tpath, root)}")
        metrics = per_layer(res, traces, args.workload, debris)
    else:
        metrics = end_to_end(res)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
