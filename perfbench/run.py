#!/usr/bin/env python3
"""End-to-end benchmark of the record -> plan -> run-shard -> merge pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --freeze

Run from the repository root. Builds perfbench/pipeline_bench (Release)
from the repository's src/ into .bench_build/, runs it, checks every merged
grid column against the digests frozen in perfbench/golden.json, and
prints the metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} -- end-to-end metrics with
--trace 0, per-layer metrics (from a traced run) with --trace 1. The exit
code is 0 when every unit matched, 1 when a unit failed, 2 when the
benchmark could not run. perfbench/README.md documents the workloads and
every metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD_DIR / "pipeline_bench"
GOLDEN = BENCH_DIR / "golden.json"

WORKLOADS = ("smarts_sidecar", "smarts_tracefed", "ci_detail")
CONFIGS = ("scal2p", "wb2p", "ci2p", "vect2p")

# name -> unit. The self-test checks these against BENCHMARK.json.
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "execute_s": "s",
    "covered_minsts_per_s": "Minst/s",
    "detailed_minsts_per_s": "Minst/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "ipc_err_pct": "%",
}
PER_LAYER = {
    "isa.engine_minsts_per_s": "Minst/s",
    "trace.record_s": "s",
    "trace.record_bytes_per_inst": "B/inst",
    "trace.plan_s": "s",
    "trace.warm_capture_s": "s",
    "trace.warm_work_minsts": "Minst",
    "trace.warm_minsts_per_s": "Minst/s",
    "trace.warm_decode_wait_s": "s",
    "trace.warm_feed_s": "s",
    "trace.warm_parallel_eff": "ratio",
    "trace.manifest_write_s": "s",
    "trace.bytes_written": "MB",
    "trace.manifest_load_s": "s",
    "trace.bytes_read": "MB",
    "trace.checkpoint_load_s": "s",
    "trace.blocks_read": "count",
    "trace.decode_s": "s",
    "shard.run_s": "s",
    "shard.units": "count",
    "shard.unit_ms_p50": "ms",
    "shard.unit_ms_p95": "ms",
    "shard.unit_samples": "count",
    "shard.parallel_eff": "ratio",
    "shard.imbalance": "ratio",
    "shard.restore_ms": "ms",
    "shard.warming_ms": "ms",
    "shard.detail_ms": "ms",
    "trace.merge_s": "s",
    "core.minsts_per_s": "Minst/s",
    "core.ns_per_cycle": "ns",
    **{f"core.us_per_kinst.{c}": "us/kinst" for c in CONFIGS},
    "core.flushes_per_kinst": "1/kinst",
    "ci.overhead_pct": "%",
    "ci.replicas_per_kinst": "1/kinst",
    "ci.reuse_frac": "ratio",
    "mem.l1d_misses_per_kinst": "1/kinst",
    "branch.mispredicts_per_kinst": "1/kinst",
    "sim.calib_cpus": "cpus",
    "sim.steal_pct": "%",
    "cpu_s": "s",
    "obs.trace_overhead_pct": "%",
    "failed_unit_frac": "ratio",
}

# Layer groups of the benchmark's own spans, for the self-time report.
LAYER_GROUPS = {
    "record": ("trace.record",),
    "plan": ("trace.plan",),
    "warm_capture": ("trace.bind_configs", "shard.warm_capture"),
    "artifact_io": ("trace.manifest_write", "trace.manifest_load",
                    "shard.save", "shard.load"),
    "detail_units": ("shard.run",),
    "merge": ("trace.merge",),
    "build": ("isa.build",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds pipeline_bench; False when that fails."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def run_binary(args):
    """Runs pipeline_bench; returns (returncode, parsed JSON lines)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CFIR_")}
    proc = subprocess.run([str(BINARY), *args, "--work", str(WORK_DIR)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=170)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def percentile(sorted_values, q):
    """Nearest-rank percentile q (0-100) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def check_golden(host, reps, golden, perturb):
    """Counts failed units: a merged column whose digest misses its frozen
    golden digest fails all of its (interval, config) units."""
    family = golden["families"].get(host["family"])
    if family is None:
        raise SystemExit(f"perfbench: no golden digests for {host['family']}")
    expected = family["digests"][host["variant"]]
    if perturb:
        prog = next(iter(expected))
        cfg = next(iter(expected[prog]))
        expected = json.loads(json.dumps(expected))
        expected[prog][cfg] = "0" * 16
    failed = 0
    for rep in reps:
        for col in rep["columns"]:
            want = expected.get(col["program"], {}).get(col["config"])
            if col["digest"] != want:
                failed += family["intervals"]
                log(f"perfbench: rep {rep['rep']}: {col['program']}/"
                    f"{col['config']} digest {col['digest']} != golden {want}")
    return failed


def ipc_error_pct(host, rep, golden):
    """Largest |sampled IPC - full detailed IPC| / full IPC, in percent."""
    full = golden["families"][host["family"]]["full_ipc"]
    worst = 0.0
    for col in rep["columns"]:
        ref = full[col["program"]][col["config"]][host["variant"]]
        worst = max(worst, abs(col["ipc"] - ref) / ref * 100.0)
    return worst


def second_slowest(values):
    return sorted(values)[-2] if len(values) > 1 else values[0]


def pieces_us(reps, key):
    """Sum over the pieces of a phase of each piece's second-slowest rep."""
    return sum(second_slowest(p) for p in zip(*(r[key] for r in reps)))


def end_to_end_metrics(host, reps, golden):
    """Phase times are each timed piece's second-slowest rep, summed
    (README, "Timing estimator"). The host runs a single thread at two
    speeds, up to 1.8x apart, switching every few seconds: nearly every
    piece meets the slow speed in two reps of a run, while the share of
    reps that do swings from run to run. The slowest rep is dropped as a
    possible one-off stall."""
    shape = [(len(r["setup_pieces"]), len(r["execute_pieces"])) for r in reps]
    reps = [r for r, s in zip(reps, shape) if s == shape[0]]
    setup_us = pieces_us(reps, "setup_pieces")
    execute_us = pieces_us(reps, "execute_pieces")
    pipeline_us = setup_us + execute_us + second_slowest(
        [r["pipeline_us"] - r["setup_us"] - r["execute_us"] for r in reps])
    return {
        "pipeline_s": pipeline_us / 1e6,
        "setup_s": setup_us / 1e6,
        "execute_s": execute_us / 1e6,
        "covered_minsts_per_s": reps[0]["covered_insts"] / pipeline_us,
        "detailed_minsts_per_s": reps[0]["detailed_insts"] / execute_us,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reps) * 1024 / 1e6,
        "artifact_mb": median([r["artifact_bytes"] for r in reps]) / 1e6,
        "ipc_err_pct": ipc_error_pct(host, reps[0], golden),
    }


def obs_unit_spans(path):
    """Summed durations (us) of run_shard's per-unit spans in one obs trace:
    checkpoint.restore, warming (warm-blob install and detailed warm-up --
    one span name for both) and detail."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    totals = {"checkpoint.restore": 0.0, "warming": 0.0, "detail": 0.0}
    open_spans = {}
    for e in events:
        if e.get("name") not in totals:
            continue
        key = (e["tid"], e["name"])
        if e["ph"] == "B":
            open_spans.setdefault(key, []).append(e["ts"])
        elif e["ph"] == "E" and open_spans.get(key):
            totals[e["name"]] += e["ts"] - open_spans[key].pop()
    return totals


def layer_self_times(traced_reps):
    """Median per-rep self time (us) of each span name of the benchmark's own
    trace: its duration minus the part its child spans cover."""
    with open(WORK_DIR / "bench_trace.json") as f:
        events = json.load(f)["traceEvents"]
    wanted = {r["rep"] for r in traced_reps}
    child_time = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0) + e["dur"]
    per_rep = {}
    for e in events:
        rep = e["args"]["rep"]
        if rep not in wanted:
            continue
        self_us = e["dur"] - child_time.get(e["args"]["id"], 0)
        by_name = per_rep.setdefault(e["name"], {})
        by_name[rep] = by_name.get(rep, 0) + self_us
    return {name: median([reps.get(r, 0) for r in wanted])
            for name, reps in per_rep.items()}


def per_layer_metrics(host, traced, untraced, failed_frac, steal_pct):
    def reg(rep, name):
        return rep["registry"].get(name, 0.0)

    def call(rep, name):
        return rep["calls"].get(name, 0.0)

    def med(fn):
        return median([fn(r) for r in traced])

    threads = host["threads"]
    units = sorted(u for r in traced for u in r["unit_us"])

    def imbalance(rep):
        """Slowest over mean run_shard wall of each program's shards."""
        per_program = {}
        for p, us in zip(rep["shard_program"], rep["run_shard_us"]):
            per_program.setdefault(p, []).append(us)
        return median([ratio(max(v), statistics.mean(v))
                       for v in per_program.values()])

    spans = [obs_unit_spans(r["obs_trace"]) for r in traced]

    def per_unit_ms(name):
        return median([ratio(s[name], r["units"]) / 1e3
                       for s, r in zip(spans, traced)])

    def columns(rep, configs=None):
        return [c for c in rep["columns"]
                if configs is None or c["config"] in configs]

    def col_sum(rep, key, configs=None):
        return sum(c[key] for c in columns(rep, configs))

    def us_per_kinst(rep, cfg):
        return ratio(col_sum(rep, "unit_us", (cfg,)),
                     col_sum(rep, "detailed_insts", (cfg,)) / 1e3)

    return {
        "isa.engine_minsts_per_s": med(lambda r: ratio(
            reg(r, "interp.insts"),
            reg(r, "engine.run_us") + reg(r, "interp.run_us"))),
        "trace.record_s": med(lambda r: call(r, "trace.record")) / 1e6,
        "trace.record_bytes_per_inst": med(
            lambda r: ratio(r["trace_bytes"], r["recorded_insts"])),
        "trace.plan_s": med(lambda r: call(r, "trace.plan")) / 1e6,
        "trace.warm_capture_s": med(
            lambda r: reg(r, "warming.capture_us")) / 1e6,
        "trace.warm_work_minsts": med(lambda r: reg(r, "warming.insts")) / 1e6,
        "trace.warm_minsts_per_s": med(lambda r: ratio(
            reg(r, "warming.insts"), reg(r, "warming.capture_us"))),
        "trace.warm_decode_wait_s": med(
            lambda r: reg(r, "warming.decode_wait_us")) / 1e6,
        "trace.warm_feed_s": med(lambda r: reg(r, "warming.feed_us")) / 1e6,
        "trace.warm_parallel_eff": med(lambda r: ratio(
            reg(r, "warming.feed_us"),
            threads * reg(r, "warming.capture_us"))),
        "trace.manifest_write_s": med(
            lambda r: call(r, "trace.manifest_write")) / 1e6,
        "trace.bytes_written": med(lambda r: r["bytes_written"]) / 1e6,
        "trace.manifest_load_s": med(
            lambda r: call(r, "trace.manifest_load")) / 1e6,
        "trace.bytes_read": med(lambda r: r["bytes_read"]) / 1e6,
        "trace.checkpoint_load_s": med(
            lambda r: reg(r, "checkpoint.load_us")) / 1e6,
        "trace.blocks_read": med(lambda r: reg(r, "trace.blocks_read")),
        "trace.decode_s": med(lambda r: reg(r, "trace.decode_us")) / 1e6,
        "shard.run_s": med(lambda r: call(r, "shard.run")) / 1e6,
        "shard.units": med(lambda r: r["units"]),
        "shard.unit_ms_p50": percentile(units, 50) / 1e3,
        "shard.unit_ms_p95": percentile(units, 95) / 1e3,
        "shard.unit_samples": len(units),
        "shard.parallel_eff": med(lambda r: ratio(
            sum(r["unit_us"]), threads * sum(r["run_shard_us"]))),
        "shard.imbalance": med(imbalance),
        "shard.restore_ms": per_unit_ms("checkpoint.restore"),
        "shard.warming_ms": per_unit_ms("warming"),
        "shard.detail_ms": per_unit_ms("detail"),
        "trace.merge_s": med(lambda r: call(r, "trace.merge")) / 1e6,
        "core.minsts_per_s": med(lambda r: ratio(
            reg(r, "shard.detail_insts"), reg(r, "shard.unit_us"))),
        "core.ns_per_cycle": med(lambda r: ratio(
            reg(r, "shard.unit_us") * 1e3, reg(r, "core.cycles"))),
        **{f"core.us_per_kinst.{c}": med(
            lambda r, c=c: us_per_kinst(r, c)) for c in CONFIGS},
        "core.flushes_per_kinst": med(lambda r: ratio(
            reg(r, "core.flushes"), reg(r, "shard.detail_insts") / 1e3)),
        "ci.overhead_pct": med(lambda r: ratio(
            us_per_kinst(r, "ci2p") - us_per_kinst(r, "wb2p"),
            us_per_kinst(r, "wb2p")) * 100.0),
        "ci.replicas_per_kinst": med(lambda r: ratio(
            col_sum(r, "replicas_executed", ("ci2p", "vect2p")),
            col_sum(r, "committed", ("ci2p", "vect2p")) / 1e3)),
        "ci.reuse_frac": med(lambda r: ratio(
            col_sum(r, "reused_committed", ("ci2p", "vect2p")),
            col_sum(r, "replicas_executed", ("ci2p", "vect2p")))),
        "mem.l1d_misses_per_kinst": med(lambda r: ratio(
            col_sum(r, "l1d_misses"), col_sum(r, "committed") / 1e3)),
        "branch.mispredicts_per_kinst": med(lambda r: ratio(
            col_sum(r, "mispredicts"), col_sum(r, "committed") / 1e3)),
        "sim.calib_cpus": host["calib_cpus"],
        "sim.steal_pct": steal_pct,
        "cpu_s": median([r["cpu_us"] for r in untraced]) / 1e6,
        "obs.trace_overhead_pct": (ratio(
            median([r["pipeline_us"] for r in traced]),
            median([r["pipeline_us"] for r in untraced])) - 1.0) * 100.0,
        "failed_unit_frac": failed_frac,
    }


def report_layers(traced):
    """Prints each layer's self time and share of the traced pipeline."""
    self_us = layer_self_times(traced)
    pipeline_us = median([r["pipeline_us"] for r in traced])
    for name in sorted(self_us):
        print(f"# span {name}: self {self_us[name] / 1e6:.4f} s "
              f"({100.0 * self_us[name] / pipeline_us:.1f}% of pipeline)")
    for group, names in LAYER_GROUPS.items():
        us = sum(self_us.get(n, 0) for n in names)
        print(f"# layer {group}: {us / 1e6:.4f} s "
              f"({100.0 * us / pipeline_us:.1f}% of pipeline)")


def bench(args):
    golden = json.loads(GOLDEN.read_text())
    if not build():
        return 2
    steal0, total0 = cpu_times()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.fault == "corrupt-shard":
        cmd.append("--corrupt-shard")
    code, lines = run_binary(cmd)
    steal1, total1 = cpu_times()
    if code != 0 or not lines:
        log(f"perfbench: pipeline_bench exited with {code}")
        return 2
    host, rep_lines = lines[0], lines[1:]
    print(f"# host: {host['threads']} simulation threads of "
          f"{host['hw_threads']} hardware threads, calibrated "
          f"{host['calib_cpus']:.2f} effective CPUs, compiler {host['compiler']}, "
          f"{host['build_type']} build, seed {args.seed} -> variant "
          f"{host['variant']}")
    steal_pct = 100.0 * ratio(steal1 - steal0, total1 - total0)
    print(f"# host: steal {steal_pct:.2f}% of CPU time during the run")

    attempted = sum(r["units"] for r in rep_lines)
    failed = sum(r["failed_units"] for r in rep_lines)
    failed += check_golden(host, rep_lines, golden,
                           args.fault == "perturb-digest")
    failed = min(failed, attempted)
    for r in rep_lines:
        for err in r["errors"]:
            print(f"# rep {r['rep']} failed: {err}")
    measured = [r for r in rep_lines if not r["warmup"]]
    traced = [r for r in measured if r["traced"]]
    untraced = [r for r in measured if not r["traced"]]
    print(f"# reps: {len(measured)} measured ({len(traced)} traced) after "
          f"1 warm-up; {attempted} units attempted, {failed} failed")

    walls = sorted(r["pipeline_us"] / 1e6 for r in untraced)
    print(f"# rep wall over {len(walls)} untraced reps: min {walls[0]:.3f}, "
          f"median {median(walls):.3f}, max {walls[-1]:.3f}")
    if args.trace:
        units = sorted(u for r in traced for u in r["unit_us"])
        beyond = len(units) - -(-len(units) * 95 // 100)
        print(f"# unit wall over {len(units)} samples: {beyond} beyond p95")
        report_layers(traced)
        values = per_layer_metrics(host, traced, untraced,
                                   ratio(failed, attempted), steal_pct)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(host, untraced, golden)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def freeze():
    """Regenerates golden.json: merged-column digests for every seed
    variant and full detailed IPC per (program, config, variant)."""
    if not build():
        return 2
    families = {}
    for workload, tiny in [(w, t) for t in (False, True) for w in WORKLOADS]:
        cmd = ["--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", "0", "--reference"] + (["--tiny"] if tiny else [])
        log(f"perfbench: freezing {workload}{' (tiny)' if tiny else ''}")
        code, lines = run_binary(cmd)
        if code != 0:
            return 2
        host, lines = lines[0], lines[1:]
        digests = [{} for l in lines if "variant" in l]
        full_ipc = {}
        for l in lines:
            if "variant" in l:
                for c in l["columns"]:
                    digests[l["variant"]].setdefault(
                        c["program"], {})[c["config"]] = c["digest"]
            else:
                full_ipc.setdefault(l["full_ipc_program"], {})[
                    l["config"]] = l["ipc"]
        family = host["family"]
        entry = {"intervals": host["intervals"], "digests": digests,
                 "full_ipc": full_ipc}
        if family in families and families[family]["digests"] != digests:
            log(f"perfbench: {workload} disagrees with the other route")
            return 1
        families[family] = entry
    GOLDEN.write_text(json.dumps({"families": families}, indent=1,
                                 sort_keys=True) + "\n")
    return 0


def selftest():
    """Tiny smoke of every workload: all metrics printed with their units,
    and injected faults counted as failed units instead of crashing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared[0] == END_TO_END, "BENCHMARK.json end_to_end drifted"
    assert declared[1] == PER_LAYER, "BENCHMARK.json per_layer drifted"

    def run(workload, trace, fault=None):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", "0", "--seconds", "1", "--trace",
               str(trace), "--tiny"] + (["--fault", fault] if fault else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        return proc.returncode, json.loads(proc.stdout.splitlines()[-1])

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, trace)
            assert code == 0 and result["correct"], (workload, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], (workload, trace, got)
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, v)
            log(f"selftest: {workload} trace {trace} ok")
    for workload, fault in (("smarts_sidecar", "corrupt-shard"),
                            ("ci_detail", "perturb-digest")):
        code, result = run(workload, 0, fault)
        assert code == 1 and not result["correct"], (workload, fault, result)
        assert 0 < result["failed"] <= result["attempted"], result
        log(f"selftest: {fault} counted as {result['failed']} failed of "
            f"{result['attempted']} units")
    print(json.dumps({"selftest": "passed"}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (seconds, not minutes)")
    p.add_argument("--fault", choices=("corrupt-shard", "perturb-digest"),
                   help="inject a failure the run must count, not crash on")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--freeze", action="store_true",
                   help="regenerate perfbench/golden.json")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.freeze:
        return freeze()
    if args.workload is None:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
