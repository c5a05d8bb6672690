"""mfsde benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With `--trace 0` it prints the
end-to-end metrics of BENCHMARK.json (wall time per pass rescaled to a
reference core speed, set-up time, peak memory, share of operations that
succeeded); with `--trace 1` it prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Every pass
is checked: its verdict, its output digest against the references recorded
in bench/references.json, and, in a traced run, that tracing left the
digest unchanged.  See bench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, SUITES
from worker import REF_KERNEL_S

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SETUP_PROBES = 2             # extra set-up-only processes; the worker is one more
DEADLINE_S = 175.0           # the whole run must end within 180 s
# Layers each workload exists to stress; the traced run reports whether the
# dominant layer matched.
PREDICTED_DOMINANT = {
    "moments_jumps": ("solver", "models"),
    "cli_pipeline": ("norms",),
    "pathwise_integral": ("fractional",),
}
# single-threaded BLAS/OpenMP in every worker
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _worker(args, started, scratch, extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scratch", scratch] + extra
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise SystemExit("run: out of time before starting a worker")
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=CHECKOUT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run: worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(record):
    """Per-layer metrics of one traced pass."""
    c = record["trace"]
    self_s = {layer: c["self_s"].get(layer, 0.0) for layer in LAYERS}
    calls, counts, times = c["calls"], c["counts"], c["times"]
    key_calls, entry = c["key_calls"], c["entry_s"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    for layer in ("solver", "noise", "norms", "fractional"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
    steps = counts.get("solver.steps", 0)
    m["solver.steps"] = steps
    m["solver.ns_per_step"] = 1e9 * _div(self_s["solver"], steps)
    m["solver.segments"] = counts.get("solver.segments", 0)
    m["solver.blowups"] = counts.get("solver.blowups", 0)
    m["models.coeff_calls"] = counts.get("models.coeff_calls", 0)
    m["models.coeff_s"] = times.get("models.coeff_s", 0.0)
    m["models.batch_width"] = _div(counts.get("models.coeff_elements", 0),
                                   counts.get("models.coeff_calls", 0))
    m["noise.streams"] = key_calls.get("noise.Seed.generator", 0)
    m["noise.stream_setup_s"] = times.get("noise.Seed.generator", 0.0)
    m["noise.fbm_nodes"] = counts.get("noise.fbm_nodes", 0)
    m["noise.fbm_ns_per_node"] = 1e9 * _div(times.get("noise.gen_fbm", 0.0),
                                            counts.get("noise.fbm_nodes", 0))
    m["noise.jumps"] = counts.get("noise.jumps", 0)
    m["noise.regen_ratio"] = _div(counts.get("noise.triples", 0), c["distinct_triples"])
    pairs = counts.get("norms.node_pairs", 0)
    m["norms.node_pairs"] = pairs
    m["norms.ns_per_pair"] = 1e9 * _div(self_s["norms"], pairs)
    for fn in ("norm_inf", "norm_0_interval"):
        m[f"norms.{fn}.self_s"] = entry.get(f"norms.{fn}", 0.0)
    nodes = counts.get("fractional.nodes", 0)
    m["fractional.nodes"] = nodes
    m["fractional.ns_per_node"] = 1e9 * _div(self_s["fractional"], nodes)
    m["analysis.excluded"] = counts.get("analysis.excluded", 0)
    for fn in SUITES:
        m[f"analysis.{fn}.self_s"] = entry.get(f"analysis.{fn}", 0.0)
    m["cli.bytes_written"] = record["counts"].get("cli.bytes_written", 0)
    m["cli.artifacts"] = record["counts"].get("cli.artifacts", 0)
    m["trace.spans"] = c["spans"]
    m["trace.wall_s"] = record["wall_s"]
    m["trace.unattributed_s"] = record["wall_s"] - sum(self_s.values())
    return m


def check_passes(result, references, workload, seed):
    """Mark each pass failed or not; return (lines, correct, attempted, failed)."""
    recorded = references["digests"].get(workload, {}).get(str(seed), [])
    same_versions = result["versions"] == references["versions"]
    lines, correct, attempted, failed = [], True, 0, 0
    untraced = result["passes"]
    for kind, records in (("pass", untraced), ("traced", result.get("traced", []))):
        for rec in records:
            i = rec["index"]
            if kind == "traced":
                status = ("same as untraced" if rec["digest"] == untraced[i]["digest"]
                          else "PERTURBED by tracing")
                bad_digest = rec["digest"] != untraced[i]["digest"]
            elif i >= len(recorded):
                status, bad_digest = "no reference", False
            elif not same_versions:
                status, bad_digest = "unverified (versions differ)", False
            elif rec["digest"] == recorded[i]:
                status, bad_digest = "matches reference", False
            else:
                status, bad_digest = "MISMATCH with reference", True
            pass_failed = bad_digest or not rec["ok"]
            attempted += rec["operations"]
            failed += rec["operations"] if pass_failed else rec["excluded"]
            correct &= not pass_failed
            ref = f" ({rec['ref_wall_s']:.3f} s at ref)" if "ref_wall_s" in rec else ""
            lines.append(f"{kind} {i}: {rec['wall_s']:.3f} s{ref}  verdict "
                         f"{'PASS' if rec['ok'] else 'FAIL'} ({rec['detail']})  "
                         f"digest {rec['digest'][:16]} {status}")
    return lines, correct, attempted, failed


def _report_layers(workload, traced, untraced_wall, per_pass, lines):
    wall = statistics.median(r["wall_s"] for r in traced)
    overhead = wall - untraced_wall
    lines.append(f"traced wall {wall:.3f} s, untraced {untraced_wall:.3f} s, "
                 f"trace.overhead_s {overhead:.3f} s")
    lines.append(f"{'layer':<11}{'calls':>9}{'self_s':>10}{'share':>8}")
    first = per_pass[0]
    for layer in LAYERS:
        calls = traced[0]["trace"]["calls"].get(layer, 0)
        lines.append(f"{layer:<11}{calls:>9}{first[layer + '.self_s']:>10.3f}"
                     f"{first[layer + '.self_s'] / first['trace.wall_s']:>8.1%}")
    lines.append(f"{'unattrib.':<11}{'':>9}{first['trace.unattributed_s']:>10.3f}"
                 f"{first['trace.unattributed_s'] / first['trace.wall_s']:>8.1%}")
    total = sum(first[f"{layer}.self_s"] for layer in LAYERS) + first["trace.unattributed_s"]
    lines.append(f"layer self times + unattributed = {total:.6f} s;"
                 f" traced wall_s = {first['trace.wall_s']:.6f} s")
    predicted = PREDICTED_DOMINANT[workload]
    group = sum(first[f"{layer}.self_s"] for layer in predicted)
    others = max(first[f"{layer}.self_s"] for layer in LAYERS if layer not in predicted)
    lines.append(f"predicted dominant layer {'+'.join(predicted)} "
                 f"({group / first['trace.wall_s']:.1%} of traced wall): "
                 f"{'held' if group > others else 'NOT held'}")
    return overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"run: unknown workload {args.workload!r}")
    references = json.loads((BENCH / "references.json").read_text())
    out_dir = CHECKOUT / ".bench_out"
    tmp_root = CHECKOUT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, started, scratch, ["--setup-only"])["setup"])
        else:
            extra += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")]
        result = _worker(args, started, scratch, extra)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            tmp_root.rmdir()
    setups.append(result["setup"])

    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
             "versions: " + ", ".join(f"{k} {v}" for k, v in result["versions"].items())]
    pass_lines, correct, attempted, failed = check_passes(
        result, references, args.workload, args.seed)
    lines += pass_lines
    fail_frac = failed / attempted

    if args.trace:
        traced = result["traced"]
        per_pass = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        base = statistics.median(r["wall_s"] for r in result["passes"][:len(traced)])
        values["trace.overhead_s"] = _report_layers(args.workload, traced, base,
                                                    per_pass, lines)
        wanted = spec["per_layer"]
    else:
        passes = result["passes"]
        values = {"ref_wall_s": statistics.median(r["ref_wall_s"] for r in passes),
                  "setup_s": statistics.median(r["ref_wall_s"] for r in setups),
                  "peak_rss_mb": result["peak_rss_mb"], "ok_frac": 1.0 - fail_frac}
        for label, recs in (("set-up", setups), ("pass", passes)):
            lines.append(
                f"{label}: median wall {statistics.median(r['wall_s'] for r in recs):.4f} s "
                f"as measured, {statistics.median(r['ref_wall_s'] for r in recs):.4f} s "
                f"at ref; speed probe kernel "
                f"{1e3 * statistics.median(r['kernel_s'] for r in recs):.4f} ms "
                f"(ref {1e3 * REF_KERNEL_S:g} ms), "
                f"{sum(r['probe_samples'] for r in recs)} samples, "
                f"{sum(r['probe_s'] for r in recs):.3f} s of probe time taken out")
        wanted = spec["end_to_end"]
    lines.append(f"fail_frac {fail_frac:.6g} ({failed} of {attempted} operations failed)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
