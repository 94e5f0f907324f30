#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the H-RMC simulator.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Builds perfbench/ (the simulator libraries from src/ plus the
hrmc_perfbench binary, Release) under $CARGO_TARGET_DIR or .bench_build,
runs one workload and relays the binary's output. The last stdout line
is one JSON object {correct, attempted, failed, metrics}: with --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; the line before it records provenance (commit, source
digest, build type, HRMC_TRACING, hardware_concurrency, threads, seed,
cells per run).

With --trace 0 a run is split over PARTS binary processes started one
after another, each with its share of --seconds and its slice of the
run's distinct cells. Each part times its own set-up (process start to
its first timed cell), so setup_s is the median of PARTS set-ups spread
over the whole run; the host-time metrics are medians over the timed
cells of all parts, and the sim metrics come from each distinct cell
once. The warm-up cell is the same scenario in every part: a part whose
warm-up outcome differs from the first part's counts one more failed
cell. --smoke runs one tiny cell per
workload in one part instead of timing; perfbench/test_smoke.py drives
it.

Workloads (why each was chosen, and which layer it stresses), the
metric definitions and the layer -> end-to-end map are in the header of
perfbench/src/main.cpp and in BENCHMARK.json.

Exits non-zero without printing a result when the simulator sources are
missing, the build fails, the binary fails or its output does not match
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170  # all of a run's binary processes together
PARTS = 5  # processes a --trace 0 run is split over
MIB = 1024 * 1024


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "hrmc_perfbench"])
    # Compiler temporaries stay inside the build tree.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "hrmc_perfbench"


def source_digest():
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR / "src"):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        diff = set(got.items()) ^ set(want.items())
        return f"metrics differ from BENCHMARK.json: {sorted(diff)}"
    if res["attempted"] < 1:
        return "no cell attempted"
    return None


def run_binary(cmd, deadline):
    """Runs cmd, relays its stderr and returns its stdout lines."""
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"hrmc_perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        fail(f"hrmc_perfbench exited with {r.returncode}")
    return lines


def run_parts(cmd, seconds, parts, deadline):
    """Runs the parts of an end-to-end run back to back. Part j measures
    until (j + 1) / parts of the run's seconds have passed, so one part
    running long shortens the next instead of the run. Returns the
    stdout lines of all parts and the parsed "part" records."""
    lines, records = [], []
    t0 = time.monotonic()
    for j in range(parts):
        share = t0 + seconds * (j + 1) / parts - time.monotonic()
        out = run_binary(cmd + ["--seconds", f"{max(share, 0.001):.3f}",
                                "--part", str(j), "--parts", str(parts)],
                         deadline)
        if not out[-1].startswith("part "):
            fail(f"unexpected part output: {out[-1]}")
        records.append(json.loads(out[-1].split(" ", 1)[1]))
        lines += out[:-1]
    return lines, records


def outcome(c):
    return (c["events"], c["digest"], c["goodput_mbps"], c["feedback"])


def fold_parts(records):
    """The run's end-to-end result line from its parts' records."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # The warm-up cell is the same scenario in every part.
    warm = outcome(records[0]["warmup"])
    for r in records[1:]:
        if outcome(r["warmup"]) != warm:
            print("perfbench: warm-up cell diverged across parts",
                  file=sys.stderr)
            failed += 1
    cells = [c for r in records for c in r["cells"]]
    first = {}
    for c in cells:
        first.setdefault(c["k"], c)
    distinct = [first[k] for k in sorted(first)]
    stream_mib = sum(c["bytes"] for c in distinct) / MIB
    metrics = {
        "sim_mbit_per_wall_s": (statistics.median(
            c["bytes"] * 8 / 1e6 / c["wall_s"] for c in cells), "Mbit/s"),
        "cell_wall_s": (statistics.median(c["wall_s"] for c in cells), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MiB"),
        "cell_ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "sim_goodput_mbps": (statistics.median(
            c["goodput_mbps"] for c in distinct), "Mbit/s"),
        "feedback_pkts_per_mb": (sum(c["feedback"] for c in distinct)
                                 / stream_mib, "pkts/MiB"),
    }
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def provenance(lines, cells_per_run, parts):
    """One provenance line for the whole run, from the first part's."""
    first = next(l for l in lines if l.startswith("provenance "))
    prov = json.loads(first.split(" ", 1)[1])
    prov.pop("part")
    prov.update(cells_per_run=cells_per_run, parts=parts)
    return "provenance " + json.dumps(prov)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", args.trace,
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace == "1":
        spans = out / f"spans_{args.workload}_{args.seed}.csv"
        lines = run_binary(cmd + ["--seconds", str(args.seconds),
                                  "--spans", str(spans)], deadline)
    else:
        parts = 1 if args.smoke else PARTS
        lines, records = run_parts(cmd, args.seconds, parts, deadline)
        cells = sum(len(r["cells"]) for r in records)
        lines = [l for l in lines if not l.startswith("provenance ")] + [
            provenance(lines, cells, parts), fold_parts(records)]
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        fail(problem, 3)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
