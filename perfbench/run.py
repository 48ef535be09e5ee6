"""The relalg benchmark: one workload, several cold passes, one JSON result.

    python3 perfbench/run.py --workload laws-size3 --seed 31 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (child.py), so every cache starts cold
as it does for a `relalg` command. One pass runs at a time and nothing else
runs beside it: a closed loop with a single client. Passes repeat until
--seconds have gone by, three at least. wall_s, checks_per_s and peak_rss_mb
are medians over the passes; the item latency percentiles pool the items of
all the passes.
setup_s is the median over all the interpreters the run started, including
three per pass that only import relalg.
Every time is rescaled to a reference host speed by slices of a fixed loop
timed in the same process (hostspeed.py); raw.wall_s and raw.setup_s, in the
traced run, are the times as read.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json; with
--trace 1 untraced and traced passes alternate and the result holds the
per-layer metrics, with the tracing overhead. The last line of stdout is the
result; the lines before it record the machine, the seed and, when tracing,
self time per span name. The run exits 1 without a result if the checkout
is incomplete or a pass cannot finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laws-size3", "laws-size4", "relation-sweep", "model-axioms")
DEFAULT_SEED = 31  # both size-4 index laws hit EnumerationLimit at this seed
MIN_PASSES = 3  # untraced; a median over passes needs three to drop one outlier
PASS_SEED_STRIDE = 1_000_003
SETUP_PROBES_PER_PASS = 3
RUN_LIMIT_S = 170
REQUIRED = ("BENCHMARK.json", "src/relalg/__init__.py", "tests/oracles.py")


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: bool, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} child within {RUN_LIMIT_S} s")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(trace)), mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    # Set-up times are rescaled to the reference host speed by the probe
    # slices the child timed right after its imports.
    scale = out["setup_scale"]
    out["raw_setup_s"] = (out["ready_ns"] - spawned) / 1e9
    out["setup_s"] = out["raw_setup_s"] * scale
    out["interpreter_s"] = (out["start_ns"] - spawned) / 1e9 * scale
    out["import_s"] = (out["ready_ns"] - out["start_ns"]) / 1e9 * scale
    return out


def median(values) -> float:
    return statistics.median(list(values))


def pass_seed(seed: int, k: int) -> int:
    """The inputs of pass k: the first pass runs the seed itself, later ones
    run seeds derived from it, so a run covers several input draws."""
    return seed + PASS_SEED_STRIDE * k


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def context(args: argparse.Namespace, passes: list[dict]) -> dict:
    """The facts recorded with every result."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pass_seeds": [p["seed"] for p in passes],
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "machine.calib_s": median(p["slice_s"] for p in passes),
        "reference_slice_s": hostspeed.REF_SLICE_S,
        "raw_wall_s": median(p["raw_wall_s"] for p in passes),
    }


def commit() -> str:
    """The checkout's git commit, or "unknown" where it is not a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the library's source files, which identifies the code when
    the checkout has no git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # Percentiles over every item of every pass. laws-size3 makes one call
    # per pass, too few samples for a 90th percentile, so both of its
    # percentiles are the median call.
    latencies = [ms for p in passes for ms in p["latencies_ms"].values()]
    if len(latencies) == len(passes):
        latencies = [median(latencies)]
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "checks_per_s": median(p["units"] / p["wall_s"] for p in passes),
        "item_p50_ms": percentile(latencies, 0.5),
        "item_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    traced_wall = median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - median(p["wall_s"] for p in untraced)
    out["raw.wall_s"] = median(p["raw_wall_s"] for p in untraced)
    return out


def print_layer_table(traced: list[dict], overhead_s: float) -> None:
    self_s = {name: median(p["layer_self_s"].get(name, 0.0) for p in traced)
              for name in traced[0]["layer_self_s"]}
    total = sum(self_s.values()) or 1.0
    print(f"# self time per span, median of {len(traced)} traced pass(es); tracing overhead {overhead_s:.3f} s")
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:28s} {s:9.3f} s  {100 * s / total:5.1f} %")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a relalg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        spawn(args.workload, args.seed, False, "setup", deadline)  # writes bytecode caches
        children: list[dict] = []
        untraced: list[dict] = []
        traced: list[dict] = []
        stop = time.monotonic() + args.seconds
        min_passes = 1 if args.trace else MIN_PASSES
        longest = 0.0
        while True:
            t = time.monotonic()
            # Setup probes are spread over the run, so that a slow spell of
            # the host does not decide their median.
            children += [spawn(args.workload, args.seed, False, "setup", deadline)
                         for _ in range(SETUP_PROBES_PER_PASS)]
            seed = pass_seed(args.seed, len(untraced))
            untraced.append(spawn(args.workload, seed, False, "pass", deadline))
            if args.trace:
                traced.append(spawn(args.workload, seed, True, "pass", deadline))
            longest = max(longest, time.monotonic() - t)
            now = time.monotonic()
            if (now >= stop and len(untraced) >= min_passes) or now + 1.5 * longest > deadline:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    children += passes
    attempted = sum(p["items"] for p in passes)
    failed = sum(n for p in passes for status, n in p["statuses"].items() if status != "ok")
    wrong = sum(p["statuses"].get("wrong", 0) + p["statuses"].get("error", 0) for p in passes)
    # A traced pass must give the outputs of the untraced pass on its seed.
    same_outputs = all(u["digest"] == t["digest"] for u, t in zip(untraced, traced))
    for p in untraced:
        for key, status, detail in p["problems"]:
            print(f"perfbench: seed {p['seed']} item {key} {status}: {detail}", file=sys.stderr)
    if not same_outputs:
        print("perfbench: traced and untraced passes disagree on the outputs", file=sys.stderr)

    ctx = context(args, passes)
    metrics = {
        "setup_s": median(c["setup_s"] for c in children),
        "ok_item_ratio": 1 - failed / attempted,
    }
    if args.trace:
        metrics.update(per_layer(untraced, traced))
        metrics["setup.interpreter_s"] = median(c["interpreter_s"] for c in children)
        metrics["setup.import_s"] = median(c["import_s"] for c in children)
        metrics["raw.setup_s"] = median(c["raw_setup_s"] for c in children)
        metrics["machine.calib_s"] = ctx["machine.calib_s"]
        metrics["failed_item_ratio"] = failed / attempted
        print_layer_table(traced, metrics["trace.overhead_s"])
        print(f"# traced outputs identical to untraced: {'yes' if same_outputs else 'NO'}")
    else:
        metrics.update(end_to_end(untraced))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"perfbench: BENCHMARK.json lists metrics this run lacks: {absent}", file=sys.stderr)
        return 1
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": wrong == 0 and same_outputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
