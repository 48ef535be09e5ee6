"""One pass of one workload, in a fresh interpreter so every cache starts cold.

    python3 perfbench/child.py WORKLOAD SEED TRACE MODE

MODE "setup" stops once relalg is imported and times a few slices of the
host-speed probe; MODE "pass" then runs the workload's calls in a timed region
with probe slices interleaved (hostspeed.py), and checks the outputs after it.
Times are reported both raw and rescaled to the probe's reference host speed.
TRACE 1 installs the tracer before the timed region.
The result is one JSON object on stdout; run.py spawns this script and
aggregates the passes.
"""

import time

START_NS = time.monotonic_ns()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import relalg  # noqa: E402,F401
import relalg.cli  # noqa: E402,F401
import relalg.laws  # noqa: E402,F401
import relalg.models  # noqa: E402,F401

READY_NS = time.monotonic_ns()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPANS_DIR = ROOT / ".perfbench_out"
SETUP_SLICES = 20  # about 20 ms, timed right after the imports


def layer_metrics(tracer: tracing.Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of one traced pass, and self seconds per span name."""
    self_s, incl_s, calls = tracer.layer_times()
    out: dict[str, float] = {}
    for name in tracing.LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in tracing.CACHED:
        out[f"{name}.hit_ratio"] = tracer.hit_ratio(name)
    out["bench.item.self_s"] = self_s.get(tracing.ROOT_SPAN, 0.0)
    out["rel.construct.calls"] = tracer.counts["rel.construct"]
    out["rel.eq.calls"] = tracer.counts["rel.eq"]
    finds = calls.get("isomorph.find", 0)
    out["isomorph.found_ratio"] = tracer.counts["isomorph.found"] / finds if finds else 0.0
    out["laws.pool.builds"] = calls.get(tracing.POOL_SPAN, 0)
    out["laws.pool.build_s"] = incl_s.get(tracing.POOL_SPAN, 0.0)
    instances = sum(tracer.law_instances.values())
    out["laws.instances"] = instances
    out["laws.us_per_instance"] = sum(tracer.law_ns.values()) / 1e3 / instances if instances else 0.0
    for law_id in tracing.NAMED_LAWS:
        n = tracer.law_instances[law_id]
        out[f"laws.{law_id}.us_per_instance"] = tracer.law_ns[law_id] / 1e3 / n if n else 0.0
    # A law run in mixed mode counts as not exhaustive: its report does not
    # split its instances.
    out["laws.exhaustive_share"] = tracer.counts["laws.exhaustive_instances"] / instances if instances else 0.0
    out["process.gc_s"] = tracer.gc_ns / 1e9
    out["process.gc_collections"] = tracer.counts["process.gc_collections"]
    return out, self_s


class GcPauses:
    """Nanoseconds the cyclic collector paused the pass, on the given clock."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.ns = 0
        self._started = 0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = self.clock()
        else:
            self.ns += self.clock() - self._started


def run_pass(name: str, seed: int, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    tracer = None
    run = lambda fn: fn()  # noqa: E731
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(run, tracing.ROOT_SPAN)

    probe = hostspeed.SpeedProbe()
    clock = probe.work_ns
    pauses = GcPauses(clock)
    summaries: dict = {}
    spans: dict[str, tuple[int, int, int, int]] = {}
    raw_begin = time.perf_counter_ns()
    probe.start()
    gc.callbacks.append(pauses.on_gc)
    begin = clock()
    for call in workload.calls:
        r, t, g = time.perf_counter_ns(), clock(), pauses.ns
        try:
            summaries[call.key] = run(call.fn)
        except Exception as exc:  # a failed item is counted, not fatal
            summaries[call.key] = exc
        spans[call.key] = (r, time.perf_counter_ns(), clock() - t, pauses.ns - g)
    work_ns = clock() - begin
    gc.callbacks.remove(pauses.on_gc)
    probe.stop()
    raw_wall_s = (time.perf_counter_ns() - raw_begin) / 1e9

    # Each item is rescaled by the host speed while it ran. The few
    # microseconds of loop between items are rescaled by the pass's speed.
    wall_ns = (work_ns - sum(s[2] for s in spans.values())) * probe.scale()
    latencies: dict[str, float] = {}
    for key, (r0, r1, work, paused) in spans.items():
        scale = probe.scale_between(r0, r1)
        wall_ns += work * scale
        latencies[key] = (work - paused) * scale / 1e6
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out: dict = {}
    if tracer is not None:
        out["layers"], out["layer_self_s"] = layer_metrics(tracer)
        tracer.write_spans(SPANS_DIR / f"spans-{name}.bin")

    sys.path.insert(0, str(ROOT / "tests"))  # the 3x3 index oracle
    verdicts, units = workload.check(summaries)
    statuses = Counter(status for status, _ in verdicts.values())
    canonical = {k: ({"raised": type(v).__name__} if isinstance(v, BaseException) else v)
                 for k, v in summaries.items()}
    out.update(
        wall_s=wall_ns / 1e9,
        raw_wall_s=raw_wall_s,
        peak_rss_mb=peak_rss_mb,
        units=units,
        latencies_ms=latencies,
        items=len(verdicts),
        statuses=dict(statuses),
        problems=[[k, s, d] for k, (s, d) in verdicts.items() if s != "ok"][:20],
        digest=hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest(),
        slice_s=probe.mean_slice_s(),
    )
    return out


def main() -> None:
    name, seed, trace, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    probe = hostspeed.SpeedProbe()
    probe.run_slices(SETUP_SLICES)
    out = {"seed": seed, "start_ns": START_NS, "ready_ns": READY_NS, "setup_scale": probe.scale()}
    if mode == "pass":
        out.update(run_pass(name, seed, trace))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
