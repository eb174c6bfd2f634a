"""Pipeline benchmark: real ffusion commands in one closed loop with one client.

Run from the repository root:

    python3 pipebench/run.py --workload train_loop --seed 1 --seconds 20 --trace 0

Workloads (see metrics.WORKLOADS for why each exists): ``train_loop``,
``safety_campaign`` and ``dataset_roundtrip``. One process runs the named
workload in process, cycle after cycle, until ``--seconds`` have passed.
Set-up (dataset synthesis, checkpoint creation) runs ``SETUP_REPEATS`` times;
``setup_s`` is the import time plus its median. The dataset seed is the
default dataset seed plus ``--seed``. Every cycle's outputs are checked and
their digests must match the run's first cycle, a checked but untimed
warm-up cycle; warm-up cycles go on until the process has run for
``WARMUP_S`` seconds.

``--trace 0`` reports the end-to-end metrics. The host's speed drifts by
15-20% over tens of seconds, so each timed cycle is followed by slices of a
fixed reference loop (reference.py) and cycle times are reported in "ref",
the loop's time for a fixed amount of work over the same run:
``items_per_ref`` is work items per ref and ``cycle_ref_p50`` the median
cycle in ref. The raw seconds are printed beside them.

``--trace 1`` is the separate traced run: it wraps each layer's public
functions (see tracer.py), runs ``TRACE_CYCLES`` traced cycles of every
workload, because each per-layer metric is measured on the workload named
in metrics.PER_LAYER, and compares the named workload's traced throughput
with untraced cycles of the same process (``trace_overhead``). ``--size tiny`` shrinks every workload for
smoke.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, within-run quartiles of every end-to-end metric, the
artifact digests and, when tracing, the per-layer table. The exit code is 0
when every check passed, 1 when one failed and 2 when ffusion is missing.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_CYCLES = 2
WARMUP_CYCLES = 1
WARMUP_S = 6.0  # seconds of load before timing: imports, set-up, warm-up cycles
TRACE_CYCLES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_loop", "safety_campaign", "dataset_roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values) -> dict:
    values = list(values)
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def environment(numpy) -> dict:
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Loop:
    """A closed loop with one client: the next cycle starts when one ends."""

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.durations = []
        self.rss = []
        self.items = 0
        self.failed = 0
        self.digests = None
        self.counts = None
        self.cycle_ids = []

    def cycle(self, timed: bool = True) -> None:
        workload, tracer = self.workload, self.tracer
        workload.reset()
        if tracer is not None:
            tracer.start_cycle()
            self.cycle_ids.append(len(tracer.counts) - 1)
        self.attempted += 1
        started = time.perf_counter()
        elapsed = None
        try:
            workload.cycle()
            elapsed = time.perf_counter() - started
            digests, counts = workload.check()
            if tracer is not None:
                tracer.counts[-1].update(counts)
                counts = dict(tracer.end_cycle())
            self._compare("digests", digests)
            self._compare("counts", counts)
            if timed:
                self.items += workload.items_per_cycle
        except Exception:  # a failed cycle is counted and the loop goes on
            self.failed += 1
            print(f"cycle {self.attempted - 1} of {workload.name} failed:",
                  file=sys.stderr)
            traceback.print_exc()
        if elapsed is None:
            elapsed = time.perf_counter() - started
        if not timed:
            return
        self.durations.append(elapsed)
        self.rss.append(peak_rss_mb())
        if self.reference is not None:
            self.reference.after(elapsed)

    def _compare(self, what: str, values: dict) -> None:
        first = getattr(self, what)
        if first is None:
            setattr(self, what, values)
            return
        changed = sorted(k for k in set(first) | set(values)
                         if first.get(k) != values.get(k))
        if changed:
            raise RuntimeError(f"{what} differ from the first cycle: " + ", ".join(
                f"{k} {first.get(k)} -> {values.get(k)}" for k in changed))

    def run_for(self, seconds: float) -> None:
        started = time.perf_counter()
        while (len(self.durations) < MIN_CYCLES
               or time.perf_counter() - started < seconds):
            self.cycle()

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.durations)


def set_up(workload) -> tuple:
    """Repeat the workload's set-up; (seconds of each, digests all equal)."""
    seconds, digests = [], set()
    for _ in range(SETUP_REPEATS):
        workload.clean()
        started = time.perf_counter()
        digests.add(workload.setup())
        seconds.append(time.perf_counter() - started)
    return seconds, len(digests) == 1


def untraced(args, workload, numpy) -> tuple:
    from reference import Reference

    import_s = time.perf_counter() - _STARTED
    setup_seconds, setup_ok = set_up(workload)
    if not setup_ok:
        print("set-up repeats produced different artifacts", file=sys.stderr)
    reference = Reference(numpy, workload.reference_directory())
    loop = Loop(workload, reference=reference)
    while (loop.attempted < WARMUP_CYCLES
           or time.perf_counter() - _STARTED < WARMUP_S):
        loop.cycle(timed=False)
    loop.run_for(args.seconds)

    ref_s = reference.ref_s
    setups = [import_s + s for s in setup_seconds]
    per_item = workload.items_per_cycle
    samples = {
        "items_per_ref": [per_item / d * ref_s for d in loop.durations],
        "cycle_ref_p50": [d / ref_s for d in loop.durations],
        "setup_s": setups,
        "peak_rss_mb": loop.rss,
        "raw items_per_s": [per_item / d for d in loop.durations],
        "raw cycle_s": loop.durations,
        "ref_s": reference.samples,
    }
    for name, values in samples.items():
        q = quartiles(values)
        print(f"steadiness {name}: n={q['n']} q1={q['q1']:.6g} "
              f"median={q['median']:.6g} q3={q['q3']:.6g}")
    print(f"raw items_per_s over the run: {loop.items_per_s:.6g}; ref_s over the "
          f"run: {ref_s:.6g} ({reference.seconds:.3g} s of reference slices)")
    n = len(loop.durations)
    pct = int(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    if pct > 50:
        tail = statistics.quantiles(loop.durations, n=100)[pct - 1]
        print(f"tail cycle_ref_p{pct}: {tail / ref_s:.6g} ref over {n} cycles")
    else:
        print(f"tail: too few cycles ({n}) for a percentile above the median "
              f"with 10 cycles beyond it; max cycle {max(loop.durations) / ref_s:.6g} ref")
    for key, value in sorted((loop.digests or {}).items()):
        print(f"digest {workload.name} {key} {value}")
    values = {
        "items_per_ref": loop.items_per_s * ref_s,
        "cycle_ref_p50": statistics.median(loop.durations) / ref_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, [loop], setup_ok


def traced(args, make) -> tuple:
    from metrics import PER_LAYER, WORKLOADS
    from tracer import Aggregate, Tracer

    tracer = Tracer()
    loops, aggregates, overhead = [], {}, 0.0
    for name in WORKLOADS:
        workload = make(name)
        workload.clean()
        workload.setup()
        if name == args.workload:
            plain = Loop(workload)
            for _ in range(TRACE_CYCLES):
                plain.cycle()
            loops.append(plain)
        loop = Loop(workload, tracer)
        tracer.install()
        try:
            for _ in range(TRACE_CYCLES):
                loop.cycle()
        finally:
            tracer.uninstall()
        loops.append(loop)
        aggregates[name] = aggregate = Aggregate(tracer, loop.cycle_ids)
        if name == args.workload and plain.items:
            overhead = loop.items_per_s / plain.items_per_s
        print(f"layers {name} ({aggregate.cycles} traced cycles; per cycle): "
              "calls, total ms, self ms")
        for span, calls, total, own in aggregate.table():
            print(f"  {span:40s} {calls:9.1f} {total:11.3f} {own:11.3f}")
        ops = aggregate.op_counts()
        if ops:
            print(f"  tape records per op: {json.dumps(ops, sort_keys=True)}")
        for key, value in sorted((loop.digests or {}).items()):
            print(f"digest {name} {key} {value}")

    values = {}
    for spec in PER_LAYER:
        home = spec.home or args.workload
        values[spec.name] = overhead if spec.home is None else spec.value(
            aggregates[home])
        print(f"layer-metric {spec.name} = {values[spec.name]:.6g} {spec.unit} "
              f"({spec.kind}; layer {spec.layer}; on {home}; moves {spec.moves})")
    return values, loops, True


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import ffusion.cli  # noqa: F401
    except ImportError as exc:
        print(f"pipebench: cannot import ffusion from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from ffusion.config import DatasetConfig
    from metrics import END_TO_END, PER_LAYER
    from workloads import SIZES, WORKLOADS

    print("env " + json.dumps(environment(numpy), sort_keys=True))
    size = SIZES[args.size]
    seed = DatasetConfig().seed + args.seed  # --seed 0 runs the default dataset
    work_root = ROOT / ".pipebench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    def make(name):
        return WORKLOADS[name](work_root / name, seed, size)

    try:
        if args.trace:
            values, loops, setup_ok = traced(args, make)
        else:
            values, loops, setup_ok = untraced(args, make(args.workload), numpy)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = setup_ok and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec.name: {"value": values[spec.name], "unit": spec.unit}
                    for spec in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
