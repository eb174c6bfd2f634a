"""Smoke run of the pipeline benchmark at a tiny size; asserts no timing.

Checks that BENCHMARK.json lists the metrics defined in metrics.py, that
every workload prints the result schema with every end-to-end metric and no
failed cycle, that a traced run prints every per-layer metric with exact
counts, that a cycle whose digests change is counted as failed, and that
the benchmark exits non-zero without a result when the program is absent.
Run from the repository root:

    python3 pipebench/smoke.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, SAFETY, TRAIN, WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(cwd / "pipebench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_result(lines: list, specs) -> dict:
    result = json.loads(lines[-1])
    expect(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    expect(result["correct"] is True, f"result not correct: {result}")
    expect(result["failed"] == 0 and result["attempted"] >= 2, f"cycles: {result}")
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expect(units == {s.name: s.unit for s in specs}, f"metrics {units}")
    for name, entry in result["metrics"].items():
        expect(set(entry) == {"value", "unit"}, f"{name} entry {entry}")
        expect(isinstance(entry["value"], (int, float)), f"{name} value {entry}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from metrics.WORKLOADS")
    expect(bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END], "BENCHMARK.json end_to_end differs from metrics.py")
    expect(bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
        "BENCHMARK.json per_layer differs from metrics.py")


def check_digest_change_fails() -> None:
    import run as bench_run

    class Drifting:
        name = "drifting"
        items_per_cycle = 1

        def __init__(self):
            self.calls = 0

        def reset(self):
            pass

        def cycle(self):
            self.calls += 1

        def check(self):
            return {"artifact": str(self.calls)}, {}

    loop = bench_run.Loop(Drifting())
    with contextlib.redirect_stderr(io.StringIO()):  # the expected failures
        for _ in range(3):
            loop.cycle()
    expect(loop.failed == 2 and loop.items == 1,
           f"changed digests not counted as failed: {loop.failed} failed")


def check_counts(values: dict) -> None:
    # Tiny sizes: 20 samples split 16/2/2 for the campaign; train_loop takes
    # one full-modality step of 16 samples.
    train, val, test = 16, 2, 2
    scenarios, sigmas, modalities = 6, 3, 3
    prepares = ((scenarios + 1) * test + min(4, test)
                + modalities * (train + val) + 2 * sigmas * test)
    expected = {
        "model.inputs.prepare_calls_per_cycle": prepares,
        "safety.pooled_embeddings_calls_per_cycle": 2 * modalities,
        "autodiff.tape_records_full_step": 270,
        "autodiff.tape_records_per_cycle": 270,
    }
    for name, value in expected.items():
        expect(values[name] == value, f"{name} = {values[name]}, expected {value}")
    for spec in PER_LAYER:
        if spec.kind == "count" and spec.unit == "count":
            expect(float(values[spec.name]).is_integer(), f"{spec.name} not whole")


def check_absent_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "pipebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(TRAIN, 0, cwd=bare)
    expect(code != 0, "run without the program exited 0")
    expect(not lines or not lines[-1].startswith("{"), "run without the program "
           "printed a result")


def main() -> int:
    check_benchmark_json()
    check_digest_change_fails()
    for workload in WORKLOADS:
        code, lines, err = run(workload, 0)
        expect(code == 0, f"{workload} exited {code}: {err[-2000:]}")
        check_result(lines, END_TO_END)
        expect(any(line.startswith(f"digest {workload} ") for line in lines),
               f"{workload} printed no digest")
        print(f"ok {workload} untraced")
    code, lines, err = run(SAFETY, 1)
    expect(code == 0, f"traced run exited {code}: {err[-2000:]}")
    check_counts(check_result(lines, PER_LAYER))
    print("ok traced run")
    check_absent_program()
    print("ok absent program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
