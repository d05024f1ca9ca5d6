"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks, in about three minutes on two cores, that:
  - a smoke-sized run of every workload, traced and untraced, passes all
    its output checks and emits every metric BENCHMARK.json names, with
    its unit and a finite value;
  - a run with one deliberately wrong expected value still completes,
    emits every metric and counts the wrong value as a failed check;
  - in a directory holding only BENCHMARK.json and the benchmark, the
    harness exits nonzero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["attempted"] >= 1, last
    got = last["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {
        m["name"] for m in wanted}
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m, value)
        assert isinstance(value["value"], (int, float)) and math.isfinite(
            value["value"]), (m, value)
    return last


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            last = result(run("--workload", workload, "--trace", str(trace),
                              "--smoke"), SPEC[kind])
            assert last["correct"] and last["failed"] == 0, last
            print(f"ok  {workload} trace={trace}: {len(SPEC[kind])} "
                  f"metrics, {last['attempted']} checks passed")
        last = result(run("--workload", workload, "--trace", "0", "--smoke",
                          "--corrupt"), SPEC["end_to_end"])
        assert not last["correct"] and last["failed"] >= 1, last
        print(f"ok  {workload} wrong expected value: {last['failed']} of "
              f"{last['attempted']} checks failed, run completed")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = run("--workload", "cli-small", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok  without the package the harness exits {proc.returncode} "
          f"and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
