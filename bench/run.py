"""Benchmark harness for sunint.

    python3 bench/run.py --workload W --seed S --seconds T --trace {0,1}

Run from the repository root; the package is imported from src/, nothing
needs installing.  Workloads (see bench/README.md for why each exists):

  mc-sweep    Monte Carlo estimates over SU(N) and U(N), N = 2..16
  exact-cold  every exact table and series, each repetition in a fresh
              interpreter so every cache starts empty
  cli-small   39 short `python3 -m sunint.cli` calls

One client in a closed loop: every call into the package, and every child
process, starts only after the previous one has returned.  The harness
repeats the workload's fixed work as often as fits in T seconds on the
reference box (at least once) and takes each call at its fastest
repetition, in reference seconds (see speed.py).  With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced pass over all three workloads, plus the
tracing overhead on W.  The line before it gives the seed, the
environment and the names of failed checks.

--smoke makes a fast run with small sample counts, for bench/selftest.py;
--corrupt makes one expected value per workload wrong, to show that a
failed check is counted and does not end the run; --capture-goldens
rewrites bench/goldens.json from the current package.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import speed
from inputs import (
    GOLDEN_CALLS,
    MC_REQUESTS,
    SEEDED_TENSORS,
    matrices_payload,
    sector_sources,
    tensor_argv,
    tensor_indices,
    tensor_witness,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
WORKER = BENCH / "worker.py"

WORKLOADS = ("mc-sweep", "exact-cold", "cli-small")
# A repetition's length on the reference box.  A run makes
# seconds // REPETITION_S repetitions, a count that depends on --seconds
# alone: taking each call at its fastest over a count that varied from
# run to run with the machine's speed would itself add spread.
REPETITION_S = {"mc-sweep": 7.5, "exact-cold": 11.0, "cli-small": 13.0}
SETUP_IMPORTS = 5       # fresh interpreters timed for setup_s at the start
SETUP_IMPORTS_PER_REP = 2  # and after each repetition
CLI_IMPORTS = 5         # fresh interpreters timed for cli.import_s
PROBES = 2              # SU(3) sector-set children after exact-cold
CHILD_LIMIT_S = 150     # a child still running then is killed
SIGMAS = 5.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

CLI_SUBCOMMANDS = ("coeffs", "largen", "mc", "tensor")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


ENV = _child_env()


class Child:
    """One finished child process: stdout, wall seconds, peak RSS in MB
    (ru_maxrss from os.wait4) and exit code."""

    def __init__(self, argv: list[str]):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=ENV,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            self.wall = time.perf_counter() - start
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        self.stdout = out.decode()
        self.rss_mb = usage.ru_maxrss / 1024

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if self.rc == 0 and lines else None


def _import_seconds(module: str, count: int) -> tuple[list[float], list]:
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(time.perf_counter() - t)" % module)
    times, checks = [], []
    for _ in range(count):
        scale = speed.scale()
        child = Child([sys.executable, "-c", code])
        if child.rc == 0:
            times.append(float(child.stdout) * scale)
        else:
            checks.append([f"import {module}", False, child.stderr[-300:]])
    return times, checks


# ------------------------------------------------------------ repetitions

def worker_rep(task: str, seed: int, trace: bool, smoke: bool,
               corrupt: bool) -> dict:
    argv = [sys.executable, str(WORKER), task, "--seed", str(seed)]
    argv += [flag for flag, on in (("--trace", trace), ("--smoke", smoke),
                                   ("--corrupt", corrupt)) if on]
    child = Child(argv)
    try:
        rep = child.last_json()
    except ValueError:
        rep = None
    if rep is None:
        return {"ok": False, "rss_mb": child.rss_mb,
                "checks": [[f"{task} worker exits cleanly", False,
                            f"rc={child.rc}: {child.stderr[-500:]}"]]}
    rep.update(ok=True, rss_mb=child.rss_mb)
    return rep


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_calls(seed: int) -> list[dict]:
    """The cli-small call list for one seed; its shape and costs are the
    same for every seed."""
    rng = random.Random(f"cli-small:{seed}")
    matrices = OUT / f"sector-matrices-{seed}.json"
    OUT.mkdir(exist_ok=True)
    matrices.write_text(json.dumps(matrices_payload(
        *sector_sources(rng.randrange(2 ** 62)))))
    calls = [{"argv": argv, "golden": " ".join(argv)}
             for argv in GOLDEN_CALLS]
    for kind, group, dim in SEEDED_TENSORS:
        idx = tensor_indices(kind, dim, rng)
        calls.append({"argv": tensor_argv(*idx, group, dim),
                      "exact": tensor_witness(*idx, dim)})
    for req in MC_REQUESTS:
        mc_seed = ["--seed", str(rng.randrange(2 ** 62))]
        samples = str(req["samples"])
        call = {"mc": req}
        if req["kind"] == "trace":
            call["argv"] = ["mc", "--p", str(req["p"]), "--n", str(req["n"]),
                            "--N", str(req["N"]), "--group", req["group"],
                            "--samples", samples, *mc_seed]
            if req.get("sector"):
                call["argv"] += ["--matrices", str(matrices)]
        else:
            idx = tensor_indices(req["tensor"], req["N"], rng)
            call["argv"] = tensor_argv(*idx, req["group"], req["N"]) + [
                "--mc-samples", samples, *mc_seed]
            call["exact"] = tensor_witness(*idx, req["N"])
        calls.append(call)
    return calls


def _pulls_ok(comparison: dict) -> bool:
    """5-sigma pulls recomputed from the printed mean, exact value and
    standard errors, both components."""
    for part in (0, 1):
        diff = comparison["mean"][part] - comparison["exact"][part]
        err = comparison["stderr_real" if part == 0 else "stderr_imag"]
        if diff and not (err > 0 and abs(diff) / err <= SIGMAS):
            return False
    return bool(comparison["pass"])


def _check_cli(call: dict, child: Child, goldens: dict) -> tuple[bool, str]:
    if child.rc != 0:
        return False, f"rc={child.rc}: {child.stderr[-300:]}"
    if "golden" in call:
        want = goldens.get(call["golden"])
        return _sha256(child.stdout) == want, "stdout sha256 differs"
    payload = json.loads(child.stdout)
    if "exact" in call and payload["exact"] != str(call["exact"]):
        return False, f"exact {payload['exact']} != {call['exact']}"
    if "mc" in call and not _pulls_ok(payload["comparison"]):
        return False, "pull above 5 sigma"
    return True, ""


def cli_rep(seed: int, trace: bool, smoke: bool, corrupt: bool) -> dict:
    del trace  # nothing runs inside the CLI children to trace
    calls = cli_calls(seed)
    if smoke:
        calls = calls[::4]
    goldens = json.loads(GOLDENS.read_text())
    if corrupt:
        first = next(c["golden"] for c in calls if "golden" in c)
        goldens[first] = _sha256("deliberately wrong")
    start = time.perf_counter()
    done = [(call, speed.scale(),
             Child([sys.executable, "-m", "sunint.cli", *call["argv"]]))
            for call in calls]
    wall = time.perf_counter() - start

    checks, spans = [], []
    for call, scale, child in done:
        try:
            ok, why = _check_cli(call, child, goldens)
        except (ValueError, KeyError, TypeError) as exc:
            ok, why = False, repr(exc)
        name = "sunint " + " ".join(call["argv"])
        checks.append([name, True] if ok else [name, False, why])
        span = {"name": f"cli.{call['argv'][0]}", "s": child.wall,
                "scale": scale, "rss_mb": child.rss_mb, "argv": call["argv"]}
        if ok and "mc" in call:
            est = json.loads(child.stdout)["estimate"]
            span.update(samples=call["mc"]["samples"],
                        stderr=math.hypot(est["stderr_real"],
                                          est["stderr_imag"]),
                        sector=call["mc"].get("sector", False))
        spans.append(span)
    return {"ok": True, "wall_s": wall,
            "rss_mb": max(c.rss_mb for _, _, c in done),
            "calls": spans, "spans": spans, "checks": checks}


def repetition(workload: str, seed: int, trace: bool, smoke: bool,
               corrupt: bool) -> dict:
    if workload == "cli-small":
        return cli_rep(seed, trace, smoke, corrupt)
    return worker_rep(workload, seed, trace, smoke, corrupt)


# ------------------------------------------------------------ aggregation

def latency_tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    calls beyond it: the eleventh-slowest call."""
    xs = sorted(latencies)
    rank = max(len(xs) - 10, 1)
    return 100.0 * rank / len(xs), xs[rank - 1]


def best_calls(reps: list[dict]) -> list[dict]:
    """Each call in reference seconds (see speed.py), at its fastest over
    the repetitions, which make the same calls in the same order."""
    best = [dict(c, s=c["s"] * c["scale"]) for c in reps[0]["calls"]]
    for rep in reps[1:]:
        for b, c in zip(best, rep["calls"]):
            b["s"] = min(b["s"], c["s"] * c["scale"])
    return best


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool,
               corrupt: bool) -> tuple[dict, list, dict]:
    # set-up is timed at the start and again after every repetition, so
    # its median spans the whole run
    setup, checks = _import_seconds("sunint", 1 if smoke else SETUP_IMPORTS)
    reps = []
    count = 1 if smoke else max(1, int(seconds // REPETITION_S[workload]))
    while len(reps) < count:
        reps.append(repetition(workload, seed, False, smoke, corrupt))
        more, failed = _import_seconds("sunint", SETUP_IMPORTS_PER_REP)
        setup += more
        checks += failed
    # exact-cold makes no Monte Carlo calls, so its mc.* metrics come from
    # separate children running the SU(3) sector set
    probes = [worker_rep("mc-probe", seed, False, smoke, False)
              for _ in range(1 if smoke else PROBES)
              if workload == "exact-cold"]
    checks += [c for r in (*reps, *probes) for c in r["checks"]]
    good = [r for r in reps if r["ok"]]
    mc_good = [r for r in probes or reps if r["ok"]]
    if not good or not mc_good or not setup:
        raise RuntimeError("no repetition completed; failed checks: %s"
                           % [c for c in checks if not c[1]][:5])
    calls = best_calls(good)
    latencies = [c["s"] for c in calls]
    mc = [c for c in best_calls(mc_good) if "samples" in c]
    tail_pct, tail = latency_tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latencies),
        "peak_rss_mb": max(r["rss_mb"] for r in good),
        "mc.samples_per_s": (sum(c["samples"] for c in mc)
                             / sum(c["s"] for c in mc)),
        "mc.stderr_sqrt_s": statistics.fmean(
            c["stderr"] * math.sqrt(c["s"]) for c in mc if c.get("sector")),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
    }
    detail = {"repetitions": len(reps), "calls_per_repetition": len(calls),
              "latency_tail_percentile": tail_pct}
    return metrics, checks, detail


def per_layer(workload: str, seed: int, smoke: bool,
              corrupt: bool) -> tuple[dict, list, dict]:
    untraced = repetition(workload, seed, False, smoke, corrupt)
    traced = {w: repetition(w, seed, True, smoke, corrupt)
              for w in WORKLOADS}
    layers = worker_rep("layers", seed, True, smoke, False)
    reps = [untraced, *traced.values(), layers]
    checks = [c for r in reps for c in r["checks"]]
    if not all(r["ok"] for r in reps):
        raise RuntimeError("a traced repetition failed: %s"
                           % [c for c in checks if not c[1]][:5])
    metrics = {}
    for rep in reps[1:]:
        metrics.update(rep.get("layer", {}))
    cli_spans = traced["cli-small"]["spans"]
    for sub in CLI_SUBCOMMANDS:
        mine = [s for s in cli_spans if s["name"] == f"cli.{sub}"]
        metrics[f"cli.{sub}.wall_s"] = statistics.median(s["s"] for s in mine)
        metrics[f"cli.{sub}.maxrss_mb"] = max(s["rss_mb"] for s in mine)
    imports, import_checks = _import_seconds(
        "sunint.cli", 1 if smoke else CLI_IMPORTS)
    checks += import_checks
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["repo.src_lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "sunint").rglob("*.py")))
    metrics["trace.overhead_s"] = (traced[workload]["wall_s"]
                                   - untraced["wall_s"])

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {w: r.get("spans", []) for w, r in
         (*traced.items(), ("layers", layers))}))
    return metrics, checks, {"untraced_wall_s": untraced["wall_s"]}


def capture_goldens() -> int:
    goldens = {}
    for argv in GOLDEN_CALLS:
        child = Child([sys.executable, "-m", "sunint.cli", *argv])
        if child.rc != 0:
            print("error: sunint %s exited %d" % (" ".join(argv), child.rc),
                  file=sys.stderr)
            return 1
        goldens[" ".join(argv)] = _sha256(child.stdout)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--capture-goldens", action="store_true")
    args = parser.parse_args()
    if not (SRC / "sunint" / "__init__.py").is_file():
        print("error: %s has no sunint package; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.capture_goldens:
        return capture_goldens()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, checks, detail = per_layer(
                args.workload, args.seed, args.smoke, args.corrupt)
        else:
            values, checks, detail = end_to_end(
                args.workload, args.seed, args.seconds, args.smoke,
                args.corrupt)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    failed = [c for c in checks if not c[1]]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **detail,
        "failed_checks": failed[:20],
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "nproc": _nproc(),
                "child_threads": {v: ENV[v] for v in THREAD_VARS},
                "cgroup": "not measured"},
    }))
    print(json.dumps({
        "correct": not failed, "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
