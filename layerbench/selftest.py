#!/usr/bin/env python3
"""Self-test of the layered benchmark at tiny size.

    python3 layerbench/selftest.py

For every workload in BENCHMARK.json it checks that a smoke-size run
prints every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) with its declared unit, passes its gates and exits 0, and that
the traced run writes a Chrome trace. It then checks that the gates fire:
a deliberately corrupted error trace must fail the correctness gate, and a
tampered stored record must fail the determinism gate, both with exit 1.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
from run import build_dir  # noqa: E402  (where run.py keeps its outputs)


def run(workload, trace, *extra, seed=7):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 "0.2", "--trace", str(trace), "--size", "smoke", *extra]
    p = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout + p.stderr


def expect(cond, message, output=""):
    if not cond:
        print(f"selftest: FAILED: {message}\n{output[-2000:]}", file=sys.stderr)
        sys.exit(1)


def check_metrics(result, declared, what):
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in declared},
           f"{what}: metric names differ from BENCHMARK.json: "
           f"{sorted(set(got) ^ {m['name'] for m in declared})}")
    for m in declared:
        expect(got[m["name"]]["unit"] == m["unit"],
               f"{what}: {m['name']} has unit {got[m['name']]['unit']}, "
               f"declared {m['unit']}")
        expect(isinstance(got[m["name"]]["value"], (int, float)),
               f"{what}: {m['name']} is not a number")


def state_files(workload, seed):
    return sorted((build_dir() / "state").glob(f"{workload}.smoke.{seed}.*"))


def main():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, out = run(name, trace)
            what = f"{name} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{what}: run failed (exit {code})", out)
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{what}: attempted/failed wrong", out)
            check_metrics(result, declared, what)
        trace_file = build_dir() / "traces" / f"{name}.7.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        expect(any(e.get("ph") == "X" and e["name"] == "sim.run"
                   for e in events), f"{name}: Chrome trace lacks sim.run")

        code, result, out = run(name, 0, "--corrupt-trace")
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{name}: correctness gate did not fire on a corrupted trace",
               out)
        print(f"selftest: {name} ok")

    # Determinism gate across processes: tamper with a stored record.
    name = spec["workloads"][0]["name"]
    code, _, out = run(name, 0, seed=8)
    expect(code == 0, "baseline run for the determinism check failed", out)
    files = [f for f in state_files(name, 8) if f.name.endswith(".sim0")]
    expect(files, "no stored record to tamper with", out)
    record = max(files, key=lambda f: f.stat().st_mtime)
    original = record.read_text()
    try:
        first, rest = original.split("\n", 1)
        key, bits = first.split(" ")
        record.write_text(f"{key} {int(bits) ^ 1}\n{rest}")
        code, result, out = run(name, 0, seed=8)
        expect(code == 1 and result is not None and not result["correct"]
               and "determinism gate" in out,
               "determinism gate did not fire on a tampered record", out)
    finally:
        record.write_text(original)

    code, _, out = run("no_such_workload", 0)
    expect(code == 2, f"unknown workload gave exit {code}, want 2", out)
    print("selftest: OK")


if __name__ == "__main__":
    main()
