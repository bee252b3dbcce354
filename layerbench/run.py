#!/usr/bin/env python3
"""Builds and runs the layered benchmark (see layerbench/README.md).

Usage, from the repository root:

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds layerbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/layerbench, or .bench_build/layerbench when that is
unset; later calls rebuild only what changed. Build output goes to standard
error, so the last line of standard output is the program's JSON result.
Extra flags (--size smoke, --corrupt-trace) pass through to the
`layerbench` program.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_JOBS = "4"


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO_ROOT / base
    return base / "layerbench"


def build(out: Path) -> Path:
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"layerbench: no simulator sources at {REPO_ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "layerbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return out / "layerbench"


def flag_value(args, name):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def main() -> int:
    args = sys.argv[1:]
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"layerbench: build failed: {e}", file=sys.stderr)
        return 2
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    workload = flag_value(args, "--workload") or "unknown"
    seed = flag_value(args, "--seed") or "1"
    trace_out = out / "traces" / f"{workload}.{seed}.json"
    command = [str(binary), *args, "--state-dir", str(out / "state"),
               "--build-id", build_id, "--trace-out", str(trace_out)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
