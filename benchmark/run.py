#!/usr/bin/env python3
"""Build the layer-ledger benchmark from source and run one workload.

    python3 benchmark/run.py --workload <backfill|realtime|fleet_fit> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The benchmark is a Cargo package of
its own (benchmark/Cargo.toml) that depends on the repository's crates
by path; it is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default `.bench_build`). The last line of standard
output is the result object; it is checked against BENCHMARK.json (every
end-to-end metric without --trace, every per-layer metric with it, each
with its declared unit) before it is printed. Exits non-zero, printing
no result, when the build, the run or that check fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Longest a run may take once built; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, traced):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(traced)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    argv = sys.argv[1:]
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value == "1"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Telemetry stays off: the benchmark passes disabled handles, and no
    # environment override may re-enable it for code that reads it.
    env.pop("CAUSALIOT_TELEMETRY", None)
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    child = subprocess.Popen(
        [str(target / "release" / "ledger"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # A run that died cannot remove its own state directory.
        state = ROOT / ".bench_state"
        shutil.rmtree(state / f"run-{child.pid}", ignore_errors=True)
        if state.is_dir() and not any(state.iterdir()):
            state.rmdir()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"run exited with code {child.returncode}")
    check_result(lines[-1], traced)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
