"""Self-test of the benchmark at a tiny size; exits 0 when every check holds.

    python3 perfbench/selftest.py

It checks that:
  * on every workload of workloads.py (those BENCHMARK.json names and any
    kept for runs by hand), with --trace 0 and 1, the last line is a result
    whose metrics are exactly those BENCHMARK.json names, each with its
    unit, and no trial fails;
  * in a copy whose design.json pins a wrong digest, a run at the default
    seed fails every trial, and a run at another seed, where only the
    invariant checks apply, passes;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BAD_DIGEST = "0" * 64
IGNORE = shutil.ignore_patterns("__pycache__")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result(*args: str, cwd: Path = ROOT) -> dict:
    out = bench("--scale", "tiny", *args, cwd=cwd)
    if out.returncode:
        command = " ".join(args)
        raise SystemExit(f"run.py {command}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def copy_benchmark(dest: Path) -> None:
    """Copy BENCHMARK.json and the benchmark's own directories to dest."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=IGNORE)


def main() -> int:
    problems = []
    units = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            res = result("--workload", workload, "--trace", str(trace))
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(
                    f"{label}: {res['attempted']} attempted, {res['failed']} failed"
                )
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{label}: metrics {got}, expected {units[trace]}")
            for name, metric in res["metrics"].items():
                value = metric["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(f"{label}: {name} = {value!r} is not a number")

    with tempfile.TemporaryDirectory() as tmp:
        # A copy whose pinned tiny chain digest is wrong.
        corrupt = Path(tmp)
        copy_benchmark(corrupt)
        shutil.copytree(ROOT / "src", corrupt / "src", ignore=IGNORE)
        design_path = corrupt / "perfbench" / "design.json"
        design = json.loads(design_path.read_text())
        design["digests"]["tiny"]["chain_n1024"] = BAD_DIGEST
        design_path.write_text(json.dumps(design))
        res = result("--workload", "chain_n1024", cwd=corrupt)
        if res["correct"] or res["failed"] != res["attempted"]:
            problems.append(
                f"corrupted digest: {res['failed']} of {res['attempted']} failed"
            )
        res = result("--workload", "chain_n1024", "--seed", "7", cwd=corrupt)
        if not res["correct"]:
            problems.append("seed 7: the digest was applied or an invariant failed")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        copy_benchmark(bare)
        out = bench("--workload", "chain_n1024", "--seed", "1", cwd=bare)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            problems.append("a directory without the package's sources gave a result")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
