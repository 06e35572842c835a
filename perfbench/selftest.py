"""Fast self-test of the benchmark, at reduced workload sizes.

Checks that

1. every metric ``BENCHMARK.json`` names is emitted with its unit, in
   untraced and traced runs, and the reduced workloads pass their output
   check;
2. the output check catches a perturbed output and a raised exception;
3. the benchmark fails, without printing a result, where the sources
   are missing.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run                                                # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_metrics(workload: str, trace: int) -> list[str]:
    proc = bench("--workload", workload, "--seed", "3", "--trace",
                 str(trace), "--small")
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n"
                f"{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{workload}: output check failed: {result}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            errors.append(f"{workload} trace={trace}: {metric['name']} "
                          "missing")
        elif entry["unit"] != metric["unit"] or not isinstance(
                entry["value"], (int, float)):
            errors.append(f"{workload} trace={trace}: {metric['name']} = "
                          f"{entry}, unit should be {metric['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{workload} trace={trace}: undeclared {sorted(extra)}")
    return errors


def check_perturbation() -> list[str]:
    """A perturbed or failed operation must fail the digest check."""
    workdir = Path(tempfile.mkdtemp(dir=run.BUILD / "tmp"))
    try:
        os.environ.update(run.child_env(workdir))
        sys.path.insert(0, str(run.ROOT / "src"))
        import child
        import digest
        import workloads

        workload = workloads.DseGrid(seed=3, small=True)
        workload.setup()
        _, cold = child.timed_pass(workload, workdir / "cache")
        workload.prepare()
        outputs = workload.run()
        errors = []
        if digest.failed_operations(digest.digest_outputs(outputs), cold):
            errors.append("an unperturbed pass failed the digest check")

        op = sorted(outputs)[len(outputs) // 2]
        point = outputs[op]
        physical = dataclasses.replace(
            point.physical, frequency=point.physical.frequency * (1 + 1e-7))
        outputs[op] = dataclasses.replace(point, physical=physical)
        victim = sorted(outputs)[0]
        outputs[victim] = RuntimeError("injected")
        failed = digest.failed_operations(digest.digest_outputs(outputs),
                                          cold)
        if failed != sorted([op, victim]):
            errors.append(f"perturbed/raised ops not caught: {failed}")
        check = child.Check(None)
        check.add("perturbed", digest.digest_outputs(outputs), cold)
        if check.attempted != len(cold) or len(check.failed) != 2:
            errors.append(f"accounting: attempted {check.attempted}, "
                          f"failed {check.failed}")
        return errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_missing_sources() -> list[str]:
    """Without the sources the benchmark must fail and print no result."""
    bare = Path(tempfile.mkdtemp(dir=run.BUILD / "tmp"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "dse-grid", "--seed", "1", "--trace",
                     "0", cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return [f"bare checkout: exit {proc.returncode}, "
                    f"stdout {proc.stdout[-300:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    (run.BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    checks = [
        ("missing sources", check_missing_sources),
        ("perturbed output", check_perturbation),
        ("metrics dse-grid trace=0", lambda: check_metrics("dse-grid", 0)),
        ("metrics library-corners trace=0",
         lambda: check_metrics("library-corners", 0)),
        ("metrics paper-figures trace=1",
         lambda: check_metrics("paper-figures", 1)),
    ]
    failures = 0
    for name, fn in checks:
        errors = fn()
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}")
        for error in errors:
            print(f"     {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
