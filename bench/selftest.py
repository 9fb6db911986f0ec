"""Schema self-test of the benchmark at a minimal size.

    python3 bench/selftest.py

Runs every workload untraced and traced, shrunk to a few examples and one
second, and checks each result against BENCHMARK.json: metric names and
units, ``correct``/``attempted``/``failed``, the record's environment and
input fingerprint, the wrapper call-count guard, and that a directory holding
only the benchmark exits non-zero without printing a result.  It checks no
timings.  Exits 0 when every check passes.
"""

import run  # noqa: I001  (sets the BLAS thread count before numpy loads)

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

import tracer  # noqa: E402
import workloads as WL  # noqa: E402

SMOKE = {
    name: replace(
        w,
        preset="tiny",
        max_len=64,
        steps_per_round=2,
        checkpoint_every=1,
        finetune_examples=4,
        valid_examples=2,
        eval_examples=4,
        tail_steps=4,
        batch=4,
    )
    for name, w in WL.WORKLOADS.items()
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(name, trace, seed=0):
    """(exit code, stdout lines, stderr) of one in-process run at the smoke size."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)], SMOKE)
    return code, out.getvalue().strip().splitlines(), err.getvalue()


def check_result(name, trace, lines, spec) -> list[str]:
    bad = []
    result = json.loads(lines[-1])
    record = json.loads(lines[0])
    if set(result) != RESULT_KEYS:
        bad.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        bad.append(f"checks failed: {record.get('problems')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        bad.append(f"attempted {result.get('attempted')!r}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        bad.append(f"metric names differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for key, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(key):
            bad.append(f"{key}: {m}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            bad.append(f"{key}: value {m['value']!r} is not a finite number")
    env = record.get("environment", {})
    for key in ("python", "numpy", "scipy", "blas", "nproc", "blas_threads", "seed", "git_revision"):
        if key not in env:
            bad.append(f"environment lacks {key}")
    if len(record.get("inputs", {}).get("sha256", "")) != 64:
        bad.append("record lacks the input fingerprint")
    return [f"{name} trace={trace}: {b}" for b in bad]


def check_isolated() -> list[str]:
    """A directory with only BENCHMARK.json and bench/ must fail without a result."""
    root = run.ROOT / ".bench_work" / "selftest-isolated"
    shutil.rmtree(root, ignore_errors=True)
    try:
        (root / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        for f in run.BENCH.glob("*.py"):
            shutil.copy(f, root / "bench" / f.name)
        cmd = [sys.executable, "bench/run.py", "--workload", "posttrain-pad320", "--seed", "0", "--seconds", "1"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"isolated benchmark exited {proc.returncode} with output {proc.stdout[-200:]!r}"]
    return []


def check_guard() -> list[str]:
    """A traced function left unwrapped must fail the traced run."""
    saved = tracer.FUNCTIONS
    tracer.FUNCTIONS = tuple(
        (mod, tuple(f for f in names if f != "decode_span")) for mod, names in saved
    )
    try:
        code, _, _ = invoke("posttrain-pad320", 1)
    finally:
        tracer.FUNCTIONS = saved
    return [] if code == run.EXIT_GUARD else [f"unwrapped decode_span: traced run exited {code}, not {run.EXIT_GUARD}"]


def main() -> int:
    spec = run._spec()
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if names != list(WL.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from workloads.py {list(WL.WORKLOADS)}")
    for name in names:
        prints = set()
        for trace in (0, 1):
            code, lines, err = invoke(name, trace)
            if code != 0:
                problems.append(f"{name} trace={trace}: exit {code}: {err.strip()}")
                continue
            problems += check_result(name, trace, lines, spec)
            prints.add(json.loads(lines[0])["inputs"]["sha256"])
        other = run.Run(SMOKE[name], 1, 1, False, run.ROOT / ".bench_work" / "selftest-seed1")
        try:
            other.setup()
        finally:
            shutil.rmtree(other.workdir, ignore_errors=True)
        if len(prints) != 1 or other.world.fingerprint in prints:
            problems.append(f"{name}: input fingerprint does not follow the seed alone")
        print(f"selftest: {name} checked", flush=True)
    problems += check_guard()
    problems += check_isolated()
    for p in problems:
        print("selftest FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
