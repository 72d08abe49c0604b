"""End-to-end benchmark of the repro package: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_cold --seed 1 \\
        --seconds 8 --trace 0

Each run starts one fresh child interpreter (``child.py``) with a
clean environment, waits for it, checks its outputs and prints one
JSON object as the last line of standard output::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from spans around the program's public calls, and a self-time
table by layer is printed first.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys

# Write nothing into the checkout but the benchmark's own scratch dirs.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

#: Scratch space inside the checkout (listed in .gitignore): one temp
#: directory per run, removed when the run ends, and the traces the
#: traced runs write.
TMP_DIR = ".perfbench_tmp"
STATE_DIR = ".perfbench_state"

#: A run must end within 180 s; leave room to clean up.
CHILD_TIMEOUT_S = 170

#: Thread pools of the numeric libraries, capped at one thread: the
#: workloads run single-process and single-threaded.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The run could not produce a result."""


def child_env(root: Path, workload: str, tmp: Path) -> dict:
    """The child's environment: every ``REPRO_*`` knob cleared, then
    pinned explicitly."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    for var in THREAD_VARS:
        env[var] = "1"
    # One process: no campaign pool, no fleet shards.
    env["REPRO_WORKERS"] = "1"
    env["REPRO_FLEET_SHARDS"] = "1"
    if workload == "paper_warm":
        # A private trace cache; the other workloads run with it off.
        env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    return env


def run_child(root: Path, args, tmp: Path) -> dict:
    env = child_env(root, args.workload, tmp)
    t_spawn = time.monotonic()
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), args.workload,
        str(args.seed), str(args.seconds), str(args.trace), str(tmp),
        repr(t_spawn),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{args.workload} did not finish within {CHILD_TIMEOUT_S}s"
        ) from None
    finally:
        # Also reached on SIGTERM (see main): never leave the child behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{args.workload} child exited with code {code}")
    with open(tmp / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def tracing_overhead(n_spans: int) -> float:
    """Tracing cost of *n_spans* wrapped calls, measured in this run: a
    wrapped no-op call minus a bare one, times the span count.  It
    depends on this checkout's code only, never on earlier runs."""
    tracer = tracing.Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    reps = 200_000
    t0 = time.monotonic()
    for _ in range(reps):
        wrapped()
    t1 = time.monotonic()
    for _ in range(reps):
        noop()
    t2 = time.monotonic()
    return n_spans * max((t1 - t0) - (t2 - t1), 0.0) / reps


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    (root / TMP_DIR).mkdir(exist_ok=True)
    tmp = root / TMP_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        result = run_child(root, args, tmp)
        if args.trace:
            kept = root / STATE_DIR / f"trace-{args.workload}-{args.seed}.json"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(tmp / "trace.json", kept)
    except (BenchError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed_checks = [r for r in result["checks"] if not r[1]]
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}")
    for line in result["report"]:
        print(f"{args.workload}: {line}")

    if args.trace:
        overhead = tracing_overhead(result["n_spans"])
        values = dict(result["per_layer"])
        values["trace.overhead_s"] = overhead
        unaccounted = dict(result["layer_table"])["unaccounted"]
        values["trace.unaccounted_s"] = unaccounted
        wall = result["wall_s"]
        print(f"{'layer':<12} {'self s':>10} {'% wall':>7}")
        for layer, secs in result["layer_table"]:
            print(f"{layer:<12} {secs:>10.3f} {100 * secs / wall:>6.1f}%")
        print(f"{'wall_s':<12} {wall:>10.3f}; trace.overhead_s "
              f"{overhead:.3f} ({result['n_spans']} spans)")
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "windows_per_s": result["windows_per_s"],
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
