"""Child interpreter of one benchmark run (started by ``run.py``).

Usage: ``child.py WORKLOAD SEED SECONDS TRACE TMPDIR T_SPAWN``.
Runs the workload, then writes ``TMPDIR/result.json``; with TRACE 1 it
also writes every span to ``TMPDIR/trace.json``.  Only the standard
library is imported before the workload times the program's import.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import tracing
import workloads


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, tmp, t_spawn = argv
    tracer = tracing.Tracer() if trace == "1" else None
    ctx = workloads.Context(
        int(seed), float(seconds), tracer, Path(tmp), float(t_spawn)
    )
    result = workloads.WORKLOADS[workload](ctx)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        obs = workloads.merge_obs(ctx.obs)
        result["per_layer"] = tracing.per_layer_metrics(
            tracer, obs, ctx.extra
        )
        result["layer_table"] = tracing.layer_table(
            tracer.spans, result["wall_s"]
        )
        result["n_spans"] = len(tracer.spans)
        tracing.dump(tracer, ctx.obs, Path(tmp) / "trace.json")
    with open(Path(tmp) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
