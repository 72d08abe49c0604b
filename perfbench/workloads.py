"""The benchmark's three workloads, run inside the child interpreter.

Each workload imports the program (timed as the ``import`` span), sets
up, runs whole rounds of the same operations, checks the outputs and
returns a JSON-able result.  Timestamps are ``time.monotonic()``, the
clock the parent read when it started this interpreter, so set-up and
wall times count interpreter start-up too.

* ``fleet_cold`` — one cold ``repro fleet --smoke`` campaign.
* ``paper_warm`` — the sensor-array localisation experiment re-run
  against a trace cache an untimed cold pass filled.
* ``fleet_scoring`` — synthetic fleets streamed through the fleet
  service alone.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from pathlib import Path

import checks
import tracing

now = time.monotonic

#: Everything any workload or the tracer touches, imported up front in
#: every workload so ``import.seconds`` always covers the same modules.
PROGRAM_MODULES = (
    "repro",
    "repro.analysis.euclidean",
    "repro.analysis.spectral",
    "repro.chip.calibration",
    "repro.detectors.euclidean",
    "repro.detectors.reference_free",
    "repro.detectors.registry",
    "repro.detectors.spectral",
    "repro.em.probe",
    "repro.experiments.campaign",
    "repro.experiments.registry",
    "repro.fleet.campaign",
    "repro.fleet.scheduler",
    "repro.framework.batched",
    "repro.io.cache",
    "repro.obs",
)


class Context:
    """What a workload gets from the child entry point."""

    def __init__(self, seed, seconds, tracer, tmp: Path, t_spawn: float):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = tmp
        self.t_spawn = t_spawn
        self.obs: list[dict] = []
        self.extra: dict = {}

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def import_program(self) -> None:
        with self.phase("import"):
            for name in PROGRAM_MODULES:
                importlib.import_module(name)
        if self.tracer is not None:
            tracing.install(self.tracer)

    def rounds_done(self, n_rounds: int, measured: float) -> bool:
        """A traced run measures one round; an untraced one, whole
        rounds until ``--seconds`` of them have passed."""
        if n_rounds == 0:
            return False
        return self.tracer is not None or measured >= self.seconds


def merge_obs(snapshots: list[dict]) -> dict:
    """Counter totals and histogram sums over several obs snapshots."""
    counters: dict = {}
    hist: dict = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, s in snap.get("histograms", {}).items():
            hist[name] = hist.get(name, 0.0) + s["mean"] * s["count"]
    return {"counters": counters, "histogram_sums": hist}


# ---------------------------------------------------------------------
# fleet_cold

#: Chip seed of the fleet campaign: `repro fleet`'s default.
FLEET_SEED = 0


def fleet_cold(ctx: Context) -> dict:
    ctx.import_program()
    from repro.chip.scenario import simulation_scenario
    from repro.experiments.campaign import calibrated, shared_chip
    from repro.fleet.campaign import (
        DEFAULT_FLEET,
        FleetConfig,
        run_fleet_campaign,
    )
    from repro.obs import use_metrics

    journal = ctx.tmp / "fleet_cold.jsonl"
    # The smoke campaign exactly as `repro fleet --smoke` builds it,
    # with generation pinned in-process and replay ingest.  Its one
    # input is the chip seed, and other chip seeds meet program faults
    # (see README), so it does not follow --seed.
    config = FleetConfig.smoke(
        seed=FLEET_SEED, campaign_workers=1, workers=1, shards=1,
        ingest="replay", journal_path=str(journal),
    )
    with use_metrics() as registry:
        with ctx.phase("bench.setup"):
            # Same call forms as run_fleet_campaign, so it reuses them.
            chip = shared_chip(seed=config.seed)
            calibrated(chip, simulation_scenario())
        t_setup = now()
        with ctx.phase("bench.campaign"):
            result = run_fleet_campaign(config)
        t_end = now()
    ctx.obs = [registry.snapshot(), result.metrics]
    ctx.extra["obs.journal.bytes"] = journal.stat().st_size

    reports = result.fleet.reports
    summary = {
        "n_windows": config.n_windows,
        "expected": [cid for cid, _ in DEFAULT_FLEET],
        "chips": {
            cid: {
                "verdict": v.verdict.value,
                "oneshot": v.oneshot_verdict.value,
                "time_alarm": bool(v.time_alarm),
                "spectral_alarm": bool(v.spectral_alarm),
                "delivered": reports[cid].windows_delivered,
                "ingested": reports[cid].windows_ingested,
                "queue_dropped": reports[cid].queue_dropped_windows,
            }
            for cid, v in result.verdicts.items()
        },
    }
    rows = checks.fleet_cold(summary)
    chips = summary["chips"]
    failed = sum(
        1 for cid in summary["expected"]
        if cid not in chips
        or chips[cid]["ingested"] != config.n_windows
    )
    wall_s = t_end - ctx.t_spawn
    return {
        "setup_s": t_setup - ctx.t_spawn,
        "wall_s": wall_s,
        # What the fleet report's throughput leaves out: the whole run.
        "windows_per_s": result.fleet.windows_ingested / wall_s,
        "attempted": len(summary["expected"]),
        "failed": failed,
        "checks": rows,
        "report": [
            f"{cid}: {c['verdict']} (one-shot {c['oneshot']})"
            for cid, c in chips.items()
        ],
    }


# ---------------------------------------------------------------------
# paper_warm

EXPERIMENT = "localization_array"
#: Chip seed of the re-run: `repro run`'s default.
PAPER_SEED = 1


def _centroid_cells(chip, trojans) -> dict:
    """Grid cell over each Trojan's placed centroid, from the die
    geometry (the same row-major, bottom-row-first grid as the array)."""
    array, die = chip.sensor_array, chip.floorplan.die
    cells = {}
    for name in trojans:
        x, y = chip.placement.group_centroid(chip.netlist, name)
        col = int((x - die.x0) / die.width * array.cols)
        row = int((y - die.y0) / die.height * array.rows)
        cells[name] = [
            min(max(row, 0), array.rows - 1),
            min(max(col, 0), array.cols - 1),
        ]
    return cells


def _windows_per_round(params: dict, reference_free: bool) -> int:
    """ED windows one localisation run loads from the cache and scores:
    the evaluation set, the golden fit set (golden-based detectors
    only), and one suspect set per round (golden + each Trojan)."""
    n = params["n_eval"] + (1 + len(params["trojans"])) * params["n_suspect"]
    return n if reference_free else n + params["n_golden"]


def _distinct_heatmap_values(payload: dict) -> int:
    """How many distinct per-coil scores the Trojan heatmaps hold."""
    return len({
        v for t in payload["trojans"].values()
        for row in t["heatmap"] for v in row
    })


def paper_warm(ctx: Context) -> dict:
    ctx.import_program()
    from repro.experiments.campaign import shared_array_chip
    from repro.experiments.registry import get_spec, run_experiment

    # The warm re-run fails every time (see README), so its inputs do
    # not depend on --seed: the chip is `repro run`'s default seed.
    seed = PAPER_SEED
    params = get_spec(EXPERIMENT).run_params(smoke=True)
    with ctx.phase("bench.setup"):
        # The registry's own call form, so the experiment reuses it.
        chip = shared_array_chip(
            seed=seed, rows=params["rows"], cols=params["cols"]
        )
    t_setup = now()

    with ctx.phase("bench.cold_fill"):
        cold = run_experiment(EXPERIMENT, smoke=True, seed=seed)
    cold_json = json.dumps(cold.payload, sort_keys=True)
    truth = _centroid_cells(chip, checks.HIT1_TROJANS)
    rows = (
        checks.localization_schema(cold.payload, params)
        + checks.golden_round(cold.payload)
        + checks.hit1(cold.payload, truth)
    )
    per_round = _windows_per_round(params, cold.payload["reference_free"])

    rounds: list[float] = []
    failed = 0
    failures = []
    while not ctx.rounds_done(len(rounds), sum(rounds)):
        t0 = now()
        with ctx.phase("bench.round"):
            warm = run_experiment(EXPERIMENT, smoke=True, seed=seed)
        rounds.append(now() - t0)
        counters = warm.metrics["counters"]
        # Every check the trace-cache defect (see README) leaves
        # standing gates `correct` on every warm payload.
        rows += (
            checks.warm_round({
                "hits": counters.get("traces.cache.hit", 0),
                "misses": counters.get("traces.cache.miss", 0),
            })
            + checks.localization_schema(warm.payload, params)
            + checks.golden_round(warm.payload)
            + checks.warm_rendered(warm.payload, cold.payload)
        )
        # The checks that defect breaks fail the re-run, which the
        # workload counts in `failed`.
        broken = [
            name for name, ok, _ in checks.hit1(warm.payload, truth) + [
                checks.warm_payload(
                    json.dumps(warm.payload, sort_keys=True), cold_json
                )
            ]
            if not ok
        ]
        if broken:
            failed += 1
            failures.append(
                f"warm re-run FAILED {broken}; cold heatmaps hold "
                f"{_distinct_heatmap_values(cold.payload)} distinct "
                f"coil scores, warm {_distinct_heatmap_values(warm.payload)}"
            )
        ctx.obs = [warm.metrics]
    median = statistics.median(rounds)
    setup_s = t_setup - ctx.t_spawn
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + median,
        "windows_per_s": per_round / (setup_s + median),
        "attempted": len(rounds),
        "failed": failed,
        "checks": rows,
        "report": [
            f"cold fill {cold.elapsed_seconds:.2f}s; cold hit@1 "
            f"{cold.payload['hit1']}/{len(cold.payload['trojans'])}; "
            f"{len(rounds)} warm round(s), median {median:.3f}s",
            "warm rounds [s]: " + " ".join(f"{r:.3f}" for r in rounds),
        ] + failures[:1],
    }


# ---------------------------------------------------------------------
# fleet_scoring

#: Synthetic fleet shape: distinct streams, replicas of each, windows
#: per chip, samples per window (one decimated ED window).  Streams
#: 0..n_golden-1 follow the golden distribution; the rest carry a
#: Trojan-like extra pulse far past the golden spread.
FLEET_SHAPE = {"streams": 12, "golden": 8, "replicas": 8, "windows": 4096}
SAMPLES, NOISE = 100, 0.05
#: The lossy link: the drop, duplicate and reorder rates the CI
#: fleet-smoke job injects (.github/workflows/ci.yml).  Batch size,
#: queue depth, monitor window, confirmation, alarm threshold and the
#: golden fit size are those of a default `repro fleet` campaign
#: (`FleetConfig()`).
DROP, DUPLICATE, REORDER = 0.02, 0.02, 0.05


def _pulses(heights, decay, freq, start=0):
    """Clock-cycle current pulses over one 100-sample encryption window
    (12 cycles): each a damped ring-down of the given height."""
    import numpy as np

    t = np.arange(SAMPLES, dtype=np.float64)
    out = np.zeros(SAMPLES)
    for k, h in enumerate(heights, start=start):
        dt = t - k * SAMPLES / 12.0
        on = dt >= 0
        out[on] += h * np.exp(-dt[on] / decay) * np.cos(dt[on] * freq)
    return out


def synthetic_fleet(seed: int, shape: dict = FLEET_SHAPE):
    """Golden fit windows plus the distinct streams, all from *seed*."""
    # numpy is imported here, not at module level: the child imports
    # this module before it times the program's import.
    import numpy as np

    from repro.fleet.campaign import FleetConfig

    rng = np.random.default_rng(seed)
    base = _pulses(0.6 + 0.8 * rng.random(12), 2.5, 1.3)
    scale = NOISE * float(np.sqrt(np.mean(base**2)))

    def windows(n, extra=0.0):
        return base + extra + scale * rng.standard_normal((n, SAMPLES))

    fit = windows(FleetConfig().n_golden)
    streams = []
    for s in range(shape["streams"]):
        extra = 0.0
        if s >= shape["golden"]:
            # A Trojan's extra switching: one added pulse, a third of
            # the window's peak, in a seed-drawn cycle.
            cycle = int(rng.integers(1, 11))
            extra = _pulses([np.abs(base).max() / 3.0], 2.5, 0.7, cycle)
        streams.append(windows(shape["windows"], extra))
    return fit, streams


def scoring_round(ctx: Context, fit, streams, shape: dict, journal_path):
    """One fleet-service round: set up, run, summarise for the checks.

    Returns ``(summary, setup_s, run_s, result)``.
    """
    from repro.detectors.registry import create_detector
    from repro.fleet.campaign import FleetConfig
    from repro.fleet.feed import FaultSpec, TraceFeed
    from repro.fleet.scheduler import FleetScheduler
    from repro.fleet.session import MonitorSession
    from repro.framework.evaluator import (
        EvaluatorConfig,
        RuntimeTrustEvaluator,
    )
    from repro.obs import EventJournal, MetricsRegistry

    ids = [
        (f"s{s:02d}r{r}", s)
        for s in range(shape["streams"]) for r in range(shape["replicas"])
    ]
    config = FleetConfig()
    t0 = now()
    with ctx.phase("bench.setup"):
        detector = create_detector("euclidean").fit(fit)
        evaluator = RuntimeTrustEvaluator(
            detector=detector,
            golden_spectrum=None,
            fs=2.4e9 / 12,  # a decimated ED window's sample rate
            config=EvaluatorConfig(
                n_reference=len(fit), detector="euclidean"
            ),
        )
        metrics = MetricsRegistry()
        journal = EventJournal(journal_path)
        sessions = [
            MonitorSession(cid, evaluator, window=config.monitor_window,
                           confirm=config.confirm,
                           threshold=config.threshold,
                           metrics=metrics, journal=journal)
            for cid, _ in ids
        ]
        # Replicas share their stream's array; each replica's fault
        # schedule differs because the chip id salts it.
        faults = FaultSpec(drop=DROP, duplicate=DUPLICATE, reorder=REORDER)
        feeds = [
            TraceFeed(cid, streams[s], batch=config.batch, faults=faults,
                      seed=ctx.seed)
            for cid, s in ids
        ]
        scheduler = FleetScheduler(
            sessions, queue_depth=config.queue_depth,
            policy=config.policy, workers=1,
            scoring="batched", journal=journal, metrics=metrics,
        )
    t1 = now()
    with ctx.phase("bench.round"):
        result = scheduler.run(feeds)
    t2 = now()

    journal_alarms = sum(
        1 for line in journal_path.read_text().splitlines()
        if json.loads(line)["kind"] == "alarm"
    )
    ctx.extra["obs.journal.bytes"] = journal_path.stat().st_size
    journal_path.unlink()
    reports = result.reports
    summary = {
        "journal_alarms": journal_alarms,
        "alarm_counter": result.metrics["counters"].get("fleet.alarms", 0),
        "chips": {
            cid: {
                "stream": s,
                "shifted": s >= shape["golden"],
                "time_alarm": reports[cid].time_alarm,
                "delivered": feed.n_delivered,
                "ingested": reports[cid].windows_ingested,
                "queue_dropped": reports[cid].queue_dropped_windows,
                "schedule": hash(feed.delivered_seqs),
            }
            for (cid, s), feed in zip(ids, feeds)
        },
    }
    return summary, t1 - t0, t2 - t1, result


def fleet_scoring(ctx: Context) -> dict:
    ctx.import_program()
    fit, streams = synthetic_fleet(ctx.seed)
    t_inputs = now()
    setups: list[float] = []
    runs: list[float] = []
    rates: list[float] = []
    rows: list = []
    attempted = failed = 0
    warmed = False
    while not ctx.rounds_done(len(runs), sum(setups) + sum(runs)):
        # The first round warms caches and first-use paths; a fleet
        # service runs for hours, so only later rounds are timed.
        with (ctx.phase("bench.warmup") if not warmed
              else contextlib.nullcontext()):
            summary, setup_s, run_s, result = scoring_round(
                ctx, fit, streams, FLEET_SHAPE,
                ctx.tmp / f"fleet_scoring-{len(runs)}.jsonl",
            )
        rows += checks.fleet_scoring(summary)
        ingested = 0
        for c in summary["chips"].values():
            attempted += c["delivered"]
            failed += c["delivered"] - c["ingested"]
            ingested += c["ingested"]
        if warmed:
            setups.append(setup_s)
            runs.append(run_s)
            rates.append(ingested / run_s)
            ctx.obs = [result.metrics]
        warmed = True

    setup_s = (t_inputs - ctx.t_spawn) + statistics.median(setups)
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + statistics.median(runs),
        "windows_per_s": statistics.median(rates),
        "attempted": attempted,
        "failed": failed,
        "checks": rows,
        "report": [
            f"warm-up + {len(runs)} timed round(s) of "
            f"{len(summary['chips'])} chips, {ingested} windows each",
            "set-ups [s]: " + " ".join(f"{t:.3f}" for t in setups),
            "runs [s]: " + " ".join(f"{t:.3f}" for t in runs),
        ],
    }


WORKLOADS = {
    "fleet_cold": fleet_cold,
    "paper_warm": paper_warm,
    "fleet_scoring": fleet_scoring,
}
