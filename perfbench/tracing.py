"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own code: :func:`install`
replaces a fixed list of the program's public functions and methods
with thin wrappers that open a span around each call.  Nothing inside
``src/`` is instrumented.  A span is ``(name, start, end, parent)``;
spans stay in memory and are written out once, when the run ends,
together with each span's self time (its duration minus the part of it
its child spans cover).

This module imports only the standard library at load time, so the
child interpreter can import it before the program and time the
program's own import as a span.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import threading
import time
from collections import Counter

#: Span names that mark benchmark phases rather than program layers.
#: A phase span's subtree counts toward per-layer metrics unless the
#: phase is untimed (its time is not part of ``wall_s``).
PHASE_PREFIX = "bench."
UNTIMED_PHASES = ("bench.cold_fill", "bench.warmup")

#: Layers of the self-time table, in the order the program stacks them.
LAYERS = (
    "import", "chip", "logic", "layout", "em", "power", "experiments",
    "io", "detectors", "analysis", "fleet", "framework", "obs",
)


class Tracer:
    """Records nested spans of the main thread.

    Calls from other threads run unwrapped: the workloads run the
    program single-threaded, and a span stack shared across threads
    would give spans the wrong parent.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.unique_campaigns: set = set()
        #: False inside an untimed phase, whose work the per-layer
        #: counts leave out just as the per-layer times do.
        self.counting = True
        self._stack: list[int] = []
        self._main = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block (the benchmark's own phases)."""
        if name in UNTIMED_PHASES:
            self.counting = False
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.monotonic()
            self._stack.pop()
            if name in UNTIMED_PHASES:
                self.counting = True

    def wrap(self, name, fn, before=None):
        """*fn* wrapped in a span; *before(args, kwargs)* runs first.

        *name* may be a callable of ``(args, kwargs)`` returning the
        span name.
        """
        spans, stack, main = self.spans, self._stack, self._main
        get_ident, now = threading.get_ident, time.monotonic

        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, now(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


# ---------------------------------------------------------------------
# Installing the wrappers


def _patch_function(tracer, module: str, attr: str, name, before=None):
    """Wrap a module-level function everywhere the program imported it."""
    orig = getattr(importlib.import_module(module), attr)
    wrapped = tracer.wrap(name, orig, before)
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
    return wrapped


def _patch_method(tracer, module: str, cls_name: str, attr: str, name,
                  before=None):
    """Wrap a method defined on the class itself (not inherited)."""
    cls = getattr(importlib.import_module(module), cls_name)
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        wrapped = tracer.wrap(name, raw.__func__, before)
        setattr(cls, attr, classmethod(wrapped))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, before))


def _n_cycles(args, kwargs) -> int:
    # acquire(self, workload, n_cycles, ...) / acquire_group(self,
    # members, n_cycles, ...)
    return int(kwargs["n_cycles"] if "n_cycles" in kwargs else args[2])


def install(tracer: Tracer) -> None:
    """Wrap the program's public calls at every layer boundary."""
    count = tracer.counts

    def on_acquire(args, kwargs):
        if tracer.counting:
            count["logic.sim.steps"] += _n_cycles(args, kwargs)

    m = _patch_method
    m(tracer, "repro.chip.chip", "Chip", "build", "chip.build")
    m(tracer, "repro.logic.simulator", "CompiledNetlist", "__init__",
      "logic.compile")
    m(tracer, "repro.logic.simulator", "CompiledNetlist", "step", "logic.sim")
    for module, cls in (
        ("repro.em.sensor", "OnChipSensor"),
        ("repro.em.sensor", "SensorArray"),
        ("repro.em.probe", "ExternalProbe"),
    ):
        m(tracer, module, cls, "coupling", "em.coupling")
    m(tracer, "repro.chip.acquire", "AcquisitionEngine", "acquire",
      "chip.acquire", on_acquire)
    m(tracer, "repro.chip.acquire", "AcquisitionEngine", "acquire_group",
      "chip.acquire_group", on_acquire)
    m(tracer, "repro.io.cache", "TraceCache", "get_bundle", "io.cache.load")
    m(tracer, "repro.fleet.scheduler", "FleetScheduler", "run",
      "fleet.scheduler")
    m(tracer, "repro.fleet.feed", "TraceFeed", "__init__", "fleet.feed")
    m(tracer, "repro.fleet.session", "MonitorSession", "__init__",
      "fleet.session")
    m(tracer, "repro.framework.batched", "BatchedFleetMonitor",
      "ingest_tick", "framework.ingest_tick")
    m(tracer, "repro.obs.journal", "EventJournal", "flush",
      "obs.journal.flush")
    for module, cls in (
        ("repro.analysis.euclidean", "EuclideanDetector"),
        ("repro.detectors.euclidean", "EuclideanPlugin"),
        ("repro.detectors.spectral", "SpectralPlugin"),
        ("repro.detectors.reference_free", "_RobustSpectralDetector"),
    ):
        m(tracer, module, cls, "features", "framework.features")
        m(tracer, module, cls, "fit", "detectors.fit")
        m(tracer, module, cls, "score", "detectors.score")

    f = _patch_function
    f(tracer, "repro.layout.current_map", "build_current_map",
      "layout.current_map")
    f(tracer, "repro.power.charges", "switching_charges", "power.charges")
    f(tracer, "repro.power.charges", "clock_charges", "power.charges")
    f(tracer, "repro.chip.calibration", "calibrate_scenario", "chip.calibrate")
    f(tracer, "repro.analysis.spectral", "amplitude_spectrum",
      "analysis.spectrum")
    f(tracer, "repro.em.fieldmap", "trojan_difference_maps", "em.fieldmap")
    f(tracer, "repro.framework.monitor", "row_separations",
      "framework.separation")
    f(tracer, "repro.experiments.campaign", "get_or_fit_detector",
      "detectors.fit")

    campaign = importlib.import_module("repro.experiments.campaign")
    key_of = campaign.campaign_pipeline_key

    def on_request(args, kwargs):
        if not tracer.counting:
            return
        chip, scenario, kind = args[:3]
        params = {k: v for k, v in kwargs.items() if k != "cache"}
        count["experiments.campaigns.requested"] += 1
        tracer.unique_campaigns.add(
            key_of(chip, scenario, kind, params).digest()
        )

    f(tracer, "repro.experiments.campaign", "get_or_generate_traces",
      "experiments.campaign", on_request)
    # The collectors are what a cache miss runs: campaign generation.
    collectors = campaign.TRACE_COLLECTORS
    for kind, fn in list(collectors.items()):
        collectors[kind] = _patch_function(
            tracer, "repro.experiments.campaign", fn.__name__,
            "experiments.generate",
        )
    f(tracer, "repro.experiments.registry", "run_experiment",
      lambda args, kwargs: "experiments.run."
      + (args[0] if args else kwargs["name"]))


# ---------------------------------------------------------------------
# Reading a finished trace


def _untimed_mask(spans) -> list[bool]:
    """True for spans inside an untimed phase (parents precede children)."""
    mask = []
    for name, _start, _end, parent in spans:
        mask.append(
            name in UNTIMED_PHASES or (parent >= 0 and mask[parent])
        )
    return mask


def self_times(spans) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost_seconds(spans, mask) -> dict[str, float]:
    """Summed durations by span name, skipping direct self-nesting."""
    out: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if mask[i]:
            continue
        if parent >= 0 and spans[parent][0] == name:
            continue
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def layer_table(spans, wall_s: float) -> list[tuple[str, float]]:
    """Self seconds per layer over the timed phases, plus "unaccounted"."""
    mask = _untimed_mask(spans)
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for i, (name, *_rest) in enumerate(spans):
        if mask[i] or name.startswith(PHASE_PREFIX):
            continue
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[i]
    rows = [(layer, secs) for layer, secs in totals.items()]
    rows.append(("unaccounted", wall_s - sum(totals.values())))
    return rows


def _descendant_seconds(spans, root_name: str, names: tuple) -> float:
    """Summed durations of *names* spans below any *root_name* span."""
    under = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        inside = parent >= 0 and (
            under[parent] or spans[parent][0] == root_name
        )
        under[i] = inside
        if inside and name in names and spans[parent][0] not in names:
            total += end - start
    return total


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def per_layer_metrics(tracer: Tracer, obs: dict, extra: dict) -> dict:
    """Every per-layer metric, from the spans plus the program's own
    ``obs`` counters (*obs*: merged counter values and histogram sums).
    """
    spans = tracer.spans
    mask = _untimed_mask(spans)
    secs = outermost_seconds(spans, mask)
    calls = Counter(
        name for i, (name, *_r) in enumerate(spans) if not mask[i]
    )
    counters, hist = obs["counters"], obs["histogram_sums"]
    steps = tracer.counts["logic.sim.steps"]
    lane_cycles = counters.get("acquire.cycles", 0)
    sim_s = secs.get("logic.sim", 0.0)
    requested = tracer.counts["experiments.campaigns.requested"]
    unique = len(tracer.unique_campaigns)
    sched = secs.get("fleet.scheduler", 0.0)
    inner = _descendant_seconds(
        spans, "fleet.scheduler", ("framework.features",
                                   "framework.separation"),
    )
    ticks = [
        (end - start) * 1e3
        for i, (name, start, end, _p) in enumerate(spans)
        if name == "framework.ingest_tick" and not mask[i]
    ]
    metrics = {
        "import.seconds": secs.get("import", 0.0),
        "chip.build.seconds": secs.get("chip.build", 0.0),
        "logic.compile.seconds": secs.get("logic.compile", 0.0),
        "layout.current_map.seconds": secs.get("layout.current_map", 0.0),
        "em.coupling.seconds": secs.get("em.coupling", 0.0),
        "power.charges.seconds": secs.get("power.charges", 0.0),
        "chip.calibrate.seconds": secs.get("chip.calibrate", 0.0),
        "chip.calibrate.calls": calls["chip.calibrate"],
        "chip.acquire.calls": calls["chip.acquire"],
        "chip.acquire.seconds": secs.get("chip.acquire", 0.0),
        "chip.acquire_group.seconds": secs.get("chip.acquire_group", 0.0),
        "logic.sim.steps": steps,
        "logic.sim.lane_cycles": lane_cycles,
        "logic.sim.lanes_per_step": lane_cycles / steps if steps else 0.0,
        "logic.sim.seconds": sim_s,
        "logic.sim.seconds_per_step": sim_s / steps if steps else 0.0,
        "logic.sim.backend.bool": counters.get("sim.backend.bool", 0),
        "logic.sim.backend.packed": counters.get("sim.backend.packed", 0),
        "chip.synthesize.seconds": hist.get("stage.synthesize.seconds", 0.0),
        "experiments.generate.seconds": secs.get("experiments.generate", 0.0),
        "experiments.campaigns.requested": requested,
        "experiments.campaigns.unique": unique,
        "experiments.campaigns.unique_ratio":
            unique / requested if requested else 0.0,
        "io.cache.hits": counters.get("traces.cache.hit", 0),
        "io.cache.misses": counters.get("traces.cache.miss", 0),
        "io.cache.load.seconds": secs.get("io.cache.load", 0.0),
        "experiments.run.localization_array.seconds":
            secs.get("experiments.run.localization_array", 0.0),
        "detectors.fit.seconds": secs.get("detectors.fit", 0.0),
        "analysis.spectrum.seconds": secs.get("analysis.spectrum", 0.0),
        "fleet.spectral.seconds": hist.get("stage.spectral.seconds", 0.0),
        "fleet.scheduler.seconds": sched,
        "fleet.scheduler.self_seconds": sched - inner,
        "framework.features.seconds": secs.get("framework.features", 0.0),
        "framework.separation.seconds":
            secs.get("framework.separation", 0.0),
        "fleet.windows.ingested": counters.get("fleet.windows.ingested", 0),
        "fleet.score.p50_ms": _percentile(ticks, 50),
        "fleet.score.p99_ms": _percentile(ticks, 99),
        "obs.journal.bytes": 0,
        "obs.journal.flush.seconds": secs.get("obs.journal.flush", 0.0),
    }
    metrics.update(extra)
    return metrics


def dump(tracer: Tracer, obs_snapshots: list, path) -> None:
    """Write every span with its self time, plus the obs snapshots."""
    own = self_times(tracer.spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": [
                    {"name": n, "start": s, "end": e, "parent": p,
                     "self": own[i]}
                    for i, (n, s, e, p) in enumerate(tracer.spans)
                ],
                "counts": dict(tracer.counts),
                "obs": obs_snapshots,
            },
            fh,
        )
