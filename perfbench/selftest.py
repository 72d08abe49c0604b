"""Harness self-test: every output check rejects a corrupted result.

Run from the repository root (about 10 s)::

    python3 perfbench/selftest.py

For each workload a result that passes its checks is corrupted one
way at a time, and the check that guards that property must reject
it.  ``fleet_scoring`` runs one real round of the fleet service at a
reduced size; the chip workloads cost tens of seconds of chip build
and calibration per run, so their checks are fed summaries of the
shape the workloads produce.  The span bookkeeping of the traced run
is checked on a hand-made trace.  Exits 1 if a good result is
rejected or a corrupted one accepted.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import copy  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def _failing(rows) -> set:
    return {name for name, ok, _ in rows if not ok}


def expect_pass(label: str, rows) -> None:
    bad = _failing(rows)
    status = "ok  " if not bad else "FAIL"
    print(f"{status} {label} passes its checks")
    if bad:
        FAILURES.append(f"{label}: good result rejected by {sorted(bad)}")


def expect_reject(label: str, check_fn, summary, mutate, check_name):
    bad = copy.deepcopy(summary)
    mutate(bad)
    rejected = check_name in _failing(check_fn(bad))
    print(f"{'ok  ' if rejected else 'FAIL'} {check_name!r} rejects {label}")
    if not rejected:
        FAILURES.append(f"{check_name!r} accepted {label}")


def expect_accept(label: str, check_fn, summary, mutate) -> None:
    good = copy.deepcopy(summary)
    mutate(good)
    bad = _failing(check_fn(good))
    print(f"{'ok  ' if not bad else 'FAIL'} checks accept {label}")
    if bad:
        FAILURES.append(f"{label} rejected by {sorted(bad)}")


# ---------------------------------------------------------------------


def fleet_cold() -> None:
    def chip(verdict, time_alarm, spectral_alarm):
        return {"verdict": verdict, "oneshot": verdict,
                "time_alarm": time_alarm, "spectral_alarm": spectral_alarm,
                "delivered": 96, "ingested": 96, "queue_dropped": 0}

    good = {
        "n_windows": 96,
        "expected": ["golden", "trojan1", "trojan2", "trojan3", "trojan4",
                     "a2"],
        "chips": {
            "golden": chip("trusted", False, False),
            "trojan1": chip("trusted", False, False),
            "trojan2": chip("suspect-both", True, True),
            "trojan3": chip("suspect-spectral", False, True),
            "trojan4": chip("suspect-both", True, True),
            "a2": chip("suspect-spectral", False, True),
        },
    }
    fn = checks.fleet_cold
    expect_pass("fleet_cold summary", fn(good))

    def flag_golden(s):
        s["chips"]["golden"].update(verdict="suspect-time-domain",
                                    oneshot="suspect-time-domain",
                                    time_alarm=True)

    expect_reject("a flagged golden chip", fn, good, flag_golden,
                  "golden is trusted")
    expect_reject("A2 missed by the spectral sweep", fn, good,
                  lambda s: s["chips"]["a2"].update(spectral_alarm=False),
                  "a2 flagged by the spectral sweep")
    for cid in ("trojan2", "trojan4"):
        expect_reject(f"{cid} without a time-domain alarm", fn, good,
                      lambda s, c=cid: s["chips"][c].update(time_alarm=False),
                      f"{cid} raises a time-domain alarm")
    expect_reject("a streaming verdict that differs from one-shot", fn,
                  good,
                  lambda s: s["chips"]["trojan4"].update(
                      oneshot="suspect-spectral"),
                  "trojan4 streaming verdict equals one-shot")
    expect_reject("a chip without a verdict", fn, good,
                  lambda s: s["chips"].pop("trojan3"),
                  "one verdict per chip")
    expect_reject("a chip that ingested one window too few", fn, good,
                  lambda s: s["chips"]["golden"].update(ingested=95),
                  "golden ingests every window")
    expect_reject("a queue drop", fn, good,
                  lambda s: s["chips"]["a2"].update(queue_dropped=8),
                  "a2 ingests every window")

    def flip_t1_t3(s):
        s["chips"]["trojan1"].update(verdict="suspect-time-domain",
                                     oneshot="suspect-time-domain",
                                     time_alarm=True)
        s["chips"]["trojan3"].update(verdict="trusted", oneshot="trusted",
                                     spectral_alarm=False)

    expect_accept("T1 flagged and T3 unflagged (no check on either)", fn,
                  good, flip_t1_t3)


def paper_warm() -> None:
    def heat(cell, peak):
        h = [[0.1 * (r - c) for c in range(4)] for r in range(4)]
        h[cell[0]][cell[1]] = peak
        return h

    truth = {"trojan1": [0, 3], "trojan2": [1, 1], "trojan3": [3, 0],
             "trojan4": [2, 2]}
    params = {"rows": 4, "cols": 4, "trojans": (*truth, "a2")}
    payload = {
        "rows": 4, "cols": 4,
        "channels": [f"array.r{r}c{c}" for r in range(4) for c in range(4)],
        "golden": {"heatmap": heat((0, 0), 0.4), "detected_channels": 0,
                   "flagged": False},
        "trojans": {
            name: {"heatmap": heat(cell, 12.0), "hit1": True}
            for name, cell in (*truth.items(), ("a2", [3, 3]))
        },
        "hit1": 5,
        "fieldmaps": {"trojan1": {"xs": [0.0, 1.0], "magnitude": [0.5]}},
    }

    def fn(p):
        return (checks.localization_schema(p, params)
                + checks.golden_round(p) + checks.hit1(p, truth)
                + checks.warm_rendered(p, payload))

    expect_pass("paper_warm payload", fn(payload))

    def flag_golden(p):
        p["golden"].update(detected_channels=3, flagged=True)

    expect_reject("a flagged golden round", fn, payload, flag_golden,
                  "golden round unflagged")
    for name, cell in truth.items():
        far = [(cell[0] + 2) % 4, (cell[1] + 2) % 4]
        expect_reject(
            f"{name}'s peak two cells from its centroid", fn, payload,
            lambda p, n=name, f=far: p["trojans"][n].update(
                heatmap=heat(f, 12.0)),
            f"{name} hit@1 against the placed centroid",
        )
    grid = "payload grid and channels match the array"
    expect_reject("a 4x3 heatmap", fn, payload,
                  lambda p: [r.pop() for r in p["trojans"]["a2"]["heatmap"]],
                  grid)
    expect_reject("a NaN coil score", fn, payload,
                  lambda p: p["golden"]["heatmap"][2].__setitem__(
                      1, float("nan")),
                  grid)
    expect_reject("a missing coil channel", fn, payload,
                  lambda p: p["channels"].pop(), grid)
    expect_reject("a Trojan left out", fn, payload,
                  lambda p: p["trojans"].pop("a2"),
                  "payload localises every Trojan asked for")
    expect_reject("a hit@1 total off by one", fn, payload,
                  lambda p: p.update(hit1=4),
                  "hit@1 total agrees with the per-Trojan flags")
    expect_reject("a warm field map one ulp off", fn, payload,
                  lambda p: p["fieldmaps"]["trojan1"]["magnitude"]
                  .__setitem__(0, math.nextafter(0.5, 1.0)),
                  "warm field maps and channels equal the cold fill "
                  "bit for bit")

    warm = {"hits": 8, "misses": 0}
    expect_pass("paper_warm warm round", checks.warm_round(warm))
    expect_reject("a cache miss on the warm re-run", checks.warm_round,
                  warm, lambda s: s.update(hits=7, misses=1),
                  "warm re-run has zero cache misses")
    cold_json = json.dumps(payload, sort_keys=True)
    same = checks.warm_payload(json.dumps(payload, sort_keys=True),
                               cold_json)
    expect_pass("identical warm payload", [same])
    nudged = copy.deepcopy(payload)
    row = nudged["trojans"]["trojan2"]["heatmap"][3]
    row[0] = math.nextafter(row[0], math.inf)
    differs = checks.warm_payload(json.dumps(nudged, sort_keys=True),
                                  cold_json)
    ok = not differs[1]
    print(f"{'ok  ' if ok else 'FAIL'} {differs[0]!r} rejects a payload "
          "one ulp off")
    if not ok:
        FAILURES.append("warm payload check accepted a one-ulp change")


def fleet_scoring(tmp: Path) -> None:
    shape = {"streams": 3, "golden": 2, "replicas": 3, "windows": 320}
    ctx = workloads.Context(7, 1.0, None, tmp, 0.0)
    ctx.import_program()
    fit, streams = workloads.synthetic_fleet(7, shape)
    summary, _, _, _ = workloads.scoring_round(
        ctx, fit, streams, shape, tmp / "journal.jsonl"
    )
    fn = checks.fleet_scoring
    expect_pass("fleet_scoring round (real, reduced size)", fn(summary))
    chips = summary["chips"]
    golden = next(c for c, v in chips.items() if not v["shifted"])
    shifted = next(c for c, v in chips.items() if v["shifted"])
    expect_reject("a window delivered but not ingested", fn, summary,
                  lambda s: s["chips"][golden].update(
                      ingested=s["chips"][golden]["delivered"] - 1),
                  "windows ingested equal windows delivered, no queue drops")
    expect_reject("a queue drop", fn, summary,
                  lambda s: s["chips"][shifted].update(queue_dropped=8),
                  "windows ingested equal windows delivered, no queue drops")
    expect_reject("an alarm on a golden-distribution stream", fn, summary,
                  lambda s: s["chips"][golden].update(time_alarm=True),
                  "golden-distribution streams never alarm")
    expect_reject("a quiet shifted stream", fn, summary,
                  lambda s: s["chips"][shifted].update(time_alarm=False),
                  "shifted streams alarm")
    expect_reject("replicas of one stream with split verdicts", fn, summary,
                  lambda s: s["chips"][golden].update(time_alarm=True),
                  "replicas of one stream reach one verdict")

    def same_schedule(s):
        reps = [c for c in s["chips"].values() if c["stream"] == 0]
        for c in reps:
            c["schedule"] = reps[0]["schedule"]

    expect_reject("replicas sharing one fault schedule", fn, summary,
                  same_schedule, "replica link-fault schedules differ")
    expect_reject("a journal missing an alarm line", fn, summary,
                  lambda s: s.update(journal_alarms=s["journal_alarms"] - 1),
                  "journal alarm lines equal the fleet.alarms counter")


def trace_accounting() -> None:
    # root 0..10 (bench phase) > chip.build 1..6 > logic.compile 2..3
    #                          > logic.sim 7..9; untimed 10..20 > chip
    spans = [
        ["bench.setup", 0.0, 10.0, -1],
        ["chip.build", 1.0, 6.0, 0],
        ["logic.compile", 2.0, 3.0, 1],
        ["logic.sim", 7.0, 9.0, 0],
        ["bench.cold_fill", 10.0, 20.0, -1],
        ["chip.acquire", 11.0, 19.0, 4],
    ]
    rows = dict(tracing.layer_table(spans, wall_s=12.0))
    ok = (rows["chip"] == 4.0 and rows["logic"] == 3.0
          and rows["unaccounted"] == 5.0)
    print(f"{'ok  ' if ok else 'FAIL'} self times leave untimed phases "
          f"out and report the remainder as unaccounted")
    if not ok:
        FAILURES.append(f"layer table wrong: {rows}")


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "repro").is_dir():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    fleet_cold()
    paper_warm()
    trace_accounting()
    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        fleet_scoring(Path(tmp))
    if FAILURES:
        print(f"\n{len(FAILURES)} self-test failure(s):")
        for line in FAILURES:
            print(f"  {line}")
        return 1
    print("\nall checks reject their corrupted results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
