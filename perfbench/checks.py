"""Output checks of the three workloads.

Every check compares a workload's outputs against a property the
method must have, or against a computation made apart from the timed
run — never against a stored copy of an earlier output.  Each check
function takes a plain JSON-able summary and returns a list of
``(name, ok, detail)`` rows, so ``selftest.py`` can feed it corrupted
summaries and show that it rejects them.
"""

from __future__ import annotations

import json


def _row(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------
# fleet_cold


#: Chips whose verdicts the fleet campaign must get right.  T1 and T3
#: are deliberately absent: at smoke size T1's separation (~0.28) sits
#: under the analytic envelope and T3's spectral flag is a side effect,
#: so no check requires or forbids a flag on either.
TIME_ALARM_CHIPS = ("trojan2", "trojan4")
SPECTRAL_CHIPS = ("a2",)


def fleet_cold(summary: dict) -> list:
    """*summary*: ``expected`` chip ids, ``n_windows``, and per-chip
    ``verdict``/``oneshot``/``time_alarm``/``spectral_alarm`` plus
    ``delivered``/``ingested``/``queue_dropped`` window counts."""
    rows = []
    chips = summary["chips"]
    expected = list(summary["expected"])
    rows.append(_row(
        "one verdict per chip", sorted(chips) == sorted(expected),
        f"verdicts for {sorted(chips)}, fleet {sorted(expected)}",
    ))
    for cid in expected:
        c = chips.get(cid)
        if c is None:
            continue
        rows.append(_row(
            f"{cid} ingests every window",
            c["delivered"] == summary["n_windows"]
            and c["ingested"] == c["delivered"]
            and c["queue_dropped"] == 0,
            f"delivered {c['delivered']}, ingested {c['ingested']}, "
            f"queue drops {c['queue_dropped']}, campaign "
            f"{summary['n_windows']}",
        ))
        rows.append(_row(
            f"{cid} streaming verdict equals one-shot",
            c["verdict"] == c["oneshot"],
            f"streaming {c['verdict']}, one-shot {c['oneshot']}",
        ))
    golden = chips.get("golden", {})
    rows.append(_row(
        "golden is trusted", golden.get("verdict") == "trusted",
        f"golden verdict {golden.get('verdict')}",
    ))
    for cid in SPECTRAL_CHIPS:
        rows.append(_row(
            f"{cid} flagged by the spectral sweep",
            chips.get(cid, {}).get("spectral_alarm") is True,
        ))
    for cid in TIME_ALARM_CHIPS:
        rows.append(_row(
            f"{cid} raises a time-domain alarm",
            chips.get(cid, {}).get("time_alarm") is True,
        ))
    return rows


# ---------------------------------------------------------------------
# paper_warm


#: Trojans the array must place at hit@1.  A2 is reported but not
#: required: its analog trigger is localised by the spectral path.
HIT1_TROJANS = ("trojan1", "trojan2", "trojan3", "trojan4")


def _argmax_cell(heatmap: list) -> tuple[int, int]:
    """First (lowest flat index) maximum of a row-major heatmap."""
    best, cell = None, (0, 0)
    for r, row in enumerate(heatmap):
        for c, v in enumerate(row):
            if best is None or v > best:
                best, cell = v, (r, c)
    return cell


def localization_schema(payload: dict, params: dict) -> list:
    """The payload has the shape the run asked for: one finite
    rows x cols heatmap per Trojan and for the golden round, one channel
    per coil, and a ``hit1`` total that agrees with the per-Trojan
    flags.  *params* are the experiment's run parameters."""
    rows, cols = params["rows"], params["cols"]

    def grid_ok(heat) -> bool:
        return len(heat) == rows and all(
            len(r) == cols and all(
                isinstance(v, (int, float)) and v == v
                and abs(v) != float("inf") for v in r
            )
            for r in heat
        )

    trojans = payload.get("trojans", {})
    bad = [n for n, t in trojans.items() if not grid_ok(t["heatmap"])]
    return [
        _row(
            "payload grid and channels match the array",
            payload.get("rows") == rows and payload.get("cols") == cols
            and len(payload.get("channels", [])) == rows * cols
            and grid_ok(payload["golden"]["heatmap"]) and not bad,
            f"grid {payload.get('rows')}x{payload.get('cols')}, "
            f"{len(payload.get('channels', []))} channel(s), "
            f"bad heatmaps {bad}",
        ),
        _row(
            "payload localises every Trojan asked for",
            sorted(trojans) == sorted(params["trojans"]),
            f"localised {sorted(trojans)}, asked {sorted(params['trojans'])}",
        ),
        _row(
            "hit@1 total agrees with the per-Trojan flags",
            payload.get("hit1") == sum(
                bool(t.get("hit1")) for t in trojans.values()
            ),
            f"total {payload.get('hit1')}",
        ),
    ]


def golden_round(payload: dict) -> list:
    """The golden (Trojan-free) round flags no channel."""
    return [_row(
        "golden round unflagged",
        payload["golden"]["flagged"] is False
        and payload["golden"]["detected_channels"] == 0,
        f"{payload['golden']['detected_channels']} channel(s) flagged",
    )]


def hit1(payload: dict, truth: dict) -> list:
    """Each digital Trojan's heatmap peaks within one cell (Chebyshev)
    of *truth*, its placed-centroid grid cell computed apart from the
    run."""
    rows = []
    for name in HIT1_TROJANS:
        heat = payload["trojans"][name]["heatmap"]
        got = _argmax_cell(heat)
        want = tuple(truth[name])
        rows.append(_row(
            f"{name} hit@1 against the placed centroid",
            max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1,
            f"argmax cell {got}, centroid cell {want}",
        ))
    return rows


def warm_round(summary: dict) -> list:
    """*summary*: one warm re-run's ``hits``/``misses`` cache counters."""
    return [_row(
        "warm re-run has zero cache misses",
        summary["misses"] == 0 and summary["hits"] > 0,
        f"hits {summary['hits']}, misses {summary['misses']}",
    )]


def warm_rendered(payload: dict, cold_payload: dict) -> list:
    """What a warm re-run renders rather than loads from the trace
    cache (the field-map difference maps and the channel list) equals
    the cold fill's bit for bit."""
    def dump(p: dict) -> str:
        return json.dumps([p["fieldmaps"], p["channels"]], sort_keys=True)

    return [_row(
        "warm field maps and channels equal the cold fill bit for bit",
        dump(payload) == dump(cold_payload),
    )]


def warm_payload(payload_json: str, cold_payload_json: str) -> tuple:
    """Whether a warm re-run's payload equals the cold fill's bit for
    bit (JSON floats print with every digit)."""
    return _row(
        "warm payload equals the cold fill bit for bit",
        payload_json == cold_payload_json,
    )


# ---------------------------------------------------------------------
# fleet_scoring


def fleet_scoring(summary: dict) -> list:
    """*summary*: per-chip ``stream``/``shifted``/``time_alarm`` and
    ``delivered``/``ingested``/``queue_dropped`` counts and delivery
    ``schedule`` digest, plus ``journal_alarms`` and ``alarm_counter``.
    """
    chips = summary["chips"]
    rows = []
    lost = [
        cid for cid, c in chips.items()
        if c["ingested"] != c["delivered"] or c["queue_dropped"]
    ]
    rows.append(_row(
        "windows ingested equal windows delivered, no queue drops",
        not lost, f"{len(lost)} chip(s) lost windows: {lost[:4]}",
    ))
    golden_alarms = [
        cid for cid, c in chips.items()
        if not c["shifted"] and c["time_alarm"]
    ]
    rows.append(_row(
        "golden-distribution streams never alarm", not golden_alarms,
        f"alarmed: {golden_alarms[:4]}",
    ))
    quiet_shifted = [
        cid for cid, c in chips.items()
        if c["shifted"] and not c["time_alarm"]
    ]
    rows.append(_row(
        "shifted streams alarm", not quiet_shifted,
        f"quiet: {quiet_shifted[:4]}",
    ))
    streams: dict = {}
    for c in chips.values():
        streams.setdefault(c["stream"], []).append(c)
    split = [
        s for s, reps in streams.items()
        if len({r["time_alarm"] for r in reps}) != 1
    ]
    same_schedule = [
        s for s, reps in streams.items()
        if len({r["schedule"] for r in reps}) != len(reps)
    ]
    rows.append(_row(
        "replicas of one stream reach one verdict", not split,
        f"split streams: {split[:4]}",
    ))
    rows.append(_row(
        "replica link-fault schedules differ", not same_schedule,
        f"streams with repeated schedules: {same_schedule[:4]}",
    ))
    rows.append(_row(
        "journal alarm lines equal the fleet.alarms counter",
        summary["journal_alarms"] == summary["alarm_counter"],
        f"journal {summary['journal_alarms']}, "
        f"counter {summary['alarm_counter']}",
    ))
    return rows
