"""Result serialization: waypoint tables, occupancy, convergence, and logs.

Two formats are supported: CSV and JSON-lines. Columns are stable and files
are written deterministically (no timestamps, ordered rows) so repeated runs
with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable, Iterator, Sequence

from .adsb import OccupancyReport, PositionReport
from .sim import SimMetrics


def write_table(path: str, header: list[str], rows: Iterable[Sequence], fmt: str) -> None:
    """Write one table, streaming its rows to the file.

    CSV values are written as csv.writer writes them after formatting each
    float with six decimals. A row is joined with commas directly unless its
    text holds a quote, CR or LF, or a comma inside a value; only such a row
    needs quoting, so it goes through csv.writer.
    """
    if fmt == "csv":
        with open(path + ".csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            write, eol = fh.write, writer.dialect.lineterminator
            for row in rows:
                fields = [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
                line = ",".join(fields)
                # csv quotes a lone empty value, the one row that joins to "" besides [].
                if (
                    not line or line.count(",") != len(fields) - 1
                    or '"' in line or "\r" in line or "\n" in line
                ):
                    writer.writerow(fields)
                else:
                    write(line + eol)
    elif fmt == "jsonl":
        with open(path + ".jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'jsonl')")


def waypoint_rows(metrics: SimMetrics) -> list[list]:
    """Per-UAV waypoint table; the shared face point between consecutive cells
    appears once, and re-planned cells replace their earlier entry."""
    by_uav: dict[str, list] = {}
    for ex in metrics.executed:
        paths = by_uav.setdefault(ex.uav_id, [])
        if paths and paths[-1].cell == ex.cell:
            paths[-1] = ex  # re-plan/repair of the same cell supersedes
        else:
            paths.append(ex)
    rows = []
    for uav_id in sorted(by_uav):
        seq = 0
        prev_last = None
        for ex in by_uav[uav_id]:
            points = ex.waypoints.tolist()
            for i, (x, y, z) in enumerate(points):
                if i == 0 and points[0] == prev_last:
                    continue
                rows.append([uav_id, seq, x, y, z, ex.cell])
                seq += 1
            prev_last = points[-1]
    return rows


def adsb_rows(bus_log) -> Iterator[tuple]:
    """One row per bus message, in log order, made as the writer asks for it."""
    for msg in bus_log:
        p = msg.payload
        if type(p) is PositionReport:
            yield msg.tick, msg.sender, "position", "uav=%s;x=%.6f;y=%.6f;z=%.6f" % p  # (uav_id, x, y, z)
        elif type(p) is OccupancyReport:
            yield msg.tick, msg.sender, "occupancy", "counts=" + "|".join(map(str, p.counts))
        else:  # SuddenObstacleAlert, the last of the three Payload types
            ob = p.obstacle
            detail = (
                f"cell={p.sub_airspace};anchor={ob.anchor.x:.3f},{ob.anchor.y:.3f},"
                f"{ob.anchor.z:.3f};lengths={ob.len_x:.3f},{ob.len_y:.3f},{ob.len_z:.3f}"
            )
            yield msg.tick, msg.sender, "sudden_obstacle", detail


def emit_results(metrics: SimMetrics, out_dir: str, fmt: str = "csv", bus_log=None) -> None:
    """Write all result tables into out_dir."""
    os.makedirs(out_dir, exist_ok=True)

    write_table(
        os.path.join(out_dir, "waypoints"),
        ["uav_id", "seq", "x", "y", "z", "cell_id"],
        waypoint_rows(metrics),
        fmt,
    )

    write_table(
        os.path.join(out_dir, "occupancy"),
        ["cell_id", "max_uavs"],
        [[i + 1, int(c)] for i, c in enumerate(metrics.max_occupancy)],
        fmt,
    )

    conv_rows = []
    for run_id, history in metrics.convergence:
        for it, cost in enumerate(history):
            conv_rows.append([run_id, it, float(cost)])
    write_table(
        os.path.join(out_dir, "convergence"), ["run_id", "iteration", "cost"], conv_rows, fmt
    )

    length_rows = [
        [uav_id, float(length), uav_id in metrics.arrived]
        for uav_id, length in sorted(metrics.per_uav_length.items())
    ]
    write_table(
        os.path.join(out_dir, "lengths"), ["uav_id", "length_m", "arrived"], length_rows, fmt
    )

    if bus_log is not None:
        write_table(
            os.path.join(out_dir, "adsb_log"),
            ["tick", "sender", "payload_kind", "detail"],
            adsb_rows(bus_log),
            fmt,
        )

    write_table(
        os.path.join(out_dir, "events"),
        ["tick", "kind", "who", "detail"],
        [
            [
                e["tick"],
                e["kind"],
                e["who"],
                ";".join(f"{k}={v}" for k, v in sorted(e.items()) if k not in ("tick", "kind", "who")),
            ]
            for e in metrics.events
        ],
        fmt,
    )


def emit_comparison(rows: list[dict], out_dir: str, fmt: str = "csv") -> None:
    """Per-(seed, mode) summary table for paired-mode experiments."""
    os.makedirs(out_dir, exist_ok=True)
    header = ["seed", "mode", "total_length_m", "max_occupancy", "arrived", "failed"]
    write_table(
        os.path.join(out_dir, "comparison"),
        header,
        [[r[k] for k in header] for r in rows],
        fmt,
    )
