"""Result serialization: waypoint tables, occupancy, convergence, and logs.

Two formats are supported: CSV and JSON-lines. Columns are stable and files
are written deterministically (no timestamps, ordered rows) so repeated runs
with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Callable, Iterable, Iterator, Sequence

from .adsb import OccupancyReport, PositionReport
from .sim import SimMetrics


def write_table(path: str, header: list[str], rows: Iterable[Sequence], fmt: str) -> None:
    """Write one table, streaming its rows to the file."""
    if fmt == "csv":
        with open(path + ".csv", "w", newline="", encoding="utf-8") as fh:
            write_row = _csv_row_writer(fh)
            write_row(header)
            for row in rows:
                write_row(row)
    elif fmt == "jsonl":
        with open(path + ".jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'jsonl')")


def _csv_row_writer(fh) -> Callable[[Sequence], None]:
    """A function that writes one row to the CSV file fh as csv.writer writes
    it after formatting each float with six decimals.

    A row is joined with commas directly unless its text holds a quote, CR or
    LF, or a comma inside a value; only such a row needs quoting, so it goes
    through csv.writer.
    """
    writer = csv.writer(fh)
    write, eol = fh.write, writer.dialect.lineterminator

    def write_row(row: Sequence) -> None:
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

    return write_row


WAYPOINTS_HEADER = ["uav_id", "seq", "x", "y", "z", "cell_id"]


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


ADSB_HEADER = ["tick", "sender", "payload_kind", "detail"]
POSITION_DETAIL = "uav=%s;x=%.6f;y=%.6f;z=%.6f"  # % a PositionReport's (uav_id, x, y, z)
ADSB_CHUNK_LINES = 4096


def adsb_rows(bus_log) -> Iterator[tuple]:
    """One row per bus message, in log order, made as the writer asks for it."""
    return map(_adsb_row, bus_log)


def _adsb_row(msg) -> tuple:
    p = msg.payload
    if type(p) is PositionReport:
        return msg.tick, msg.sender, "position", POSITION_DETAIL % p
    if type(p) is OccupancyReport:
        return msg.tick, msg.sender, "occupancy", "counts=" + "|".join(map(str, p.counts))
    # SuddenObstacleAlert, the last of the three Payload types
    ob = p.obstacle
    detail = (
        f"cell={p.sub_airspace};anchor={ob.anchor.x:.3f},{ob.anchor.y:.3f},"
        f"{ob.anchor.z:.3f};lengths={ob.len_x:.3f},{ob.len_y:.3f},{ob.len_z:.3f}"
    )
    return msg.tick, msg.sender, "sudden_obstacle", detail


class _Unquoted(dict):
    """value -> whether csv.writer writes it as is: a str with no comma,
    quote, CR or LF. Each distinct value is tested once."""

    def __missing__(self, value) -> bool:
        plain = self[value] = type(value) is str and not any(c in value for c in ',"\r\n')
        return plain


def _write_adsb_csv(path: str, bus_log) -> None:
    """`write_table(path, ADSB_HEADER, adsb_rows(bus_log), "csv")`, with a
    position row formatted in one step when no value of it needs quoting (an
    int tick, and a sender and UAV id that `_Unquoted` passes). Those lines
    are written in chunks of at most ADSB_CHUNK_LINES; every other row goes
    through the table's row writer."""
    with open(path + ".csv", "w", newline="", encoding="utf-8") as fh:
        write_row = _csv_row_writer(fh)
        write_row(ADSB_HEADER)
        line = "%d,%s,position," + POSITION_DETAIL + csv.excel.lineterminator
        unquoted = _Unquoted()
        chunk: list[str] = []
        for msg in bus_log:
            sender, tick, p = msg
            if (
                type(p) is PositionReport and type(tick) is int
                and unquoted[sender] and unquoted[p.uav_id]
            ):
                chunk.append(line % (tick, sender, *p))
                if len(chunk) >= ADSB_CHUNK_LINES:
                    fh.write("".join(chunk))
                    chunk.clear()
            else:
                fh.write("".join(chunk))
                chunk.clear()
                write_row(_adsb_row(msg))
        fh.write("".join(chunk))


def _write_waypoints_csv(path: str, rows: Iterable[Sequence]) -> None:
    """`write_table(path, WAYPOINTS_HEADER, rows, "csv")`, with a row
    formatted in one step when no value of it needs quoting and each value
    has the type the step formats as `_csv_row_writer` would: a UAV id that
    `_Unquoted` passes, an int seq and cell id, and float coordinates. Every
    other row goes through the table's row writer."""
    with open(path + ".csv", "w", newline="", encoding="utf-8") as fh:
        write_row = _csv_row_writer(fh)
        write_row(WAYPOINTS_HEADER)
        line = "%s,%d,%.6f,%.6f,%.6f,%d" + csv.excel.lineterminator
        unquoted = _Unquoted()
        lines: list[str] = []
        for row in rows:
            uav_id, seq, x, y, z, cell = row
            if (
                unquoted[uav_id] and type(seq) is type(cell) is int
                and type(x) is type(y) is type(z) is float
            ):
                lines.append(line % (uav_id, seq, x, y, z, cell))
            else:
                fh.write("".join(lines))
                lines.clear()
                write_row(row)
        fh.write("".join(lines))


def emit_results(metrics: SimMetrics, out_dir: str, fmt: str = "csv", bus_log=None) -> None:
    """Write all result tables into out_dir."""
    os.makedirs(out_dir, exist_ok=True)

    path = os.path.join(out_dir, "waypoints")
    if fmt == "csv":
        _write_waypoints_csv(path, waypoint_rows(metrics))
    else:
        write_table(path, WAYPOINTS_HEADER, waypoint_rows(metrics), fmt)

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
        path = os.path.join(out_dir, "adsb_log")
        if fmt == "csv":
            _write_adsb_csv(path, bus_log)
        else:
            write_table(path, ADSB_HEADER, adsb_rows(bus_log), fmt)

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
