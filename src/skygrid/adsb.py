"""Simulated ADS-B broadcast plane.

UAVs publish position reports each tick; the ground station aggregates them
into a per-cell occupancy table and broadcasts sudden-obstacle alerts. The
bus delivers every message to every subscriber (lossless by default, with an
optional Bernoulli loss knob), establishing a single total order per tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Point3
from .grid import AirspaceGrid


@dataclass(frozen=True)
class PositionReport:
    uav_id: str
    position: Point3


@dataclass(frozen=True)
class OccupancyReport:
    counts: tuple[int, ...]  # index 0 = cell 1


@dataclass(frozen=True)
class SuddenObstacleAlert:
    obstacle: CuboidObstacle
    sub_airspace: int


Payload = Union[PositionReport, OccupancyReport, SuddenObstacleAlert]


@dataclass(frozen=True)
class AdsbMessage:
    sender: str
    tick: int
    payload: Payload


@dataclass
class AdsbBus:
    """Fan-out message bus with per-sender FIFO order.

    loss_rate > 0 drops each (message, subscriber) delivery independently,
    using the given seeded RNG for reproducibility.
    """

    loss_rate: float = 0.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    subscribers: list[Callable[[AdsbMessage], None]] = field(default_factory=list)
    log: list[AdsbMessage] = field(default_factory=list)

    def subscribe(self, callback: Callable[[AdsbMessage], None]) -> None:
        self.subscribers.append(callback)

    def publish(self, msg: AdsbMessage) -> None:
        self.log.append(msg)
        for sub in self.subscribers:
            if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
                continue
            sub(msg)


def aggregate_occupancy(
    reports: dict[str, PositionReport], grid: AirspaceGrid
) -> np.ndarray:
    """Per-cell UAV counts from the latest position report of each UAV.

    Returns an int array of length grid.n_cells (index 0 = cell 1).
    """
    counts = [0] * grid.n_cells
    for report in reports.values():
        counts[grid.locate(report.position) - 1] += 1
    return np.array(counts, dtype=int)


def broadcast_sudden_obstacle(
    bus: AdsbBus, ob: CuboidObstacle, grid: AirspaceGrid, tick: int
) -> AdsbMessage:
    """Publish the ground station's alert of a sudden obstacle, tagged with the
    cell holding its center."""
    if ob.kind is not ObstacleKind.SUDDEN:
        raise ValueError("only sudden obstacles are broadcast as alerts")
    alert = SuddenObstacleAlert(obstacle=ob, sub_airspace=grid.locate(ob.center))
    msg = AdsbMessage(sender="ground-station", tick=tick, payload=alert)
    bus.publish(msg)
    return msg
