"""Simulated ADS-B broadcast plane.

UAVs publish position reports each tick; the ground station (the simulation's
World) counts them per cell as they arrive, then broadcasts that occupancy
and any sudden-obstacle alerts. The bus delivers every message to every
subscriber (lossless by default, with an optional Bernoulli loss knob),
establishing a single total order per tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .geometry import CuboidObstacle

# Messages are light immutable records: every airborne UAV sends a position
# report on every tick, so the report is the sim's most frequent object.


class PositionReport(NamedTuple):
    """A UAV's position as finite airspace-local coordinates; it has the
    .x/.y/.z that AirspaceGrid.locate reads."""

    uav_id: str
    x: float
    y: float
    z: float


class OccupancyReport(NamedTuple):
    counts: tuple[int, ...]  # index 0 = cell 1


class SuddenObstacleAlert(NamedTuple):
    obstacle: CuboidObstacle
    sub_airspace: int


Payload = Union[PositionReport, OccupancyReport, SuddenObstacleAlert]


class AdsbMessage(NamedTuple):
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

    def publish(self, *messages: AdsbMessage) -> None:
        """For each message in order: log it, then offer it to each subscriber
        in turn. With loss_rate > 0 every (message, subscriber) delivery takes
        one draw, so one call with N messages is N calls with one."""
        for msg in messages:
            self.log.append(msg)
            for sub in self.subscribers:
                if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
                    continue
                sub(msg)
