import numpy as np

from skygrid.adsb import AdsbBus, AdsbMessage, OccupancyReport, PositionReport


def msg(tick=0, sender="uav0", payload=None):
    payload = payload or PositionReport(uav_id="uav0", x=1.0, y=2.0, z=3.0)
    return AdsbMessage(sender=sender, tick=tick, payload=payload)


# -- bus delivery ------------------------------------------------------------


def test_lossless_bus_delivers_to_all_subscribers():
    bus = AdsbBus()
    got_a, got_b = [], []
    bus.subscribe(got_a.append)
    bus.subscribe(got_b.append)
    messages = [msg(tick=t) for t in range(5)]
    for m in messages:
        bus.publish(m)
    assert got_a == messages
    assert got_b == messages
    assert bus.log == messages


def test_lossy_bus_drops_deliveries_but_logs_everything():
    bus = AdsbBus(loss_rate=0.5, rng=np.random.default_rng(42))
    got = []
    bus.subscribe(got.append)
    n = 2000
    for t in range(n):
        bus.publish(msg(tick=t))
    assert len(bus.log) == n
    # Bernoulli(0.5) deliveries: expect about half, within 5 sigma.
    assert abs(len(got) - n / 2) < 5 * (n * 0.25) ** 0.5


def test_lossy_bus_is_reproducible_per_seed():
    def run():
        bus = AdsbBus(loss_rate=0.3, rng=np.random.default_rng(7))
        got = []
        bus.subscribe(got.append)
        for t in range(100):
            bus.publish(msg(tick=t))
        return [m.tick for m in got]

    assert run() == run()


def test_occupancy_report_payload_roundtrip():
    report = OccupancyReport(counts=(0, 2, 1))
    m = msg(payload=report, sender="ground-station")
    assert m.payload.counts == (0, 2, 1)


def test_a_batch_is_the_same_as_one_call_per_message():
    """One call with N messages logs, delivers and draws as N calls with one:
    each message is logged, then offered to each subscriber in turn, with one
    loss draw per (message, subscriber) pair."""
    messages = [msg(tick=t, sender=f"uav{t % 3}") for t in range(60)]

    def bus_with_two_subscribers():
        bus = AdsbBus(loss_rate=0.3, rng=np.random.default_rng(11))
        got = []
        bus.subscribe(lambda m: got.append(("a", m, len(bus.log))))
        bus.subscribe(lambda m: got.append(("b", m, len(bus.log))))
        return bus, got

    batched, got_batched = bus_with_two_subscribers()
    batched.publish(*messages)
    single, got_single = bus_with_two_subscribers()
    for m in messages:
        single.publish(m)
    assert got_batched == got_single
    assert 0 < len(got_batched) < 2 * len(messages)  # some deliveries were lost
    assert batched.log == single.log == messages
    assert batched.rng.bit_generator.state == single.rng.bit_generator.state
