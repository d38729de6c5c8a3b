"""Unit tests for the network fabric.

Each NIC port is a clock (``tx_free`` / ``rx_free``), not a queue.  The
port-queue model it replaced, one ``Resource(capacity=1)`` per port, is
kept here as :class:`_PortQueueFabric`, and the property below runs random
message schedules through both: every message must be delivered at the
same tick.  The models differ only where the test says so: two messages
reaching one RX port in the same µs are received in send order, and a
cancelled sender keeps the port time it reserved.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.units import Gbps
from repro.net import NetParams, NetworkFabric
from repro.sim import Environment, Interrupt, Resource, s_to_us


def _fabric(env, **kw):
    fabric = NetworkFabric(env, NetParams(**kw))
    fabric.add_node("a")
    fabric.add_node("b")
    fabric.add_node("c")
    return fabric


def test_transfer_time_includes_wire_and_latency():
    env = Environment()
    p = dict(bandwidth=Gbps(25), latency=10e-6, per_message_overhead=2e-6)
    fabric = _fabric(env, **p)
    nbytes = 1_000_000

    env.run(env.process(fabric.transfer("a", "b", nbytes)))
    wire = nbytes / p["bandwidth"]
    expected = p["per_message_overhead"] + wire + p["latency"] + wire
    assert env.now == pytest.approx(expected)


def test_accounting_per_nic_and_total():
    """A message reserves its sender's TX port and its receiver's RX port,
    no other port, and counts once in the totals."""
    env = Environment()
    fabric = _fabric(env)
    env.run(env.process(fabric.transfer("a", "b", 5000)))
    p = fabric.params
    wire_us = round(5000 * 1e6 / p.bandwidth)
    a, b, c = (fabric.nics[n] for n in "abc")
    assert a.tx_free == s_to_us(p.per_message_overhead) + wire_us
    assert b.rx_free == a.tx_free + s_to_us(p.latency) + wire_us == env.now_us
    assert (a.rx_free, b.tx_free, c.tx_free, c.rx_free) == (0, 0, 0, 0)
    assert fabric.total_bytes == 5000
    assert fabric.total_msgs == 1


def test_local_transfer_is_free():
    env = Environment()
    fabric = _fabric(env)
    env.run(env.process(fabric.transfer("a", "a", 10_000_000)))
    assert env.now == 0.0
    assert fabric.total_bytes == 0


def test_tx_serialization_on_one_nic():
    env = Environment()
    fabric = _fabric(env, bandwidth=1e6, latency=0.0, per_message_overhead=0.0)
    done = []

    def send(dst):
        yield from fabric.transfer("a", dst, 1_000_000)  # 1 s wire time
        done.append(env.now)

    env.process(send("b"))
    env.process(send("c"))
    env.run()
    # second transfer waits for the first to leave a's TX port
    assert done == [pytest.approx(2.0), pytest.approx(3.0)]


def test_parallel_senders_different_nics_overlap():
    env = Environment()
    fabric = _fabric(env, bandwidth=1e6, latency=0.0, per_message_overhead=0.0)
    done = []

    def send(src, dst):
        yield from fabric.transfer(src, dst, 1_000_000)
        done.append(env.now)

    env.process(send("a", "c"))
    env.process(send("b", "c"))
    env.run()
    # c's RX serializes the second delivery, but TX sides overlap
    assert max(done) == pytest.approx(3.0)


def test_rpc_roundtrip():
    env = Environment()
    fabric = _fabric(env, bandwidth=1e9, latency=1e-3, per_message_overhead=0.0)
    env.run(env.process(fabric.rpc("a", "b", 100, 100)))
    assert env.now >= 2e-3  # two one-way latencies


def test_unknown_node_rejected():
    env = Environment()
    fabric = _fabric(env)
    with pytest.raises(KeyError):
        env.run(env.process(fabric.transfer("a", "nope", 10)))


def test_duplicate_node_rejected():
    env = Environment()
    fabric = _fabric(env)
    with pytest.raises(ValueError):
        fabric.add_node("a")


def test_negative_bytes_rejected():
    env = Environment()
    fabric = _fabric(env)
    with pytest.raises(ValueError):
        env.run(env.process(fabric.transfer("a", "b", -1)))


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        NetParams(bandwidth=0).validate()
    with pytest.raises(ValueError):
        NetParams(latency=-1).validate()


class _PortQueueFabric(NetworkFabric):
    """The port-queue reference: each NIC port a ``Resource(capacity=1)``.

    ``transfer`` is the clock model's predecessor verbatim, with the ports
    held in ``_ports`` (``NIC`` keeps none) and each RX arrival logged."""

    def __init__(self, env, params=None, fault_seed=0x5EED):
        super().__init__(env, params, fault_seed)
        self._ports = {}
        self.arrivals = []  # (dst, tick) of every RX arrival

    def add_node(self, name):
        nic = super().add_node(name)
        self._ports[name] = (Resource(self.env, capacity=1), Resource(self.env, capacity=1))
        return nic

    def transfer(self, src, dst, nbytes):
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst:
            return
        self._nic(src)  # an unknown node raises KeyError
        self._nic(dst)

        if self._groups:
            while not self.reachable(src, dst):
                waiter = self.env.event()
                self._heal_waiters.append(waiter)
                yield waiter

        if self._faults:
            src_fault = self._faults.get(src)
            dst_fault = self._faults.get(dst)
            bw_factor = min(
                src_fault.bw_factor if src_fault else 1.0,
                dst_fault.bw_factor if dst_fault else 1.0,
            )
            extra_latency = (src_fault.extra_latency if src_fault else 0.0) + (
                dst_fault.extra_latency if dst_fault else 0.0
            )
            loss = 1.0 - (1.0 - (src_fault.loss_prob if src_fault else 0.0)) * (
                1.0 - (dst_fault.loss_prob if dst_fault else 0.0)
            )
            wire_us = round(nbytes * self._us_per_byte / bw_factor)
            extra_us = s_to_us(extra_latency)
            while loss > 0 and self._loss_rng.random() < loss:
                self.dropped_msgs += 1
                yield self.env.timeout_us(self.RETRANSMIT_TIMEOUT_US)
        else:
            extra_us = 0
            wire_us = round(nbytes * self._us_per_byte)

        env = self.env
        with self._ports[src][0].request() as tx:
            yield tx
            yield env.timeout_us(self._overhead_us + wire_us)
        yield env.timeout_us(self._latency_us + extra_us)
        self.arrivals.append((dst, env.now_us))
        with self._ports[dst][1].request() as rx:
            yield rx
            yield env.timeout_us(wire_us)
        self.total_bytes += nbytes
        self.total_msgs += 1


def _deliveries(fabric_cls, nodes, messages, fault=None):
    """Send each ``(tick, src, dst, nbytes)`` at its tick; return the fabric
    and every message's delivery tick."""
    env = Environment()
    fabric = fabric_cls(env)
    for node in nodes:
        fabric.add_node(node)
    if fault is not None:
        fabric.degrade(*fault)
    delivered = [None] * len(messages)

    def send(i, tick, src, dst, nbytes):
        yield env.timeout_us(tick)
        yield from fabric.transfer(src, dst, nbytes)
        delivered[i] = env.now_us

    for i, msg in enumerate(messages):
        env.process(send(i, *msg))
    env.run()
    return fabric, delivered


_NODES = ("n0", "n1", "n2", "n3")


@st.composite
def _schedules(draw):
    nodes = _NODES[: draw(st.integers(3, 4))]
    messages = []
    for _ in range(draw(st.integers(1, 14))):
        src, dst = draw(st.permutations(nodes))[:2]
        nbytes = draw(st.sampled_from([0, 1, 3125, 8392, 12488, 65536, 200_000]))
        messages.append((draw(st.integers(0, 40)), src, dst, nbytes))
    fault = draw(
        st.none()
        | st.tuples(
            st.sampled_from(nodes),
            st.sampled_from([0.25, 0.5, 1.0]),
            st.sampled_from([0.0, 3e-6, 2e-5]),
            st.sampled_from([0.0, 0.4]),
        )
    )
    return nodes, messages, fault


@settings(max_examples=300, deadline=None)
@given(_schedules())
def test_port_clock_delivers_like_the_port_queues(schedule):
    """Absent same-µs arrivals at one RX port, the clock model and the
    port-queue reference deliver every message at the same tick, with the
    same accounting (faults, zero-byte messages and lost-message
    retransmits included)."""
    nodes, messages, fault = schedule
    ref, want = _deliveries(_PortQueueFabric, nodes, messages, fault)
    assume(len(set(ref.arrivals)) == len(ref.arrivals))
    got_fabric, got = _deliveries(NetworkFabric, nodes, messages, fault)
    assert got == want
    assert got_fabric.dropped_msgs == ref.dropped_msgs
    assert (got_fabric.total_bytes, got_fabric.total_msgs) == (ref.total_bytes, ref.total_msgs)


def test_same_us_rx_arrivals_are_received_in_send_order():
    """osd4 sends 8,392 B first but queues behind its own earlier message;
    osd12 sends 12,488 B two µs later; both reach osd5's RX port at 18 µs
    (25 Gb/s, 2 µs overhead, 10 µs latency).  The clock receives osd4's
    first, in send order; the port queues let osd12's in first because its
    TX grant fired first."""
    nodes = ("osd4", "osd5", "osd9", "osd12")
    messages = [
        (0, "osd4", "osd9", 3125),  # holds osd4's TX for 3 µs
        (0, "osd4", "osd5", 8392),  # TX 3..8 µs, arrives at 18 µs
        (2, "osd12", "osd5", 12488),  # TX 2..8 µs, arrives at 18 µs
    ]
    ref, want = _deliveries(_PortQueueFabric, nodes, messages)
    assert ref.arrivals.count(("osd5", 18)) == 2
    _, got = _deliveries(NetworkFabric, nodes, messages)
    assert got[1:] == [18 + 3, 18 + 3 + 4]
    assert want[1:] == [18 + 4 + 3, 18 + 4]


def test_cancelled_sender_keeps_its_reserved_wire_time():
    """Bytes committed to the wire stay committed: a leg that
    ``cancel_chain`` interrupts while its message waits on a busy TX port
    keeps the port time it reserved, so the next message on that port
    starts after it."""
    env = Environment()
    fabric = _fabric(env, bandwidth=1e6, latency=0.0, per_message_overhead=0.0)
    outcome = {}

    def send(tag, tick, dst):
        yield env.timeout_us(tick)
        yield from fabric.transfer("a", dst, 100)  # 100 µs on each port
        outcome[tag] = env.now_us

    def leg():
        yield env.timeout_us(10)
        try:
            yield env.process(fabric.transfer("a", "c", 100))
        except Interrupt as exc:
            outcome["leg"] = (env.now_us, exc.cause)

    env.process(send("first", 0, "b"))  # a's TX 0..100
    reader = env.process(leg())  # at 10 µs, queued: a's TX 100..200
    env.process(send("next", 60, "b"))

    def cancel():
        yield env.timeout_us(50)
        reader.cancel_chain("deadline abandoned")

    env.process(cancel())
    env.run()
    assert outcome["leg"] == (50, "deadline abandoned")
    assert outcome["first"] == 200
    # the next message leaves a's TX at 300 (not 200), then b's RX to 400
    assert outcome["next"] == 400
    # the cancelled leg is never delivered: only "first" and "next" count
    assert (fabric.total_msgs, fabric.total_bytes) == (2, 200)
