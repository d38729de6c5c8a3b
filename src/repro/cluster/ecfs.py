"""ECFS facade: builds and wires a whole cluster on one DES environment."""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.cluster.client import Client
from repro.cluster.config import ClusterConfig
from repro.cluster.ids import BlockId
from repro.cluster.mds import MDS
from repro.cluster.osd import OSD
from repro.cluster.verify import GroundTruth
from repro.common.errors import ConfigError
from repro.common.randbytes import uniform_bytes
from repro.common.refcount import RefCounter
from repro.common.zeromem import zero_template
from repro.ec.rs import RSCode
from repro.metrics.collector import MetricsCollector
from repro.net.fabric import NetParams, NetworkFabric
from repro.placement import MigrationPlan, PlacementMap, Topology, make_policy
from repro.sim import PHASE_LATE, Environment, Event
from repro.storage.blockstore import Base, BlockStore, SharedRows
from repro.storage.hdd import HDDevice, HDDParams
from repro.storage.ssd import SSDevice, SSDParams

__all__ = ["ECFS"]


class ECFS:
    """One simulated deployment: environment + fabric + MDS + OSDs + clients.

    Typical use::

        ecfs = ECFS(ClusterConfig(k=6, m=4), method="tsue")
        ecfs.populate(n_files=4, stripes_per_file=8)
        ecfs.add_clients(16)
        ... replay a trace (repro.traces.replayer) ...
        ecfs.drain()          # flush logs
        ecfs.verify()         # every stripe decodes and matches the oracle
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        method: str = "tsue",
        env: Environment | None = None,
        net_params: NetParams | None = None,
        ssd_params: SSDParams | None = None,
        hdd_params: HDDParams | None = None,
        method_options: Optional[dict] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.config.validate()
        self.env = env or Environment()
        self.net = NetworkFabric(self.env, net_params)
        self.rs = RSCode(self.config.k, self.config.m)
        self.topology = Topology.flat(self.config.n_osds)
        self.placement = PlacementMap(self._build_policy())
        self.mds = MDS(self.placement, self.config.block_size)
        self.oracle = GroundTruth(self.config.block_size)
        self.metrics = MetricsCollector(self.env)
        # unified background-work scheduler: every maintenance stream
        # (recycle/scrub/repair/rebalance) submits typed work items here.
        # A no-op unless config.background.enabled — imported lazily to
        # keep the package dependency graph acyclic.
        from repro.background.scheduler import BackgroundScheduler

        self.background = BackgroundScheduler(self)
        self._ssd_params = ssd_params
        self._hdd_params = hdd_params

        self.osds: list[OSD] = []
        #: OSDs whose death the method was told of; ``crash_osd`` /
        #: ``stop_osd`` / ``restart_osd`` are the only writers of OSD.failed
        self.crashed: set[int] = set()
        for i in range(self.config.n_osds):
            device = self._make_device(i, ssd_params, hdd_params)
            osd = OSD(self.env, i, device, self.config.block_size)
            self.osds.append(osd)
            self.net.add_node(osd.name)

        # update method: import here to avoid a package cycle
        from repro.update import make_method

        self.method = make_method(method, self, **(method_options or {}))
        for osd in self.osds:
            osd.method = self.method
            self.method.attach(osd)

        # always None: perfbench/driver.py (frozen by BENCHMARK.json) reads both
        self.schedules = None
        self.bulk = None

        self.clients: list[Client] = []
        self._rng = np.random.default_rng(self.config.seed)
        self.known_blocks: set[BlockId] = set()
        #: observers of elastic growth, called with the new OSD after
        #: :meth:`join_osd` wires it up (the heartbeat service registers a
        #: sender here so a joined node is monitored, not declared dead)
        self.on_osd_joined: list = []
        # event-based settlement waiters: per-stripe lists woken when a hold
        # on that stripe releases, plus cluster-wide waiters woken on any
        # settlement progress (unit recycled, node failed/restarted...).
        # Waiters re-check their condition on wake, so spurious wakeups are
        # safe; what matters is that every releasing transition notifies.
        self._stripe_waiters: dict[tuple[int, int], list] = {}
        self._settlement_waiters: list = []
        # in-flight update ops per stripe: reconstruction waits these out so
        # it never captures a half-applied data+parity state
        self._inflight_stripe = RefCounter(on_zero=self.notify_stripe)
        # stripes frozen by reconstruction (capture -> re-home window): new
        # updates and background delta application wait until the thaw, so
        # no delta can race the rebuilt block's placement switch
        self._frozen_stripes = RefCounter(on_zero=self.notify_stripe)
        #: (file_id, stripe) -> the k+m block generations at the stripe's
        #: last clean parity check (see :meth:`stale_parity_rows`)
        self._parity_clean: dict[tuple[int, int], tuple[int, ...]] = {}

    # ------------------------------------------------------- stripe activity
    def freeze_stripe(self, file_id: int, stripe: int) -> None:
        self._frozen_stripes.incr((file_id, stripe))

    def thaw_stripe(self, file_id: int, stripe: int) -> None:
        self._frozen_stripes.decr((file_id, stripe))

    def stripe_frozen(self, file_id: int, stripe: int) -> bool:
        return (file_id, stripe) in self._frozen_stripes

    def inflight_updates(self, file_id: int, stripe: int) -> int:
        """Client updates currently executing against the stripe."""
        return self._inflight_stripe.count((file_id, stripe))

    def wait_stripe_thaw(self, file_id: int, stripe: int):
        """Process fragment: yield until the stripe is not frozen.

        Event-based: the waiter sleeps until the thaw that drops the freeze
        count to zero wakes it (FIFO among waiters) — it is never polled
        awake early and never sleeps past the release.
        """
        while (file_id, stripe) in self._frozen_stripes:
            yield self.stripe_released(file_id, stripe)

    def stripe_released(self, file_id: int, stripe: int):
        """One-shot event fired at the next settlement-relevant release
        touching the stripe (thaw, last in-flight update, busy-mark drop,
        or any cluster-wide settlement progress).  Callers loop: wake,
        re-check their predicate, re-arm if still blocked."""
        waiter = Event(self.env)
        self._stripe_waiters.setdefault((file_id, stripe), []).append(waiter)
        return waiter

    def settlement_event(self):
        """One-shot event fired at the next cluster-wide settlement progress
        (any stripe release, a log unit finishing its recycle, a node
        failing or restarting).  Used by drain/quiesce loops."""
        waiter = Event(self.env)
        self._settlement_waiters.append(waiter)
        return waiter

    def notify_stripe(self, key: tuple[int, int]) -> None:
        """Wake waiters parked on ``key`` (and cluster-wide waiters)."""
        waiters = self._stripe_waiters.pop(key, None)
        if waiters:
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
        if self._settlement_waiters:
            self._notify_settlement_waiters()

    def notify_settlement(self) -> None:
        """Cluster-wide settlement progress: wake every parked waiter (they
        re-check and re-arm).  Cheap when nobody waits — one truthiness
        check per call."""
        if self._settlement_waiters:
            self._notify_settlement_waiters()
        if self._stripe_waiters:
            waiters_by_key, self._stripe_waiters = self._stripe_waiters, {}
            for waiters in waiters_by_key.values():
                for waiter in waiters:
                    if not waiter.triggered:
                        waiter.succeed()

    def _notify_settlement_waiters(self) -> None:
        waiters, self._settlement_waiters = self._settlement_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def note_update_begin(self, block: BlockId) -> None:
        self._inflight_stripe.incr((block.file_id, block.stripe))

    def note_update_end(self, block: BlockId) -> None:
        self._inflight_stripe.decr((block.file_id, block.stripe))

    def settle_stripe(self, file_id, stripe):
        """Process fragment: wait until the stripe can be captured — no
        in-flight update, no applied-but-unsettled delta, not frozen.

        This is THE settle discipline shared by reconstruction and the
        rebalancer: activity that signals its own completion (in-flight
        updates, freezes, mid-application log content) is waited out
        event-based via :meth:`stripe_released`; debt that only settles on
        an explicit flush (PL-style deferred recycling) is forced through
        ``flush`` + ``resync_parity``, with a bounded-poll fallback for the
        stripe an in-flight settlement elsewhere is still draining.  On
        return the caller may freeze the stripe immediately — the DES never
        preempts between the last check and the freeze.
        """
        key = (file_id, stripe)
        while (
            not self.stripe_quiescent(file_id, stripe)
            or self.stripe_frozen(file_id, stripe)
        ):
            if (
                key in self.method.unsettled_stripes()
                and not self.inflight_updates(file_id, stripe)
                and not self.stripe_frozen(file_id, stripe)
            ):
                # deferred-recycle methods settle only on an explicit
                # flush; force one — then repair any parity rows that lost
                # deltas — so the capture isn't stuck behind debt that
                # would otherwise sit until the next flush
                yield self.env.process(
                    self.method.flush(), name=f"settle-f{file_id}.s{stripe}"
                )
                yield self.env.process(
                    self.method.resync_parity(),
                    name=f"resync-f{file_id}.s{stripe}",
                )
                if (
                    key in self.method.unsettled_stripes()
                    and not self.inflight_updates(file_id, stripe)
                    and not self.stripe_frozen(file_id, stripe)
                ):
                    # the forced pass could not settle this stripe (e.g. a
                    # resync skipped it behind still-draining deltas): fall
                    # back to a bounded poll so the in-flight settlement
                    # can advance
                    yield self.env.timeout_us(100)
                continue
            # blocked on activity that signals its own completion: sleep
            # until the releasing transition wakes us
            yield self.stripe_released(file_id, stripe)

    def stripe_quiescent(self, file_id: int, stripe: int) -> bool:
        """True when the stripe has no in-flight update and no
        applied-to-data-but-pending-on-parity delta anywhere — i.e. its
        blocks form a consistent codeword right now."""
        if (file_id, stripe) in self._inflight_stripe:
            return False
        return (file_id, stripe) not in self.method.unsettled_stripes()

    # --------------------------------------------------------- parity check
    def stale_parity_rows(
        self,
        file_id: int,
        stripe: int,
        gens: tuple[int, ...] | None,
        read: Callable[[int], np.ndarray],
        pairs: Sequence[tuple[Base, np.ndarray | None] | None] | None,
    ) -> dict[int, int]:
        """The stripe's parity rows that differ from a fresh RS encode of
        its k data blocks, as row -> differing byte count.

        ``read(i)`` gives the bytes of the stripe's block ``i`` (data
        ``0..k-1``, parity ``k..k+m-1``).  ``gens`` are the generations of
        the k+m blocks those bytes hold.  When they equal the generations
        recorded at the stripe's last clean check, those are the bytes that
        checked clean (equal stamps mean equal bytes), so nothing is encoded
        and ``read`` is never called.  A check that finds every row clean
        records ``gens``; ``gens=None`` neither consults nor records.

        ``pairs`` are the k+m blocks' :meth:`BlockStore.named_base` pairs
        (``None`` when the caller holds only bytes).  While every block
        still stands on its row of one populate codeword, the base rows
        cancel by linearity: parity row ``j`` differs from the encode of
        the data exactly where its delta differs from row ``j`` of the
        encode of the data deltas, in the same byte count, so ``read`` is
        never called and no parity base is made.  Once a ``put`` has
        replaced a base (rebuild, migration, resync), the content is
        encoded.
        """
        key = (file_id, stripe)
        if gens is not None and self._parity_clean.get(key) == gens:
            return {}
        k, m = self.rs.k, self.rs.m
        deltas = self._codeword_deltas(pairs)
        if deltas is None:
            expected = self.rs.encode([read(i) for i in range(k)])
            got = [read(k + j) for j in range(m)]
        else:
            zero = zero_template(self.config.block_size)
            data = [zero if d is None else d for d in deltas[:k]]
            got = [zero if d is None else d for d in deltas[k:]]
            if all(d is None for d in deltas[:k]):  # zero deltas encode to zeros
                expected = [zero] * m
            else:
                expected = self.rs.encode(data)
        stale = {}
        for j, (row, want) in enumerate(zip(got, expected)):
            if not np.array_equal(row, want):
                stale[j] = int(np.count_nonzero(row != want))
        if not stale and gens is not None:
            self._parity_clean[key] = gens
        return stale

    def _codeword_deltas(
        self, pairs: Sequence[tuple[Base, np.ndarray | None] | None] | None
    ) -> list[np.ndarray | None] | None:
        """The k+m deltas of a stripe whose blocks all stand on their rows
        of one populate codeword (``pairs[i]`` on row ``i`` of one
        :class:`SharedRows`, which only :meth:`populate` makes), else
        ``None``."""
        if pairs is None or pairs[0] is None:
            return None
        rows = pairs[0][0].rows
        deltas = []
        for i, pair in enumerate(pairs):
            if pair is None or pair[0] != (rows, i):
                return None
            deltas.append(pair[1])
        return deltas

    def record_clean_stripes(
        self, placed: Iterable[tuple[BlockId, BlockStore]]
    ) -> None:
        """Record whole stripes just written as codewords (a populate) as
        parity-clean: ``placed`` pairs every block of those stripes with
        the store that holds it, whose generation is recorded."""
        width = self.rs.k + self.rs.m
        gens: dict[tuple[int, int], list[int]] = {}
        for bid, store in placed:
            key = (bid.file_id, bid.stripe)
            gens.setdefault(key, [0] * width)[bid.idx] = store.generation(bid)
        for key, stripe_gens in gens.items():
            self._parity_clean[key] = tuple(stripe_gens)

    # --------------------------------------------------------------- build
    def _make_device(self, i: int, ssd_params, hdd_params):
        if self.config.device == "ssd":
            return SSDevice(self.env, f"ssd{i}", ssd_params)
        return HDDevice(self.env, f"hdd{i}", hdd_params)

    def add_clients(self, n: int) -> list[Client]:
        for _ in range(n):
            client = Client(self, len(self.clients))
            self.clients.append(client)
            self.net.add_node(client.name)
        return self.clients

    # -------------------------------------------------------------- faults
    def crash_osd(self, idx: int) -> OSD:
        """Abrupt node loss: the node goes down (if it was not stopped
        already) and the update method is told, once — no quiesce, in-flight
        work is cut off.  The MDS learns of it through heartbeat silence or
        a :class:`~repro.cluster.recovery.RecoveryManager` rebuild."""
        osd = self.osds[idx]
        if idx not in self.crashed:
            osd.failed = True
            self.crashed.add(idx)
            self.method.on_node_failed(osd)
            # a death changes what can settle (its logs dropped/stashed):
            # re-check parked settlement waiters
            self.notify_settlement()
        return osd

    def stop_osd(self, idx: int) -> OSD:
        """A bounce: the node goes down and silent with its contents and
        logs intact, and the method is not told.  :meth:`restart_osd` brings
        it back; :meth:`crash_osd` (a rebuild calls it) tears it down."""
        osd = self.osds[idx]
        osd.failed = True
        return osd

    def restart_osd(self, idx: int) -> OSD:
        """The node comes back (contents intact, no rebuild) and leaves
        :attr:`crashed`; the update method resumes its background work."""
        osd = self.osds[idx]
        if osd.failed:
            osd.failed = False
            self.crashed.discard(idx)
            self.mds.declare_recovered(idx)
            self.mds.heartbeat(idx, self.env.now)
            self.method.on_node_restarted(osd)
            self.notify_settlement()
        return osd

    # ------------------------------------------------------------ placement
    def _build_policy(self):
        """Fresh policy instance from the topology's current state (one per
        epoch; instances are immutable, see :mod:`repro.placement.base`)."""
        return make_policy(
            self.config.placement_policy,
            self.topology,
            self.config.k,
            self.config.m,
        )

    def osd_hosting(self, block: BlockId) -> OSD:
        """The OSD actually serving ``block`` — epoch ideal unless a remap
        (recovery re-home, pending migration) says otherwise."""
        return self.osds[self.placement.home_of(block)]

    def advance_epoch(self) -> MigrationPlan:
        """Re-derive placement from the current topology as a new epoch.

        Data does not move here: blocks off their new ideal home become
        remaps, and the returned plan lists the moves a
        :class:`~repro.placement.rebalancer.Rebalancer` should execute.
        """
        plan = self.placement.advance(self._build_policy(), self.known_blocks)
        # an epoch changes where parity deltas and replicas land: re-check
        # parked settlement waiters against the new mapping
        self.notify_settlement()
        return plan

    def join_osd(
        self,
        weight: float = 1.0,
        host: int | None = None,
        rack: int | None = None,
    ) -> tuple[OSD, MigrationPlan]:
        """Elastically grow the cluster by one OSD (new failure domain by
        default) and advance the placement epoch."""
        idx = len(self.osds)
        device = self._make_device(idx, self._ssd_params, self._hdd_params)
        osd = OSD(self.env, idx, device, self.config.block_size)
        self.osds.append(osd)
        self.net.add_node(osd.name)
        osd.method = self.method
        self.method.on_node_joined(osd)
        self.mds.heartbeat(idx, self.env.now)
        self.topology.add_osd(idx, weight=weight, host=host, rack=rack)
        plan = self.advance_epoch()
        for callback in list(self.on_osd_joined):
            callback(osd)
        return osd, plan

    def decommission_osd(self, idx: int) -> MigrationPlan:
        """Gracefully remove ``idx`` from placement: the node keeps serving
        its blocks (as remaps) until a rebalance drains them, after which
        :meth:`retire_osd` takes it out of service."""
        self.topology.remove_osd(idx)
        return self.advance_epoch()

    def set_osd_weight(self, idx: int, weight: float) -> MigrationPlan:
        """Reweight one device and advance the epoch (CRUSH policies shift
        a proportional share of blocks; rotation ignores weights)."""
        self.topology.set_weight(idx, weight)
        return self.advance_epoch()

    def retire_osd(self, idx: int) -> bool:
        """Take a drained, decommissioned node out of service.  Refuses (and
        returns False) while any block still actually lives there."""
        if any(self.placement.home_of(b) == idx for b in self.known_blocks):
            return False
        self.crash_osd(idx)
        self.mds.declare_failed(idx)
        return True

    def placement_loads(self) -> dict[int, int]:
        """Blocks actually homed per OSD (actual homes, remaps included)."""
        loads = {osd.idx: 0 for osd in self.osds}
        for block in self.known_blocks:
            loads[self.placement.home_of(block)] += 1
        return loads

    def tail_imbalance(self) -> float:
        """Max weight-normalized load over mean — 1.0 is perfectly balanced
        (the collector's time-to-balanced metric tracks this back to ~1).

        Nodes that left the topology but still home blocks (a decommission
        mid-drain) count at unit weight, so the pre-drain imbalance shows
        the load that is about to move; drained/retired nodes drop out.
        """
        weights = self.topology.weights()
        normalized = []
        for osd, load in self.placement_loads().items():
            weight = weights.get(osd)
            if weight is None:
                if load == 0:
                    continue  # retired or never-populated: not a target
                weight = 1.0
            normalized.append(load / weight)
        return MetricsCollector.tail_imbalance(normalized)

    # ------------------------------------------------------------- populate
    def populate(
        self, n_files: int, stripes_per_file: int, fill: str = "random"
    ) -> list[int]:
        """Instantly create and place files (no simulated time) so trace
        replay starts from a fully-written state.  ``fill`` is "random"
        (random data, parity encoded when first read; stronger
        verification) or "zeros" (fast)."""
        if fill not in ("random", "zeros"):
            raise ConfigError(f"unknown fill {fill!r}")
        bs = self.config.block_size
        k, m = self.rs.k, self.rs.m
        spf = stripes_per_file
        file_ids = []
        for _ in range(n_files):
            meta = self.mds.create_file(spf * k * bs)
            file_ids.append(meta.file_id)
            if fill == "random":
                # One draw per file — the bytes ``integers(0, 256, (spf, k,
                # bs), dtype=np.uint8)`` would give, read from the
                # generator's raw words.  Stripe s is one SharedRows: data
                # block i stands on the view draw[s, i], and parity row j
                # on row j of draw[s]'s encode, made the first time a
                # reader needs a parity base's bytes — so no byte is
                # copied, and a stripe whose parity only takes deltas is
                # never encoded.  Every base is read-only; a store's or the
                # oracle's write lands in the block's XOR delta.  The name
                # (the generator state the draw started from, its shape,
                # the file, the stripe and the code) is what the content
                # digest hashes for the base.
                state = self._rng.bit_generator.state
                start = (
                    state["state"]["state"],
                    state["state"]["inc"],
                    state["has_uint32"],
                    state["uinteger"],
                )
                draw = uniform_bytes(self._rng, spf * k * bs).reshape(spf, k, bs)
                draw.flags.writeable = False
                name = ("populate", start, draw.shape, meta.file_id, repr(self.rs))
                placed = []
                for s in range(spf):
                    rows = SharedRows(
                        (*name, s), draw[s], partial(self.rs.encode_matrix, draw[s])
                    )
                    for i in range(k + m):
                        bid = BlockId(meta.file_id, s, i)
                        base = Base(rows, i)
                        store = self.osd_hosting(bid).store
                        store.create_shared(bid, base)
                        placed.append((bid, store))
                        self.known_blocks.add(bid)
                        if i < k:
                            self.oracle.adopt(bid, base)
            else:
                # zero fill: copy-on-write — no per-block allocation in
                # the store or the oracle until something writes
                bids = [
                    BlockId(meta.file_id, s, i)
                    for s in range(spf)
                    for i in range(k + m)
                ]
                by_osd: dict = {}
                for bid in bids:
                    by_osd.setdefault(self.osd_hosting(bid), []).append(bid)
                for osd, osd_bids in by_osd.items():
                    osd.store.create_zero_many(osd_bids)
                self.known_blocks.update(bids)
                self.oracle.touch_many(b for b in bids if b.idx < k)
                placed = [
                    (bid, osd.store)
                    for osd, osd_bids in by_osd.items()
                    for bid in osd_bids
                ]
            # either fill writes each stripe as a codeword
            self.record_clean_stripes(placed)
        return file_ids

    # ----------------------------------------------------------- execution
    def drain(self) -> None:
        """Flush every outstanding log and repair parity rows that lost
        deltas to down nodes (runs simulated time)."""
        proc = self.env.process(self._settle(), name="drain")
        self.env.run(proc)

    def _settle(self):
        from repro.common.errors import IntegrityError

        def flush_tolerant():
            # a node crashing mid-drain must degrade, not abort the run:
            # the method's failure hooks (stash/marks) and the ensuing
            # recovery pick up what the interrupted flush left behind
            try:
                yield from self.method.flush()
            except IntegrityError:
                pass

        yield from flush_tolerant()
        # repair resync-marked stripes: flushes interleave (the resync
        # skips stripes with deltas still draining) and time advances so a
        # resync already in flight elsewhere can finish.  Stripes that
        # cannot settle (a data host is down pending rebuild) stay marked.
        for _ in range(50):
            if not self.method.resync_pending():
                break
            yield from self.method.resync_parity()
            yield from flush_tolerant()
            # settle retries ride the LATE lane: a re-check at tick T runs
            # after all normal work scheduled for T
            yield self.env.timeout_us(1000, phase=PHASE_LATE)

    def verify(self) -> int:
        """Check every touched stripe against the oracle; returns count."""
        return self.oracle.verify_cluster(self, self.rs)

    # ------------------------------------------------------------- metrics
    def total_log_debt(self) -> int:
        return sum(self.method.log_debt_bytes(osd) for osd in self.osds)

    def method_memory(self) -> int:
        return sum(self.method.memory_bytes(osd) for osd in self.osds)
