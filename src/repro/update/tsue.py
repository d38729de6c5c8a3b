"""TSUE — the Two-Stage Update method (the paper's contribution, §3-§4).

**Front end (synchronous)**: an update is appended to the data OSD's DataLog
(one sequential write + an in-memory two-level-index insert) and mirrored to
a replica OSD's DataLog copy; the client is acked as soon as both copies are
durable.  No read, no in-place write, no parity work in the critical path.

**Back end (asynchronous, real time)**: a three-layer pipeline recycles logs
continuously,

* DataLog recycle — merged extents are read-modify-written into the data
  blocks; the data deltas are forwarded to the stripe's DeltaLog (hosted by
  the first parity OSD, replicated to the second),
* DeltaLog recycle — deltas from *different data blocks of one stripe* at
  overlapping offsets are multiplied by their coding coefficients and merged
  into one parity delta per parity block (Eq. 5), then forwarded to each
  parity OSD's ParityLog,
* ParityLog recycle — merged parity deltas are XORed into the parity blocks
  in place.

Every structural claim of the paper maps to an option in
:class:`TSUEOptions` so the Fig. 7 breakdown (Baseline, O1..O5) is a set of
option presets (:meth:`TSUEOptions.breakdown`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import partial
from typing import Generator, Iterator, Optional

import numpy as np

from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD
from repro.core.intervals import ExtentMap, MergePolicy, RecordList, overlay
from repro.common.errors import IntegrityError
from repro.core.logpool import LogPool
from repro.core.logunit import LogUnit, LogUnitState
from repro.core.recycler import RecyclePlanner, unit_recycle_op
from repro.gf.field import gf_mul_scalar
from repro.placement.base import mix
from repro.sim import s_to_us, spawn_fanout
from repro.storage.base import IOKind, IOPriority
from repro.update.base import UpdateMethod

__all__ = ["TSUEOptions", "TSUE"]

_LAYERS = ("datalog", "deltalog", "paritylog")


@dataclass(frozen=True)
class TSUEOptions:
    """Feature flags + sizing; defaults are the paper's full SSD config."""

    datalog_locality: bool = True  # O1: merge/coalesce in the DataLog
    backend_locality: bool = True  # O2: merge/coalesce in Delta/ParityLog
    use_logpool: bool = True  # O3: FIFO multi-unit pools (else 1 unit)
    pools_per_device: Optional[int] = None  # O4: pools per SSD (None: config)
    use_deltalog: bool = True  # O5: DeltaLog layer (else direct to parity)
    datalog_replicas: int = 1  # extra copies (1 -> 2 total; HDD uses 2)
    max_units: Optional[int] = None  # default: ClusterConfig.log_max_units

    @staticmethod
    def breakdown() -> dict[str, "TSUEOptions"]:
        """The Fig. 7 ladder: Baseline, then +O1 ... +O5 cumulatively."""
        base = TSUEOptions(
            datalog_locality=False,
            backend_locality=False,
            use_logpool=False,
            pools_per_device=1,
            use_deltalog=False,
        )
        o1 = replace(base, datalog_locality=True)
        o2 = replace(o1, backend_locality=True)
        o3 = replace(o2, use_logpool=True)
        o4 = replace(o3, pools_per_device=4)
        o5 = replace(o4, use_deltalog=True)
        return {"Baseline": base, "O1": o1, "O2": o2, "O3": o3, "O4": o4, "O5": o5}

    @staticmethod
    def hdd() -> "TSUEOptions":
        """§5.4: HDD clusters drop the DeltaLog, keep 3 DataLog copies and
        one pool per disk; units are kept small so the real-time-recycle
        backlog stays bounded on seek-dominated devices (§5.3.5 notes the
        unit size is shrunk to cut residence time)."""
        return TSUEOptions(
            use_deltalog=False,
            datalog_replicas=2,
            pools_per_device=1,
            max_units=2,
        )


class TSUE(UpdateMethod):
    name = "tsue"

    def __init__(self, ecfs, options: TSUEOptions | None = None) -> None:
        super().__init__(ecfs)
        self.opts = options or TSUEOptions()
        cfg = ecfs.config
        self.unit_size = cfg.log_unit_size
        #: the largest DataLog append: a record goes in whole (one larger
        #: than a configured unit is a ConfigError), except under the
        #: no-pool cap below, which TSUE itself sets and an Ali-Cloud
        #: record (up to a 256 KiB block) outgrows
        self._datalog_piece: Optional[int] = None
        if self.opts.use_logpool:
            self.max_units = self.opts.max_units or cfg.log_max_units
        else:
            # Without the FIFO pool (fig. 7 Baseline/O1/O2) there is a single
            # mutually-exclusive log: appends stall for the whole recycle, so
            # it cannot be grown large without unbounded stall windows — it
            # stays small, like CoRD's fixed buffer.  O3's contribution in
            # the paper is exactly lifting this constraint.
            self.max_units = 1
            self.unit_size = min(self.unit_size, 128 * 1024)
            self._datalog_piece = self.unit_size
        self.n_pools = max(1, self.opts.pools_per_device or cfg.log_pools)
        self._pool_of: dict[BlockId, int] = {}  # block -> pool index memo
        # hoisted per-pool stream names: the persist/forward/recycle inner
        # loops hit one of these per I/O, and the f-string was measurable
        self._dl_streams = [f"datalog{p}" for p in range(self.n_pools)]
        self._dx_streams = [f"deltalog{p}" for p in range(self.n_pools)]
        self._px_streams = [f"paritylog{p}" for p in range(self.n_pools)]
        # a read served from the log index costs request handling only
        self._hit_us = s_to_us(cfg.costs.op_fixed)

        # per-OSD, per-layer pools: pools[osd.name][layer][pool index], None
        # until the first append builds it (read them via built_pools)
        self.pools: dict[str, dict[str, list[Optional[LogPool]]]] = {}
        # the log-debt ledger: per layer, the (osd.idx, pool index) of every
        # pool holding unrecycled content.  The pools move themselves in and
        # out (LogPool.holds_debt); drain and settlement read it instead of
        # scanning every OSD x pool x unit
        self._live: dict[str, set[tuple[int, int]]] = {l: set() for l in _LAYERS}
        #: units fully recycled so far, all layers
        self.recycled_units = 0
        self.planner = RecyclePlanner()
        # residence/append timing per layer (Table 2), seconds
        self.append_times: dict[str, list[float]] = {l: [] for l in _LAYERS}
        self.replica_log_bytes: dict[str, int] = defaultdict(int)
        self._recycler_procs: dict[tuple[str, str, int], object] = {}
        self._recycler_of = {
            "datalog": partial(self._recycle_unit_in_lanes, self._datalog_lane),
            "deltalog": self._recycle_deltalog_unit,
            "paritylog": partial(self._recycle_unit_in_lanes, self._paritylog_lane),
        }
        # recovery stash: the victim's unrecycled DataLog extents (replayed
        # onto rebuilt blocks from the replica logs) and DeltaLog-derived
        # parity deltas (replayed to surviving ParityLogs from the
        # 2nd-parity replica): (dedup token, parity block, offset, pdelta)
        self._stash_data: dict[BlockId, list] = {}
        self._stash_delta: list[tuple[tuple, BlockId, int, np.ndarray]] = []
        self._stash_bytes = 0
        # parity deltas addressed to a transiently-down node, replayed when
        # it restarts (a rebuild clears them: re-encoding subsumes deltas)
        self._pending_parity: dict[str, list] = defaultdict(list)
        # receiver-side replay dedup (the model's stand-in for the sequence
        # numbers a replicated log ships): tokens of deltas already accepted
        # at each node, so an interrupted recycle can replay blindly.
        # Unbounded here; a real log GCs below the recycle watermark.
        self._seen_tokens: dict[str, set] = defaultdict(set)
        # where each block's newest DataLog replica actually landed — the
        # placement policy's replica_osd() answer changes across epochs, but
        # a degraded read must consult the node that holds the bytes
        self._replica_of: dict[BlockId, str] = {}
        # > 0 while a recovery-critical drain is in flight: recyclers skip
        # the governed arbiter and queued recycle grants are expedited, so
        # recovery settlement never queues behind a floored backlog
        self._recovery_boost = 0
        #: log bytes recycled arbiter-free under the boost — with the
        #: scheduler's expedited_bytes, the backlog a governed drain would
        #: have paced at the floor (the inversion's counterfactual cost)
        self.recovery_bypass_bytes = 0

    # ------------------------------------------------------------ lifecycle
    def attach(self, osd: OSD) -> None:
        """Give ``osd`` one empty pool slot per layer and pool index (none
        for the DeltaLog without O5).  A slot's pool and recycler are built
        by the first append to it (:meth:`_pool`), so a node — at cluster
        build or on an elastic join — costs nothing until it is written."""
        no_deltalog = not self.opts.use_deltalog
        self.pools[osd.name] = {
            layer: [] if layer == "deltalog" and no_deltalog else [None] * self.n_pools
            for layer in _LAYERS
        }

    def built_pools(
        self, osd_name: str, *layers: str
    ) -> Iterator[tuple[int, LogPool]]:
        """``(pool index, pool)`` for every pool built so far on ``osd_name``
        in ``layers`` (default: all three), layer by layer in pipeline order
        and in pool-index order within a layer — never in build order: the
        order is the one an eager scan visits, and stats sums, the victim
        stash and recycler respawns follow it."""
        slots = self.pools[osd_name]
        for layer in layers or _LAYERS:
            for p, pool in enumerate(slots[layer]):
                if pool is not None:
                    yield p, pool

    def _spawn_recycler(self, osd: OSD, layer: str, pidx: int, pool: LogPool) -> None:
        proc = self.env.process(
            self._recycler_loop(osd, pool, self._recycler_of[layer]),
            name=f"tsue-{layer}-{osd.name}-{pidx}",
        )
        self._recycler_procs[(osd.name, layer, pidx)] = proc

    # ------------------------------------------------------------ front end
    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        t0 = self.env.now
        pool = self._pool(osd, "datalog", op.block)
        # in-memory append (may stall on the unit quota — Fig. 6a).  Under
        # the no-pool cap a record goes in as unit-sized pieces, each
        # committed in its own append order; they persist and ack as one.
        step = self._datalog_piece or op.size
        for lo in range(0, op.size, step):
            piece = op.payload[lo : lo + step]
            yield from pool.append(op.block, op.offset + lo, piece, own=True)
            # the log IS the serialization point: commit to the oracle in
            # append order, before any interleaving-prone I/O below.
            self.ecfs.oracle.apply(op.block, op.offset + lo, piece)
        # persist locally and replicate, concurrently; ack when all durable
        legs = [self._persist_local(osd, pool, op)]
        for r in range(self.opts.datalog_replicas):
            legs.append(self._replicate(osd, op, r))
        yield spawn_fanout(self.env, legs)
        self.append_times["datalog"].append(self.env.now - t0)

    def _persist_local(self, osd: OSD, pool: LogPool, op: UpdateOp) -> Generator:
        stream = self._dl_streams[self._pool_idx(op.block)]
        yield from osd.io_log_append(stream, op.size, tag="tsue-datalog")

    def _replicate(self, osd: OSD, op: UpdateOp, r: int) -> Generator:
        n_osds = len(self.ecfs.osds)
        rep_idx = (self.ecfs.placement.replica_osd(op.block) + r) % n_osds
        rep = self.ecfs.osds[rep_idx]
        if rep.failed:
            rep = self.ecfs.osds[(rep_idx + 1) % n_osds]
        yield from self.forward(osd, rep, op.size)
        # replica is persisted to SSD only — no memory index (§4.1)
        yield from rep.io_log_append("datalog-rep", op.size, tag="tsue-datalog-rep")
        self.replica_log_bytes[rep.name] += op.size
        if r == 0:
            self._replica_of[op.block] = rep.name

    # ------------------------------------------------------------ read path
    def handle_read(
        self, osd: OSD, block: BlockId, offset: int, size: int
    ) -> Generator:
        # a read never builds a pool: an unbuilt one is an empty log
        pool = self._built_pool(osd.name, "datalog", block)
        hit = None if pool is None else pool.lookup(block, offset, size)
        if hit is not None:
            # served from the in-memory log index: no device I/O
            yield self.env.timeout_us(self._hit_us)
            return hit
        yield from osd.io_block(IOKind.READ, block, offset, size)
        buf = osd.store.read(block, offset, size)
        if pool is not None:
            # never return stale bytes (§3.3.3): newer logged bytes win
            pool.overlay(block, offset, size, buf)
        return buf

    # ----------------------------------------------------------- recyclers
    def _recycler_loop(self, osd: OSD, pool: LogPool, fn) -> Generator:
        while True:
            unit = yield pool.recyclable.get()
            # unified maintenance plane: wait for the arbiter's paced grant
            # before spending device bandwidth (a no-op when disabled —
            # the unit is still RECYCLABLE while parked, so settlement and
            # backlog accounting see it).  A recovery-critical drain skips
            # the arbiter entirely (PL's FOREGROUND-drain pattern): the
            # governed recycle stream is exactly the backlog recovery must
            # not queue behind.
            if not self._recovery_boost:
                yield from self.ecfs.background.request(
                    unit_recycle_op(osd.name, pool.name, unit)
                )
            else:
                self.recovery_bypass_bytes += int(unit.used)
            unit.start_recycle(self.env.now)
            try:
                yield from fn(osd, pool, unit)
            except IntegrityError:
                return  # the node died mid-recycle; recovery takes over
            pool.unit_recycled(unit)
            self.recycled_units += 1
            # a finished unit settles stripes (its content is merged):
            # wake drain/quiesce/reconstruction waiters to re-check
            self.ecfs.notify_settlement()

    def _recycle_unit_in_lanes(
        self, lane_fn, osd: OSD, pool: LogPool, unit: LogUnit
    ) -> Generator:
        """Plan ``unit`` per block and run its lanes concurrently (DataLog
        and ParityLog; the DeltaLog recycle merges across blocks instead)."""
        lanes = list(self.planner.lanes(self.planner.plan(unit)))
        if lanes:
            yield spawn_fanout(
                self.env, [lane_fn(osd, pool, unit, lane) for lane in lanes]
            )

    # -- stage 1: DataLog ----------------------------------------------------
    def _datalog_lane(self, osd: OSD, pool: LogPool, unit: LogUnit, lane_items) -> Generator:
        for work in lane_items:
            block = work.block
            for key, ext in work.keyed("dl"):
                if key in unit.recycle_progress:
                    continue  # replay of an interrupted recycle
                # reconstruction may hold the stripe frozen: applying this
                # extent would emit a parity delta racing the re-home
                if self.ecfs.stripe_frozen(block.file_id, block.stripe):
                    yield from self.ecfs.wait_stripe_thaw(
                        block.file_id, block.stripe
                    )
                # read old data and compute the delta
                yield from osd.io_block(
                    IOKind.READ, block, ext.start, ext.size,
                    IOPriority.BACKGROUND, tag="tsue-dl-recycle",
                )
                token = (pool.name, unit.unit_id, unit.generation) + key
                yield from self._merge_extent(osd, block, ext, token, "tsue-dl-recycle")
                unit.recycle_progress.add(key)

    def _merge_extent(self, osd: OSD, block: BlockId, ext, token, tag: str) -> Generator:
        """Merge one DataLog extent into ``block`` at ``osd`` (its read
        already charged): delta out, then the new bytes in place."""
        # snapshot via read-only view: the XOR materializes the delta
        # before the next yield, so no copy is needed
        delta = osd.store.read_view(block, ext.start, ext.size) ^ ext.data
        yield self.env.timeout_us(self.costs.xor(ext.size))
        # forward the delta BEFORE the in-place overwrite: should the node
        # die in between, a replay recomputes the same delta from the
        # unchanged block and the receivers dedup by token
        yield from self._forward_delta(osd, block, ext.start, delta, token)
        yield from osd.io_block(
            IOKind.WRITE, block, ext.start, ext.size,
            IOPriority.BACKGROUND, overwrite=True, tag=tag,
        )
        osd.store.write(block, ext.start, ext.data)

    def _forward_delta(
        self,
        osd: OSD,
        block: BlockId,
        offset: int,
        delta: np.ndarray,
        token: tuple | None = None,
    ) -> Generator:
        """Ship a data delta towards parity: via DeltaLog (O5) or directly.

        Falls back to direct parity fan-out when the DeltaLog home (first
        parity OSD) is down — including when it dies mid-forward.  ``token``
        (when given) lets the receivers drop a duplicate delivery during the
        replay of an interrupted recycle.
        """
        size = int(delta.shape[0])
        rs = self.ecfs.rs
        if self.opts.use_deltalog and rs.m >= 1:
            p1 = self.ecfs.osd_hosting(BlockId(block.file_id, block.stripe, rs.k))
            if not p1.failed:
                try:
                    yield from self._deltalog_forward(
                        osd, p1, block, offset, delta, token
                    )
                    return
                except IntegrityError:
                    pass  # p1 died mid-forward; fall through to direct fan-out
        # no DeltaLog (or its home is down): compute each parity delta here,
        # fan out to ParityLogs (more network, more GF work at the data node)
        for j, posd, pbid in self.parity_targets(block):
            yield self.env.timeout_us(self.costs.gf_mul(size))
            pdelta = gf_mul_scalar(self.parity_coef(j, block.idx), delta)
            ptoken = token + ("p", j) if token is not None else None
            if not posd.failed:
                yield from self.forward(osd, posd, size)
            yield from self._paritylog_append(posd, pbid, offset, pdelta, ptoken)

    def _deltalog_forward(
        self,
        osd: OSD,
        p1: OSD,
        block: BlockId,
        offset: int,
        delta: np.ndarray,
        token: tuple | None,
    ) -> Generator:
        """Land a data delta in the DeltaLog at ``p1`` (+ replica at p2)."""
        t0 = self.env.now
        size = int(delta.shape[0])
        rs = self.ecfs.rs
        if not self._claim(p1, token):
            return
        try:
            yield from self.forward(osd, p1, size)
            # device append first, then the in-memory index: a crash in
            # between leaves nothing behind, so the caller's fallback
            # cannot double-apply
            yield from p1.io_log_append(
                self._dx_streams[self._pool_idx(block)],
                size,
                IOPriority.BACKGROUND,
                tag="tsue-deltalog",
            )
            dpool = self._pool(p1, "deltalog", block)
            yield from dpool.append(block, offset, delta, own=True)
        except IntegrityError:
            self._unclaim(p1, token)
            raise
        self.append_times["deltalog"].append(self.env.now - t0)
        if rs.m >= 2:  # delta copy at the 2nd parity OSD
            p2 = self.ecfs.osd_hosting(
                BlockId(block.file_id, block.stripe, rs.k + 1)
            )
            if not p2.failed:
                yield from self.forward(osd, p2, size)
                try:
                    yield from p2.io_log_append(
                        "deltalog-rep", size, IOPriority.BACKGROUND,
                        tag="tsue-deltalog-rep",
                    )
                    self.replica_log_bytes[p2.name] += size
                except IntegrityError:
                    pass  # replica copy lost with p2; the primary log stands

    def _claim(self, host: OSD, token: tuple | None) -> bool:
        """Receiver-side dedup for a delivery to ``host``; False means a
        duplicate from a replayed recycle, to be dropped.  The token is
        claimed at ENTRY: two concurrent replays of one delta (e.g. two
        overlapping recoveries draining the same stash) would both pass a
        commit-time check before either commits."""
        if token is None:
            return True
        seen = self._seen_tokens[host.name]
        if token in seen:
            return False
        seen.add(token)
        return True

    def _unclaim(self, host: OSD, token: tuple | None) -> None:
        """The delivery committed nothing: let its redelivery through."""
        if token is not None:
            self._seen_tokens[host.name].discard(token)

    # -- stage 2: DeltaLog ----------------------------------------------------
    def _plan_delta_forwards(self, unit: LogUnit) -> Iterator[tuple[tuple, BlockId, object]]:
        """Deterministic (dedup key, parity block, extent) stream the
        recycle of ``unit`` forwards — recomputable after a crash so an
        interrupted recycle and the recovery stash agree on identities.

        A generator: the unit is planned on the first ``next``, and one
        (stripe, parity row) group's products are computed when the caller
        reaches that group, so a recycle holds at most one group's parity
        deltas outside the ParityLogs they are appended to."""
        # group per stripe for Eq. (5) cross-block merging
        per_stripe: dict[tuple[int, int], list] = defaultdict(list)
        for work in self.planner.plan(unit):
            block = work.block
            per_stripe[(block.file_id, block.stripe)].append(work)
        rs = self.ecfs.rs
        occurrences: dict[tuple, int] = defaultdict(int)
        for (file_id, stripe), works in per_stripe.items():
            for j in range(rs.m):
                pbid = BlockId(file_id, stripe, rs.k + j)
                merged = (
                    ExtentMap(MergePolicy.XOR)
                    if self.opts.backend_locality
                    else RecordList()
                )
                for work in works:
                    coef = self.parity_coef(j, work.block.idx)
                    for ext in work.extents:
                        merged.insert(ext.start, gf_mul_scalar(coef, ext.data), own=True)
                for ext in merged.extents():
                    base = (pbid, ext.start, ext.size)
                    n = occurrences[base]
                    occurrences[base] += 1
                    yield ("dx",) + base + (n,), pbid, ext

    def _recycle_deltalog_unit(self, osd: OSD, pool: LogPool, unit: LogUnit) -> Generator:
        # Charge the Eq. (5) GF work as the seed model did: one multiply per
        # SOURCE extent per parity row (the planning helper computes the
        # merged extents untimed so a crash-replay can recompute them).
        # The per-extent charges (CPUCosts.gf_mul's expression) are summed
        # in seconds and put on the µs grid once.
        rs = self.ecfs.rs
        costs = self.costs
        gf_s = sum(
            rs.m * (costs.op_fixed + ext.size * costs.gf_mul_per_byte)
            for bkey in unit.index.blocks()
            for ext in unit.index.extents(bkey)
        )
        if gf_s:
            yield self.env.timeout_us(s_to_us(gf_s))
        for key, pbid, ext in self._plan_delta_forwards(unit):
            if key in unit.recycle_progress:
                continue  # replay of an interrupted recycle
            if self.ecfs.stripe_frozen(pbid.file_id, pbid.stripe):
                yield from self.ecfs.wait_stripe_thaw(pbid.file_id, pbid.stripe)
            posd = self.ecfs.osd_hosting(pbid)
            token = (pool.name, unit.unit_id, unit.generation) + key
            if not posd.failed:
                yield from self.forward(osd, posd, ext.size)
            yield from self._paritylog_append(posd, pbid, ext.start, ext.data, token)
            unit.recycle_progress.add(key)

    def _paritylog_append(
        self,
        posd: OSD,
        pbid: BlockId,
        offset: int,
        pdelta: np.ndarray,
        token: tuple | None = None,
    ) -> Generator:
        if not self._claim(posd, token):
            return
        t0 = self.env.now
        ppool = self._pool(posd, "paritylog", pbid)
        if not posd.failed:
            try:
                # device append first, then the in-memory index: a crash in
                # between leaves nothing behind and the replay redelivers
                yield from posd.io_log_append(
                    self._px_streams[self._pool_idx(pbid)],
                    int(pdelta.shape[0]),
                    IOPriority.BACKGROUND,
                    tag="tsue-paritylog",
                )
                yield from ppool.append(pbid, offset, pdelta, own=True)
                self.append_times["paritylog"].append(self.env.now - t0)
                return
            except IntegrityError:
                pass  # the node died mid-append; fall through
        self._unclaim(posd, token)
        if ppool.dead:
            return  # real crash: the re-encoded rebuild subsumes this delta
        # transiently down (bounce): buffer for replay at restart
        self._pending_parity[posd.name].append((token, pbid, offset, pdelta))

    # -- stage 3: ParityLog ----------------------------------------------------
    def _paritylog_lane(self, osd: OSD, pool: LogPool, unit: LogUnit, lane_items) -> Generator:
        for work in lane_items:
            for key, ext in work.keyed("pl"):
                if key in unit.recycle_progress:
                    continue  # replay of an interrupted recycle
                yield from self.parity_rmw(
                    osd, work.block, ext.start, ext.data,
                    IOPriority.BACKGROUND, tag="tsue-pl-recycle",
                )
                unit.recycle_progress.add(key)

    # --------------------------------------------------------------- drain
    def flush(self) -> Generator:
        """Drain the pipeline layer by layer until every log is recycled."""
        for layer in _LAYERS:
            yield from self._drain_layer(layer)

    def _drain_layer(self, layer: str) -> Generator:
        while True:
            if self._recovery_boost:
                # release recyclers parked on pre-boost paced grants: their
                # units are part of the backlog this drain is waiting out
                self.ecfs.background.expedite("recycle")
            busy = False
            for osd, pool in self._live_pools(layer):
                if osd.failed:
                    continue
                pool.seal_active_if_dirty()
                busy = True
            if not busy:
                return
            # sleep until a unit finishes recycling (or a node dies and its
            # backlog is dropped) instead of polling every 1e-4 s
            yield self.ecfs.settlement_event()

    # ------------------------------------------------------------ recovery
    def quiesce_node(self, victim: OSD) -> Generator:
        """Let the victim's in-flight unit recycles finish before it fails.

        A real deployment replays mid-recycle units idempotently from
        sequence-numbered replicas; the model sidesteps that corner by
        quiescing first (typically microseconds, thanks to real-time
        recycling).
        """
        while any(
            unit.state is LogUnitState.RECYCLING
            for pool in self._live_pools_on(victim)
            for unit in pool.units
        ):
            # woken by the recycler's unit-finished notification
            yield self.ecfs.settlement_event()

    def on_node_failed(self, victim: OSD) -> None:
        """Stash the victim's unrecycled logs for replica-based replay.

        DataLog extents will be merged onto the rebuilt data blocks (§4.2:
        "the data log on this node can be obtained from one of the nodes
        hosting its replica"); DeltaLog-derived parity deltas replay to
        surviving ParityLogs from the 2nd-parity copy; ParityLog content is
        dropped — the victim's parity blocks are re-encoded from up-to-date
        data.  A unit caught mid-recycle by an abrupt crash is stashed too:
        its ``recycle_progress`` set and the receivers' dedup tokens make
        the replay exactly-once.
        """
        for _p, pool in self.built_pools(victim.name, "datalog"):
            for unit in pool.live_units():
                # ALL extents are stashed, including ones a mid-flight
                # recycle already applied: degraded reads overlay them, and
                # their replay self-cancels (the recomputed delta is zero
                # because the rebuilt block already carries the new bytes)
                for block in list(unit.index.blocks()):
                    exts = list(unit.index.extents(block))
                    self._stash_data.setdefault(block, []).extend(exts)
                    self._stash_bytes += sum(e.size for e in exts)
        for _p, pool in self.built_pools(victim.name, "deltalog"):
            for unit in pool.live_units():
                for key, pbid, ext in self._plan_delta_forwards(unit):
                    if key in unit.recycle_progress:
                        continue  # forwarded durably before the crash
                    token = (pool.name, unit.unit_id, unit.generation) + key
                    self._stash_delta.append((token, pbid, ext.start, ext.data))
                    self._stash_bytes += ext.size
        # deltas buffered for the victim while it was transiently down are
        # subsumed by the re-encoded rebuild, as are its accepted tokens
        self._pending_parity.pop(victim.name, None)
        self._seen_tokens.pop(victim.name, None)
        # victim pools are dead: error out blocked appenders and drop the
        # queues, so the ledger holds no debt for this node; a pool built
        # later is born dead (_pool)
        for _p, pool in self.built_pools(victim.name):
            pool.fail()

    def on_node_restarted(self, osd: OSD) -> None:
        """Resume background work on a bounced node: requeue unit recycles
        that were cut off mid-flight (their progress sets make the replay
        idempotent), respawn recyclers that died with the node, and replay
        parity deltas other nodes buffered while this one was down."""
        for layer in _LAYERS:
            for pidx, pool in self.built_pools(osd.name, layer):
                if self._recycler_procs[(osd.name, layer, pidx)].is_alive:
                    continue  # survived the outage; its unit is still its own
                pool.requeue_interrupted()
                self._spawn_recycler(osd, layer, pidx, pool)
        if self._pending_parity.get(osd.name):
            self.env.process(
                self._replay_pending(osd), name=f"tsue-pending-{osd.name}"
            )

    def _replay_pending(self, osd: OSD) -> Generator:
        # busy-mark synchronously with the pop: the deltas must never be
        # invisible to stripe-settlement checks
        pending = self._pending_parity.pop(osd.name, [])
        stripes = {(pbid.file_id, pbid.stripe) for _t, pbid, _o, _d in pending}
        with self._applying(stripes):
            for token, pbid, offset, pdelta in pending:
                yield from self._paritylog_append(osd, pbid, offset, pdelta, token)

    def pre_rebuild(self) -> Generator:
        """Read stashed logs back from their replicas and replay the delta
        layer into surviving ParityLogs (charged as recovery preparation)."""
        if self._stash_bytes:
            # one sequential read of the replicated log content per replica
            rep = next(osd for osd in self.ecfs.osds if not osd.failed)
            yield from rep.io_at(
                IOKind.READ, 0, self._stash_bytes, stream="datalog-rep-replay",
                tag="tsue-replay",
            )
        # take ownership atomically: overlapping recoveries each replay only
        # what was stashed when THEY got here (the dedup tokens additionally
        # stop any racing double-delivery)
        replay, self._stash_delta = self._stash_delta, []
        stripes = {(pbid.file_id, pbid.stripe) for _t, pbid, _o, _d in replay}
        with self._applying(stripes):
            for token, pbid, offset, pdelta in replay:
                posd = self.ecfs.osd_hosting(pbid)
                if posd.failed:
                    continue
                yield self.env.timeout_us(self.costs.gf_mul(pdelta.shape[0]))
                yield from self._paritylog_append(posd, pbid, offset, pdelta, token)
        yield from self._recovery_flush()

    def post_rebuild(self, block: BlockId, target: OSD, rebuilt: np.ndarray) -> Generator:
        """Merge the victim's stashed DataLog extents onto a rebuilt block
        and forward the resulting deltas down the normal pipeline."""
        for ext in self._stash_data.pop(block, []):
            old = rebuilt[ext.start : ext.end].copy()
            yield self.env.timeout_us(self.costs.xor(ext.size))
            rebuilt[ext.start : ext.end] = ext.data
            yield from self._forward_delta(target, block, ext.start, old ^ ext.data)

    def _recovery_flush(self) -> Generator:
        """A full pipeline drain at recovery priority.

        The priority-inversion fix: while the boost is held, recyclers skip
        the governed arbiter and :meth:`_drain_layer` expedites any recycle
        grants already queued — so the drain proceeds at device speed (the
        devices' IOPriority lanes still order the actual I/O) instead of at
        the governor's floored token rate.  The AIMD floor keeps paced
        progress alive regardless; the boost makes recovery settlement run
        AHEAD of the backlog rather than merely behind a nonzero trickle.
        """
        self._recovery_boost += 1
        try:
            yield from self.flush()
        finally:
            self._recovery_boost -= 1

    def finalize_recovery(self) -> Generator:
        yield from self._recovery_flush()

    def recovery_prepare(self, osd: OSD) -> Generator:
        # real-time recycling keeps debt tiny; drain whatever remains —
        # at recovery priority, never behind governed recycle grants
        yield from self._recovery_flush()

    def degraded_overlay(
        self, block: BlockId, offset: int, size: int, buf: np.ndarray
    ) -> Generator:
        """Degraded reads consult the dead node's DataLog via its replica
        (§4.2: "the data log on this node can be obtained from one of the
        nodes hosting its replica").

        The replica is a raw on-SSD log (no index), so the consult costs a
        sequential read of the log region at the replica node; the content
        comes from the victim's still-known in-memory index (the model's
        stand-in for replaying the replica bytes), or the recovery stash if
        the victim's pools were already torn down.
        """
        home = self.ecfs.osd_hosting(block)
        if not home.failed:
            return buf
        # epoch-aware: read the node that actually holds the newest replica
        # bytes (recorded at append time) — the policy's replica_osd()
        # answer may have rotated across placement epochs since
        rep_name = self._replica_of.get(block)
        rep = None
        if rep_name is not None:
            rep = next((o for o in self.ecfs.osds if o.name == rep_name), None)
        if rep is None:
            rep = self.ecfs.osds[self.ecfs.placement.replica_osd(block)]
        if not rep.failed:
            yield from rep.io_at(
                IOKind.READ,
                0,
                max(size, 4096),
                stream="datalog-rep-read",
                tag="tsue-degraded",
            )
        # victim's pools (pre-teardown) hold the authoritative log content;
        # an unbuilt pool logged nothing
        pool = self._built_pool(home.name, "datalog", block)
        if pool is not None:
            pool.overlay(block, offset, size, buf)
        # after on_node_failed, unrecycled extents live in the stash
        return overlay(buf, offset, self._stash_data.get(block, ()))

    def _pending_unsettled(self) -> set[tuple[int, int]]:
        """Stripes whose parity lags data: any DeltaLog/ParityLog content
        (those deltas correspond to in-place data writes that already
        happened) and any DataLog unit caught mid-recycle.  Unrecycled
        DataLog records are NOT unsettled — their data is still only in the
        log, so data and parity agree."""
        out: set[tuple[int, int]] = set(self._busy_stripes)
        for layer in _LAYERS:
            for _osd, pool in self._live_pools(layer):
                for unit in pool.live_units():
                    if layer == "datalog" and unit.state is not LogUnitState.RECYCLING:
                        continue
                    for block in unit.index.blocks():
                        out.add((block.file_id, block.stripe))
        # deltas parked for a bounced node or stashed for recovery replay
        # are also applied-in-data, pending-on-parity
        for entries in self._pending_parity.values():
            for _token, pbid, _offset, _pdelta in entries:
                out.add((pbid.file_id, pbid.stripe))
        for _token, pbid, _offset, _pdelta in self._stash_delta:
            out.add((pbid.file_id, pbid.stripe))
        return out

    def block_unsettled(self, osd: OSD, block: BlockId) -> bool:
        """Unrecycled DataLog records defer the in-place data write, so a
        migration copying the base block off ``osd`` would lose them (the
        recycle applies them to whichever store the *log* lives on).  Any
        live unit on any layer holding content for ``block`` blocks the
        move until a flush settles it."""
        return any(
            unit.index.extent_map(block) is not None
            for pool in self._live_pools_on(osd)
            for unit in pool.live_units()
        )

    # ------------------------------------------------- migration (log move)
    def _live_block_extents(self, osd: OSD, block: BlockId) -> list:
        """``(layer, pool, unit, key, ext)`` for every live DataLog/ParityLog
        extent on ``osd`` addressed to ``block``, oldest unit first, minus
        extents the unit's own recycle already applied.

        Keyed through :meth:`RecyclePlanner.block_work`, the item the
        source's own recycle of the same unit plans for ``block``, so the
        keys (and therefore the dedup tokens) are byte-identical to the
        recycle's — shipping and recycling are two deliveries of ONE
        logical record.  A query plans no other block and leaves the
        planner's recycle stats alone.  DeltaLog content never
        qualifies: it is keyed by data blocks but homed with the stripe's
        first parity OSD, and its recycle already resolves the parity
        destination through ``osd_hosting`` at forward time.
        """
        out: list = []
        for layer, prefix in (("datalog", "dl"), ("paritylog", "pl")):
            for _p, pool in self.built_pools(osd.name, layer):
                for unit in pool.live_units():
                    work = self.planner.block_work(unit, block)
                    if work is None:
                        continue
                    for key, ext in work.keyed(prefix):
                        if key in unit.recycle_progress:
                            continue  # already applied at the source
                        out.append((layer, pool, unit, key, ext))
        return out

    def block_log_bytes(self, osd: OSD, block: BlockId) -> int:
        return sum(e[4].size for e in self._live_block_extents(osd, block))

    def settle_block(self, osd: OSD, block: BlockId) -> Generator:
        """Recycle-before-move: seal the units holding content for ``block``
        and sleep on settlement progress until the block is clean.  The
        normal (arbitered) recyclers do the work, so the settle respects
        the maintenance plane's pacing.  Terminates: the AIMD floor keeps
        paced recycle progressing, and a node death clears its pools (both
        paths fire the settlement notification)."""
        yielded = False
        while not osd.failed and self.block_unsettled(osd, block):
            for _p, pool in self.built_pools(osd.name):
                pool.seal_active_if_dirty()
            yielded = True
            yield self.ecfs.settlement_event()
        if not yielded:
            yield self.env.timeout_us(0)

    def collect_block_logs(self, src: OSD, block: BlockId) -> list:
        return self._live_block_extents(src, block)

    def apply_shipped_logs(self, src: OSD, dst: OSD, block: BlockId, records: list) -> Generator:
        """Ship captured log extents with the block move (under the freeze).

        DataLog extents replay the recycle's own protocol against the
        destination's freshly-copied base: the recomputed delta equals the
        one the source's recycle would have produced, and it travels with
        the SAME dedup token, so whichever of {ship, source recycle, crash
        replay} arrives second is dropped by the receivers.  ParityLog
        extents XOR into the moved parity block directly.  Source-side
        ``recycle_progress`` marks are deferred until EVERY record landed:
        if a node dies mid-ship the move aborts without the marks, the
        block stays homed at the source, its own recycle still applies the
        content there, and the tokens keep the partial parity forwards
        exactly-once.
        """
        total = sum(ext.size for _l, _p, _u, _k, ext in records)
        if not records:
            yield self.env.timeout_us(0)
            return 0
        # one sequential read of the shipped extents at the source + wire
        yield from src.io_at(
            IOKind.READ, 0, total, stream="log-ship",
            priority=IOPriority.BACKGROUND, tag="tsue-ship",
        )
        yield from self.forward(src, dst, total)
        for layer, pool, unit, key, ext in records:
            token = (pool.name, unit.unit_id, unit.generation) + key
            if layer == "datalog":
                # the recycle's own merge (and crash discipline), against
                # the destination's copy
                yield from self._merge_extent(dst, block, ext, token, "tsue-ship")
            else:  # paritylog: merge the pending parity delta into the copy
                yield from self.parity_rmw(
                    dst, block, ext.start, ext.data,
                    IOPriority.BACKGROUND, tag="tsue-ship", frozen_ok=True,
                )
        # all landed: mark the source units so their recycle skips the
        # shipped extents (no yield between here and the caller's
        # commit_move — the marks and the re-home are atomic)
        for _layer, _pool, unit, key, _ext in records:
            unit.recycle_progress.add(key)
        return total

    # ------------------------------------------------------------- metrics
    def log_debt_bytes(self, osd: OSD) -> int:
        """Unrecycled log bytes (:meth:`LogPool.live_units`)."""
        return sum(
            u.used for pool in self._live_pools_on(osd) for u in pool.live_units()
        )

    def memory_bytes(self, osd: OSD) -> int:
        return self._reserved_bytes(osd.name, lambda pool: pool.memory_bytes)

    def peak_memory_bytes(self) -> int:
        return sum(
            self._reserved_bytes(name, lambda pool: pool.peak_units * pool.unit_size)
            for name in self.pools
        )

    def _reserved_bytes(self, osd_name: str, of) -> int:
        """``of(pool)`` summed over ``osd_name``'s pool slots.  The model
        reserves a pool's first unit whether or not it is built yet, so an
        unbuilt slot counts the one unit a fresh pool holds."""
        return sum(
            self.unit_size if pool is None else of(pool)
            for slots in self.pools[osd_name].values()
            for pool in slots
        )

    def residence_stats(self) -> dict[str, dict[str, float]]:
        """Per-layer mean append/buffer/recycle seconds (Table 2)."""
        out: dict[str, dict[str, float]] = {}
        for layer in _LAYERS:
            buffers: list[float] = []
            recycles: list[float] = []
            for name in self.pools:
                for _p, pool in self.built_pools(name, layer):
                    for buf, rec in pool.residence:
                        buffers.append(buf)
                        recycles.append(rec)
            appends = self.append_times[layer]
            out[layer] = {
                "append": float(np.mean(appends)) if appends else 0.0,
                "buffer": float(np.mean(buffers)) if buffers else 0.0,
                "recycle": float(np.mean(recycles)) if recycles else 0.0,
            }
        return out

    def stall_stats(self) -> dict[str, float]:
        stalls = stall_time = 0.0
        for name in self.pools:
            for _p, pool in self.built_pools(name):
                stalls += pool.stalls
                stall_time += pool.stall_time
        return {"stalls": stalls, "stall_time": stall_time}

    # ------------------------------------------------------------ internals
    def _live_pools(self, layer: str) -> list[tuple[OSD, LogPool]]:
        """``layer``'s pools that hold debt, in ``(osd.idx, pool index)``
        order — the order a scan over every OSD's pools visits them, which
        the drain must keep: sealing wakes recyclers, and the wake order is
        part of the event sequence."""
        osds = self.ecfs.osds
        return [
            (osds[idx], self.pools[osds[idx].name][layer][p])
            for idx, p in sorted(self._live[layer])
        ]

    def _live_pools_on(self, osd: OSD) -> list[LogPool]:
        """``osd``'s pools that hold debt, any layer."""
        return [pool for _p, pool in self.built_pools(osd.name) if pool.holds_debt]

    def _pool_idx(self, block: BlockId) -> int:
        """Log pool index of a block: a hash of (inode, stripe, block)
        (§3.2.1).  Topology-independent, so a block's pool survives epoch
        changes and log content never needs re-bucketing on a rebalance."""
        p = self._pool_of.get(block)
        if p is None:
            p = mix(block.file_id, block.stripe, block.idx) % self.n_pools
            self._pool_of[block] = p
        return p

    def _built_pool(self, osd_name: str, layer: str, block: BlockId) -> Optional[LogPool]:
        """``block``'s ``layer`` pool on ``osd_name``, or None if no append
        built it yet — the read paths' view, which never builds."""
        return self.pools[osd_name][layer][self._pool_idx(block)]

    def _pool(self, osd: OSD, layer: str, block: BlockId) -> LogPool:
        """``block``'s ``layer`` pool on ``osd`` for an append: built, and
        its recycler spawned, on first use.  A pool first built on a crashed
        node (``ECFS.crashed``: :meth:`on_node_failed` failed its pools) is
        born failed, as the eager pool it stands for would have been."""
        slots = self.pools[osd.name][layer]
        p = self._pool_idx(block)
        pool = slots[p]
        if pool is None:
            datalog = layer == "datalog"
            pool = slots[p] = LogPool(
                self.env,
                name=f"{osd.name}:{layer}{p}",
                unit_size=self.unit_size,
                policy=MergePolicy.OVERWRITE if datalog else MergePolicy.XOR,
                max_units=self.max_units,
                block_size=self.ecfs.config.block_size,
                merge=self.opts.datalog_locality if datalog else self.opts.backend_locality,
                live=self._live[layer],
                live_key=(osd.idx, p),
            )
            if osd.idx in self.ecfs.crashed:
                pool.fail()
            self._spawn_recycler(osd, layer, p, pool)
        return pool
