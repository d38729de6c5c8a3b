"""Placement-subsystem invariants: byte-compat with the seed layout,
failure-domain spread, balance, cross-process determinism, minimal-movement
migration plans, and the epoch/remap bookkeeping that replaced
``ECFS.rehome_block``."""

import os
import subprocess
import sys

import pytest

from repro.cluster import ClusterConfig, ECFS
from repro.cluster.ids import BlockId
from repro.placement import (
    CrushPolicy,
    MigrationPlanner,
    PlacementMap,
    RotationPolicy,
    Topology,
    make_policy,
)

_HASH_MIX = 0x9E3779B97F4A7C15


def _seed_mix(*values: int) -> int:
    """The seed tree's layout hash, re-implemented as a golden reference."""
    h = 0
    for v in values:
        h ^= (v + _HASH_MIX + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
    return h


def assert_minimal(plan, max_fraction: float) -> None:
    """The CRUSH promise: a topology event moves at most ``max_fraction`` of
    the blocks — e.g. ``1.5 / n`` for a single-device join on an n-device
    cluster.  Rotation has no such property and fails it."""
    if plan.fraction_moved > max_fraction:
        raise AssertionError(
            f"migration moves {plan.fraction_moved:.1%} of blocks "
            f"({len(plan.moves)}/{plan.total_blocks}), above the "
            f"{max_fraction:.1%} minimal-movement bound"
        )


def _blocks(n_files: int, stripes: int, width: int) -> list[BlockId]:
    return [
        BlockId(f, s, i)
        for f in range(1, n_files + 1)
        for s in range(stripes)
        for i in range(width)
    ]


# ------------------------------------------------------- seed byte-compat
def test_rotation_matches_seed_layout_exactly():
    """RotationPolicy must be byte-compatible with the seed tree's layout
    so seed figures stay identical."""
    n, k, m = 16, 6, 4
    p = RotationPolicy(n, k, m)
    # TSUE's log pool index keeps the seed's hash of (inode, stripe, block)
    tsue = ECFS(ClusterConfig(n_osds=n, k=k, m=m), method="tsue").method
    for fid in range(1, 10):
        for s in range(10):
            base = _seed_mix(fid, s) % n
            assert p.stripe_base(fid, s) == base
            assert p.stripe_osds(fid, s) == [(base + i) % n for i in range(k + m)]
            for i in range(k + m):
                b = BlockId(fid, s, i)
                assert p.osd_of(b) == (base + i) % n
                assert tsue._pool_idx(b) == _seed_mix(fid, s, i) % 4
            # seed replica rule: next node after the stripe's span
            used = set(p.stripe_osds(fid, s))
            b0 = BlockId(fid, s, 0)
            if len(used) < n:
                cand = (base + k + m) % n
                while cand in used:
                    cand = (cand + 1) % n
                assert p.replica_osd(b0) == cand
    # full-width fallback: neighbour node
    p10 = RotationPolicy(10, 6, 4)
    b = BlockId(1, 0, 2)
    assert p10.replica_osd(b) == (p10.osd_of(b) + 1) % 10


def test_rotation_elastic_active_list():
    """Rotation over an explicit membership list: joined nodes participate,
    removed ids never appear."""
    p = RotationPolicy(0, 4, 2, active=[0, 1, 2, 4, 5, 6, 7, 9])
    seen = set()
    for b in _blocks(6, 20, 6):
        osd = p.osd_of(b)
        seen.add(osd)
        assert osd in {0, 1, 2, 4, 5, 6, 7, 9}
    assert seen == {0, 1, 2, 4, 5, 6, 7, 9}


# ------------------------------------------------- distinct failure domains
@pytest.mark.parametrize("policy_name", ["rotation", "crush"])
def test_policies_place_stripes_on_distinct_osds(policy_name):
    topo = Topology.flat(16, osds_per_host=1, hosts_per_rack=4)
    policy = make_policy(policy_name, topo, 4, 2)
    for fid in range(1, 9):
        for s in range(12):
            osds = policy.stripe_osds(fid, s)
            assert len(set(osds)) == 6


def test_crush_places_stripes_on_distinct_failure_domains():
    """With >= k+m hosts, no two blocks of a stripe share a host — even
    when hosts hold several devices."""
    topo = Topology.flat(16, osds_per_host=2, hosts_per_rack=4)  # 8 hosts
    policy = CrushPolicy(topo, 4, 2)
    for fid in range(1, 9):
        for s in range(12):
            domains = [topo.domain_of(o) for o in policy.stripe_osds(fid, s)]
            assert len(set(domains)) == 6


def test_crush_replica_outside_stripe():
    topo = Topology.flat(16, 1, 4)
    policy = CrushPolicy(topo, 4, 2)
    for fid in range(1, 6):
        for s in range(8):
            used = set(policy.stripe_osds(fid, s))
            assert policy.replica_osd(BlockId(fid, s, 0)) not in used


# ------------------------------------------------------------------ balance
def test_crush_balances_load_within_tolerance():
    topo = Topology.flat(16, 1, 4)
    policy = CrushPolicy(topo, 4, 2)
    counts = {i: 0 for i in range(16)}
    for b in _blocks(8, 50, 6):
        counts[policy.osd_of(b)] += 1
    mean = sum(counts.values()) / 16
    assert max(counts.values()) <= 1.35 * mean
    assert min(counts.values()) >= 0.65 * mean


def test_crush_respects_weights():
    """A double-weight device carries roughly double the blocks."""
    topo = Topology.flat(12, 1, 4)
    topo.set_weight(3, 2.0)
    policy = CrushPolicy(topo, 4, 2)
    counts = {i: 0 for i in range(12)}
    for b in _blocks(8, 50, 6):
        counts[policy.osd_of(b)] += 1
    others = [c for i, c in counts.items() if i != 3]
    mean_other = sum(others) / len(others)
    assert counts[3] > 1.4 * mean_other


# ----------------------------------------------- cross-process determinism
_DETERMINISM_SNIPPET = """
import sys
from repro.cluster import ClusterConfig, ECFS
from repro.cluster.ids import BlockId
from repro.placement import Topology, make_policy
tsue = ECFS(ClusterConfig(n_osds=13, k=4, m=2), method="tsue").method
topo = Topology.flat(13, osds_per_host=1, hosts_per_rack=4)
topo.set_weight(2, 0.5)
for name in ("rotation", "crush"):
    policy = make_policy(name, topo, 4, 2)
    out = []
    for f in range(1, 5):
        for s in range(6):
            for i in range(6):
                b = BlockId(f, s, i)
                out.append((policy.osd_of(b), tsue._pool_idx(b)))
            out.append(policy.replica_osd(BlockId(f, s, 0)))
    print(name, out)
"""


def test_placement_deterministic_across_processes():
    """Placement must not depend on PYTHONHASHSEED or process state: two
    fresh interpreters (different hash seeds) agree on every mapping."""
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def run(hashseed: str) -> str:
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return proc.stdout

    assert run("1") == run("424242")


# -------------------------------------------------------- migration planning
def test_planner_empty_on_identity():
    topo = Topology.flat(16, 1, 4)
    policy = CrushPolicy(topo, 4, 2)
    plan = MigrationPlanner.plan(policy.osd_of, policy, _blocks(4, 10, 6))
    assert not plan.moves
    assert plan.fraction_moved == 0.0
    assert_minimal(plan, 0.0)  # nothing moved: any bound holds


def test_crush_join_moves_about_one_nth():
    """One device joining an n-device cluster moves ~1/n of blocks (<= the
    1.5/n bound), and the overwhelming share lands on the newcomer."""
    n, k, m = 16, 4, 2
    blocks = _blocks(8, 40, k + m)
    topo = Topology.flat(n, 1, 4)
    old = CrushPolicy(topo, k, m)
    topo.add_osd(n, weight=1.0)
    new = CrushPolicy(topo, k, m)
    plan = MigrationPlanner.plan(old.osd_of, new, blocks)
    assert_minimal(plan, 1.5 / (n + 1))
    assert plan.fraction_moved > 0.5 / (n + 1)  # the newcomer gets real load
    onto_new = sum(1 for op in plan.moves if op.dst == n)
    assert onto_new >= 0.6 * len(plan.moves)


def test_rotation_join_reshuffles_nearly_everything():
    """The contrast CRUSH exists for: rotation's join moves most blocks, so
    assert_minimal must fail loudly."""
    n, k, m = 16, 4, 2
    blocks = _blocks(8, 40, k + m)
    topo = Topology.flat(n, 1, 4)
    old = make_policy("rotation", topo, k, m)
    topo.add_osd(n, weight=1.0)
    new = make_policy("rotation", topo, k, m)
    plan = MigrationPlanner.plan(old.osd_of, new, blocks)
    assert plan.fraction_moved > 0.5
    with pytest.raises(AssertionError):
        assert_minimal(plan, 1.5 / (n + 1))


def test_crush_decommission_moves_only_the_victims_blocks():
    n, k, m = 16, 4, 2
    blocks = _blocks(8, 40, k + m)
    topo = Topology.flat(n, 1, 4)
    old = CrushPolicy(topo, k, m)
    victim_blocks = {b for b in blocks if old.osd_of(b) == 5}
    topo.remove_osd(5)
    new = CrushPolicy(topo, k, m)
    plan = MigrationPlanner.plan(old.osd_of, new, blocks)
    moved = {op.block for op in plan.moves}
    assert victim_blocks <= moved  # everything on the victim leaves
    assert plan.fraction_moved <= 2.0 / n  # and little else moves
    assert all(op.dst != 5 for op in plan.moves)


# ------------------------------------------------------ epochs and remaps
def test_placement_map_pin_and_advance():
    """The epoch bookkeeping that replaced ``ECFS.rehome_block``: pins
    shadow the ideal mapping, epoch advances fold actual homes into fresh
    remaps, and pinning a block back to ideal clears its entry."""
    topo = Topology.flat(16, 1, 4)
    pmap = PlacementMap(make_policy("crush", topo, 4, 2))
    blocks = _blocks(2, 4, 6)
    b = blocks[0]
    ideal = pmap.osd_of(b)
    other = (ideal + 1) % 16
    pmap.pin(b, other)
    assert pmap.home_of(b) == other
    assert pmap.osd_of(b) == ideal  # ideal view unaffected
    assert not pmap.balanced()
    pmap.pin(b, ideal)  # back to ideal: remap clears
    assert pmap.balanced()

    pmap.pin(b, other)
    topo.add_osd(16, weight=1.0)
    plan = pmap.advance(make_policy("crush", topo, 4, 2), blocks)
    assert pmap.epoch == 1 and plan.epoch == 1
    # every remap points at the block's actual pre-advance home
    for op in plan.moves:
        assert pmap.home_of(op.block) == op.src
        pmap.commit_move(op.block, op.dst)
    assert pmap.balanced()


def test_epoch_advance_cannot_serve_stale_policy_caches():
    """The rehome-cache audit: policy memo caches are per-instance and the
    epoch bump swaps the instance, so a mapping memoized under epoch N is
    unreachable under epoch N+1."""
    topo = Topology.flat(16, 1, 4)
    pmap = PlacementMap(make_policy("crush", topo, 4, 2))
    blocks = _blocks(4, 10, 6)
    for b in blocks:  # populate epoch-0 memo caches
        pmap.osd_of(b)
    old_policy = pmap.policy
    assert old_policy._osd_cache  # memoized
    topo.add_osd(16, weight=1.0)
    pmap.advance(make_policy("crush", topo, 4, 2), blocks)
    assert pmap.policy is not old_policy
    fresh = make_policy("crush", topo, 4, 2)
    for b in blocks:
        assert pmap.osd_of(b) == fresh.osd_of(b)  # never the stale memo
    # the old instance still answers with its own epoch's view, untouched
    assert old_policy.osd_of(blocks[0]) == old_policy._osd_cache[blocks[0]]
