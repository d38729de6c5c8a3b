"""The bytes behind a populate base's name.

The content digest hashes a block standing on a named populate base as the
base's name plus its XOR delta, not as its bytes
(:func:`repro.fault.digest.content_digest`): the name — the generator state
the file's draw started from, the draw's shape, the file, stripe and row,
and the code — is taken to fix the bytes.  These pins are what make that
true.  A change to ``uniform_bytes``, to the draw's layout or to the
encoder that moved a populate byte would leave every golden digest where
it was; it fails here instead.

The hashes were taken from the eager populate (every stripe encoded up
front) and equal the lazy one's, row for row.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import BlockId, ClusterConfig, ECFS

#: (k, m) -> SHA-256 of the data blocks and of the parity rows, each in
#: (file, stripe, row) order, of two files x 3 stripes of 4 KiB at seed 2025
_PINNED = {
    (4, 2): (
        "4cfdce2abee1909c2a5bbbd88d7bfee81ff1a81989b30bd6a45ce636654be4a5",
        "3b4249b53559c591e154523be2f33f17b32c4505bbc3acee6031af1fa1bea8d0",
    ),
    (6, 4): (
        "6ce551e249bc2aa2a6c5e7669bb877ff3e97c89ab53769dadf8f93f60bd0ef39",
        "fc459874e79fae3e1806400a2dbb17ef62922a5c97a625d394e66878017fb81f",
    ),
}


@pytest.mark.parametrize("k, m", sorted(_PINNED), ids=["rs4-2", "rs6-4"])
def test_populate_draw_and_parity_rows_are_pinned(k, m):
    cfg = ClusterConfig(n_osds=k + m + 2, k=k, m=m, block_size=1 << 12, seed=2025)
    ecfs = ECFS(cfg, method="fo")
    files = ecfs.populate(n_files=2, stripes_per_file=3, fill="random")
    data, parity = hashlib.sha256(), hashlib.sha256()
    for f in files:
        for s in range(3):
            for i in range(k + m):
                bid = BlockId(f, s, i)
                store = ecfs.osd_hosting(bid).store
                assert store.named_base(bid)[0].name[1] == i
                (data if i < k else parity).update(store.view(bid))
    assert (data.hexdigest(), parity.hexdigest()) == _PINNED[k, m]


def test_equal_base_names_mean_equal_bytes():
    """Two cells with one config name every base alike and hold the same
    bytes; another seed changes every name."""
    cfg = ClusterConfig(n_osds=8, k=4, m=2, block_size=1 << 12, seed=2025)
    cells = [ECFS(cfg, method="fo") for _ in range(2)]
    other = ECFS(ClusterConfig(n_osds=8, k=4, m=2, block_size=1 << 12, seed=7), "fo")
    for ecfs in (*cells, other):
        ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    for bid in cells[0].known_blocks:
        a, b, c = (e.osd_hosting(bid).store for e in (*cells, other))
        assert a.named_base(bid)[0].name == b.named_base(bid)[0].name
        assert (a.view(bid) == b.view(bid)).all()
        assert a.named_base(bid)[0].name != c.named_base(bid)[0].name
