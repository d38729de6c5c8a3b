"""FO — Full Overwrite (Aguilera et al. 2005; §2.2).

In-place update of the data block *and* every parity block, all in the
critical path.  All I/O is small-grained and random; the update path is the
longest of all methods (Fig. 1), but with zero log debt FO recovers fastest
(Fig. 8b's reference point).
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.client import UpdateOp
from repro.cluster.osd import OSD
from repro.common.errors import IntegrityError
from repro.ec.incremental import parity_delta
from repro.sim import spawn_fanout
from repro.update.base import UpdateMethod

__all__ = ["FullOverwrite"]


class FullOverwrite(UpdateMethod):
    name = "fo"

    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        # 1. in-place RMW of the data block (random read + random write)
        delta = yield from self.data_rmw(osd, op)
        # 2. for every parity block: compute the parity delta at the data
        #    node (GF multiply), ship it, and RMW the parity block in place.
        yield spawn_fanout(
            self.env,
            [
                self._update_parity(osd, posd, pbid, op, delta, j)
                for j, posd, pbid in self.parity_targets(op.block)
            ],
        )

    def _update_parity(self, osd: OSD, posd: OSD, pbid, op: UpdateOp, delta, j) -> Generator:
        yield self.env.timeout_us(self.costs.gf_mul(op.size))
        pdelta = parity_delta(self.parity_coef(j, op.block.idx), delta)
        yield from self.forward(osd, posd, op.size)
        try:
            yield from self.parity_rmw(posd, pbid, op.offset, pdelta)
        except IntegrityError:
            # the parity node died with the data already committed in
            # place: the stripe resyncs once the node restarts or rebuilds
            self._mark_parity_resync(pbid)
            raise
