"""Fig. 1 — critical-path latency decomposition per update method.

The paper's Fig. 1 is a schematic of the update paths; here we measure it:
two back-to-back 4 KiB updates to the *same address* are issued on an
otherwise idle cluster.  The first ("cold") update exercises each method's
first-touch path (PARIX's extra serial hop, PLR's first reserved append...),
the second ("warm") its steady-state path.  Expected ordering: FO longest;
the write-after-read family (PL/PLR/CoRD) next; TSUE shortest (replica-style
sequential append).
"""

from __future__ import annotations

from repro.cluster.ecfs import ECFS
from repro.harness.runner import ExperimentConfig
from repro.metrics.tables import format_table
from repro.net.fabric import NetParams

__all__ = ["METHODS", "run"]

METHODS = ("fo", "fl", "pl", "plr", "parix", "cord", "tsue")


def run() -> tuple[str, dict]:
    rows: dict[str, dict[str, float]] = {}
    for method in METHODS:
        cfg = ExperimentConfig(method=method, k=6, m=4, seed=99)
        ecfs = ECFS(
            cfg.cluster_config(),
            method=method,
            net_params=NetParams(latency=cfg.net_latency),
        )
        files = ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
        (client,) = ecfs.add_clients(1)

        def two_updates():
            yield ecfs.env.process(client.update(files[0], 8192, 4096))
            yield ecfs.env.process(client.update(files[0], 8192, 4096))

        ecfs.env.run(ecfs.env.process(two_updates(), name="fig1"))
        cold, warm = (lat * 1e6 for lat in ecfs.metrics.updates.latencies[:2])
        rows[method.upper()] = {"cold update (us)": cold, "warm update (us)": warm}
    text = format_table(
        rows, title="Fig.1 — single-update critical-path latency", floatfmt="{:,.1f}"
    )
    return text, rows
