"""Fig. 5 — aggregate update throughput on the SSD cluster.

Paper shape: TSUE wins every (trace, RS, clients) cell; its advantage grows
with the parity count M (1.5x FO at M=2 -> 2.9x at M=4 in the paper); PLR is
the worst SOTA tier; PL is the best baseline.
"""

import pytest

from repro.harness import fig5


def _assert_tsue_wins_every_cell(data):
    for row, vals in data.items():
        best = max(vals, key=vals.get)
        assert best == "TSUE", f"{row}: {best} beat TSUE ({vals})"


def _assert_gap_grows_with_m(data):
    """TSUE/FO ratio at RS(6,4) must exceed the ratio at RS(6,2)."""
    for trace in ("alicloud", "tencloud"):
        lo = [v for r, v in data.items() if trace in r and "RS(6,2)" in r]
        hi = [v for r, v in data.items() if trace in r and "RS(6,4)" in r]
        if not lo or not hi:
            continue  # scale did not include both RS codes
        r_lo = lo[0]["TSUE"] / lo[0]["FO"]
        r_hi = hi[0]["TSUE"] / hi[0]["FO"]
        assert r_hi > r_lo, f"{trace}: ratio {r_lo:.2f} -> {r_hi:.2f} did not grow"


def _assert_pl_is_best_baseline(data):
    for row, vals in data.items():
        baselines = {k: v for k, v in vals.items() if k != "TSUE"}
        assert max(baselines, key=baselines.get) == "PL", (row, vals)


def _assert_plr_worst_tier(data):
    """PLR lands in the bottom two baselines in every cell."""
    for row, vals in data.items():
        baselines = sorted((v, k) for k, v in vals.items() if k != "TSUE")
        bottom_two = {k for _v, k in baselines[:2]}
        assert "PLR" in bottom_two, (row, baselines)


def _assert_ratio_bands(data):
    """TSUE/PL in [1.2, 3.5] and TSUE/PLR in [2, 12] — the paper reports
    1.5-2.2x and 3.9-10.1x; generous bands, the substrate is a simulator."""
    for row, vals in data.items():
        assert 1.2 <= vals["TSUE"] / vals["PL"] <= 3.5, (row, vals)
        assert 2.0 <= vals["TSUE"] / vals["PLR"] <= 12.0, (row, vals)


def test_fig5_throughput(quick_golden):
    text, data = fig5.run()
    print("\n" + text)
    quick_golden(text, "fig5_quick.txt")

    _assert_tsue_wins_every_cell(data)
    _assert_gap_grows_with_m(data)
    _assert_pl_is_best_baseline(data)
    _assert_plr_worst_tier(data)
    _assert_ratio_bands(data)
