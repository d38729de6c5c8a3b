"""Table 2 — residence time of updated data in memory (TSUE, RS(12,4)).

Paper shape: appends and recycles are microseconds-to-milliseconds; the
BUFFER phase (waiting in a filling/queued unit) dominates total residence;
total residence is bounded (paper: ~10 s at full scale; bounded by the
unit-fill time at our scale).
"""

from repro.harness import table2


def test_table2_residence(quick_golden):
    text, raw = table2.run()
    print("\n" + text)
    quick_golden(text, "table2_quick.txt")

    for trace, stats in raw.items():
        dl = stats["datalog"]
        # append latency is micro/millisecond scale
        assert 0 < dl["append"] < 0.1, (trace, dl)
        # recycle work is fast relative to the buffered wait
        assert dl["buffer"] > dl["recycle"], (trace, dl)
        # the pipeline's total residence is bounded (well under a minute)
        total = sum(
            stats[layer][phase]
            for layer in stats
            for phase in ("append", "buffer", "recycle")
        )
        assert total < 60.0, (trace, total)
        # all three layers saw traffic under RS(12,4)
        assert stats["deltalog"]["append"] > 0
        assert stats["paritylog"]["append"] > 0
