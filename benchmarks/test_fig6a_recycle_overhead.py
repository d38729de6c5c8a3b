"""Fig. 6a — back-end recycle overhead on foreground updates.

Paper shape: with a 2-unit quota update throughput is "minimal" (appends
stall behind recycling); with >= 4 units it is significantly higher and
stable over the run.
"""

from repro.harness import fig6


def test_fig6a_quota_effect(quick_golden):
    text, data = fig6.run_fig6a()
    print("\n" + text)
    quick_golden(text, "fig6a_quick.txt")

    q2, q4 = data["quota=2"], data["quota=4"]
    # adequate quota clearly beats the starved configuration ...
    assert q4["iops"] > 1.2 * q2["iops"]
    # ... because the starved one stalls appends behind recycling more
    assert q2["stalls"] > q4["stalls"]
    # the 4-unit run sustains throughput across the run (no dead windows)
    import numpy as np

    series = np.asarray(q4["series_iops"])
    assert (series > 0).all()
