"""Byte-compat pins for the cheap paper artifacts (fig1, table1-quick).

The harness artifacts are deterministic text: same tree, same bytes.  The
committed goldens pin that — any change to simulated timing, placement,
RNG consumption, or table formatting shows up here as a readable diff
instead of silently shifting a published number.  They run in the fast CI
tier, so a result-changing commit cannot land without either fixing the
regression or deliberately re-blessing the files (which the blessing commit
must justify).  The quick-scale fig5 / fig6a / fig6b / fig7 / fig8b /
table2 goldens beside them are compared inside the ``benchmarks/`` runs
that already generate those figures (``quick_golden``), not a second time
here.  Every cell is computed by the tree under test: the sweep executor
keeps no result cache.

Goldens were last blessed for the integer-microsecond event core: service
and wire times now round onto the µs grid, which moved every latency by
sub-µs amounts (e.g. fig1's TSUE warm update is exactly 381 µs).
"""

from repro.harness import fig1, table1


def test_fig1_byte_compat(assert_golden):
    text, _ = fig1.run()
    assert_golden(text, "fig1.txt")


def test_table1_quick_byte_compat(assert_golden):
    text, _ = table1.run(scale="quick")
    assert_golden(text, "table1_quick.txt")
