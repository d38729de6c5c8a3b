"""Benchmark-suite configuration.

Each benchmark regenerates one table/figure of the paper on a scaled-down
cluster and asserts the paper's qualitative *shape* — who wins and by
roughly what factor.  Set ``REPRO_SCALE=full`` for runs closer to paper
scale.

The experiments are single-shot deterministic simulations, so nothing here
is timed: host time is measured by ``perfbench/run.py`` and nowhere else.
"""

import pathlib

import pytest

from repro.harness.runner import current_scale

_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    # every benchmark regenerates a full table/figure: slow by definition,
    # excluded from the fast CI tier (pytest -m "not slow").  The hook sees
    # the whole session's items, so scope to this directory.
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def quick_golden(assert_golden):
    """Pin a quick-scale artifact byte for byte (``tests/golden``) in the
    run that already generates it; other scales keep the shape assertions."""

    def check(text: str, name: str) -> None:
        if current_scale() == "quick":
            assert_golden(text, name)

    return check
