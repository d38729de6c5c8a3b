"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

import pathlib

import pytest

_GOLDEN = pathlib.Path(__file__).parent / "tests" / "golden"


@pytest.fixture
def assert_golden():
    """Byte-compare an artifact's text with ``tests/golden/<name>``."""

    def check(text: str, name: str) -> None:
        want = (_GOLDEN / name).read_text()
        assert text == want, (
            f"{name} diverged from the committed golden; if the change is "
            f"intended, re-bless tests/golden/{name} and bump CACHE_SCHEMA"
        )

    return check
