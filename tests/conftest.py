import sys
from pathlib import Path

import pytest

from prefarg.kb import StratifiedKB

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"
# `python -m` puts the working directory first on sys.path, so a child
# process started here imports the package from this source tree.
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def unchecked_kb(core: tuple, strata: tuple) -> StratifiedKB:
    """A base built past validation, which refuses an inconsistent core."""
    kb = object.__new__(StratifiedKB)
    object.__setattr__(kb, "core", core)
    object.__setattr__(kb, "strata", strata)
    return kb


def strict_pairs(masks, arguments) -> list[tuple[str, str]]:
    """The strict part of a preorder given as masks, as (better, worse) id
    pairs in listing order; None, no preference, has none. Read off the
    definition, bit j of masks[i] set and bit i of masks[j] clear, pair by
    pair, so that it stays a reference for `framework.strict_masks`."""
    ids = [a.id for a in arguments]
    masks = masks or ()
    return [
        (ids[i], ids[j])
        for i, m in enumerate(masks)
        for j in range(len(ids)) if m >> j & 1 and not masks[j] >> i & 1
    ]


# Verdict lines collected by the acceptance suite; printed after the run
# so they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
