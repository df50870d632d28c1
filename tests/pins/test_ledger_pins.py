"""Every pinned ledger still exports and persists the recorded bytes: the
sync upload (``UsageLedger.export``) and the ``LedgerEntry.to_dict``
records of a persisted segment (see the package docstring)."""

import pytest

from . import LEDGER_WORLDS, check, load

PINS, FLOATS = load("ledger")


def test_ledger_pin_file_covers_exactly_the_declared_worlds():
    assert sorted(PINS["worlds"]) == sorted(LEDGER_WORLDS)


@pytest.mark.parametrize("world", LEDGER_WORLDS)
def test_ledger_pin(world):
    check("ledger", world, PINS, FLOATS)
