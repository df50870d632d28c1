"""Every pinned world still produces the recorded rounds (see the package
docstring).  A failure here is a behaviour change: either fix the code or
re-record with ``python -m tests.pins --update`` in a ``[behaviour]`` PR."""

import pytest

from . import WORLDS, check, load

PINS, FLOATS = load("round")


def test_pin_file_covers_exactly_the_declared_worlds():
    assert sorted(PINS["worlds"]) == sorted(WORLDS)


@pytest.mark.parametrize("world", WORLDS)
def test_round_pin(world):
    check("round", world, PINS, FLOATS)
