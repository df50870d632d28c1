"""Every pinned serving world still produces the recorded windows, ledgers
and monitors (see the package docstring; same rule as the round pins)."""

import pytest

from . import SERVING_WORLDS, check, load

PINS, FLOATS = load("serving")


def test_serving_pin_file_covers_exactly_the_declared_worlds():
    assert sorted(PINS["worlds"]) == sorted(SERVING_WORLDS)


@pytest.mark.parametrize("world", SERVING_WORLDS)
def test_serving_pin(world):
    check("serving", world, PINS, FLOATS)
