"""Every pinned world still produces the recorded rounds (see the package
docstring).  A failure here is a behaviour change: either fix the code or
re-record with ``python -m tests.pins --update`` in a ``[behaviour]`` PR."""

import numpy as np
import pytest

from . import WORLDS, capture, load

PINS, FLOATS = load()


def test_pin_file_covers_exactly_the_declared_worlds():
    assert sorted(PINS["worlds"]) == sorted(WORLDS)


@pytest.mark.parametrize("world", WORLDS)
def test_round_pin(world):
    want = dict(PINS["worlds"][world])
    start, stop = want.pop("floats")
    discrete, floats = capture(world)
    assert discrete == want
    if np.__version__ == PINS["numpy"]:
        assert floats.tobytes() == FLOATS[start:stop].tobytes()
    else:
        np.testing.assert_allclose(floats, FLOATS[start:stop], rtol=1e-12)
