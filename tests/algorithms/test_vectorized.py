"""Endless mode of the flat RMW drivers (the pollers of Fig. 5)."""

import random
from itertools import islice

import pytest

from repro.algorithms.vectorized import flat_uniform_rmw
from repro.cores.api import CoreApi, MemCmd, Retire
from repro.interconnect.messages import Op


def test_endless_amo_driver_draws_bins_lazily():
    api = CoreApi(core_id=3, num_cores=16, seed=5)
    before = api.rng.getstate()
    driver = flat_uniform_rmw(api, 0x100, 4, 16, None, "amo")
    assert api.rng.getstate() == before     # nothing drawn up front
    commands = list(islice(driver, 20_000))
    reference = random.Random()
    reference.setstate(before)
    expected = [0x100 + reference.randrange(16) * 4 for _ in range(10_000)]
    amos, retires = commands[0::2], commands[1::2]
    assert all(isinstance(cmd, MemCmd) and cmd.op is Op.AMO_ADD
               and cmd.value == 1 for cmd in amos)
    assert [cmd.addr for cmd in amos] == expected
    assert all(isinstance(cmd, Retire) for cmd in retires)
    # Exactly one draw per started update, none ahead of the consumer.
    assert api.rng.getstate() == reference.getstate()


def test_endless_amo_driver_keeps_going():
    api = CoreApi(core_id=0, num_cores=1)
    driver = flat_uniform_rmw(api, 0, 4, 1, None, "amo")
    for _ in range(3):
        assert len(list(islice(driver, 1000))) == 1000


def test_unknown_method_rejected_in_endless_mode():
    api = CoreApi(core_id=0, num_cores=1)
    with pytest.raises(ValueError, match="lock"):
        flat_uniform_rmw(api, 0, 4, 1, None, "lock")
