"""Unit tests for the word-interleaved address map."""

import pytest

from repro.arch.address_map import AddressMap
from repro.arch.config import SystemConfig
from repro.engine.errors import MemoryError_


@pytest.fixture
def amap():
    return AddressMap(SystemConfig.scaled(16))


def test_consecutive_words_hit_consecutive_banks(amap):
    banks = [amap.bank_of(addr) for addr in range(0, 16 * 4, 4)]
    assert banks == list(range(16))


def test_wraps_to_next_row(amap):
    num_banks = amap.num_banks
    addr = num_banks * 4  # first word of row 1
    assert amap.bank_of(addr) == 0
    assert amap.row_of(addr) == 1


def test_locate_and_address_of_are_inverse(amap):
    for bank in (0, 1, amap.num_banks - 1):
        for row in (0, 5, amap.words_per_bank - 1):
            addr = amap.address_of(bank, row)
            assert amap.locate(addr) == (bank, row)


def test_misaligned_access_rejected(amap):
    with pytest.raises(MemoryError_):
        amap.bank_of(2)


def test_out_of_range_rejected(amap):
    with pytest.raises(MemoryError_):
        amap.bank_of(amap.memory_bytes)
    with pytest.raises(MemoryError_):
        amap.bank_of(-4)


def test_address_of_range_checks(amap):
    with pytest.raises(MemoryError_):
        amap.address_of(amap.num_banks, 0)
    with pytest.raises(MemoryError_):
        amap.address_of(0, amap.words_per_bank)


def test_every_word_maps_uniquely(amap):
    seen = set()
    for word in range(0, amap.num_banks * 2):
        location = amap.locate(word * 4)
        assert location not in seen
        seen.add(location)


@pytest.mark.parametrize("addr", [2, 4 * 7 + 1, -4, -1])
def test_locate_rejects_what_bank_of_rejects(amap, addr):
    for lookup in (amap.bank_of, amap.locate):
        with pytest.raises(MemoryError_):
            lookup(addr)


def test_bad_addresses_keep_their_messages(amap):
    with pytest.raises(MemoryError_, match="misaligned access: 0x6"):
        amap.bank_of(6)
    with pytest.raises(MemoryError_, match="outside SPM"):
        amap.locate(amap.memory_bytes)
    last = amap.memory_bytes - amap.word_bytes
    assert amap.locate(last) == (amap.num_banks - 1,
                                 amap.words_per_bank - 1)
    assert amap.bank_of(last) == amap.num_banks - 1
