"""Unit tests for message types and op classifications."""

import pytest

from repro.interconnect.messages import (
    AMO_OPS,
    MemRequest,
    Op,
    WAIT_OPS,
    WRITE_OPS,
    next_req_id,
)


def test_write_ops_contains_all_stores():
    assert Op.SW in WRITE_OPS
    assert Op.SC in WRITE_OPS
    assert Op.SCWAIT in WRITE_OPS
    for op in AMO_OPS:
        assert op in WRITE_OPS


def test_reads_are_not_write_ops():
    for op in (Op.LW, Op.LR, Op.LRWAIT, Op.MWAIT):
        assert op not in WRITE_OPS


def test_wait_ops_are_exactly_the_withheld_ones():
    assert WAIT_OPS == {Op.LRWAIT, Op.MWAIT}


def test_request_ids_are_unique():
    a = MemRequest(op=Op.LW, core_id=0, addr=0)
    b = MemRequest(op=Op.LW, core_id=0, addr=0)
    assert a.req_id != b.req_id


def test_request_str_is_informative():
    req = MemRequest(op=Op.SCWAIT, core_id=3, addr=0x40, value=9)
    text = str(req)
    assert "scwait" in text and "core=3" in text and "0x40" in text


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_op_attributes_agree_with_the_op_sets(op):
    assert op.mnemonic == op.value
    assert op.resp_kind == "resp_" + op.value
    assert op.waits is (op in WAIT_OPS)
    assert op.amo is (op in AMO_OPS)


def test_op_values_equality_and_hash_are_unchanged():
    # Spec hashes and cache keys are built from these; the per-member
    # attributes must not disturb them.
    assert {op.name: op.value for op in Op} == {
        "LW": "lw", "SW": "sw", "AMO_ADD": "amoadd", "AMO_SWAP": "amoswap",
        "AMO_AND": "amoand", "AMO_OR": "amoor", "AMO_XOR": "amoxor",
        "AMO_MAX": "amomax", "AMO_MIN": "amomin", "LR": "lr", "SC": "sc",
        "LRWAIT": "lrwait", "SCWAIT": "scwait", "MWAIT": "mwait"}
    for op in Op:
        assert hash(op) == hash(op.name)
        assert Op(op.value) is op
        assert op == op and op != op.value
    assert Op.LR != Op.SC


def test_request_ids_drawn_directly_share_the_default_counter():
    first = MemRequest(op=Op.LW, core_id=0, addr=0).req_id
    drawn = next_req_id()
    last = MemRequest(op=Op.LW, core_id=0, addr=0).req_id
    assert first < drawn < last
