"""Reserved-op dispatch of :class:`AtomicAdapter` subclasses.

``EXTRA_OPS`` is the declaration; :meth:`AtomicAdapter.handle` tests a
set derived from it once per class, so the dispatch must follow each
class's declaration and must not depend on ``AtomicAdapter.__init__``.
"""

import pytest

from repro.engine.errors import ProtocolViolation
from repro.interconnect.messages import Op
from repro.memory.adapter import AtomicAdapter
from repro.memory.lrsc import LrscAdapter

from .fake_controller import FakeController, request


class NoSuperInitAdapter(AtomicAdapter):
    """Declares LR and never calls ``super().__init__``."""

    EXTRA_OPS = frozenset({Op.LR})

    def __init__(self, controller) -> None:
        self.ctrl = controller
        self.reserved: list = []

    def handle_reserved(self, req) -> None:
        self.reserved.append(req.op)


def test_subclass_without_super_init_dispatches_reserved_ops():
    adapter = NoSuperInitAdapter(FakeController())
    adapter.handle(request(Op.LR, core=0, addr=0))
    adapter.handle(request(Op.LW, core=0, addr=0))   # still a plain load
    assert adapter.reserved == [Op.LR]


def test_unsupported_op_raises_the_same_message():
    adapter = NoSuperInitAdapter(FakeController(bank_id=3))
    with pytest.raises(ProtocolViolation,
                       match=r"^bank 3: op sc unsupported by "
                             r"NoSuperInitAdapter$"):
        adapter.handle(request(Op.SC, core=0, addr=0))
    assert adapter.reserved == []


def test_inherited_and_narrowed_declarations():
    class Inherits(LrscAdapter):
        pass

    class LrOnly(LrscAdapter):
        EXTRA_OPS = frozenset({Op.LR})

    ctrl = FakeController()
    inherits = Inherits(ctrl)
    inherits.handle(request(Op.LR, core=1, addr=8))
    inherits.handle(request(Op.SC, core=1, addr=8, value=5))
    assert ctrl.read(8) == 5
    lr_only = LrOnly(FakeController())
    lr_only.handle(request(Op.LR, core=1, addr=8))
    with pytest.raises(ProtocolViolation, match="op sc unsupported by "
                                                "LrOnly"):
        lr_only.handle(request(Op.SC, core=1, addr=8, value=5))
