"""The value types that streams are made of: ``Edge``, ``AugPath`` and ``Element``.

They are slotted frozen dataclasses with hand-written ``__init__``s; these
tests pin what callers rely on: frozenness, equality and hashing, the
endpoint normalization of ``Edge`` and the dataclass helpers.
"""

import dataclasses
import pickle

import pytest

from injectstream.errors import InvalidInstanceError
from injectstream.matching import AugPath, Edge
from injectstream.stream_model import Element

VALUES = {
    "Edge": lambda: Edge(3, 2),
    "AugPath": lambda: AugPath(Edge(0, 8), Edge(0, 1), Edge(1, 9)),
    "Element": lambda: Element(7, Edge(3, 2)),
}


@pytest.mark.parametrize("kind", list(VALUES))
def test_frozen_and_slotted(kind):
    """Fields and other names alike: no write or delete gets through."""
    value = VALUES[kind]()
    for name in (dataclasses.fields(value)[0].name, "x", "__weakref__"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=repr(name)):
            setattr(value, name, 5)
        with pytest.raises(dataclasses.FrozenInstanceError, match=repr(name)):
            delattr(value, name)
    assert not hasattr(value, "__dict__") and not hasattr(value, "x")
    assert value == VALUES[kind]()


@pytest.mark.parametrize("kind", list(VALUES))
def test_equal_values_hash_alike_and_survive_pickling(kind):
    a, b = VALUES[kind](), VALUES[kind]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_edge_normalizes_its_endpoints():
    assert Edge(3, 2) == Edge(2, 3)
    assert hash(Edge(3, 2)) == hash(Edge(2, 3))
    assert (Edge(3, 2).u, Edge(3, 2).v) == (2, 3)
    # unorderable endpoints fall back to their reprs: "'a'" < "1"
    for e in (Edge("a", 1), Edge(1, "a")):
        assert (e.u, e.v) == ("a", 1)
    assert repr(Edge(3, 2)) == "(2,3)"


def test_edge_self_loop_error_text():
    with pytest.raises(InvalidInstanceError, match=r"^self-loop at vertex 4$"):
        Edge(4, 4)
    with pytest.raises(InvalidInstanceError, match=r"^self-loop at vertex 'x'$"):
        Edge("x", "x")


def test_dataclass_replace_builds_through_init():
    assert dataclasses.replace(Edge(2, 3), v=1) == Edge(1, 2)
    with pytest.raises(InvalidInstanceError):
        dataclasses.replace(Edge(2, 3), v=2)
    path = VALUES["AugPath"]()
    moved = dataclasses.replace(path, wing_b=Edge(1, 10))
    assert (moved.wing_a, moved.center, moved.wing_b) == (Edge(0, 8), Edge(0, 1), Edge(1, 10))
    el = dataclasses.replace(Element(7), payload="p")
    assert (el.id, el.payload) == (7, "p")
    assert repr(el) == "Element(id=7, payload='p')"
    assert Element(7).payload is None
