"""The hand-written value types: class-exact equality and hashing, and
immutability; and the import of autfn building no dataclass."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from autfn.endos import Endomorphism
from autfn.graphs import EdgePath, EdgeStep, Graph
from autfn.matrices import IntMatrix
from autfn.words import Word

SRC = Path(__file__).resolve().parent.parent / "src"


def _graph():
    return Graph(("v0", "v1"), (("a", "v0", "v1"), ("b", "v1", "v0")))


# Each type, with a function that builds a fresh instance from the same fields,
# and one that builds an instance differing in one field.
VALUES = {
    "Word": (lambda: Word(2, (1, -2)), lambda: Word(2, (1, 2))),
    "Endomorphism": (
        lambda: Endomorphism(2, (Word(2, (2,)), Word(2, (1,)))),
        lambda: Endomorphism(2, (Word(2, (1,)), Word(2, (2,)))),
    ),
    "IntMatrix": (
        lambda: IntMatrix(2, ((1, 1), (0, 1))),
        lambda: IntMatrix(2, ((1, 0), (1, 1))),
    ),
    "Graph": (_graph, lambda: Graph(("v0", "v1"), (("a", "v0", "v1"), ("b", "v0", "v1")))),
    "EdgePath": (
        lambda: EdgePath(_graph(), "v0", (EdgeStep("a", True),)),
        lambda: EdgePath(_graph(), "v1", (EdgeStep("b", True),)),
    ),
}


def _fields(value, cls=None):
    """The values of the slots that ``cls`` (by default the value's type)
    declares."""
    return tuple(getattr(value, name) for name in (cls or type(value)).__slots__)


@pytest.mark.parametrize("name", VALUES)
def test_equality_and_hash_follow_the_fields(name):
    make, other = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other() and not a == other()


@pytest.mark.parametrize("name", VALUES)
def test_equality_is_class_exact(name):
    make, _ = VALUES[name]
    a = make()
    cls = type(a)
    twin = object.__new__(type(f"Twin{name}", (cls,), {"__slots__": ()}))
    for slot, value in zip(cls.__slots__, _fields(a)):
        object.__setattr__(twin, slot, value)
    assert _fields(twin, cls) == _fields(a)
    assert a != twin and twin != a
    assert a != _fields(a)
    assert len({a, twin}) == 2


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _ = VALUES[name]
    a = make()
    for slot in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, slot, None)
        with pytest.raises(AttributeError):
            delattr(a, slot)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")


def test_graph_equality_ignores_its_endpoint_map():
    a, b = _graph(), _graph()
    assert a.ends is not b.ends
    a.ends["c"] = ("v0", "v0")
    assert a == b and hash(a) == hash(b)
    assert "ends" not in repr(a)


def test_checks_run_in_the_constructors():
    with pytest.raises(ValueError, match="not freely reduced"):
        Word(2, (1, -1))
    with pytest.raises(ValueError, match="expected 2 images"):
        Endomorphism(2, (Word(2, (1,)),))
    with pytest.raises(ValueError, match="expected 2x2 entries"):
        IntMatrix(2, ((1, 0),))
    with pytest.raises(ValueError, match="not connected"):
        Graph(("v0", "v1"), ())
    with pytest.raises(ValueError, match="starts at 'v1'"):
        EdgePath(_graph(), "v0", (EdgeStep("b", True),))


def test_reduced_words_skip_the_checks():
    # For results reduced by construction only; the public constructor checks.
    assert Word._reduced(2, (1, -1)).letters == (1, -1)


def test_import_builds_no_dataclass():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import autfn; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_no_source_module_uses_dataclasses():
    use = re.compile(r"^\s*(?:from dataclasses |import dataclasses|@dataclass)", re.M)
    for path in sorted((SRC / "autfn").glob("*.py")):
        assert not use.search(path.read_text()), path.name
