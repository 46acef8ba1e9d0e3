"""Unit tests for the class table's inheritance lookups: ``ancestry``,
``method``, ``attributor``, ``all_fields``, ``is_subclass`` and the
per-class mode ``bindings`` an object's ancestors see."""

from repro.core.modes import Mode
from repro.lang.typechecker import check_program
from repro.lang.values import ObjectV

LO, MID, HI = Mode("lo"), Mode("mid"), Mode("hi")

#: Three levels: ``Top`` has an extra mode parameter ``Y``; ``Middle``
#: passes its own ``X`` through and an explicit ``hi`` for ``Y``;
#: ``Leaf`` passes its mode (possibly ``?``) through by default and
#: reuses the name ``Y`` for its own variable.
HIERARCHY = """
modes { lo <= mid; mid <= hi; }
class Top@mode<?X, Y> {
    int n;
    attributor { return mid; }
    int who() { return 1; }
    int base() { return 0; }
}
class Middle@mode<?X> extends Top@mode<X, hi> {
    int m;
    attributor { return hi; }
    int who() { return 2; }
}
class Leaf@mode<?Y> extends Middle {
    int k;
}
class Main { void main() { } }
"""


def _table():
    return check_program(HIERARCHY).table


def _own(bindings):
    """The entries of the three user classes (``Object`` binds its own
    internal variable)."""
    return {name: bindings[name] for name in ("Leaf", "Middle", "Top")}


def test_ancestry_is_nearest_first_and_shared():
    table = _table()
    names = [info.name for info in table.ancestry("Leaf")]
    assert names == ["Leaf", "Middle", "Top", "Object"]
    assert table.ancestry("Leaf") is table.ancestry("Leaf")
    assert [info.name for info in table.ancestry("Object")] == ["Object"]


def test_is_subclass_and_all_fields_follow_ancestry():
    table = _table()
    assert table.is_subclass("Leaf", "Top")
    assert table.is_subclass("Leaf", "Leaf")
    assert not table.is_subclass("Top", "Leaf")
    assert [f.name for f in table.all_fields("Leaf")] == ["n", "m", "k"]
    assert [f.owner for f in table.all_fields("Leaf")] == [
        "Top", "Middle", "Leaf"]


def test_method_is_the_nearest_declaration():
    table = _table()
    assert table.method("Leaf", "who").owner == "Middle"
    assert table.method("Top", "who").owner == "Top"
    assert table.method("Leaf", "base").owner == "Top"
    assert table.method("Leaf", "nope") is None


def test_attributor_is_the_nearest_declaring_class():
    table = _table()
    assert table.attributor("Leaf").name == "Middle"
    assert table.attributor("Middle").name == "Middle"
    assert table.attributor("Top").name == "Top"
    assert table.attributor("Main") is None


def test_bindings_give_each_class_its_own_variables():
    table = _table()
    dynamic = table.bindings("Leaf", (None,))
    assert _own(dynamic) == {
        "Leaf": {"Y": None},
        "Middle": {"X": None},
        "Top": {"X": None, "Y": HI},
    }
    assert table.bindings("Leaf", (None,)) is dynamic
    middle = table.bindings("Middle", (MID,))
    assert "Leaf" not in middle
    assert middle["Middle"] == {"X": MID}
    assert middle["Top"] == {"X": MID, "Y": HI}


def test_bindings_follow_a_retag():
    table = _table()
    args = (None,)
    obj = ObjectV(table.get("Leaf"), args, table.bindings("Leaf", args),
                  {})
    copy = obj.shallow_copy(MID, table)
    assert copy.effective_mode == MID
    assert copy.bindings is table.bindings("Leaf", (MID,))
    assert _own(copy.bindings) == {
        "Leaf": {"Y": MID},
        "Middle": {"X": MID},
        "Top": {"X": MID, "Y": HI},
    }
    obj.retag(LO, table)
    assert _own(obj.bindings) == {
        "Leaf": {"Y": LO},
        "Middle": {"X": LO},
        "Top": {"X": LO, "Y": HI},
    }
