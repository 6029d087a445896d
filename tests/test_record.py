"""The value records of the exact layers: the behaviour of the frozen
dataclasses they replace, compared with a frozen dataclass of the same
fields, and the checks each record runs on construction."""

import dataclasses
from fractions import Fraction

import pytest

from correlpoly._record import Record
from correlpoly.exact_hull import HRep, VRep
from correlpoly.logic_core import (
    Atom,
    Coloring,
    Context,
    Logic,
    ParityCertificate,
    PartitionLogic,
    TwoValuedState,
)
from correlpoly.realization import Realization, RealVector, VerifyReport
from correlpoly.vertex_gen import TermSpec, TermTable

_LOGIC_FIELDS = ("l", (Atom(0, "a"), Atom(1, "b")), (Context((0, 1)),))
_LOGIC = Logic(*_LOGIC_FIELDS)
_VECTOR = RealVector("a", (Fraction(1), Fraction(0)), True)
_TERM = TermSpec("t", "prob", (0,))

# every record class, its fields pinned (a Python that made class annotations
# lazy without filling __annotations__ would give empty records), and values
RECORDS = [
    (VRep, ("dimension", "points"), (1, ((0,),))),
    (HRep, ("dimension", "inequalities", "linearities"), (1, ((0, 1),), ())),
    (Atom, ("index", "name"), (0, "a")),
    (Context, ("atoms",), ((0, 1),)),
    (Logic, ("name", "atoms", "contexts"), _LOGIC_FIELDS),
    (TwoValuedState, ("values",), ((0, 1),)),
    (Coloring, ("colors", "k"), ((0, 1), 2)),
    (ParityCertificate, ("atom_context_counts", "context_count"), ((2, 2), 3)),
    (PartitionLogic, ("atom_states",), (((1,), (2,)),)),
    (RealVector, ("name", "coords", "exact"), ("a", (Fraction(1), Fraction(0)), True)),
    (Realization, ("dimension", "vectors"), (2, (_VECTOR,))),
    (VerifyReport, ("nonorthogonal", "size_warnings", "collinear"), ((), ((0, 2),), ())),
    (TermSpec, ("label", "kind", "atoms"), ("t", "prob", (0,))),
    (TermTable, ("logic", "terms"), (_LOGIC, (_TERM,))),
]


def test_every_record_class_is_covered():
    ours = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("correlpoly.")}
    assert {cls for cls, _, _ in RECORDS} == ours


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_behaves_as_a_frozen_dataclass(cls, fields, values):
    assert cls._fields == cls.__match_args__ == fields
    ref = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    r = cls(*values)
    assert tuple(getattr(r, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == r
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == r
    assert r == cls(*values) and not r != cls(*values)
    assert repr(r) == repr(ref)
    assert hash(r) == hash(ref) == hash(values)
    # equal fields in another class do not make an equal record
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    assert r != twin(*values) and twin(*values) != r
    assert r != ref and r != values
    with pytest.raises(AttributeError):
        setattr(r, fields[0], values[0])
    with pytest.raises(AttributeError):
        r.extra = 1
    with pytest.raises(AttributeError):
        delattr(r, fields[0])
    assert tuple(getattr(r, f) for f in fields) == values
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values[:-1])


def test_record_repr_text():
    assert repr(VRep(1, ((0,),))) == "VRep(dimension=1, points=((0,),))"
    assert repr(Atom(0, "a")) == "Atom(index=0, name='a')"


@pytest.mark.parametrize("build", [
    lambda: VRep(1, dimension=1),                    # given twice
    lambda: VRep(dimension=1),                       # points missing
    lambda: VRep(1, ((0,),), size=1),                # no such field
], ids=["repeated", "missing", "unknown"])
def test_record_rejects_wrong_field_names(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: VRep(1, ()), "at least one point"),
    (lambda: VRep(2, ((0,),)), "does not match dimension"),
    (lambda: Logic("l", (Atom(0, "a"), Atom(1, "a")), (Context((0, 1)),)), "duplicate atom names"),
    (lambda: TermSpec("t", "odds", (0,)), "unknown term kind"),
    (lambda: RealVector("z", (Fraction(0), Fraction(0)), True), "vector z is zero"),
    (lambda: TermTable(_LOGIC, (_TERM, TermSpec("t", "expect", (1,)))), "duplicate term labels"),
])
def test_post_init_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
