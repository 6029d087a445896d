"""The value records of the package: the behaviour of the frozen
dataclasses they replace, compared with a frozen dataclass of the same
fields, and the checks each record runs on construction."""

import dataclasses
from fractions import Fraction

import pytest

from correlpoly._record import Record
from correlpoly.exact_hull import HRep, VRep
from correlpoly.logic_core import Logic, ParityCertificate
from correlpoly.quantum import OperatorExpr, Optimum
from correlpoly.realization import Realization, RealVector, VerifyReport
from correlpoly.vertex_gen import TermSpec

_LOGIC_FIELDS = ("l", ("a", "b"), ((0, 1),))
_VECTOR = RealVector("a", (Fraction(1), Fraction(0)))
_EXPR_FIELDS = (1, ((1.0, ("z",)),), (("z", ("spin", Fraction(1, 2), "$t", 0.0)),), (("t", 0.5),))

# every record class, its fields pinned (a Python that made class annotations
# lazy without filling __annotations__ would give empty records), and values
RECORDS = [
    (VRep, ("dimension", "points"), (1, ((0,),))),
    (HRep, ("dimension", "inequalities", "linearities"), (1, ((0, 1),), ())),
    (Logic, ("name", "atoms", "contexts"), _LOGIC_FIELDS),
    (ParityCertificate, ("atom_context_counts", "context_count"), ((2, 2), 3)),
    (RealVector, ("name", "coords"), ("a", (Fraction(1), Fraction(0)))),
    (Realization, ("dimension", "vectors"), (2, (_VECTOR,))),
    (VerifyReport, ("nonorthogonal", "size_warnings", "collinear"), ((), ((0, 2),), ())),
    (TermSpec, ("label", "kind", "atoms"), ("t", "prob", (0,))),
    (OperatorExpr, ("sites", "terms", "binds", "params"), _EXPR_FIELDS),
    # params is a dict in maximize_bound's results; a tuple here, to hash
    (Optimum, ("lambda_max", "params", "evaluations", "upper_bound", "certified"),
     (2.0, (("t", 0.5),), 9, 4.0, False)),
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
    # the functions of dataclasses accept records
    assert dataclasses.is_dataclass(r)
    assert tuple(f.name for f in dataclasses.fields(r)) == fields
    assert dataclasses.asdict(r) == dataclasses.asdict(ref)
    assert dataclasses.replace(r, **{fields[-1]: values[-1]}) == r


def test_record_repr_text():
    assert repr(VRep(1, ((0,),))) == "VRep(dimension=1, points=((0,),))"
    assert repr(Logic(*_LOGIC_FIELDS)) == "Logic(name='l', atoms=('a', 'b'), contexts=((0, 1),))"


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
    (lambda: HRep(2, ((0, 1, 0), (1, -1)), ()), "row length does not match"),
    (lambda: HRep(2, (), ((0, 1, 0, 1),)), "row length does not match"),
    (lambda: Logic("l", ("a", "a"), ((0, 1),)), "duplicate atom names"),
    (lambda: Logic("l", ("a", "b"), ((0, 1), (1, 0))), "duplicate context"),
    (lambda: Logic("l", ("a", "b", "c"), ((0, 1),)),
     "every atom must appear in at least one context"),
    (lambda: TermSpec("t", "odds", (0,)), "unknown term kind"),
    (lambda: TermSpec("t", "expect", (0, 1)), "expect takes one atom"),
    (lambda: RealVector("z", (Fraction(0), Fraction(0))), "vector z is zero"),
    (lambda: Realization(3, (RealVector("b", (0, 1)),)),
     "vector b has 2 coordinates in dimension 3"),
    (lambda: Logic("x", ("a", "b", "c"), ((0, 0, 1), (1, 2))), "repeated atom in context"),
    (lambda: OperatorExpr(2, *_EXPR_FIELDS[1:]), "one factor per site"),
    (lambda: OperatorExpr(1, ((1.0, ("y",)),), *_EXPR_FIELDS[2:]), "unbound labels"),
    (lambda: OperatorExpr(1, (), *_EXPR_FIELDS[2:]), "no terms"),
    (lambda: OperatorExpr(1, ((1.0, ("z",)), (1.0, ("p",))),
                          (*_EXPR_FIELDS[2], ("p", ("proj", (1, 0, 0)))),
                          _EXPR_FIELDS[3]), r"site 1 has inconsistent dimensions \[2, 3\]"),
    (lambda: OperatorExpr(*_EXPR_FIELDS[:3], ()), r"angle \$t names no param"),
    (lambda: OperatorExpr(*_EXPR_FIELDS[:3], (("t", 0.5), ("t", 1.0))),
     r"a param is given twice in \('t', 't'\)"),
])
def test_post_init_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
