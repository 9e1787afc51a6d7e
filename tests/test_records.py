"""The record base ``algpoly._Record``: every record type keeps the
equality, hashing, immutability and ``repr`` of the frozen dataclass it
replaces."""

import dataclasses
from fractions import Fraction

import pytest

from heunlie import algpoly, cli, distsol, greenssf, heunop, sl2rep
from heunlie.algpoly import CRat, HeunParams, _Record
from heunlie.distsol import CoeffSequence, RecurrenceSpec, forward_real, weight_expansion
from heunlie.greenssf import (
    Distribution,
    GreenKernel,
    KernelScalars,
    SSFValue,
    SymbolCoeffs,
    green_kernel,
    ssf,
    symbol_coeffs,
)
from heunlie.heunop import Discrepancy, ExpandedCoeffs, UEACoeffs, uea_heun_coeffs

PARAMS = (2, 0, 1, Fraction(1, 2), 1, 1, 1)
SPEC = (2, 1, 3, 2, 2, 1, 3)
SCALARS = (1, 2, 1, 3, 2)

# each makes a fresh record, equal to every other it makes
RECORDS = {
    "HeunParams": lambda: HeunParams(*PARAMS),
    "UEACoeffs": lambda: uea_heun_coeffs(1, HeunParams(*PARAMS)),
    "ExpandedCoeffs": lambda: ExpandedCoeffs(CRat(1), CRat(2), CRat(0, 1), CRat(-3), CRat(4)),
    "Discrepancy": lambda: Discrepancy("rho", CRat(1), CRat(Fraction(1, 2))),
    "WeightExpansion": lambda: weight_expansion(1, 2, 3, 2),
    "RecurrenceSpec": lambda: RecurrenceSpec(*SPEC),
    "CoeffSequence": lambda: forward_real(RecurrenceSpec(*SPEC), 1, 0, 8),
    "KernelScalars": lambda: KernelScalars(*SCALARS),
    "SymbolCoeffs": lambda: symbol_coeffs(2, 1, KernelScalars(*SCALARS)),
    "GreenKernel": lambda: green_kernel(KernelScalars(*SCALARS)),
    "SSFValue": lambda: ssf(1.0, Distribution.delta(0, 0, 2)),
}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record.FIELD_NAMES}


def test_every_record_type_is_covered():
    found = {
        cls.__name__
        for module in (algpoly, heunop, distsol, greenssf)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, _Record) and cls is not _Record
    }
    assert found == set(RECORDS)


def test_one_report_block_rule():
    # _Record.as_dict writes every report block: Discrepancy only adds its
    # computed residual, and SSFValue's keys are computed, not its fields
    own = {
        cls.__name__
        for module in (algpoly, sl2rep, heunop, distsol, greenssf, cli)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, _Record) and "as_dict" in vars(cls)
    }
    assert own == {"_Record", "Discrepancy", "SSFValue"}


def test_one_field_rule():
    # _Record's __init__ sets every field by its annotation; a __post_init__
    # only checks what no annotation states (HeunParams' a, RecurrenceSpec's
    # l >= 1) and sets RecurrenceSpec's bracket memo
    own = {
        cls.__name__
        for module in (algpoly, sl2rep, heunop, distsol, greenssf, cli)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, _Record) and "__post_init__" in vars(cls)
    }
    assert own == {"HeunParams", "RecurrenceSpec"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_hash_equally(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a == type(a)(**_fields(a)) == type(a)(*_fields(a).values())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_equals_no_other_class(name):
    record = RECORDS[name]()
    cls = type(record)
    # a record type of another name with the same fields, and a subclass
    twin = type("Twin", (_Record,), {"__annotations__": dict.fromkeys(cls.FIELD_NAMES)},
                uncompared=tuple(n for n in cls.FIELD_NAMES if n not in cls._COMPARED))
    sub = type("Sub", (cls,), {})
    for other in (twin(**_fields(record)), sub(**_fields(record)), _fields(record),
                  tuple(_fields(record).values())):
        assert record != other and other != record
        assert record.__eq__(other) is NotImplemented


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_set_by_their_annotations(name):
    record = RECORDS[name]()
    cls = type(record)

    def built(field, value):
        return getattr(cls(**{**_fields(record), field: value}), field)

    for field, kind in cls.__annotations__.items():
        if kind == "CRat":
            for value in (3, Fraction(7, 3), "5/2-1/3i"):
                got = built(field, value)
                assert type(got) is CRat and got == CRat.from_value(value)
        if kind == "int":
            got = built(field, CRat(2))
            assert type(got) is int and got == 2
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got 1/2$"):
                built(field, Fraction(1, 2))
        if kind in ("CRat", "int"):
            with pytest.raises(TypeError, match="^cannot coerce float to CRat exactly$"):
                built(field, 0.5)
        if kind == "tuple":
            got = built(field, list(getattr(record, field)))
            assert type(got) is tuple and got == getattr(record, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_refuse_assignment_and_deletion(name):
    record = RECORDS[name]()
    text, h = repr(record), hash(record)
    for field in (*record.FIELD_NAMES, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, field)
    assert repr(record) == text and hash(record) == h and record == RECORDS[name]()


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"HeunParams"}))
def test_repr_is_the_dataclass_repr(name):
    # HeunParams keeps its own repr, of str() values (see test_heunop)
    record = RECORDS[name]()
    compared = [n for n in record.FIELD_NAMES if n in record._COMPARED]
    frozen = dataclasses.make_dataclass(name, compared, frozen=True)
    assert repr(record) == repr(frozen(*(getattr(record, n) for n in compared)))


def test_steps_stay_out_of_eq_hash_and_repr():
    solved = RECORDS["CoeffSequence"]()
    plain = CoeffSequence(solved.values)
    assert solved.steps is not None and plain.steps is None
    assert solved == plain and hash(solved) == hash(plain)
    assert repr(solved) == repr(plain) == f"CoeffSequence(values={solved.values!r})"


def test_the_bracket_memo_stays_out_of_eq_hash_and_repr():
    used, fresh = RecurrenceSpec(*SPEC), RecurrenceSpec(*SPEC)
    forward_real(used, 1, 0, 8)
    assert used._brackets and not fresh._brackets
    assert used._brackets is not fresh._brackets
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert "_brackets" not in used.FIELD_NAMES and "_brackets" not in repr(used)


def test_init_takes_fields_by_position_keyword_and_default():
    assert RecurrenceSpec(1) == RecurrenceSpec(l=1) == RecurrenceSpec(1, 0, 0, 0, 0, 0, 2)
    assert RecurrenceSpec(1, 2, tau=3) == RecurrenceSpec(1, 2, 0, 3)
    assert SymbolCoeffs(eps2=1, eps0=2, eps1=3) == SymbolCoeffs(2, 3, 1)
    assert SSFValue.FIELD_NAMES == ("kernel", "heaviside_arg")
    assert GreenKernel.FIELD_NAMES == ("p_bound", "prefactor", "scalar", "kp", "omega_at_0")
    assert CoeffSequence.FIELD_NAMES == ("values", "steps")
    assert CoeffSequence._COMPARED == ("values",)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # l has no default
    ((1, 0, 0, 0, 0, 0, 2, 9), {}),  # one positional too many
    ((1,), {"l": 1}),  # l given twice
    ((1,), {"m": 1}),  # no such field
])
def test_init_refuses_a_wrong_argument_list(args, kwargs):
    with pytest.raises(TypeError, match=r"^RecurrenceSpec\.__init__\(\) "):
        RecurrenceSpec(*args, **kwargs)


def test_post_init_checks_what_the_annotation_cannot():
    assert type(RecurrenceSpec(1).a) is CRat
    with pytest.raises(ValueError, match="exponent offset l must be >= 1"):
        RecurrenceSpec(0)
    with pytest.raises(ValueError, match="a must avoid 0 and 1"):
        HeunParams(1, 0, 0, 0, 0, 0, 0)
