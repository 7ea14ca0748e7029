"""The package's frozen records: construction by position or by name,
equality within their class, hash, repr and frozenness, as a frozen
dataclass gives them."""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from sploop import (CayleyTable, DensityRow, DigitCensus, GapRun, HurwitzEval,
                    SpAp, SpDecomposition, SpPair, SubLoop)
from sploop.record import Record

# Each record with an equal twin, one that differs in one field, and its repr.
VALUE_RECORDS = [
    (SpDecomposition(8, 2, 2), SpDecomposition(n=8, p=2, k=2),
     SpDecomposition(12, 3, 2), "SpDecomposition(n=8, p=2, k=2)"),
    (GapRun(33, 11), GapRun(start=33, length=11), GapRun(33, 12),
     "GapRun(start=33, length=11)"),
    (SubLoop(2, (1, 8, 12)), SubLoop(r=2, members=(1, 8, 12)),
     SubLoop(3, (1, 8, 12)), "SubLoop(r=2, members=(1, 8, 12))"),
    (SpPair(27, 28, 1), SpPair(lo=27, hi=28, gap=1), SpPair(27, 29, 1),
     "SpPair(lo=27, hi=28, gap=1)"),
    (SpAp((8, 12), 4), SpAp(terms=(8, 12), common_difference=4, chain_value=None),
     SpAp((8, 12), 4, 8),
     "SpAp(terms=(8, 12), common_difference=4, chain_value=None)"),
    (HurwitzEval(0.5, 4.9, 1e-12, 64),
     HurwitzEval(a=0.5, value=4.9, abs_error_bound=1e-12, terms=64),
     HurwitzEval(0.5, 4.9, 1e-12, 128),
     "HurwitzEval(a=0.5, value=4.9, abs_error_bound=1e-12, terms=64)"),
    (DensityRow(100, 30, 1.38, 0.64, 0.74),
     DensityRow(n=100, sp_count=30, ratio=1.38, target=0.64, abs_error=0.74),
     DensityRow(100, 31, 1.38, 0.64, 0.74),
     "DensityRow(n=100, sp_count=30, ratio=1.38, target=0.64, abs_error=0.74)"),
]


@pytest.mark.parametrize("record, twin, other, text", VALUE_RECORDS,
                         ids=[type(v[0]).__name__ for v in VALUE_RECORDS])
def test_value_records(record, twin, other, text):
    assert record == twin and not record != twin
    assert record != other
    assert hash(record) == hash(twin)
    assert len({record, twin, other}) == 2
    fields = tuple(getattr(record, name) for name in _field_names(text))
    assert record != fields  # a tuple of the same values is another class
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record


def _field_names(text: str) -> list[str]:
    inner = text[text.index("(") + 1 : -1]
    return [part.split("=")[0].strip() for part in inner.split(", ")
            if "=" in part]


@pytest.mark.parametrize("record", [v[0] for v in VALUE_RECORDS]
                         + [CayleyTable(order=1, members=(1,), entries=[[1]])],
                         ids=lambda v: type(v).__name__)
def test_records_are_frozen(record):
    name = _field_names(repr(record))[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 99)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == before


def test_cayley_table_compares_by_identity_and_hides_its_entries():
    table = CayleyTable(order=3, members=(1, 8, 12), entries=[[1, 8, 12]])
    twin = CayleyTable(order=3, members=(1, 8, 12), entries=[[1, 8, 12]])
    assert table == table and table != twin
    assert hash(table) == object.__hash__(table)
    assert repr(table) == "CayleyTable(order=3, members=(1, 8, 12))"
    assert table.entries == [[1, 8, 12]]


def test_digit_census_compares_by_value_and_cannot_hash_its_counts():
    census = DigitCensus(limit=20, counts={2: 1, 8: 1}, digit1_target=0.5)
    twin = DigitCensus(20, {2: 1, 8: 1}, 0.5)
    assert census == twin and census != DigitCensus(20, {2: 1}, 0.5)
    assert repr(census) == \
        "DigitCensus(limit=20, counts={2: 1, 8: 1}, digit1_target=0.5)"
    with pytest.raises(TypeError):
        hash(census)  # the counts are a dict
    with pytest.raises(AttributeError):
        census.limit = 21
    assert pickle.loads(pickle.dumps(census)) == census


# Each record class with one value per field, in field order.
CONSTRUCTIONS = [
    (SpDecomposition, {"n": 8, "p": 2, "k": 2}),
    (GapRun, {"start": 33, "length": 11}),
    (SubLoop, {"r": 2, "members": (1, 8, 12)}),
    (CayleyTable, {"order": 1, "members": (1,), "entries": [[1]]}),
    (SpPair, {"lo": 27, "hi": 28, "gap": 1}),
    (SpAp, {"terms": (8, 12), "common_difference": 4, "chain_value": 8}),
    (HurwitzEval, {"a": 0.5, "value": 4.9, "abs_error_bound": 1e-12,
                   "terms": 64}),
    (DensityRow, {"n": 100, "sp_count": 30, "ratio": 1.38, "target": 0.64,
                  "abs_error": 0.74}),
    (DigitCensus, {"limit": 20, "counts": {2: 1}, "digit1_target": 0.5}),
]


@pytest.mark.parametrize("cls, fields", CONSTRUCTIONS,
                         ids=[v[0].__name__ for v in CONSTRUCTIONS])
def test_records_build_by_position_or_by_name(cls, fields):
    values = list(fields.values())
    first, *_, last = fields
    rest = {name: fields[name] for name in fields if name != first}
    for record in (cls(*values), cls(**fields), cls(values[0], **rest)):
        assert [getattr(record, name) for name in fields] == values
    with pytest.raises(TypeError):  # a missing field
        cls(values[0])
    with pytest.raises(TypeError):
        cls(**rest)
    with pytest.raises(TypeError):  # an unknown keyword
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):  # an extra positional argument
        cls(*values, 99)
    with pytest.raises(TypeError):  # a field given twice
        cls(*values, **{last: values[-1]})


def test_sp_ap_chain_value_defaults_to_none():
    assert SpAp((8, 12), 4).chain_value is None
    assert SpAp(terms=(8, 12), common_difference=4).chain_value is None
    assert SpAp((8, 12), 4) == SpAp((8, 12), 4, None)


class Empty(Record):
    __slots__ = ()


class Twin(SpPair):
    __slots__ = ()


class Named(GapRun):
    __slots__ = ("name",)


def test_a_subclass_without_fields_keeps_its_base_fields():
    twin = Twin(27, 28, 1)
    assert (twin.lo, twin.hi, twin.gap) == (27, 28, 1)
    assert twin == Twin(lo=27, hi=28, gap=1) != SpPair(27, 28, 1)
    assert repr(twin) == "Twin(lo=27, hi=28, gap=1)"
    with pytest.raises(TypeError):
        Twin(27, 28)
    assert Empty() == Empty() and repr(Empty()) == "Empty()"


def test_a_subclass_adds_its_fields_after_its_base_fields():
    run = Named(33, 11, "first")
    assert (run.start, run.length, run.name) == (33, 11, "first")
    assert run == Named(start=33, length=11, name="first")
    assert run != Named(33, 12, "first") and run != Named(33, 11, "other")
    assert hash(run) == hash(Named(33, 11, "first"))
    assert repr(run) == "Named(start=33, length=11, name='first')"
    with pytest.raises(TypeError):
        Named("first")
    with pytest.raises(AttributeError):
        run.start = 1
    assert pickle.loads(pickle.dumps(run)) == run


def test_a_subclass_inherits_defaults_and_keeps_them_trailing():
    class Tagged(SpAp, defaults={"tag": ""}):
        __slots__ = ("tag",)

    assert Tagged((8, 12), 4) == Tagged((8, 12), 4, None, "")
    with pytest.raises(TypeError, match="without a default"):
        class Untagged(SpAp):
            __slots__ = ("tag",)


# Records are tuples of their fields underneath.


@pytest.mark.parametrize("record", [v[0] for v in VALUE_RECORDS],
                         ids=[type(v[0]).__name__ for v in VALUE_RECORDS])
def test_a_record_never_equals_a_plain_tuple(record):
    fields = tuple(record)
    assert not record == fields and record != fields
    assert not fields == record and fields != record
    assert [record] != [fields] and [fields] != [record]
    assert {record: 1}.get(fields) is None


def test_tuple_behaviour_of_a_record():
    pair = SpPair(27, 28, 1)
    assert len(pair) == 3 and pair[0] == 27 and pair[-1] == 1
    assert pair[:2] == (27, 28)
    lo, hi, gap = pair
    assert (lo, hi, gap) == (27, 28, 1)
    assert SpPair(27, 28, 1) < SpPair(27, 29, 2)
    assert len(Empty()) == 0


def test_json_writes_a_record_as_a_list():
    assert json.dumps(SpPair(27, 28, 1)) == "[27, 28, 1]"
    assert json.dumps(GapRun(33, 11)) == "[33, 11]"


def test_a_subclass_with_its_own_fields_pickles_and_copies():
    run = Named(33, 11, "first")
    for again in (pickle.loads(pickle.dumps(run)), copy.copy(run),
                  copy.deepcopy(run)):
        assert again == run and type(again) is Named
        assert (again.start, again.length, again.name) == (33, 11, "first")
    assert tuple(run) == (33, 11, "first")


def test_cayley_tables_differ_by_identity_in_both_operators():
    table = CayleyTable(order=1, members=(1,), entries=[[1]])
    twin = CayleyTable(order=1, members=(1,), entries=[[1]])
    assert table != twin and not table == twin
    assert not table != table and table == table


def test_gap_pairs_are_sp_pairs_by_value(index_117):
    from sploop import gap_pairs

    pairs = gap_pairs(index_117, 1, 117)
    assert pairs == [SpPair(lo, hi, 1) for lo, hi in index_117.gap_pairs(1, 117)]
    assert all(type(p) is SpPair for p in pairs)
    assert pairs[0] == SpPair(27, 28, 1) and pairs[0].hi == 28
