"""The record classes: construction by position and by keyword, equality,
hashing and immutability where frozen, and pickle and copy round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from goglattice import (
    AlternatingSignMatrix,
    CensusTable,
    ClassSizes,
    ColumnSumMatrix,
    InterlacingViolated,
    LemmaMargins,
    MeetCensusReport,
    MonotoneTriangle,
    NotAColumnSumMatrix,
    NotAnASM,
    NotAPermutation,
    Permutation,
    RowOutOfRange,
    RowSet,
    RunHistogram,
    RunHistogramReport,
    ShapeMismatch,
    TrianglePrefix,
)
from goglattice.counting import _Frozen, _Record

HISTOGRAM = {"n": 3, "counts": {1: 5, 2: 1, 3: 1}}

# (class, keyword arguments, the same with one field changed, frozen?)
RECORDS = [
    (MonotoneTriangle, {"rows": ((1,), (1, 2))}, {"rows": ((2,), (1, 2))}, True),
    (RowSet, {"n": 4, "mask": 0b1011}, {"n": 4, "mask": 0b1001}, True),
    (ColumnSumMatrix, {"entries": ((0, 1), (1, 1))}, {"entries": ((1, 0), (1, 1))}, True),
    (AlternatingSignMatrix, {"entries": ((0, 1), (1, 0))}, {"entries": ((1, 0), (0, 1))}, True),
    (Permutation, {"values": (2, 1)}, {"values": (1, 2)}, True),
    (TrianglePrefix, {"n": 3, "level": 1, "row": (2,)}, {"n": 3, "level": 1, "row": (3,)}, True),
    (RunHistogram, HISTOGRAM, {**HISTOGRAM, "counts": {1: 6, 3: 1}}, False),
    (
        CensusTable,
        {"n": 3, "counts": {4: 4, 5: 1, 6: 1, 7: 1}},
        {"n": 3, "counts": {4: 4, 5: 1, 6: 2}},
        False,
    ),
    (
        ClassSizes,
        {"n": 3, "r": 2, "exact_sizes": {3: 13, 2: 4, 1: 2}, "tail_threshold": -10, "tail_size": 0},
        {"n": 3, "r": 2, "exact_sizes": {3: 13, 2: 4, 1: 2}, "tail_threshold": -10, "tail_size": 1},
        False,
    ),
    (
        RunHistogramReport,
        {"n": 3, "histogram": RunHistogram(**HISTOGRAM), "head_matches": False, "tail_matches": True},
        {"n": 3, "histogram": RunHistogram(**HISTOGRAM), "head_matches": True, "tail_matches": True},
        False,
    ),
    (
        MeetCensusReport,
        {
            "n": 3, "r": 2, "n_min": 15, "p_min": Fraction(15, 49), "main_term": 14,
            "second_term": 8, "error_term": -7, "theta_ratio": Fraction(-7),
        },
        {
            "n": 3, "r": 2, "n_min": 15, "p_min": Fraction(15, 49), "main_term": 14,
            "second_term": 8, "error_term": -7, "theta_ratio": Fraction(-6),
        },
        False,
    ),
    (
        LemmaMargins,
        {"n_max": 2, "increase": [(1, 1, 1)], "ratio": [(1, 1, 1, 1)], "corollary": [(2, (1,), 0)]},
        {"n_max": 2, "increase": [(1, 1, 1)], "ratio": [(1, 1, 1, 1)], "corollary": [(2, (1,), 1)]},
        False,
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
FROZEN = [record for record in RECORDS if record[3]]
FROZEN_IDS = [cls.__name__ for cls, *_ in FROZEN]
PLAIN = [record for record in RECORDS if not record[3]]
PLAIN_IDS = [cls.__name__ for cls, *_ in PLAIN]


def fields_of(record):
    return {name: getattr(record, name) for name in vars(record)}


@pytest.mark.parametrize("cls, kwargs, other, frozen", RECORDS, ids=IDS)
def test_records_share_one_base(cls, kwargs, other, frozen):
    # one `==` and one repr for every record; the frozen ones add the rest
    assert issubclass(cls, _Record)
    assert issubclass(cls, _Frozen) == frozen
    assert cls.__eq__ is _Record.__eq__ and cls.__repr__ is _Record.__repr__


@pytest.mark.parametrize("cls, kwargs, other, frozen", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, other, frozen):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, kwargs, other, frozen", RECORDS, ids=IDS)
def test_equality_is_field_wise(cls, kwargs, other, frozen):
    a, b, c = cls(**kwargs), cls(**kwargs), cls(**other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != tuple(kwargs.values())


@pytest.mark.parametrize("cls, kwargs, other, frozen", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [
        pytest.param(lambda x: pickle.loads(pickle.dumps(x)), id="pickle"),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ],
)
def test_clone_round_trip(cls, kwargs, other, frozen, clone):
    original = cls(**kwargs)
    again = clone(original)
    assert type(again) is cls
    assert again == original
    assert fields_of(again) == fields_of(original)


@pytest.mark.parametrize("cls, kwargs, other, frozen", RECORDS, ids=IDS)
def test_hashable_exactly_when_frozen(cls, kwargs, other, frozen):
    a = cls(**kwargs)
    if frozen:
        assert hash(a) == hash(cls(**kwargs))
        assert len({a, cls(**kwargs), cls(**other)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, kwargs, other, frozen", FROZEN, ids=FROZEN_IDS)
def test_frozen_records_reject_assignment(cls, kwargs, other, frozen):
    a = cls(**kwargs)
    name, value = next(iter(other.items()))
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, other, frozen", PLAIN, ids=PLAIN_IDS)
def test_plain_records_accept_assignment(cls, kwargs, other, frozen):
    a = cls(**kwargs)
    name, value = list(other.items())[-1]
    setattr(a, name, value)
    assert getattr(a, name) == value


@pytest.mark.parametrize(
    "cls, kwargs, error",
    [
        (MonotoneTriangle, {"rows": ((3,), (1, 2))}, InterlacingViolated),
        (RowSet, {"n": 2, "mask": 0b100}, RowOutOfRange),
        (ColumnSumMatrix, {"entries": ((1, 1), (1, 1))}, NotAColumnSumMatrix),
        (AlternatingSignMatrix, {"entries": ((1, 1), (1, 0))}, NotAnASM),
        (Permutation, {"values": (1, 1)}, NotAPermutation),
        (TrianglePrefix, {"n": 3, "level": 2, "row": (1,)}, ShapeMismatch),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_keyword_construction_validates(cls, kwargs, error):
    with pytest.raises(error):
        cls(**kwargs)
