"""The value classes: every field is set once, by the constructor."""

import pickle

import pytest

from starcycle import (
    AdmissibleGraph,
    AngleContext,
    PolyDiffOperator,
    Polynomial,
    PolyVector,
    VolumeForm,
    WeightEntry,
    WeightTable,
    assemble_star,
)

_P = Polynomial.parse("x1^2 - 1/3", 2)
_MOYAL = PolyVector(2, 1, {(1, 2): Polynomial.one(2)})
VALUES = [
    _P,
    PolyDiffOperator(2, 1, {((1, 0),): _P}),
    _MOYAL,
    VolumeForm(2, _P),
    AdmissibleGraph.from_key("2;2;b1,2|b2,1"),
    assemble_star(_MOYAL, WeightTable.builtin(), 1),
    AngleContext.standard((0.0, 0.0, 1.0)),
    WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.01, 16, 1),
]


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_fields_can_be_neither_assigned_nor_deleted(value):
    text = repr(value)  # first, as a graph caches its key on the first read
    fields = type(value).__slots__
    before = [getattr(value, name) for name in fields]
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(getattr(value, name) is old for name, old in zip(fields, before))
    assert repr(value) == text and value == value


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_values_survive_a_pickle_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        blob = pickle.dumps(value, protocol)
        back = pickle.loads(blob)
        assert type(back) is type(value) and pickle.dumps(back, protocol) == blob
        if type(value).__eq__ is not object.__eq__:  # a star product compares by identity
            assert back == value
        with pytest.raises(AttributeError):
            setattr(back, type(value).__slots__[0], None)
