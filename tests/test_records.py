"""The record and result types: construction, immutability, repr, equality,
hashing, and round trips through copy and pickle."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import viscoident as v
from viscoident.pipeline import Report, Table

T3 = np.array([0.0, 0.5, 1.0])

# type -> (field names, field values); each value is one that the type's
# validation keeps as it is
FROZEN = {
    v.KernelParams: (("alpha", "beta", "lam"), (0.5, 0.1, 0.8)),
    v.SeriesSum: (("value", "terms", "last_term", "max_term"), (1.5, 3, 1e-13, 2.0)),
    v.PowerLaw: (("H", "q"), (1.0, 1.5)),
    v.ResponseHistory: (("times", "values", "kind", "driver"),
                        (T3, np.array([1.0, 1.1, 1.2]), v.KIND_CREEP, 1.0)),
    v.KernelSamples: (("times", "values"), (T3[1:], np.array([3.0, 2.5]))),
    v.IsochroneDataset: (("strain_levels", "times", "phi_t"),
                         (np.array([0.5, 1.0]), T3[:2],
                          np.array([[1.0, 0.9], [2.0, 1.8]]))),
    v.Spline: (("t", "B", "twoC", "threeD"),
               (T3[1:], np.array([3.0, 2.5]), np.array([0.0, -2.0]),
                np.array([0.0, -1.0]))),
}
MUTABLE = {
    v.IdentificationResult: (
        ("lambda_hat", "q_hat", "delta", "m_selected", "weights", "diagnostics"),
        (0.8, 1.5, 1e-3, 2, np.array([1.0, 0.5]), {"lambda_ratio": 0.8})),
    Report: (("header", "config", "result", "tables"),
             ({"mode": "table1"}, {"gamma": "1e-06"}, {"rows": "2"},
              {"t": Table(("j", "t"), "1,0.5\n")})),
}
RECORDS = {**FROZEN, **MUTABLE}


def same_field(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and np.array_equal(a, b) and a.dtype == b.dtype
    if isinstance(a, Table):
        return (a.columns, a.rows) == (b.columns, b.rows)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_field(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def assert_fields(record, names, values):
    assert all(same_field(getattr(record, name), value)
               for name, value in zip(names, values, strict=True))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_keyword(cls):
    names, values = RECORDS[cls]
    assert_fields(cls(*values), names, values)
    assert_fields(cls(**dict(zip(names, values))), names, values)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen(cls):
    names, values = FROZEN[cls]
    record = cls(*values)
    for name in names:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, values[0])
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert_fields(record, names, values)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable(cls):
    names, values = MUTABLE[cls]
    record = cls(*values)
    for name in names:
        setattr(record, name, "new")
    assert all(getattr(record, name) == "new" for name in names)


def test_mutable_defaults_are_fresh():
    first, second = Report(), Report()
    assert (first.header, first.config, first.result, first.tables) == ({}, {}, {}, {})
    first.result["rows"] = "1"
    assert second.result == {}
    result = v.IdentificationResult(0.8, 1.5, 1e-3, 2, np.ones(2))
    assert result.diagnostics == {}
    assert v.IdentificationResult(0.8, 1.5, 1e-3, 2, np.ones(2)).diagnostics \
        is not result.diagnostics


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_repr(cls):
    names, values = FROZEN[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_literal():
    assert repr(v.KernelParams(0.5, 0.1, 0.8)) == \
        "KernelParams(alpha=0.5, beta=0.1, lam=0.8)"
    assert repr(v.PowerLaw(1.0, 1.5)) == "PowerLaw(H=1.0, q=1.5)"
    assert repr(v.KernelSamples([1.0, 2.0], [3.0, 2.5])) == \
        "KernelSamples(times=array([1., 2.]), values=array([3. , 2.5]))"


@pytest.mark.parametrize("cls", [v.KernelParams, v.PowerLaw],
                         ids=lambda cls: cls.__name__)
def test_value_equality_and_hash(cls):
    _, values = FROZEN[cls]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1
    other = cls(*values[:-1], 2 * values[-1])
    assert a != other
    assert a != values  # a tuple of the same values is not the record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("trip", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_round_trip(cls, trip):
    names, values = RECORDS[cls]
    record = trip(cls(*values))
    assert type(record) is cls
    assert_fields(record, names, values)
    if cls in FROZEN:
        with pytest.raises(FrozenInstanceError):
            setattr(record, names[0], values[0])
