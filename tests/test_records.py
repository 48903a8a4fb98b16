"""The value records keep the behaviour of frozen dataclasses.

``SeqParams``, ``IdentityReport``, ``BoxWeights``, ``TriMatrix`` and
``XSeries`` share one ``__slots__`` base instead of
``@dataclass(frozen=True)``.  This pins what callers could rely on before:
construction by position and keyword with the same defaults, the repr, eq
and hash by fields, no equality with a plain tuple, no assignment or
deletion, the validation messages, and pickle and copy round trips (a
frozen ``__slots__`` class unpickles by ``setattr`` unless it says
otherwise).
"""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from tnomial.oracles import BoxWeights, TriMatrix
from tnomial.report import IdentityReport
from tnomial.rings import XSeries
from tnomial.sequences import SeqParams

RECORDS = [  # class, positional arguments, every field by keyword, repr, a different record, an invalid call
    pytest.param(
        SeqParams,
        (2, 3),
        {"p": 2, "q": 3, "scale": 1},
        "SeqParams(p=2, q=3, scale=1)",
        SeqParams(2, 3, 2),
        ((2, 3, 0), "scale must be a positive integer"),
        id="SeqParams",
    ),
    pytest.param(
        IdentityReport,
        ("x", "grid", (3, 3), "vacuous"),
        {
            "identity_id": "x",
            "params": "grid",
            "bounds": (3, 3),
            "status": "vacuous",
            "first_counterexample": None,
            "notes": (),
            "checked": 0,
        },
        "IdentityReport(identity_id='x', params='grid', bounds=(3, 3), status='vacuous',"
        " first_counterexample=None, notes=(), checked=0)",
        IdentityReport("x", "grid", (3, 3), "holds", checked=1),
        (("x", "grid", (3, 3), "maybe"), "bad status 'maybe'"),
        id="IdentityReport",
    ),
    pytest.param(
        BoxWeights,
        ([1, 2],),
        {"weights": (1, 2)},
        "BoxWeights(weights=(1, 2))",
        BoxWeights((2, 1)),
        (([1, 0],), "box weights must be positive integers"),
        id="BoxWeights",
    ),
    pytest.param(
        TriMatrix,
        (((1,), (2, 3)),),
        {"rows": ((1,), (2, 3))},
        "TriMatrix(rows=((1,), (2, 3)))",
        TriMatrix(((1,), (2, 4))),
        ((((1,), (2,)),), "row 1 has 1 entries, expected 2"),
        id="TriMatrix",
    ),
    pytest.param(
        XSeries,
        ((1, 2),),
        {"coefficients": (1, 2)},
        "XSeries(coefficients=(1, 2))",
        XSeries((1, 2, 0)),
        None,
        id="XSeries",
    ),
]


@pytest.mark.parametrize("cls, args, fields, text, different, invalid", RECORDS)
def test_record_behaves_as_a_frozen_dataclass(cls, args, fields, text, different, invalid):
    record = cls(*args)
    assert record == cls(**fields) and hash(record) == hash(cls(**fields))
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert repr(record) == text

    values = tuple(fields.values())
    assert record != values and record.__eq__(values) is NotImplemented
    other = next(value for value in (SeqParams(2, 3), XSeries((1, 2))) if type(value) is not cls)
    assert record != other and other != record
    assert record != different

    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)

    if invalid is not None:
        bad_args, message = invalid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*bad_args)

    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for duplicate in copies:
        assert type(duplicate) is cls and duplicate == record and repr(duplicate) == text
