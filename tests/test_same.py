"""bench/same.py on fakes: the encoding of task outputs and the comparison of two trees'."""

import collections
import importlib.util
import math
import pathlib

import numpy as np

from finsler_iso import linalg as la

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "same.py"
_SPEC = importlib.util.spec_from_file_location("same", _PATH)
same = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same)

Report = collections.namedtuple("Report", "passed deviation witness")


class _Path:
    def __init__(self, vertices):
        self.vertices = vertices


def test_floats_encode_by_their_bits():
    assert same.encode(0.1) == (0.1).hex()
    assert same.encode(0.1) != same.encode(math.nextafter(0.1, 1.0))
    assert same.encode(np.float64(-0.0)) == "-0x0.0p+0" != same.encode(0.0)
    assert same.encode(1 + 2j) == ["0x1.0000000000000p+0", "0x1.0000000000000p+1"]
    assert same.encode(math.inf) == "inf" and same.encode(True) is True


def test_arrays_encode_by_dtype_shape_and_bytes():
    a = np.arange(6.0).reshape(2, 3)
    assert same.encode(a) == same.encode(a.copy()) == same.encode(np.asfortranarray(a))
    assert same.encode(a).startswith("float64[2, 3]:")
    b = a.copy()
    b[1, 2] = math.nextafter(b[1, 2], 9.0)
    assert same.encode(b) != same.encode(a)
    assert same.encode(a.reshape(3, 2)) != same.encode(a)
    assert same.encode(a.astype(complex)) != same.encode(a)


def test_named_tuples_objects_and_exceptions_encode_field_by_field():
    v = la.vector([1.0, 2.0])
    report = Report(False, 0.5, (v, v))
    assert same.encode(report) == {"Report": {
        "passed": False, "deviation": (0.5).hex(),
        "witness": [{"Vector": {"entries": same.encode(v.entries), "field": "real"}}] * 2}}
    assert same.encode(_Path(v.entries)) == {"_Path": {"vertices": same.encode(v.entries)}}
    assert same.encode({1: [None, "x"]}) == {"1": [None, "x"]}
    assert same.encode(ValueError("no start")) == {"raises": "ValueError: no start"}


def test_a_task_that_raises_encodes_its_exception():
    class Task:
        def run(self):
            raise ZeroDivisionError("1 / 0")
    assert same.run_task(Task()) == {"raises": "ZeroDivisionError: 1 / 0"}


def test_the_keys_that_differ_are_those_one_side_lacks_or_encodes_otherwise():
    parent = {"a": "0x1p+0", "b": [1, 2], "c": None, "d": {"x": 1}}
    change = {"a": "0x1p+0", "b": [1, 3], "d": {"x": 1}, "e": None}
    assert same.differing(parent, change) == ["b", "c", "e"]
    assert same.differing(parent, dict(parent)) == []
