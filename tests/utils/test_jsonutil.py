"""canonical_json / to_builtin: the byte-stability foundation."""

import enum
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.jsonutil import canonical_json, to_builtin
from tests.utils import json_oracle


class TestToBuiltin:
    def test_numpy_scalars(self):
        assert type(to_builtin(np.int64(3))) is int
        assert type(to_builtin(np.int32(3))) is int
        assert type(to_builtin(np.float64(2.5))) is float
        assert type(to_builtin(np.float32(0.5))) is float
        assert type(to_builtin(np.bool_(True))) is bool

    def test_arrays_become_nested_lists(self):
        out = to_builtin(np.arange(6).reshape(2, 3))
        assert out == [[0, 1, 2], [3, 4, 5]]
        assert all(type(v) is int for row in out for v in row)

    def test_tuples_become_lists(self):
        assert to_builtin((1, (2, 3))) == [1, [2, 3]]

    def test_nested_dict(self):
        data = {"a": np.float64(1.5), "b": {"c": (np.int64(2),)}}
        out = to_builtin(data)
        assert out == {"a": 1.5, "b": {"c": [2]}}
        json.dumps(out)

    def test_numeric_keys_stringified(self):
        out = to_builtin({np.int64(3): "x", 4: "y", 2.5: "z"})
        assert out == {"3": "x", "4": "y", "2.5": "z"}

    def test_plain_values_pass_through(self):
        for value in (None, True, "s", 1, 1.5, []):
            assert to_builtin(value) == value


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_numpy_equals_builtin_encoding(self):
        # The whole point: a payload assembled from numpy must hash the
        # same as the equivalent builtin payload.
        a = canonical_json({"x": np.float64(0.05), "n": np.int64(7)})
        b = canonical_json({"x": 0.05, "n": 7})
        assert a == b

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
        with pytest.raises(ValueError):
            canonical_json({"x": np.float64(math.inf)})

    def test_round_trip_is_stable(self):
        payload = {"jobs": [{"id": np.int64(1), "t": np.float64(2.5)}]}
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text


class Label(str):
    """A str subclass: must not take the exact-str fast path."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


hostile_keys = st.one_of(
    st.text(max_size=4),
    st.text(max_size=4).map(Label),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, width=32),
    st.integers(min_value=-5, max_value=5).map(np.int64),
    st.sampled_from(Level),
)

hostile_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.text(max_size=4).map(Label),
    st.sampled_from(Level),
    st.integers(min_value=-9, max_value=9).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(-9, 9), max_size=4).map(np.array),
    st.lists(st.floats(allow_nan=False), max_size=4).map(np.array),
)

hostile_values = st.recursive(
    hostile_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hostile_keys, inner, max_size=4),
        st.dictionaries(hostile_keys, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=16,
)


def _assert_identical(got, want, path="$"):
    """Equal values of the same exact type, dict items in the same order."""
    assert type(got) is type(want), f"{path}: {type(got)} != {type(want)}"
    if isinstance(want, dict):
        assert list(got) == list(want), path
        assert [type(k) for k in got] == [type(k) for k in want], path
        for key in want:
            _assert_identical(got[key], want[key], f"{path}.{key!r}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for index, (a, b) in enumerate(zip(got, want)):
            _assert_identical(a, b, f"{path}[{index}]")
    else:
        assert got == want, path


class TestToBuiltinOracle:
    @settings(max_examples=300, deadline=None)
    @given(value=hostile_values)
    def test_matches_the_isinstance_walk(self, value):
        _assert_identical(to_builtin(value), json_oracle.to_builtin(value))

    def test_subclasses_are_returned_as_is(self):
        label = Label("x")
        assert to_builtin(label) is label
        assert to_builtin(Level.HIGH) is Level.HIGH
        out = to_builtin({Label("k"): Level.LOW, True: np.float64(0.5)})
        assert [type(k) for k in out] == [Label, bool]
        assert type(out[True]) is float
