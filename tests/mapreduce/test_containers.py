"""Phoenix++-style container behaviour and partitioning determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.containers import (
    ArrayContainer,
    HashContainer,
    OneBucketContainer,
    stable_key_hash,
)


def partition_items(container, num_partitions, partition):
    """Reference P-scan partitioning: one full pass over the container per
    partition, yielding the pairs whose key hashes into *partition*."""
    if not 0 <= partition < num_partitions:
        raise ValueError(
            f"partition {partition} out of range [0, {num_partitions})"
        )
    for key, acc in container.items():
        if stable_key_hash(key) % num_partitions == partition:
            yield key, acc


class TestStableKeyHash:
    @given(st.text(max_size=30))
    def test_string_hash_deterministic_and_nonnegative(self, key):
        assert stable_key_hash(key) == stable_key_hash(key)
        assert stable_key_hash(key) >= 0

    @given(st.integers(min_value=0, max_value=2**40))
    def test_int_hash_nonnegative(self, key):
        assert stable_key_hash(key) >= 0

    @given(st.tuples(st.integers(0, 100), st.integers(0, 100)))
    def test_tuple_hash_deterministic(self, key):
        assert stable_key_hash(key) == stable_key_hash(key)

    def test_distinct_strings_mostly_distinct(self):
        hashes = {stable_key_hash(f"word{i}") for i in range(1000)}
        assert len(hashes) > 990

    def test_bool_is_not_confused_with_int_path(self):
        assert stable_key_hash(True) == 1
        assert stable_key_hash(False) == 0


class TestHashContainer:
    def test_emit_and_fold(self):
        c = HashContainer(SumCombiner())
        c.emit("a", 1)
        c.emit("a", 2)
        c.emit("b", 5)
        assert dict(c.items()) == {"a": 3, "b": 5}
        assert len(c) == 2

    def test_partitions_cover_everything_once(self):
        c = HashContainer(SumCombiner())
        for i in range(100):
            c.emit(f"k{i}", 1)
        seen = []
        for bucket in c.partitions(8):
            seen.extend(k for k, _ in bucket)
        assert sorted(seen) == sorted(f"k{i}" for i in range(100))

    def test_partitions_out_of_range(self):
        c = HashContainer(SumCombiner())
        for num_partitions in (0, -1):
            with pytest.raises(ValueError):
                c.partitions(num_partitions)


class TestArrayContainer:
    def test_dense_keys(self):
        c = ArrayContainer(SumCombiner(), 4)
        c.emit(0, 1.0)
        c.emit(3, 2.0)
        c.emit(0, 1.0)
        assert dict(c.items()) == {0: 2.0, 3: 2.0}
        assert len(c) == 2

    def test_rejects_out_of_range(self):
        c = ArrayContainer(SumCombiner(), 4)
        with pytest.raises(KeyError):
            c.emit(4, 1.0)

    def test_rejects_non_int_keys(self):
        c = ArrayContainer(SumCombiner(), 4)
        with pytest.raises(TypeError):
            c.emit("0", 1.0)
        with pytest.raises(TypeError):
            c.emit(True, 1.0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ArrayContainer(SumCombiner(), 0)


class TestOneBucketContainer:
    def test_single_accumulator(self):
        c = OneBucketContainer(SumCombiner())
        assert len(c) == 0
        c.emit("ignored", 2.0)
        c.emit("also-ignored", 3.0)
        items = list(c.items())
        assert len(items) == 1
        assert items[0][1] == 5.0
        assert len(c) == 1


SCALAR_KEYS = st.one_of(
    st.text(max_size=12),
    st.binary(max_size=12),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
)
KEYS = st.recursive(
    SCALAR_KEYS,
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
)


def filled(kind, keys, size):
    """A container of *kind* with one emission per key (ArrayContainer
    keys are folded into its range)."""
    if kind == "hash":
        container = HashContainer(SumCombiner())
    elif kind == "array":
        container = ArrayContainer(SumCombiner(), size)
        keys = [stable_key_hash(key) % size for key in keys]
    else:
        container = OneBucketContainer(SumCombiner())
    for value, key in enumerate(keys):
        container.emit(key, value)
    return container


class TestPartitionsMatchPerPartitionScan:
    @given(
        st.sampled_from(["hash", "array", "one_bucket"]),
        st.lists(KEYS, max_size=60),
        st.integers(1, 67),
        st.integers(1, 97),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_bucket_equals_the_scan_in_order(
        self, kind, keys, num_partitions, size
    ):
        container = filled(kind, keys, size)
        buckets = container.partitions(num_partitions)
        assert len(buckets) == num_partitions
        for partition, bucket in enumerate(buckets):
            assert bucket == list(
                partition_items(container, num_partitions, partition)
            )
