"""Tests for PRaP, the store queue, and the partitioned-merge ablation."""

import numpy as np
import pytest

from repro.merge.merge_core import MergeCoreConfig
from repro.merge.partitioned import PartitionedMergeConfig, partitioned_merge_dense
from repro.merge.prap import PRaPConfig, PRaPMergeNetwork, prap_merge_dense, radix_of
from repro.merge.store_queue import StoreQueue
from tests.conftest import dense_from_lists, random_sorted_lists


def test_radix_of():
    keys = np.array([0, 1, 7, 8, 9, 15, 16])
    assert radix_of(keys, 3).tolist() == [0, 1, 7, 0, 1, 7, 0]
    assert radix_of(keys, 0).tolist() == [0] * 7


def test_prap_config_properties():
    cfg = PRaPConfig(q=4, core=MergeCoreConfig(ways=1024), dpage_bytes=2048)
    assert cfg.n_cores == 16
    assert cfg.prefetch_buffer_bytes == 1024 * 2048  # independent of p
    assert cfg.records_per_cycle() == 16


def test_prap_buffer_independent_of_core_count():
    small = PRaPConfig(q=1, core=MergeCoreConfig(ways=512))
    big = PRaPConfig(q=6, core=MergeCoreConfig(ways=512))
    assert small.prefetch_buffer_bytes == big.prefetch_buffer_bytes


def test_prap_merge_dense_matches_reference(rng):
    lists = random_sorted_lists(rng, 12, 1000, 200)
    out = prap_merge_dense(lists, 1000, q=3)
    assert np.allclose(out, dense_from_lists(lists, 1000))


@pytest.mark.parametrize("q", [0, 1, 2, 4])
def test_prap_merge_dense_various_widths(rng, q):
    lists = random_sorted_lists(rng, 6, 257, 70)  # n_out not divisible by p
    out = prap_merge_dense(lists, 257, q=q)
    assert np.allclose(out, dense_from_lists(lists, 257))


def test_prap_merge_dense_empty_lists():
    out = prap_merge_dense([], 16, q=2)
    assert np.allclose(out, np.zeros(16))


def test_prap_merge_dense_rejects_out_of_range():
    with pytest.raises(ValueError):
        prap_merge_dense([(np.array([20]), np.array([1.0]))], 10, q=1)


def test_prap_network_record_level_matches_reference(rng):
    cfg = PRaPConfig(q=2, core=MergeCoreConfig(ways=8))
    network = PRaPMergeNetwork(cfg)
    lists = random_sorted_lists(rng, 8, 200, 60)
    out = network.merge(lists, 200)
    assert np.allclose(out, dense_from_lists(lists, 200))
    assert network.presort_batches > 0


def test_prap_network_tracks_core_loads(rng):
    cfg = PRaPConfig(q=2, core=MergeCoreConfig(ways=4))
    network = PRaPMergeNetwork(cfg)
    lists = random_sorted_lists(rng, 4, 128, 60)
    network.merge(lists, 128)
    total = sum(i.size for i, _ in lists)
    assert network.core_input_records.sum() == total
    assert network.load_imbalance() >= 1.0


def test_prap_network_skewed_radix_still_correct():
    """All keys share one radix: worst-case load imbalance."""
    idx = np.arange(0, 64, 4, dtype=np.int64)  # radix 0 only (q=2)
    lists = [(idx, np.ones(idx.size))]
    cfg = PRaPConfig(q=2, core=MergeCoreConfig(ways=2))
    network = PRaPMergeNetwork(cfg)
    out = network.merge(lists, 64)
    assert out.sum() == idx.size
    assert network.core_input_records.tolist()[0] == idx.size
    assert network.load_imbalance() == pytest.approx(4.0)


def test_prap_network_rejects_too_many_lists(rng):
    cfg = PRaPConfig(q=1, core=MergeCoreConfig(ways=2))
    network = PRaPMergeNetwork(cfg)
    with pytest.raises(ValueError):
        network.merge(random_sorted_lists(rng, 3, 50, 10), 50)


def test_store_queue_interleaves_residue_classes():
    queue = StoreQueue(4)
    for radix in range(4):
        keys = np.arange(radix, 16, 4)
        queue.push_stream(radix, keys, keys.astype(float))
    out = queue.drain()
    assert out.tolist() == [float(i) for i in range(16)]


def test_store_queue_detects_desync():
    queue = StoreQueue(2)
    queue.push(0, 0, 1.0)
    queue.push(1, 3, 2.0)  # should be key 1
    with pytest.raises(RuntimeError):
        queue.dequeue_cycle()


def test_store_queue_detects_missing_record():
    queue = StoreQueue(2)
    queue.push(0, 0, 1.0)
    assert not queue.ready()
    with pytest.raises(RuntimeError):
        queue.dequeue_cycle()


def test_store_queue_uneven_streams():
    queue = StoreQueue(2)
    queue.push_stream(0, np.array([0, 2]), np.array([1.0, 2.0]))
    queue.push_stream(1, np.array([1]), np.array([3.0]))
    with pytest.raises(RuntimeError):
        queue.drain()


def test_store_queue_offset():
    queue = StoreQueue(2, vector_offset=10)
    queue.push(0, 10, 1.0)
    queue.push(1, 11, 2.0)
    assert queue.dequeue_cycle().tolist() == [1.0, 2.0]


def test_partitioned_merge_matches_reference(rng):
    lists = random_sorted_lists(rng, 9, 400, 120)
    for m in (1, 3, 8):
        out = partitioned_merge_dense(lists, 400, m)
        assert np.allclose(out, dense_from_lists(lists, 400))


def test_partitioned_buffer_grows_linearly():
    base = PartitionedMergeConfig(partitions=1, n_lists=1024, dpage_bytes=2048)
    grown = PartitionedMergeConfig(partitions=16, n_lists=1024, dpage_bytes=2048)
    assert grown.prefetch_buffer_bytes == 16 * base.prefetch_buffer_bytes
    assert grown.prefetch_buffer_bytes == 32 << 20  # the paper's 32 MB example


def test_partitioned_vs_prap_buffer_scaling():
    """The headline scalability claim of section 4.2."""
    k, dpage = 1024, 2048
    prap = PRaPConfig(q=4, core=MergeCoreConfig(ways=k), dpage_bytes=dpage)
    part = PartitionedMergeConfig(partitions=16, n_lists=k, dpage_bytes=dpage)
    assert part.prefetch_buffer_bytes == 16 * prap.prefetch_buffer_bytes


def test_partitioned_validation():
    with pytest.raises(ValueError):
        partitioned_merge_dense([], 10, 0)
    with pytest.raises(ValueError):
        PartitionedMergeConfig(partitions=0, n_lists=1)
