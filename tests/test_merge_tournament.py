"""Tests for the software multi-way merge."""

import numpy as np
import pytest

from repro.merge.tournament import TournamentTree, merge_accumulate
from tests.conftest import dense_from_lists, random_sorted_lists


def test_merge_accumulate_empty():
    idx, val = merge_accumulate([])
    assert idx.size == 0 and val.size == 0


def test_merge_accumulate_single_list():
    idx, val = merge_accumulate([(np.array([1, 5, 9]), np.array([1.0, 2.0, 3.0]))])
    assert idx.tolist() == [1, 5, 9]
    assert val.tolist() == [1.0, 2.0, 3.0]


def test_merge_accumulate_sums_shared_keys():
    lists = [
        (np.array([0, 2, 4]), np.array([1.0, 1.0, 1.0])),
        (np.array([2, 4, 6]), np.array([10.0, 10.0, 10.0])),
    ]
    idx, val = merge_accumulate(lists)
    assert idx.tolist() == [0, 2, 4, 6]
    assert val.tolist() == [1.0, 11.0, 11.0, 10.0]


def test_merge_accumulate_output_sorted_strictly(rng):
    lists = random_sorted_lists(rng, 10, 500, 80)
    idx, val = merge_accumulate(lists)
    assert np.all(np.diff(idx) > 0)
    dense = np.zeros(500)
    dense[idx] = val
    assert np.allclose(dense, dense_from_lists(lists, 500))


def test_merge_accumulate_handles_empty_lists(rng):
    lists = [(np.array([], dtype=np.int64), np.array([]))] * 3
    lists.append((np.array([7]), np.array([2.0])))
    idx, val = merge_accumulate(lists)
    assert idx.tolist() == [7]


def test_tournament_tree_basic_order():
    tree = TournamentTree([[(0, 1.0), (3, 2.0)], [(1, 5.0)], [(2, 7.0), (4, 9.0)]])
    keys = []
    while tree:
        k, _ = tree.pop()
        keys.append(k)
    assert keys == [0, 1, 2, 3, 4]


def test_tournament_tree_accumulates_equal_keys():
    tree = TournamentTree([[(1, 1.0), (2, 1.0)], [(1, 10.0)], [(1, 100.0)]])
    key, val = tree.pop_accumulated()
    assert key == 1 and val == pytest.approx(111.0)
    key, val = tree.pop_accumulated()
    assert key == 2 and val == pytest.approx(1.0)


def test_tournament_tree_detects_unsorted_source():
    tree = TournamentTree([[(5, 1.0), (3, 2.0)]])
    # The violation surfaces when the out-of-order successor is pulled in,
    # i.e. while dequeuing the first record.
    with pytest.raises(ValueError):
        tree.pop()


def test_tournament_pop_empty_raises():
    tree = TournamentTree([[]])
    with pytest.raises(IndexError):
        tree.pop()


def test_tournament_matches_merge_accumulate(rng):
    lists = random_sorted_lists(rng, 8, 300, 60)
    ref_idx, ref_val = merge_accumulate(lists)
    tree = TournamentTree([list(zip(i.tolist(), v.tolist())) for i, v in lists])
    idx, val = tree.drain_accumulated()
    assert np.array_equal(idx, ref_idx)
    assert np.allclose(val, ref_val)


def test_tournament_sums_start_from_positive_zero():
    # bincount (merge_accumulate) starts every sum from +0.0, so keys
    # whose records are all -0.0 accumulate to +0.0 on both paths.
    lists = [(np.array([0, 1]), np.array([-0.0, -0.0])), (np.array([0]), np.array([-0.0]))]
    _, ref_val = merge_accumulate(lists)
    tree = TournamentTree([list(zip(i.tolist(), v.tolist())) for i, v in lists])
    _, val = tree.drain_accumulated()
    assert not np.signbit(ref_val).any()
    assert val.tobytes() == ref_val.tobytes()


def test_tournament_peek_key():
    tree = TournamentTree([[(4, 1.0)], [(2, 2.0)]])
    assert tree.peek_key() == 2
    tree.pop()
    assert tree.peek_key() == 4
    tree.pop()
    assert tree.peek_key() is None


def test_tournament_counts_comparisons(rng):
    lists = random_sorted_lists(rng, 4, 100, 20)
    tree = TournamentTree([list(zip(i.tolist(), v.tolist())) for i, v in lists])
    tree.drain_accumulated()
    total = sum(i.size for i, _ in lists)
    if total:
        assert tree.comparisons >= total  # ~log2(K) per record
