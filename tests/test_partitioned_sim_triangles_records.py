"""Tests for the partitioned-merge simulator and triangle counting."""

import numpy as np
import pytest

from repro.apps.triangles import count_triangles, count_triangles_reference, undirected_simple
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph
from repro.merge.partitioned_sim import PartitionedMergeSim, PartitionedSimConfig
from tests.conftest import dense_from_lists, random_sorted_lists


class TestPartitionedSim:
    def test_functional_output(self, rng):
        lists = random_sorted_lists(rng, 5, 256, 70)
        sim = PartitionedMergeSim(PartitionedSimConfig(partitions=4))
        result = sim.run(lists, 256)
        assert np.allclose(result.output, dense_from_lists(lists, 256))

    def test_cycles_bounded_by_output_share(self, rng):
        lists = random_sorted_lists(rng, 4, 256, 40)
        result = PartitionedMergeSim(PartitionedSimConfig(partitions=4)).run(lists, 256)
        assert result.cycles >= 64  # dense range per partition

    def test_range_skew_hurts_partitioning(self):
        """Records concentrated in one key range make the owning partition
        the barrier -- the imbalance PRaP's radix interleaving avoids."""
        idx = np.arange(0, 64, dtype=np.int64)  # all in partition 0 of 4
        lists = [(idx, np.ones(64))] * 4  # heavy accumulation in range 0
        result = PartitionedMergeSim(PartitionedSimConfig(partitions=4)).run(lists, 256)
        assert result.load_imbalance() > 2.0
        # Compare: PRaP's radix split of the same records is balanced.
        from repro.merge.prap import PRaPMergeNetwork, PRaPConfig
        from repro.merge.merge_core import MergeCoreConfig

        network = PRaPMergeNetwork(PRaPConfig(q=2, core=MergeCoreConfig(ways=4)))
        network.merge(lists, 256)
        assert network.load_imbalance() == pytest.approx(1.0)

    def test_shallow_buffers_stall(self):
        idx = np.arange(0, 2048, 2, dtype=np.int64)
        lists = [(idx, np.ones(idx.size))]
        shallow = PartitionedMergeSim(
            PartitionedSimConfig(partitions=2, records_per_page=4, page_fetch_cycles=64, pages_buffered=1)
        ).run(lists, 2048)
        deep = PartitionedMergeSim(
            PartitionedSimConfig(partitions=2, records_per_page=4, page_fetch_cycles=64, pages_buffered=16)
        ).run(lists, 2048)
        assert shallow.stall_cycles > deep.stall_cycles

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedSimConfig(partitions=0)


class TestTriangles:
    def test_known_triangle(self):
        # A single triangle 0-1-2.
        m = COOMatrix.from_triples(3, 3, [0, 1, 2], [1, 2, 0], np.ones(3))
        assert count_triangles(m) == 1

    def test_no_triangles_in_chain(self):
        m = COOMatrix.from_triples(4, 4, [0, 1, 2], [1, 2, 3], np.ones(3))
        assert count_triangles(m) == 0

    def test_complete_graph(self):
        # K4 has C(4,3) = 4 triangles.
        rows, cols = zip(*[(i, j) for i in range(4) for j in range(4) if i != j])
        m = COOMatrix.from_triples(4, 4, list(rows), list(cols), np.ones(len(rows)))
        assert count_triangles(m) == 4

    def test_matches_dense_reference_er(self):
        g = erdos_renyi_graph(150, 6.0, seed=61)
        assert count_triangles(g) == count_triangles_reference(g)

    def test_matches_dense_reference_powerlaw(self):
        g = rmat_graph(7, 6.0, seed=62)
        assert count_triangles(g) == count_triangles_reference(g)

    def test_undirected_simple_strips_loops(self):
        m = COOMatrix.from_triples(3, 3, [0, 1], [0, 2], [5.0, 2.0])
        simple = undirected_simple(m)
        assert simple.nnz == 2  # the loop is gone, the edge mirrored
        dense = simple.to_dense()
        assert dense[1, 2] == 1.0 and dense[2, 1] == 1.0
        assert dense[0, 0] == 0.0

    def test_empty_graph(self):
        m = COOMatrix(4, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        assert count_triangles(m) == 0
