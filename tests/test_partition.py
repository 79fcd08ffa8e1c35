"""Refinement, validation, quotients, the 1-WL oracle, and random controls.

The eps=0 fixpoint is cross-checked two independent ways: against classic
color refinement, and (on tiny graphs) against brute-force enumeration of
every set partition, keeping the unique equitable one with fewest blocks.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rolewire.errors import (
    EmptyGraphError,
    InputError,
    ParseError,
    SizeMismatchError,
)
from rolewire.graph import graph_from_edges
from rolewire.partition import (
    Partition,
    color_refinement_oracle,
    dump_partition_csv,
    dump_quotient_csv,
    load_partition_csv,
    membership_matrix,
    quotient,
    random_partition,
    refine_eps_be,
    validate_aep,
)

from conftest import (
    block_degree_matrix, complete_graph, cycle_graph, path_graph, star_graph,
)


# ---------------------------------------------------------------------------
# Brute-force oracle: coarsest equitable partition by exhaustive search
# ---------------------------------------------------------------------------

def all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def is_equitable(graph, blocks):
    part = Partition.from_blocks(graph.num_nodes, blocks)
    counts = block_degree_matrix(graph, part)
    for block in part.blocks:
        vecs = [tuple(counts[u]) for u in block]
        if len(set(vecs)) > 1:
            return False
    return True


def brute_force_coarsest_ep(graph):
    best = None
    for blocks in all_set_partitions(list(range(graph.num_nodes))):
        if is_equitable(graph, blocks):
            if best is None or len(blocks) < len(best):
                best = blocks
    return Partition.from_blocks(graph.num_nodes, best).as_block_set()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestBlockDegreeVector:
    def test_star_center(self, star4):
        part = Partition.from_blocks(4, [[0], [1, 2, 3]])
        assert list(block_degree_matrix(star4, part)[0]) == [0, 3]

    def test_star_leaf(self, star4):
        part = Partition.from_blocks(4, [[0], [1, 2, 3]])
        assert list(block_degree_matrix(star4, part)[1]) == [1, 0]

    def test_singletons_give_adjacency_row(self, c4):
        part = Partition.from_blocks(4, [[0], [1], [2], [3]])
        assert np.array_equal(block_degree_matrix(c4, part), c4.dense_adjacency())

    def test_sums_to_degree(self, corpus):
        for _, g in corpus[:12]:
            part = refine_eps_be(g, 1.0)
            assert np.array_equal(block_degree_matrix(g, part).sum(axis=1), g.degrees())


class TestRefine:
    def test_star_exact(self, star4):
        assert refine_eps_be(star4, 0).blocks == ((0,), (1, 2, 3))

    def test_star_coarse(self, star4):
        assert refine_eps_be(star4, 2).blocks == ((0, 1, 2, 3),)

    def test_cycle_single_block(self, c4):
        assert refine_eps_be(c4, 0).blocks == ((0, 1, 2, 3),)

    def test_matches_brute_force_on_tiny_graphs(self):
        tiny = [
            star_graph(3),
            path_graph(4),
            path_graph(5),
            cycle_graph(5),
            complete_graph(4),
            graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]),
            graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
            graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ]
        for g in tiny:
            target = brute_force_coarsest_ep(g)
            assert refine_eps_be(g, 0).as_block_set() == target
            assert color_refinement_oracle(g).as_block_set() == target

    def test_matches_wl_oracle_on_corpus(self, corpus):
        for name, g in corpus:
            fine = refine_eps_be(g, 0)
            oracle = color_refinement_oracle(g)
            assert fine.as_block_set() == oracle.as_block_set(), name

    def test_max_degree_collapses(self, corpus):
        for _, g in corpus[:20]:
            eps = float(g.degrees().max())
            assert refine_eps_be(g, eps).k == 1

    def test_validates_at_own_eps(self, corpus):
        for _, g in corpus[:20]:
            for eps in (0.0, 1.0, 2.5):
                part = refine_eps_be(g, eps)
                assert validate_aep(g, part, eps)

    def test_deterministic(self, corpus):
        for _, g in corpus[:8]:
            assert refine_eps_be(g, 1.0).blocks == refine_eps_be(g, 1.0).blocks

    def test_negative_eps_rejected(self, p3):
        with pytest.raises(ValueError):
            refine_eps_be(p3, -0.5)


class TestValidateAep:
    def test_singletons_always_pass(self, star4):
        part = Partition.from_blocks(4, [[0], [1], [2], [3]])
        assert validate_aep(star4, part, 0.0)

    def test_star_single_block_eps1_fails(self, star4):
        part = Partition.from_blocks(4, [[0, 1, 2, 3]])
        assert not validate_aep(star4, part, 1.0)

    def test_star_exact_eps0(self, star4):
        part = Partition.from_blocks(4, [[0], [1, 2, 3]])
        assert validate_aep(star4, part, 0.0)


class TestQuotient:
    def test_star_exact(self, star4):
        part = Partition.from_blocks(4, [[0], [1, 2, 3]])
        qp = quotient(star4, part)
        assert np.array_equal(qp.Q.toarray(), [[0.0, 3.0], [1.0, 0.0]])
        assert qp.residual == 0.0
        a = star4.dense_adjacency()
        r = membership_matrix(part).toarray()
        assert np.abs(a @ r - r @ qp.Q.toarray()).max() <= 1e-12

    def test_cycle_single_block(self, c4):
        qp = quotient(c4, Partition.from_blocks(4, [[0, 1, 2, 3]]))
        assert np.array_equal(qp.Q.toarray(), [[2.0]])
        assert qp.residual == 0.0

    def test_star_single_block(self, star4):
        qp = quotient(star4, Partition.from_blocks(4, [[0, 1, 2, 3]]))
        assert np.allclose(qp.Q.toarray(), [[1.5]])
        assert qp.residual == pytest.approx(1.5)

    def test_residual_bounded_by_eps(self, corpus):
        for _, g in corpus[:20]:
            for eps in (0.0, 1.0, 3.0):
                part = refine_eps_be(g, eps)
                qp = quotient(g, part)
                assert qp.residual <= eps + 1e-9

    def test_indicator_rows(self, star4):
        part = refine_eps_be(star4, 0)
        r = membership_matrix(part).toarray()
        assert np.array_equal(r.sum(axis=1), np.ones(4))


class TestColorRefinement:
    def test_path3(self, p3):
        assert color_refinement_oracle(p3).blocks == ((0, 2), (1,))

    def test_complete(self, k4):
        assert color_refinement_oracle(k4).k == 1

    def test_star(self, star4):
        assert color_refinement_oracle(star4).blocks == ((0,), (1, 2, 3))


class TestRandomPartition:
    def test_single_block_forced(self):
        assert random_partition(4, [4], seed=0).blocks == ((0, 1, 2, 3),)

    def test_singletons_forced(self):
        assert random_partition(4, [1, 1, 1, 1], seed=0).k == 4

    def test_seed_determinism(self):
        a = random_partition(10, [3, 3, 4], seed=7)
        b = random_partition(10, [3, 3, 4], seed=7)
        assert a.blocks == b.blocks

    def test_different_seeds_vary(self):
        draws = {random_partition(12, [6, 6], seed=s).blocks for s in range(8)}
        assert len(draws) > 1

    def test_size_multiset_respected(self):
        for seed in range(5):
            part = random_partition(9, [2, 3, 4], seed=seed)
            assert sorted(len(b) for b in part.blocks) == [2, 3, 4]

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            random_partition(4, [3, 2], seed=0)
        with pytest.raises(SizeMismatchError):
            random_partition(4, [4, 0], seed=0)


class TestPartitionIo:
    def test_csv_round_trip(self, star4):
        part = refine_eps_be(star4, 0)
        out = io.StringIO()
        dump_partition_csv(part, out)
        back = load_partition_csv(io.StringIO(out.getvalue()))
        assert back.blocks == part.blocks

    def test_rows_in_any_order(self):
        back = load_partition_csv(io.StringIO("node,block\n2,7\n0,7\n1,3\n"))
        assert back.blocks == ((0, 2), (1,))

    @pytest.mark.parametrize("body,error", [
        pytest.param("node,blk\n0,0\n", ParseError, id="header"),
        pytest.param("node,block\n0,0\n1\n", ParseError, id="short-line"),
        pytest.param("node,block\n0,0\n1,0,2\n", ParseError, id="long-line"),
        pytest.param("node,block\n0,0\n1,x\n", ParseError, id="block-word"),
        pytest.param("node,block\n0,0\n1.5,0\n", ParseError, id="node-float"),
        pytest.param("node,block\n0,0\n-1,0\n", ParseError, id="node-negative"),
        pytest.param("node,block\n0,0\n1,0\n1,1\n", ParseError, id="node-twice"),
        pytest.param("node,block\n0,0\n2,0\n", ParseError, id="node-missing"),
        pytest.param("node,block\n", EmptyGraphError, id="no-rows"),
    ])
    def test_malformed_csv_raises_input_error(self, body, error):
        with pytest.raises(error):
            load_partition_csv(io.StringIO(body))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.sampled_from(["0", "1", "2", "-1", "x", "", "3.5", " 1",
                                                   str(2**63), str(-2**63 - 1), str(10**20)]),
                                  max_size=3), max_size=5))
    def test_any_text_gives_partition_or_input_error(self, rows):
        body = "node,block\n" + "".join(",".join(r) + "\n" for r in rows)
        try:
            part = load_partition_csv(io.StringIO(body))
        except InputError:
            return
        assert list(range(part.num_nodes)) == sorted(u for b in part.blocks for u in b)

    def test_quotient_header(self, star4):
        qp = quotient(star4, refine_eps_be(star4, 0))
        out = io.StringIO()
        dump_quotient_csv(qp, 0.0, out)
        first = out.getvalue().splitlines()[0]
        assert first.startswith("#") and "eps=" in first and "residual=" in first


class TestCanonicalOrder:
    def test_blocks_sorted_by_min_node(self):
        part = Partition.from_blocks(5, [[4, 2], [3, 1], [0]])
        assert part.blocks == ((0,), (1, 3), (2, 4))
        assert list(part.block_of) == [0, 1, 2, 1, 2]

    def test_from_assignment_dense_ids(self):
        part = Partition.from_assignment([5, 5, 9, 9, 5])
        assert part.k == 2
        assert part.blocks == ((0, 1, 4), (2, 3))
