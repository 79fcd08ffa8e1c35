"""Refinement, validation, quotients, the 1-WL oracle, and random controls.

The eps=0 fixpoint is cross-checked two independent ways: against classic
color refinement, and (on tiny graphs) against brute-force enumeration of
every set partition, keeping the unique equitable one with fewest blocks.
"""

import io
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from rolewire import partition
from rolewire.cli import main
from rolewire.errors import (
    EmptyGraphError,
    InputError,
    ParseError,
)
from rolewire.generators import make_graph
from rolewire.graph import Csr, dump_edge_list, graph_from_edges
from rolewire.partition import (
    Partition,
    QuotientPair,
    color_refinement_oracle,
    dump_partition_csv,
    dump_quotient_csv,
    load_partition_csv,
    quotient,
    refine_eps_be,
    validate_aep,
)
from rolewire.rewire import Variant, build_rewired

from conftest import (
    SizeMismatchError, as_block_set, block_degree_matrix, block_tuples, complete_graph,
    cycle_graph, from_blocks, membership_matrix, path_graph, random_partition, star_graph,
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
    part = from_blocks(graph.num_nodes, blocks)
    counts = block_degree_matrix(graph, part)
    for block in block_tuples(part):
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
    return as_block_set(from_blocks(graph.num_nodes, best))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestBlockDegreeVector:
    def test_star_center(self, star4):
        part = from_blocks(4, [[0], [1, 2, 3]])
        assert list(block_degree_matrix(star4, part)[0]) == [0, 3]

    def test_star_leaf(self, star4):
        part = from_blocks(4, [[0], [1, 2, 3]])
        assert list(block_degree_matrix(star4, part)[1]) == [1, 0]

    def test_singletons_give_adjacency_row(self, c4):
        part = from_blocks(4, [[0], [1], [2], [3]])
        assert np.array_equal(block_degree_matrix(c4, part), c4.dense_adjacency())

    def test_sums_to_degree(self, corpus):
        for _, g in corpus[:12]:
            part = refine_eps_be(g, 1.0)
            assert np.array_equal(block_degree_matrix(g, part).sum(axis=1), g.degrees())


class TestRefine:
    def test_star_exact(self, star4):
        assert block_tuples(refine_eps_be(star4, 0)) == ((0,), (1, 2, 3))

    def test_star_coarse(self, star4):
        assert block_tuples(refine_eps_be(star4, 2)) == ((0, 1, 2, 3),)

    def test_cycle_single_block(self, c4):
        assert block_tuples(refine_eps_be(c4, 0)) == ((0, 1, 2, 3),)

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
            assert as_block_set(refine_eps_be(g, 0)) == target
            assert as_block_set(color_refinement_oracle(g)) == target

    def test_matches_wl_oracle_on_corpus(self, corpus):
        for name, g in corpus:
            fine = refine_eps_be(g, 0)
            oracle = color_refinement_oracle(g)
            assert as_block_set(fine) == as_block_set(oracle), name

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
            assert block_tuples(refine_eps_be(g, 1.0)) == block_tuples(refine_eps_be(g, 1.0))

    def test_negative_eps_rejected(self, p3):
        with pytest.raises(ValueError):
            refine_eps_be(p3, -0.5)

    def test_nan_eps_rejected_like_a_negative_one(self, p3):
        with pytest.raises(ValueError, match="nonnegative"):
            refine_eps_be(p3, float("nan"))


class TestValidateAep:
    def test_singletons_always_pass(self, star4):
        part = from_blocks(4, [[0], [1], [2], [3]])
        assert validate_aep(star4, part, 0.0)

    def test_star_single_block_eps1_fails(self, star4):
        part = from_blocks(4, [[0, 1, 2, 3]])
        assert not validate_aep(star4, part, 1.0)

    def test_star_exact_eps0(self, star4):
        part = from_blocks(4, [[0], [1, 2, 3]])
        assert validate_aep(star4, part, 0.0)


class TestQuotient:
    def test_star_exact(self, star4):
        part = from_blocks(4, [[0], [1, 2, 3]])
        qp = quotient(star4, part)
        assert np.array_equal(qp.Q.toarray(), [[0.0, 3.0], [1.0, 0.0]])
        assert qp.residual == 0.0
        a = star4.dense_adjacency()
        r = membership_matrix(part).toarray()
        assert np.abs(a @ r - r @ qp.Q.toarray()).max() <= 1e-12

    def test_cycle_single_block(self, c4):
        qp = quotient(c4, from_blocks(4, [[0, 1, 2, 3]]))
        assert np.array_equal(qp.Q.toarray(), [[2.0]])
        assert qp.residual == 0.0

    def test_star_single_block(self, star4):
        qp = quotient(star4, from_blocks(4, [[0, 1, 2, 3]]))
        assert np.allclose(qp.Q.toarray(), [[1.5]])
        assert qp.residual == pytest.approx(1.5)

    def test_residual_bounded_by_eps(self, corpus):
        for _, g in corpus[:20]:
            for eps in (0.0, 1.0, 3.0):
                part = refine_eps_be(g, eps)
                qp = quotient(g, part)
                assert qp.residual <= eps + 1e-9

    def test_refined_partition_and_others_on_either_graph(self, star4, c4):
        part = refine_eps_be(star4, 0.0)
        assert np.allclose(quotient(star4, from_blocks(4, [[0, 1, 2, 3]])).Q.toarray(), [[1.5]])
        qp = quotient(c4, part)
        assert np.allclose(qp.Q.toarray(), [[0.0, 2.0], [2 / 3, 4 / 3]])
        assert qp.residual == pytest.approx(2 / 3)
        assert np.array_equal(quotient(star4, part).Q.toarray(), [[0.0, 3.0], [1.0, 0.0]])

    def test_indicator_rows(self, star4):
        part = refine_eps_be(star4, 0)
        r = membership_matrix(part).toarray()
        assert np.array_equal(r.sum(axis=1), np.ones(4))


class TestSummaryReuse:
    """No block-count summary outlives the call that sorted it: one CSR-key
    sort per refinement round, and the quotient of the refined partition
    sorts once more instead of reading a summary kept from refinement."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = Counter()
        for name in ("_block_counts", "_refine_round"):
            def counting(*args, _original=getattr(partition, name), _name=name):
                counted[_name] += 1
                return _original(*args)
            monkeypatch.setattr(partition, name, counting)
        return counted

    @pytest.mark.parametrize("percentile", [0, 25, 50, 100])
    def test_partition_verb(self, calls, tmp_path, percentile):
        path = tmp_path / "g.txt"
        with open(path, "w") as fh:
            dump_edge_list(make_graph("lobster", 80, seed=1), fh)
        assert main(["partition", "--graph", str(path), "--percentile", str(percentile),
                     "--out", str(tmp_path / "out")]) == 0
        assert calls["_block_counts"] == calls["_refine_round"] + 1 > 1

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("variant", [Variant.FULL, Variant.REP_NODES, Variant.REP_EDGES])
    def test_build_rewired_after_refinement(self, calls, eps, variant):
        graph = make_graph("lobster", 80, seed=1)
        build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
        assert calls["_block_counts"] == calls["_refine_round"] + 1 > 1

    def test_other_pairs_are_summarised_afresh(self, calls, star4, c4):
        part = refine_eps_be(star4, 0.0)
        rounds = calls["_refine_round"]
        assert calls["_block_counts"] == rounds
        quotient(star4, from_blocks(4, [[0, 1, 2, 3]]))        # another partition
        quotient(c4, part)                                     # another graph
        assert np.array_equal(quotient(star4, part).Q.toarray(), [[0.0, 3.0], [1.0, 0.0]])
        assert calls["_block_counts"] == rounds + 3


class TestColorRefinement:
    def test_path3(self, p3):
        assert block_tuples(color_refinement_oracle(p3)) == ((0, 2), (1,))

    def test_complete(self, k4):
        assert color_refinement_oracle(k4).k == 1

    def test_star(self, star4):
        assert block_tuples(color_refinement_oracle(star4)) == ((0,), (1, 2, 3))


class TestRandomPartition:
    def test_single_block_forced(self):
        assert block_tuples(random_partition(4, [4], seed=0)) == ((0, 1, 2, 3),)

    def test_singletons_forced(self):
        assert random_partition(4, [1, 1, 1, 1], seed=0).k == 4

    def test_seed_determinism(self):
        a = random_partition(10, [3, 3, 4], seed=7)
        b = random_partition(10, [3, 3, 4], seed=7)
        assert block_tuples(a) == block_tuples(b)

    def test_different_seeds_vary(self):
        draws = {block_tuples(random_partition(12, [6, 6], seed=s)) for s in range(8)}
        assert len(draws) > 1

    def test_size_multiset_respected(self):
        for seed in range(5):
            part = random_partition(9, [2, 3, 4], seed=seed)
            assert sorted(len(b) for b in block_tuples(part)) == [2, 3, 4]

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
        assert block_tuples(back) == block_tuples(part)

    def test_rows_in_any_order(self):
        back = load_partition_csv(io.StringIO("node,block\n2,7\n0,7\n1,3\n"))
        assert block_tuples(back) == ((0, 2), (1,))

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
        assert list(range(part.num_nodes)) == sorted(u for b in block_tuples(part) for u in b)

    def test_quotient_header(self, star4):
        qp = quotient(star4, refine_eps_be(star4, 0))
        out = io.StringIO()
        dump_quotient_csv(qp, 0.0, out)
        first = out.getvalue().splitlines()[0]
        assert first.startswith("#") and "eps=" in first and "residual=" in first

    @pytest.mark.parametrize("seed", range(4))
    def test_quotient_bytes_match_dense_formatting(self, seed):
        rng = np.random.default_rng(seed)
        k = 12
        dense = rng.uniform(-3.0, 3.0, (k, k)) * (rng.random((k, k)) < 0.3)
        dense[0, :4] = [4e-7, 6e-7, -4e-7, 1e-300]   # stored, but print as zeros
        q = sp.csr_matrix(dense)
        q.data[-1] = -0.0                             # a stored signed zero
        q.sort_indices()
        qp = QuotientPair(csr=Csr(q.indptr, q.indices, q.data, q.shape), residual=0.25)
        out = io.StringIO()
        dump_quotient_csv(qp, 1.5, out)
        cells = np.zeros((k, k))
        stored = q.tocoo()
        cells[stored.row, stored.col] = stored.data   # keeps the -0.0 toarray() drops
        expected = "# eps=1.500000 residual=0.250000\n" + "".join(
            ",".join(f"{v:.6f}" for v in row) + "\n" for row in cells)
        assert out.getvalue() == expected
        assert "-0.000000" in expected


class TestCanonicalOrder:
    def test_blocks_sorted_by_min_node(self):
        part = from_blocks(5, [[4, 2], [3, 1], [0]])
        assert block_tuples(part) == ((0,), (1, 3), (2, 4))
        assert list(part.block_of) == [0, 1, 2, 1, 2]

    def test_from_assignment_dense_ids(self):
        part = Partition.from_assignment([5, 5, 9, 9, 5])
        assert part.k == 2
        assert block_tuples(part) == ((0, 1, 4), (2, 3))
