"""Synthetic graph families, labels, and splits."""

import numpy as np
import pytest

from rolewire.errors import InputError
from rolewire.generators import (
    FAMILIES,
    assign_splits,
    eccentricity_labels,
    make_dataset,
    make_graph,
)
from rolewire.graph import is_connected


class TestFamilies:
    @pytest.mark.parametrize("family", ["star", "cycle", "path", "line",
                                        "grid", "ladder", "tree",
                                        "caterpillar", "lobster"])
    def test_connected_and_sized(self, family):
        g = make_graph(family, 12, seed=3)
        assert g.num_nodes == 12
        assert is_connected(g)

    def test_star_shape(self):
        g = make_graph("star", 5)
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]

    def test_cycle_regular(self):
        g = make_graph("cycle", 7)
        assert set(g.degrees()) == {2}

    def test_ladder_degrees(self):
        g = make_graph("ladder", 8)
        assert sorted(g.degrees()) == [2, 2, 2, 2, 3, 3, 3, 3]

    def test_grid_edge_count(self):
        g = make_graph("grid", 12)   # 3 x 4
        assert g.num_edges == 3 * 3 + 2 * 4

    def test_tree_is_acyclic(self):
        g = make_graph("tree", 15)
        assert g.num_edges == 14

    def test_er_seed_determinism(self):
        a = make_graph("er", 20, seed=5, p=0.3)
        b = make_graph("er", 20, seed=5, p=0.3)
        assert set(a.edges()) == set(b.edges())
        c = make_graph("er", 20, seed=6, p=0.3)
        assert set(a.edges()) != set(c.edges())

    def test_unknown_family(self):
        with pytest.raises(InputError):
            make_graph("petersen", 10)

    def test_ladder_odd_rejected(self):
        with pytest.raises(InputError):
            make_graph("ladder", 9)


# Each family's smallest n, and the message `make_graph` raised below it
# while every builder carried its own guard (grid had none: it failed
# inside its builder, so it now takes the table's message). `line` builds
# a path but names itself.
SIZE_RULES = {
    "star": (2, "star needs n >= 2"),
    "cycle": (3, "cycle needs n >= 3"),
    "path": (1, "path needs n >= 1"),
    "line": (1, "line needs n >= 1"),
    "grid": (1, "grid needs n >= 1"),
    "ladder": (4, "ladder needs even n >= 4"),
    "tree": (1, "tree needs n >= 1"),
    "caterpillar": (2, "caterpillar needs n >= 2"),
    "lobster": (3, "lobster needs n >= 3"),
    "er": (1, "er needs n >= 1"),
}


def test_size_rules_cover_every_family():
    assert set(SIZE_RULES) == set(FAMILIES)


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in sorted(SIZE_RULES) for n in range(-1, 7)),
    ("ladder", 9), ("ladder", 25)])
def test_size_rule(family, n):
    smallest, message = SIZE_RULES[family]
    if n < smallest or (family == "ladder" and n % 2):
        with pytest.raises(InputError) as exc:
            make_graph(family, n)
        assert str(exc.value) == message
    else:
        assert make_graph(family, n).num_nodes == n


class TestLabels:
    def test_eccentricity_bins_path(self):
        g = make_graph("path", 9)
        labels = eccentricity_labels(g, 3)
        assert labels[0] == labels[8] == 2      # endpoints most eccentric
        assert labels[4] == 0                   # center least
        assert set(labels) <= {0, 1, 2}

    def test_uniform_graph_single_class(self):
        g = make_graph("cycle", 8)
        assert not eccentricity_labels(g, 4).any()

    def test_splits_partition_the_nodes(self):
        train, val, test = assign_splits(40, seed=2)
        combined = train.astype(int) + val.astype(int) + test.astype(int)
        assert (combined == 1).all()
        assert train.sum() > val.sum() and train.sum() > test.sum()

    def test_splits_deterministic(self):
        a = assign_splits(25, seed=11)
        b = assign_splits(25, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_dataset_masks_labeled(self):
        g, data = make_dataset("tree", 31, num_classes=3, seed=0)
        masked = data.train_mask | data.val_mask | data.test_mask
        assert (data.labels[masked] >= 0).all()
        assert data.labels.max() + 1 <= 3
