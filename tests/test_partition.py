"""Tests for the canonical (optionally hierarchical) Partition type."""

import pytest

from repro.partition import Partition


# -- construction and validation --------------------------------------------

def test_flat_modes_and_shape():
    assert Partition(4, 0).mode == "Cluster"
    assert Partition(0, 4).mode == "Booster"
    assert Partition(4, 4).mode == "C+B"
    assert Partition(4, 4).total_nodes == 8
    assert Partition(4, 4).nodes_per_solver == 4
    assert not Partition(4, 4).is_nested


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cluster_nodes": -1, "booster_nodes": 1},
        {"cluster_nodes": 0, "booster_nodes": 0},
        {"cluster_nodes": 2, "booster_nodes": 4},  # asymmetric C+B
    ],
)
def test_flat_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        Partition(**kwargs)


def test_homogeneous_canonicalizes_split_knobs():
    a = Partition(4, 0, overlap=False, swap_placement=True)
    assert a == Partition(4, 0)
    assert a.overlap is True and a.swap_placement is False


def test_nested_shape_and_accessors():
    p = Partition(8, 0, cluster_arm=Partition(4, 4, overlap=False))
    assert p.is_nested
    assert p.mode == "Cluster"
    assert p.total_nodes == 8
    assert p.nodes_per_solver == 4  # the sub-split width, not the root
    assert p.arm is p.cluster_arm


def test_nested_rejects_bad_shapes():
    # C+B roots are already split across the backbone
    with pytest.raises(ValueError):
        Partition(4, 4, cluster_arm=Partition(2, 2))
    # arm on the empty side
    with pytest.raises(ValueError):
        Partition(8, 0, booster_arm=Partition(4, 4))
    # asymmetric arm: the driver pairs solver ranks one to one
    with pytest.raises(ValueError):
        Partition(6, 0, cluster_arm=Partition(4, 2))
    # arm total must equal the parent side's node count
    with pytest.raises(ValueError):
        Partition(8, 0, cluster_arm=Partition(2, 2))
    # an arm is not an arbitrary object
    with pytest.raises(TypeError):
        Partition(8, 0, cluster_arm=(4, 4))


def test_arm_swap_placement_rejected():
    with pytest.raises(ValueError):
        Partition(
            8, 0,
            cluster_arm=Partition(4, 4, swap_placement=True),
        )


# -- value semantics ---------------------------------------------------------

def test_equality_hash_and_ordering():
    a = Partition(2, 2)
    b = Partition(2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != Partition(2, 2, overlap=False)
    assert Partition(8, 0) != Partition(8, 0, cluster_arm=Partition(4, 4))
    # flat ordering matches the old (cluster, booster, overlap, swap)
    # tuple order; flat sorts before its nested sibling
    flat = [Partition(0, 1), Partition(1, 0), Partition(1, 1),
            Partition(1, 1, overlap=False)]
    assert sorted(flat) == sorted(flat, key=lambda p: (
        p.cluster_nodes, p.booster_nodes, p.overlap, p.swap_placement))
    assert Partition(8, 0) < Partition(8, 0, cluster_arm=Partition(4, 4))


# -- labels ------------------------------------------------------------------

def test_labels():
    assert Partition(4, 4).label() == "C+B 4+4"
    assert Partition(2, 2, overlap=False,
                     swap_placement=True).label() == \
        "C+B 2+2 no-overlap swapped"
    assert Partition(8, 0).label() == "Cluster 8"
    assert Partition(0, 4).label() == "Booster 4"
    assert Partition(16, 0, cluster_arm=Partition(8, 8)).label() == \
        "Cluster 16 (8+8 split)"
    assert Partition(
        0, 4, booster_arm=Partition(2, 2, overlap=False)
    ).label() == "Booster 4 (2+2 split) no-overlap"


# -- (de)serialization -------------------------------------------------------

def test_flat_to_dict_keeps_legacy_four_key_shape():
    d = Partition(4, 4, overlap=False).to_dict()
    assert d == {
        "cluster_nodes": 4,
        "booster_nodes": 4,
        "overlap": False,
        "swap_placement": False,
    }


def test_round_trips():
    for p in [
        Partition(1, 1),
        Partition(8, 0),
        Partition(2, 2, overlap=False, swap_placement=True),
        Partition(8, 0, cluster_arm=Partition(4, 4, overlap=False)),
        Partition(0, 8, booster_arm=Partition(4, 4)),
    ]:
        assert Partition.from_dict(p.to_dict()) == p


def test_to_spec_flat_and_nested():
    flat = Partition(2, 2, overlap=False).to_spec(steps=7)
    assert flat.mode == "C+B"
    assert flat.nodes_per_solver == 2
    assert flat.overlap is False
    assert flat.partition is None  # flat specs keep the pre-1.8 shape
    nested = Partition(8, 0, cluster_arm=Partition(4, 4)).to_spec(steps=7)
    assert nested.mode == "Cluster"
    assert nested.nodes_per_solver == 4
    assert nested.partition == {
        "cluster_nodes": 8, "booster_nodes": 0,
        "overlap": True, "swap_placement": False,
        "cluster_arm": {
            "cluster_nodes": 4, "booster_nodes": 4,
            "overlap": True, "swap_placement": False,
        },
    }


# -- coercion and exports ----------------------------------------------------

def test_coerce_passthrough_and_dict():
    p = Partition(2, 2)
    assert Partition.coerce(p) is p
    assert Partition.coerce(p.to_dict()) == p
    with pytest.raises(TypeError):
        Partition.coerce("C+B")


def test_top_level_export():
    import repro

    assert repro.Partition is Partition
