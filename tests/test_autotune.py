"""Tests for the partition autotuner and its perfmodel seeding."""

import pytest

from repro.autotune import (
    HAND_CODED,
    TUNE_SCHEMA,
    TuneReport,
    TuneSpace,
    _step_schedule,
    predict_config_step,
    tune,
)
from repro.apps.xpic import XpicConfig, table2_setup
from repro.partition import Partition
from repro.engine import preset_machine
from repro.store import ResultCache


# -- Partition --------------------------------------------------------

def test_partition_mode_mapping():
    assert Partition(4, 0).mode == "Cluster"
    assert Partition(0, 4).mode == "Booster"
    assert Partition(4, 4).mode == "C+B"
    assert Partition(4, 4).nodes_per_solver == 4
    assert Partition(0, 2).nodes_per_solver == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cluster_nodes": -1, "booster_nodes": 1},
        {"cluster_nodes": 0, "booster_nodes": 0},
        {"cluster_nodes": 2, "booster_nodes": 4},  # asymmetric C+B
    ],
)
def test_partition_rejects(kwargs):
    with pytest.raises(ValueError):
        Partition(**kwargs)


def test_homogeneous_config_canonicalizes_split_knobs():
    a = Partition(4, 0, overlap=False, swap_placement=True)
    b = Partition(4, 0)
    assert a == b  # one canonical form -> one cache key
    assert a.overlap is True and a.swap_placement is False


def test_partition_to_spec_and_labels():
    cfg = Partition(2, 2, overlap=False, swap_placement=True)
    spec = cfg.to_spec(steps=7, preset="deep-er", config=XpicConfig(steps=99))
    assert spec.mode == "C+B"
    assert spec.nodes_per_solver == 2
    assert spec.overlap is False and spec.swap_placement is True
    assert spec.config.steps == 7  # probe steps override the config's
    assert cfg.label() == "C+B 2+2 no-overlap swapped"
    assert Partition(8, 0).label() == "Cluster 8"
    assert Partition.from_dict(cfg.to_dict()) == cfg


# -- TuneSpace --------------------------------------------------------------

def test_space_candidates_clip_to_machine_and_config():
    machine = preset_machine("deep-er")  # 16 cluster + 8 booster nodes
    space = TuneSpace(
        node_counts=(1, 3, 16), overlap=(True,), swap_placement=(False,)
    )
    cands = space.candidates(machine=machine, config=table2_setup(steps=5))
    # ny=64 drops n=3; booster tops out at 8 so no (0,16) or (16,16)
    assert Partition(16, 0) in cands
    assert Partition(0, 16) not in cands
    assert all(c.nodes_per_solver != 3 for c in cands)
    assert cands == sorted(cands)


def test_space_rejects_bad_counts():
    with pytest.raises(ValueError):
        TuneSpace(node_counts=())
    with pytest.raises(ValueError):
        TuneSpace(node_counts=(0,))


# -- model seeding ----------------------------------------------------------

def test_predictions_prefer_overlap_and_are_positive():
    machine = preset_machine("deep-er")
    config = table2_setup(steps=5)
    with_overlap = predict_config_step(
        machine, config, Partition(1, 1, overlap=True)
    )
    without = predict_config_step(
        machine, config, Partition(1, 1, overlap=False)
    )
    assert 0 < with_overlap.step_s <= without.step_s
    homogeneous = predict_config_step(machine, config, Partition(1, 0))
    assert homogeneous.exchange_s == 0.0
    assert homogeneous.step_s == pytest.approx(
        homogeneous.field_s + homogeneous.particle_s
    )


def test_step_schedule_grows_to_full_steps():
    assert _step_schedule(500, 3, 2, 5) == [125, 250, 500]
    assert _step_schedule(8, 3, 2, 5) == [5, 5, 8]
    assert _step_schedule(100, 1, 2, 5) == [100]
    with pytest.raises(ValueError):
        _step_schedule(100, 0, 2, 5)


# -- the search itself ------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_tune(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("store"))
    space = TuneSpace(
        node_counts=(1, 2), overlap=(True, False), swap_placement=(False,)
    )
    kwargs = dict(
        space=space,
        steps=12,
        generations=2,
        population=5,
        min_steps=4,
        cache=cache,
    )
    first = tune(**kwargs)
    second = tune(**kwargs)
    return first, second, cache


def test_tune_beats_hand_coded_baseline(tiny_tune):
    report, _, _ = tiny_tune
    assert report.baseline["config"] == HAND_CODED.to_dict()
    assert report.best_runtime_s <= report.baseline["measured_s"]
    assert report.speedup_vs_baseline >= 1.0


def test_tune_trace_is_complete(tiny_tune):
    report, _, _ = tiny_tune
    assert len(report.generations) == 2
    assert report.generations[-1]["steps"] == 12
    assert report.evaluations == sum(
        len(g["evaluated"]) for g in report.generations
    )
    assert 0 < len(report.generations[-1]["evaluated"]) <= len(
        report.generations[0]["evaluated"]
    )
    for gen in report.generations:
        for e in gen["evaluated"]:
            assert e["predicted_s"] > 0 and e["measured_s"] > 0
    assert report.model["mean_abs_rel_err"] >= 0.0
    assert report.candidates_considered >= report.evaluations / 2


def test_repeated_tune_is_cached_and_bit_identical(tiny_tune):
    first, second, cache = tiny_tune
    assert second.best == first.best
    assert second.best_runtime_s == first.best_runtime_s
    assert second.generations == first.generations
    assert second.baseline == first.baseline
    # the rerun resolved every evaluation (and the baseline) from cache:
    # the shared cache object accumulated only misses in round one and
    # only hits in round two
    assert first.cache["hits"] == 0
    assert first.cache["misses"] == first.evaluations + 1
    assert second.cache["hits"] == second.evaluations + 1
    assert second.cache["misses"] == first.cache["misses"]
    assert cache.stats()["entries"] > 0


def test_tune_report_json_round_trip(tiny_tune):
    report, _, _ = tiny_tune
    back = TuneReport.from_json(report.to_json())
    assert back.to_dict() == report.to_dict()
    assert report.to_dict()["schema"] == TUNE_SCHEMA
    assert back.best_config == report.best_config
    with pytest.raises(ValueError):
        TuneReport.from_dict({"schema": TUNE_SCHEMA})


def test_tune_validates_inputs():
    with pytest.raises(ValueError):
        tune(population=0, steps=5)
    with pytest.raises(ValueError):
        tune(eta=1, steps=5)


def test_tune_without_cache_and_baseline():
    report = tune(
        space=TuneSpace(
            node_counts=(1,), overlap=(True,), swap_placement=(False,)
        ),
        steps=6,
        generations=1,
        population=2,
        baseline=False,
    )
    assert report.cache == {}
    assert report.baseline == {}
    assert report.speedup_vs_baseline == 1.0


# -- hierarchical (nested) search ------------------------------------------

def test_space_nested_candidates_add_hierarchical_layouts():
    machine = preset_machine("deep-er")  # 16 cluster + 8 booster nodes
    flat = TuneSpace(
        node_counts=(2, 4), overlap=(True,), swap_placement=(False,)
    )
    nested = TuneSpace(
        node_counts=(2, 4), overlap=(True,), swap_placement=(False,),
        nested=True,
    )
    cfg = table2_setup(steps=5)
    flat_c = flat.candidates(machine=machine, config=cfg)
    nested_c = nested.candidates(machine=machine, config=cfg)
    # nesting only widens the space: every flat candidate survives
    assert set(flat_c) <= set(nested_c)
    extra = set(nested_c) - set(flat_c)
    assert extra and all(c.is_nested for c in extra)
    # a 4+4 arm claims 8 same-kind nodes: fits both sides on deep-er
    assert Partition(8, 0, cluster_arm=Partition(4, 4)) in extra
    assert Partition(0, 8, booster_arm=Partition(4, 4)) in extra
    # but a 16-node root only fits the 16-node cluster side
    wide = TuneSpace(
        node_counts=(8,), overlap=(True,), swap_placement=(False,),
        nested=True,
    )
    wide_c = wide.candidates(machine=machine, config=cfg)
    assert Partition(16, 0, cluster_arm=Partition(8, 8)) in wide_c
    assert Partition(0, 16, booster_arm=Partition(8, 8)) not in wide_c


def test_nested_candidates_score_through_recursive_model():
    machine = preset_machine("deep-er")
    config = table2_setup(steps=5)
    nested = predict_config_step(
        machine, config, Partition(4, 0, cluster_arm=Partition(2, 2))
    )
    assert nested.step_s > 0
    # the arm co-schedules fields and particles on disjoint halves of
    # one homogeneous pool, so its estimate carries an exchange term
    assert nested.exchange_s > 0


def test_tune_with_nesting_disabled_is_bit_identical_to_flat():
    kwargs = dict(
        steps=8, generations=1, population=4, min_steps=4, baseline=False
    )
    flat = tune(
        space=TuneSpace(
            node_counts=(1, 2), overlap=(True,), swap_placement=(False,)
        ),
        **kwargs,
    )
    off = tune(
        space=TuneSpace(
            node_counts=(1, 2), overlap=(True,), swap_placement=(False,),
            nested=False,
        ),
        **kwargs,
    )
    da, db = off.to_dict(), flat.to_dict()
    # host_wall_s is host-side telemetry, never part of the contract
    da.pop("host_wall_s"), db.pop("host_wall_s")
    assert da == db


def test_tune_searches_nested_layouts():
    report = tune(
        space=TuneSpace(
            node_counts=(2,), overlap=(True,), swap_placement=(False,),
            nested=True,
        ),
        steps=8,
        generations=1,
        population=8,
        baseline=False,
    )
    labels = [
        e["label"] for g in report.generations for e in g["evaluated"]
    ]
    assert any("split" in label for label in labels)
    # the winner round-trips through the report as a real Partition
    assert report.best_config.label() == report.best["label"] \
        if "label" in report.best else True
