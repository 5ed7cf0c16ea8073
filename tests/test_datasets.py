"""Dataset generators: determinism, bounds, paper-matching statistics."""

import math

import numpy as np
import pytest

from repro.datasets.neuroscience import generate_neurons
from repro.datasets.points import (
    clustered_boxes,
    gaussian_cluster_points,
    uniform_boxes,
    uniform_points,
)
from repro.datasets.queries import (
    random_range_queries,
    range_queries_for_selectivity,
    selectivity_to_extent,
)
from repro.datasets.trajectories import (
    BrownianMotion,
    LinearMotion,
    PlasticityMotion,
    apply_moves,
    displacement_stats,
)
from repro.geometry.aabb import AABB

from conftest import UNIVERSE_3D


class TestPointGenerators:
    def test_uniform_points_inside(self):
        for _, box in uniform_points(200, UNIVERSE_3D, seed=1):
            assert UNIVERSE_3D.contains_box(box)
            assert box.is_degenerate()

    def test_uniform_boxes_inside_with_extents(self):
        for _, box in uniform_boxes(200, UNIVERSE_3D, 0.5, 3.0, seed=2):
            assert UNIVERSE_3D.contains_box(box)

    def test_deterministic(self):
        a = uniform_boxes(50, UNIVERSE_3D, seed=3)
        b = uniform_boxes(50, UNIVERSE_3D, seed=3)
        assert a == b
        c = uniform_boxes(50, UNIVERSE_3D, seed=4)
        assert a != c

    def test_clusters_are_clustered(self):
        clustered = gaussian_cluster_points(2000, UNIVERSE_3D, clusters=3, seed=5)
        uniform = uniform_points(2000, UNIVERSE_3D, seed=5)

        def mean_nn_gap(items):
            coords = np.asarray([box.lo for _, box in items])
            sample = coords[:100]
            gaps = []
            for point in sample:
                dists = np.linalg.norm(coords - point, axis=1)
                gaps.append(np.partition(dists, 1)[1])
            return float(np.mean(gaps))

        assert mean_nn_gap(clustered) < mean_nn_gap(uniform)

    def test_elongation(self):
        items = clustered_boxes(100, UNIVERSE_3D, elongation=25.0, max_extent=1.0, seed=6)
        ratios = []
        for _, box in items:
            extents = sorted(box.extents())
            if extents[0] > 0:
                ratios.append(extents[-1] / extents[0])
        assert np.median(ratios) > 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_points(-1, UNIVERSE_3D)
        with pytest.raises(ValueError):
            uniform_boxes(10, UNIVERSE_3D, min_extent=5.0, max_extent=1.0)
        with pytest.raises(ValueError):
            clustered_boxes(10, UNIVERSE_3D, elongation=0.5)


class TestNeuronGenerator:
    def test_counts_and_mapping(self):
        ds = generate_neurons(neurons=10, segments_per_neuron=30, seed=7)
        assert len(ds) == 300
        assert set(ds.neuron_of.values()) == set(range(10))
        assert len(ds.items) == 300

    def test_segments_are_elongated_capsules(self):
        ds = generate_neurons(neurons=5, segments_per_neuron=40, seed=8)
        lengths = [c.length() for c in ds.capsules.values()]
        radii = [c.radius for c in ds.capsules.values()]
        # Elements are elongated in the aggregate (the Figure 4 shape); wall
        # clamping may shorten a handful of segments.
        elongated = sum(1 for l, r in zip(lengths, radii) if l > r)
        assert elongated >= 0.95 * len(lengths)

    def test_inside_universe(self):
        ds = generate_neurons(neurons=5, segments_per_neuron=40, seed=9)
        hull = ds.universe.expanded(0.2)  # radius may poke out slightly
        for _, box in ds.items:
            assert hull.contains_box(box)

    def test_extent_stats(self):
        ds = generate_neurons(neurons=5, segments_per_neuron=20, seed=10)
        mean, biggest = ds.element_extent_stats()
        assert 0 < mean <= biggest

    def test_packed_arrays_match_capsules_bit_for_bit(self):
        from repro.datasets.neuroscience import NeuronDataset

        ds = generate_neurons(neurons=6, segments_per_neuron=20, seed=12)
        # Shuffled insertion order: the packer must still return id order.
        shuffled = NeuronDataset(
            universe=ds.universe,
            capsules=dict(reversed(list(ds.capsules.items()))),
            neuron_of=ds.neuron_of,
        )
        model = shuffled.packed()
        ids = sorted(ds.capsules)
        assert model.eids.tolist() == ids
        assert model.neurons.tolist() == [ds.neuron_of[eid] for eid in ids]
        for row, eid in enumerate(ids):
            capsule = ds.capsules[eid]
            assert tuple(model.starts[row].tolist()) == capsule.a
            assert tuple(model.ends[row].tolist()) == capsule.b
            assert model.radii[row] == capsule.radius
        boxes = model.bounds()
        assert [AABB(lo, hi) for lo, hi in boxes.tolist()] == [
            ds.capsules[eid].bounds() for eid in ids
        ]

    def test_packed_empty_model(self):
        from repro.datasets.neuroscience import NeuronDataset

        model = NeuronDataset(universe=UNIVERSE_3D).packed()
        assert model.eids.shape == (0,)
        assert model.bounds().shape == (0, 2, 3)

    def test_deterministic(self):
        a = generate_neurons(neurons=3, segments_per_neuron=10, seed=11)
        b = generate_neurons(neurons=3, segments_per_neuron=10, seed=11)
        assert [c.bounds() for c in a.capsules.values()] == [
            c.bounds() for c in b.capsules.values()
        ]


class TestMotionModels:
    def test_plasticity_matches_paper_statistics(self):
        """Mean displacement 0.04 with <0.5% beyond 0.1 (§4.1)."""
        items = dict(uniform_points(20_000, UNIVERSE_3D, seed=12))
        motion = PlasticityMotion(universe=UNIVERSE_3D, seed=13)
        moves = motion.step(items)
        mean, tail = displacement_stats(moves)
        assert mean == pytest.approx(0.04, rel=0.05)
        assert tail < 0.005

    def test_all_elements_move(self):
        items = dict(uniform_points(500, UNIVERSE_3D, seed=14))
        moves = PlasticityMotion(universe=UNIVERSE_3D, seed=15).step(items)
        assert len(moves) == 500

    def test_moving_fraction(self):
        items = dict(uniform_points(1000, UNIVERSE_3D, seed=16))
        motion = BrownianMotion(0.1, UNIVERSE_3D, moving_fraction=0.25, seed=17)
        assert len(motion.step(items)) == 250

    def test_extents_preserved_at_walls(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))  # hugging the corner
        motion = BrownianMotion(5.0, UNIVERSE_3D, seed=18)
        for _ in range(10):
            moves = motion.step({1: box})
            (eid, old, new) = moves[0]
            assert new.extents() == pytest.approx(old.extents())
            assert UNIVERSE_3D.contains_box(new)
            box = new

    def test_linear_motion_is_straight(self):
        items = {1: AABB((50, 50, 50), (50, 50, 50))}
        motion = LinearMotion(speed=0.5, universe=UNIVERSE_3D, seed=19)
        first = motion.step(items)
        apply_moves(items, first)
        second = motion.step(items)
        d1 = np.asarray(first[0][2].center()) - np.asarray(first[0][1].center())
        d2 = np.asarray(second[0][2].center()) - np.asarray(second[0][1].center())
        assert np.allclose(d1, d2)

    def test_apply_moves(self):
        items = dict(uniform_points(50, UNIVERSE_3D, seed=20))
        moves = PlasticityMotion(universe=UNIVERSE_3D, seed=21).step(items)
        apply_moves(items, moves)
        for eid, _, new in moves:
            assert items[eid] == new


class TestQueryGenerators:
    def test_selectivity_to_extent(self):
        extent = selectivity_to_extent(1e-3, UNIVERSE_3D)
        assert (extent / 100.0) ** 3 == pytest.approx(1e-3)

    def test_paper_selectivity(self):
        """5×10⁻⁴ % of the universe — the Fig. 2 query size."""
        extent = selectivity_to_extent(5e-6, UNIVERSE_3D)
        assert 0 < extent < 100

    def test_queries_clipped_to_universe(self):
        for query in random_range_queries(50, UNIVERSE_3D, extent=30.0, seed=22):
            assert UNIVERSE_3D.contains_box(query)

    def test_selectivity_queries(self):
        queries = range_queries_for_selectivity(10, UNIVERSE_3D, 1e-4, seed=23)
        assert len(queries) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            selectivity_to_extent(0.0, UNIVERSE_3D)
        with pytest.raises(ValueError):
            random_range_queries(-1, UNIVERSE_3D, 1.0)
