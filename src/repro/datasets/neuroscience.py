"""Synthetic neuron morphologies — the paper's dataset, at laptop scale.

The EDBT'14 experiments index "a neuroscience dataset representing 500'000
neurons in space (each modeled with thousands of cylinders)" in a dense
cortical volume.  The Blue Brain data is proprietary, so this generator
produces morphologies with the same statistical shape:

* somata (cell bodies) clustered into cortical-column-like blobs;
* from each soma, a few dendritic/axonal trees grown by a branching random
  walk of short capsule segments whose radius tapers with depth;
* segments are elongated elements (length ≫ radius) — exactly the element
  shape that makes data-oriented partitions "narrow" in the paper's Figure 4.

The element count is the product ``neurons × segments_per_neuron``; the
paper's 200 M is reached with 500 k × ~400.  Benchmarks use 10⁴–10⁶ elements
and state their scale; the *distribution* is what matters for index shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.primitives import Capsule
from repro.indexes.base import Item


class PackedNeurons(NamedTuple):
    """A neuron model as id-sorted arrays: ``eids`` ``(n,)``, capsule
    ``starts``/``ends`` ``(n, d)``, ``radii`` ``(n,)`` and owning
    ``neurons`` ``(n,)`` — what array-native joins and refinement consume."""

    eids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    radii: np.ndarray
    neurons: np.ndarray

    def bounds(self) -> np.ndarray:
        """Capsule boxes as an ``(n, 2, d)`` array, bit-identical to
        ``Capsule.bounds()`` (same IEEE operations in the same order)."""
        r = self.radii[:, None]
        return np.stack(
            [np.minimum(self.starts, self.ends) - r, np.maximum(self.starts, self.ends) + r],
            axis=1,
        )


@dataclass
class NeuronDataset:
    """A generated tissue model.

    ``capsules`` maps element id → :class:`~repro.geometry.Capsule`;
    ``items`` is the ``(eid, AABB)`` list indexes consume; ``neuron_of``
    maps element id → neuron id (used by the synapse join to exclude
    same-neuron pairs).
    """

    universe: AABB
    capsules: dict[int, Capsule] = field(default_factory=dict)
    neuron_of: dict[int, int] = field(default_factory=dict)

    @property
    def items(self) -> list[Item]:
        return [(eid, capsule.bounds()) for eid, capsule in self.capsules.items()]

    def __len__(self) -> int:
        return len(self.capsules)

    def packed(self) -> PackedNeurons:
        """The model as id-sorted arrays, packed without building any
        ``AABB`` (one pass over ``capsules`` and ``neuron_of``)."""
        capsules = list(self.capsules.values())
        n = len(capsules)
        dims = capsules[0].dims if capsules else 3
        eids = np.fromiter(self.capsules, dtype=np.int64, count=n)
        order = np.argsort(eids, kind="stable")

        def coords(points) -> np.ndarray:
            flat = np.fromiter(chain.from_iterable(points), dtype=np.float64, count=n * dims)
            return flat.reshape(n, dims)[order]

        return PackedNeurons(
            eids=eids[order],
            starts=coords(c.axis.a for c in capsules),
            ends=coords(c.axis.b for c in capsules),
            radii=np.fromiter((c.radius for c in capsules), dtype=np.float64, count=n)[order],
            neurons=np.fromiter(
                (self.neuron_of[eid] for eid in self.capsules), dtype=np.int64, count=n
            )[order],
        )

    def element_extent_stats(self) -> tuple[float, float]:
        """(mean, max) bounding-box extent across elements — feeds the
        analytical resolution model."""
        extents = [max(c.bounds().extents()) for c in self.capsules.values()]
        if not extents:
            return (0.0, 0.0)
        return (float(np.mean(extents)), float(np.max(extents)))


def generate_neurons(
    neurons: int,
    segments_per_neuron: int = 100,
    universe: AABB | None = None,
    clusters: int = 6,
    branch_probability: float = 0.08,
    segment_length: float = 0.8,
    soma_radius: float = 0.4,
    seed: int = 0,
) -> NeuronDataset:
    """Grow ``neurons`` branched morphologies of capsule segments.

    Parameters mirror biology loosely: a random walk leaves the soma, turns
    gradually (persistent direction), occasionally branches, and its radius
    tapers from ~0.1 µm to ~0.02 µm.  Units are µm in a default universe of
    side ``(neurons * segments_per_neuron)^(1/3)`` scaled to keep density
    near the paper's (200 M elements in a 285 µm-side volume ≈ 8.6 k
    elements per µm³ — we keep a comparable crowding factor).
    """
    if neurons < 1 or segments_per_neuron < 1:
        raise ValueError("neurons and segments_per_neuron must be >= 1")
    rng = np.random.default_rng(seed)
    total = neurons * segments_per_neuron
    if universe is None:
        # Keep density comparable across scales: side ∝ cube root of count.
        side = max((total / 8.0) ** (1.0 / 3.0), 4.0 * segment_length)
        universe = AABB((0.0, 0.0, 0.0), (side, side, side))
    lo = np.asarray(universe.lo)
    hi = np.asarray(universe.hi)
    extent = hi - lo

    cluster_centers = rng.uniform(lo + 0.15 * extent, hi - 0.15 * extent, size=(clusters, 3))
    dataset = NeuronDataset(universe=universe)
    eid = 0
    for neuron_id in range(neurons):
        center = cluster_centers[neuron_id % clusters]
        soma = center + rng.normal(0.0, 1.0, size=3) * extent * 0.08
        soma = np.clip(soma, lo, hi)
        # Active growth cones: (position, direction, depth).
        direction = _random_unit(rng)
        cones = [(soma.copy(), direction, 0)]
        grown = 0
        while grown < segments_per_neuron and cones:
            index = int(rng.integers(0, len(cones)))
            position, direction, depth = cones.pop(index)
            # Persistent random walk: small angular perturbation per step.
            direction = _perturb(direction, rng, sigma=0.35)
            step = direction * segment_length * float(rng.uniform(0.6, 1.4))
            end = np.clip(position + step, lo, hi)
            if np.linalg.norm(end - position) < 0.25 * segment_length:
                # Pinned against a wall: grow back inward instead.
                direction = -direction
                end = np.clip(position + direction * segment_length, lo, hi)
            radius = max(0.02, 0.1 * (0.97**depth))
            dataset.capsules[eid] = Capsule(position, end, radius)
            dataset.neuron_of[eid] = neuron_id
            eid += 1
            grown += 1
            cones.append((end, direction, depth + 1))
            if rng.random() < branch_probability:
                cones.append((end, _perturb(direction, rng, sigma=1.2), depth + 1))
    return dataset


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _perturb(direction: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    v = direction + rng.normal(0.0, sigma, size=3)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return _random_unit(rng)
    return v / norm
