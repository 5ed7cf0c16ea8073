"""The CR-tree (Kim & Kwon, SIGMOD'01): a cache-conscious R-tree.

The paper cites the CR-tree as "a step in the right direction" for in-memory
indexing: nodes are sized to a multiple of the cache block, and entry MBRs are
*quantized relative to the node's reference box* (QRMBRs), so several times
more entries fit per cache line than with full float boxes.  The paper also
notes its limit — compression roughly doubles throughput but "the fundamental
problem of overlap remains" — which the grid-vs-tree benchmark reproduces.

Implementation notes:

* Quantization is conservative (entry boxes round outward, query boxes round
  outward in the opposite sense), so the quantized filter can only produce
  false positives, never false negatives; leaf candidates are refined against
  exact boxes (counted as ``refine_tests``).
* Queries touch only the quantized representation; byte accounting therefore
  charges ``QUANT_BYTES`` per coordinate instead of 8, which is precisely the
  CR-tree saving the memory cost model prices.
* Maintenance (insert/delete) works on exact boxes and re-quantizes the
  affected nodes, mirroring the published algorithm's lazy re-quantization.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

from repro.geometry.aabb import AABB, union_all
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.bulkload import _tile
from repro.instrumentation.counters import Counters

QUANT_LEVELS = 1 << 16  # 16-bit coordinates
QUANT_BYTES = 2
_NODE_HEADER_BYTES = 16


class CRNode:
    """A CR-tree node: reference box plus quantized entries.

    ``entries`` holds ``(qlo, qhi, exact_box, ref)`` — the exact box is kept
    for maintenance and refinement but the query path reads only the
    quantized coordinates.
    """

    __slots__ = ("is_leaf", "ref_box", "entries")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.ref_box: AABB | None = None
        self.entries: list[tuple[tuple[int, ...], tuple[int, ...], AABB, object]] = []

    def rebuild_quantization(self, exact_entries: list[tuple[AABB, object]]) -> None:
        """Recompute the reference box and quantize every entry outward."""
        self.ref_box = union_all(box for box, _ in exact_entries)
        self.entries = [
            (*_quantize_box(box, self.ref_box, outward=True), box, ref)
            for box, ref in exact_entries
        ]

    def exact_entries(self) -> list[tuple[AABB, object]]:
        return [(box, ref) for _, _, box, ref in self.entries]

    def mbr(self) -> AABB:
        return union_all(box for _, _, box, _ in self.entries)

    def payload_bytes(self, dims: int) -> int:
        per_entry = dims * 2 * QUANT_BYTES + 8
        return _NODE_HEADER_BYTES + dims * 16 + len(self.entries) * per_entry


def _quantize_box(
    box: AABB, ref: AABB, outward: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map ``box`` into ``ref``-relative integer grid coordinates.

    ``outward=True`` rounds lo down / hi up (entries); callers quantizing a
    *query* also round outward so that the integer overlap test is a superset
    of the float test.
    """
    qlo = []
    qhi = []
    for lo, hi, r_lo, r_hi in zip(box.lo, box.hi, ref.lo, ref.hi):
        span = r_hi - r_lo
        if span <= 0.0 or not math.isfinite((QUANT_LEVELS - 1) / span):
            # Zero or denormal span: the axis carries no information —
            # quantize to the full range (always conservative).
            qlo.append(0)
            qhi.append(QUANT_LEVELS - 1)
            continue
        scale = (QUANT_LEVELS - 1) / span
        lo_cell = math.floor((lo - r_lo) * scale)
        hi_cell = math.ceil((hi - r_lo) * scale)
        if not outward:
            lo_cell = math.ceil((lo - r_lo) * scale)
            hi_cell = math.floor((hi - r_lo) * scale)
        qlo.append(max(0, min(QUANT_LEVELS - 1, lo_cell)))
        qhi.append(max(0, min(QUANT_LEVELS - 1, hi_cell)))
    return tuple(qlo), tuple(qhi)


class CRTree(SpatialIndex):
    """Cache-conscious R-tree with quantized relative MBRs."""

    def __init__(
        self,
        max_entries: int = 42,
        counters: Counters | None = None,
    ) -> None:
        # 42 three-dim quantized entries ≈ 14 cache lines per node, a
        # multiple-of-cache-line size in the range the paper recommends
        # (640 B – 1 KB nodes).
        super().__init__(counters)
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries * 2 // 5)
        self._root = CRNode(is_leaf=True)
        self._height = 1
        self._size = 0
        self._dims: int | None = None

    # -- maintenance ---------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        if not materialized:
            self._root = CRNode(is_leaf=True)
            self._height = 1
            self._size = 0
            return
        self._dims = materialized[0][1].dims
        entries: list[tuple[AABB, object]] = [(box, eid) for eid, box in materialized]
        groups = _tile(entries, self._dims, self.max_entries)
        nodes = []
        for group in groups:
            node = CRNode(is_leaf=True)
            node.rebuild_quantization(group)
            nodes.append(node)
        self._height = 1
        while len(nodes) > 1:
            level_entries = [(node.mbr(), node) for node in nodes]
            groups = _tile(level_entries, self._dims, self.max_entries)
            parents = []
            for group in groups:
                node = CRNode(is_leaf=False)
                node.rebuild_quantization(group)
                parents.append(node)
            nodes = parents
            self._height += 1
        self._root = nodes[0]
        self._size = len(materialized)

    def insert(self, eid: int, box: AABB) -> None:
        if self._dims is None:
            self._dims = box.dims
        split = self._insert_recursive(self._root, self._height - 1, box, eid)
        if split is not None:
            old_root = self._root
            new_root = CRNode(is_leaf=False)
            new_root.rebuild_quantization([(old_root.mbr(), old_root), (split.mbr(), split)])
            self._root = new_root
            self._height += 1
        self._size += 1
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        orphans: list[tuple[int, AABB]] = []
        found = self._delete_recursive(self._root, eid, box, orphans)
        if not found:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._size -= 1
        self.counters.deletes += 1
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][3]  # type: ignore[assignment]
            self._height -= 1
        for orphan_eid, orphan_box in orphans:
            split = self._insert_recursive(self._root, self._height - 1, orphan_box, orphan_eid)
            if split is not None:
                old_root = self._root
                new_root = CRNode(is_leaf=False)
                new_root.rebuild_quantization(
                    [(old_root.mbr(), old_root), (split.mbr(), split)]
                )
                self._root = new_root
                self._height += 1

    # -- queries -----------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._size == 0:
            return []
        counters = self.counters
        dims = box.dims
        results: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            counters.bytes_touched += node.payload_bytes(dims)
            if node.ref_box is None:
                continue
            q_qlo, q_qhi = _quantize_box(box, node.ref_box, outward=True)
            if node.is_leaf:
                for qlo, qhi, exact_box, ref in node.entries:
                    counters.elem_tests += 1
                    if _quantized_intersect(qlo, qhi, q_qlo, q_qhi):
                        counters.refine_tests += 1
                        if exact_box.intersects(box):
                            results.append(ref)  # type: ignore[arg-type]
            else:
                for qlo, qhi, _, child in node.entries:
                    counters.node_tests += 1
                    if _quantized_intersect(qlo, qhi, q_qlo, q_qhi):
                        counters.pointer_follows += 1
                        stack.append(child)  # type: ignore[arg-type]
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        if k <= 0 or self._size == 0:
            return []
        counters = self.counters
        dims = len(tuple(point))
        # (distance, kind, key, ref): nodes (kind 0) pop before elements
        # (kind 1) at equal distance, tied elements pop in id order — the
        # deterministic (distance, id) contract (see indexes/base.py).
        heap: list[tuple[float, int, int, object]] = [(0.0, 0, 0, self._root)]
        tiebreak = 1
        results: list[tuple[float, int]] = []
        while heap and len(results) < k:
            dist, kind, _, ref = heapq.heappop(heap)
            counters.heap_ops += 1
            if kind == 1:
                results.append((dist, ref))  # type: ignore[arg-type]
                continue
            node: CRNode = ref  # type: ignore[assignment]
            counters.bytes_touched += node.payload_bytes(dims)
            for _, _, exact_box, child in node.entries:
                if node.is_leaf:
                    counters.elem_tests += 1
                else:
                    counters.node_tests += 1
                entry_dist = exact_box.min_distance_to_point(point)
                if node.is_leaf:
                    heapq.heappush(heap, (entry_dist, 1, child, child))  # type: ignore[list-item]
                else:
                    heapq.heappush(heap, (entry_dist, 0, tiebreak, child))
                    tiebreak += 1
                counters.heap_ops += 1
        return results

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def memory_bytes(self) -> int:
        if self._dims is None:
            return 0
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += node.payload_bytes(self._dims)
            if not node.is_leaf:
                stack.extend(child for _, _, _, child in node.entries)  # type: ignore[misc]
        return total

    # -- internals -------------------------------------------------------------------

    def _insert_recursive(self, node: CRNode, level: int, box: AABB, ref: object) -> CRNode | None:
        exact = node.exact_entries()
        if node.is_leaf:
            exact.append((box, ref))
        else:
            best_index = 0
            best_key: tuple[float, float] | None = None
            for i, (entry_box, _) in enumerate(exact):
                key = (entry_box.enlargement(box), entry_box.volume())
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = i
            entry_box, child = exact[best_index]
            split = self._insert_recursive(child, level - 1, box, ref)  # type: ignore[arg-type]
            exact[best_index] = (child.mbr(), child)  # type: ignore[union-attr]
            if split is not None:
                exact.append((split.mbr(), split))
        if len(exact) > self.max_entries:
            ordered = sorted(exact, key=lambda e: e[0].center()[0])
            half = len(ordered) // 2
            node.rebuild_quantization(ordered[:half])
            sibling = CRNode(is_leaf=node.is_leaf)
            sibling.rebuild_quantization(ordered[half:])
            return sibling
        node.rebuild_quantization(exact)
        return None

    def _delete_recursive(
        self, node: CRNode, eid: int, box: AABB, orphans: list[tuple[int, AABB]]
    ) -> bool:
        if node.is_leaf:
            exact = node.exact_entries()
            for i, (entry_box, ref) in enumerate(exact):
                if ref == eid and entry_box == box:
                    del exact[i]
                    if exact:
                        node.rebuild_quantization(exact)
                    else:
                        node.ref_box = None
                        node.entries = []
                    return True
            return False
        exact = node.exact_entries()
        for i, (entry_box, child) in enumerate(exact):
            self.counters.node_tests += 1
            if not entry_box.contains_box(box):
                continue
            child_node: CRNode = child  # type: ignore[assignment]
            if self._delete_recursive(child_node, eid, box, orphans):
                if len(child_node.entries) < self.min_entries:
                    del exact[i]
                    _collect_items(child_node, orphans)
                else:
                    exact[i] = (child_node.mbr(), child_node)
                if exact:
                    node.rebuild_quantization(exact)
                else:
                    node.ref_box = None
                    node.entries = []
                return True
        return False


def _collect_items(node: CRNode, out: list[tuple[int, AABB]]) -> None:
    if node.is_leaf:
        out.extend((ref, box) for _, _, box, ref in node.entries)  # type: ignore[misc]
        return
    for _, _, _, child in node.entries:
        _collect_items(child, out)  # type: ignore[arg-type]


def _quantized_intersect(
    a_lo: tuple[int, ...],
    a_hi: tuple[int, ...],
    b_lo: tuple[int, ...],
    b_hi: tuple[int, ...],
) -> bool:
    for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
        if al > bh or bl > ah:
            return False
    return True
