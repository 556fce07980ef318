"""Disk-resident B+-tree with byte-string keys and values.

This is the access method underneath the OIF: every posting block is stored
as one entry whose key is ``(item, tag, last_record_id)`` encoded so that the
byte-wise lexicographic order of the keys matches the logical order of the
blocks (Section 3, "B-tree indexing for inverted lists").  The unordered
B-tree baseline of the "Impact of the OIF ordering" experiment reuses the same
structure with a different key.

Design points
-------------
* Keys and values are opaque byte strings; ordering is plain ``bytes``
  comparison.  Key encoders elsewhere in the library are responsible for
  making byte order match logical order.
* All nodes are serialized into fixed-size pages and read/written through the
  :class:`~repro.storage.buffer_pool.BufferPool`, so every traversal is charged
  with the page accesses it causes.
* Leaves are chained (``next_leaf``), which makes range scans mostly
  sequential page accesses when the tree was bulk loaded.
* Two construction paths exist: :meth:`BTree.bulk_load` packs sorted entries
  bottom-up with a configurable fill factor (used when building an index),
  and :meth:`BTree.insert` performs ordinary top-down insertion with node
  splits (used by updates).
* A one-page header stores the root pointer so a tree stored in a
  :class:`~repro.storage.pager.FilePageFile` can be reopened.
* Decoded nodes can be kept in a
  :class:`~repro.storage.block_cache.DecodedBlockCache` (``node_cache``),
  keyed by page id.  Cold queries re-descend the same few pages many times
  (a paper-cold superset query visits about 144 nodes over 10 pages), and
  decoding a node costs far more CPU than charging its page access.  A cache
  hit still goes through :meth:`BufferPool.get_page`, so the deadline check,
  the page charge and the random/sequential classification are exactly those
  of an uncached read.  Cached nodes are shared and never mutated: the write
  paths decode a private copy, and :meth:`BTree._write_node` discards the
  page's cached node.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import BTreeError, DuplicateKeyError, KeyNotFoundError
from repro.storage.buffer_pool import BufferPool
from repro.storage.stats import ReadContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.block_cache import DecodedBlockCache

_LEAF = 0
_INTERNAL = 1
_NO_PAGE = 0xFFFFFFFF

_NODE_HEADER = struct.Struct("<BHI")  # node type, entry count, next leaf / first child
_META_HEADER = struct.Struct("<III")  # magic, root page id, height
_META_MAGIC = 0x0B1F0B1F
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

_LEAF_ENTRY_OVERHEAD = 4  # two uint16 length prefixes
_INTERNAL_ENTRY_OVERHEAD = 6  # uint16 key length + uint32 child pointer


@dataclass(slots=True)
class _LeafNode:
    """In-memory image of a leaf page."""

    keys: list[bytes] = field(default_factory=list)
    values: list[bytes] = field(default_factory=list)
    next_leaf: int = _NO_PAGE

    def byte_size(self) -> int:
        payload = sum(len(k) + len(v) for k, v in zip(self.keys, self.values))
        return _NODE_HEADER.size + payload + _LEAF_ENTRY_OVERHEAD * len(self.keys)

    @property
    def nbytes(self) -> int:
        """Decoded footprint, container overhead included (the cache's unit)."""
        getsizeof = sys.getsizeof
        return (
            getsizeof(self)
            + getsizeof(self.keys)
            + getsizeof(self.values)
            + sum(map(getsizeof, self.keys))
            + sum(map(getsizeof, self.values))
        )


@dataclass(slots=True)
class _InternalNode:
    """In-memory image of an internal page.

    ``children`` has one more element than ``keys``: ``keys[i]`` is the
    smallest key reachable under ``children[i + 1]``.
    """

    keys: list[bytes] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    def byte_size(self) -> int:
        payload = sum(len(k) for k in self.keys)
        return (
            _NODE_HEADER.size
            + 4 * max(len(self.children) - 1, 0)
            + payload
            + 2 * len(self.keys)
            + 4
        )

    @property
    def nbytes(self) -> int:
        """Decoded footprint, container overhead included (the cache's unit)."""
        getsizeof = sys.getsizeof
        return (
            getsizeof(self)
            + getsizeof(self.keys)
            + getsizeof(self.children)
            + sum(map(getsizeof, self.keys))
            + sum(map(getsizeof, self.children))
        )


def _serialize_leaf(node: _LeafNode) -> bytes:
    out = bytearray(_NODE_HEADER.pack(_LEAF, len(node.keys), node.next_leaf))
    for key, value in zip(node.keys, node.values):
        out += _U16.pack(len(key))
        out += key
        out += _U16.pack(len(value))
        out += value
    return bytes(out)


def _serialize_internal(node: _InternalNode) -> bytes:
    if len(node.children) != len(node.keys) + 1:
        raise BTreeError(
            f"internal node has {len(node.children)} children for {len(node.keys)} keys"
        )
    out = bytearray(_NODE_HEADER.pack(_INTERNAL, len(node.keys), node.children[0]))
    for key, child in zip(node.keys, node.children[1:]):
        out += _U16.pack(len(key))
        out += key
        out += _U32.pack(child)
    return bytes(out)


_unpack_header = _NODE_HEADER.unpack_from
_unpack_u16 = _U16.unpack_from
_unpack_u32 = _U32.unpack_from


def _deserialize(data: bytes) -> _LeafNode | _InternalNode:
    """Decode one node page; ``data`` must be ``bytes`` so slices are too."""
    u16 = _unpack_u16
    node_type, count, link = _unpack_header(data, 0)
    offset = _NODE_HEADER.size
    keys: list[bytes] = []
    add_key = keys.append
    if node_type == _LEAF:
        values: list[bytes] = []
        add_value = values.append
        for _ in range(count):
            key_end = offset + 2 + u16(data, offset)[0]
            add_key(data[offset + 2 : key_end])
            offset = key_end + 2 + u16(data, key_end)[0]
            add_value(data[key_end + 2 : offset])
        return _LeafNode(keys, values, link)
    if node_type == _INTERNAL:
        children = [link]
        add_child = children.append
        for _ in range(count):
            key_end = offset + 2 + u16(data, offset)[0]
            add_key(data[offset + 2 : key_end])
            add_child(_unpack_u32(data, key_end)[0])
            offset = key_end + 4
        return _InternalNode(keys, children)
    raise BTreeError(f"corrupt node page: unknown node type {node_type}")


def _bisect_right(keys: Sequence[bytes], key: bytes) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < keys[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bisect_left(keys: Sequence[bytes], key: bytes) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class BTree:
    """A disk-based B+-tree mapping unique byte-string keys to byte values.

    ``node_cache`` (``None`` by default) is the decoded-page cache reads
    consult before decoding a node; the owning index installs its own.
    """

    def __init__(self, pool: BufferPool, meta_page_id: int | None = None) -> None:
        self.pool = pool
        self.node_cache: "DecodedBlockCache | None" = None
        self.page_size = pool.page_file.page_size
        if self.page_size < 128:
            raise BTreeError(f"page size {self.page_size} is too small for a B+-tree")
        if meta_page_id is None:
            self.meta_page_id = pool.allocate_page()
            root = pool.allocate_page()
            self._write_node(root, _LeafNode())
            self.root_page_id = root
            self.height = 1
            self._write_meta()
        else:
            self.meta_page_id = meta_page_id
            data = pool.get_page(meta_page_id)
            magic, root, height = _META_HEADER.unpack_from(data, 0)
            if magic != _META_MAGIC:
                raise BTreeError(f"page {meta_page_id} is not a B-tree meta page")
            self.root_page_id = root
            self.height = height

    # -- public API ----------------------------------------------------------------

    def get(self, key: bytes, ctx: "ReadContext | None" = None) -> bytes:
        """Return the value stored for ``key``, charging reads to ``ctx``.

        Raises :class:`KeyNotFoundError` if the key is absent.
        """
        leaf, _ = self._descend_to_leaf(key, ctx)
        index = _bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        raise KeyNotFoundError(f"key {key!r} not found")

    def contains(self, key: bytes, ctx: "ReadContext | None" = None) -> bool:
        """Return whether ``key`` is present."""
        try:
            self.get(key, ctx)
        except KeyNotFoundError:
            return False
        return True

    def insert(self, key: bytes, value: bytes, replace: bool = False) -> None:
        """Insert ``key`` → ``value``; splits nodes as needed.

        With ``replace=False`` (default) inserting an existing key raises
        :class:`DuplicateKeyError`; with ``replace=True`` the value is
        overwritten in place.
        """
        self._check_entry_fits(key, value)
        split = self._insert_recursive(self.root_page_id, self.height, key, value, replace)
        if split is not None:
            middle_key, new_child = split
            new_root = _InternalNode(keys=[middle_key], children=[self.root_page_id, new_child])
            root_page = self.pool.allocate_page()
            self._write_node(root_page, new_root)
            self.root_page_id = root_page
            self.height += 1
            self._write_meta()

    def delete(self, key: bytes) -> None:
        """Remove ``key`` from the tree.

        Underflowing leaves are tolerated (no rebalancing); the tree stays
        correct, merely less densely packed — sufficient for the batch-update
        workflow the paper describes, where the index is periodically rebuilt.
        """
        path: list[tuple[int, int]] = []
        page_id = self.root_page_id
        for _ in range(self.height - 1):
            node = self._read_node_copy(page_id)
            if not isinstance(node, _InternalNode):
                raise BTreeError("tree height is inconsistent with node types")
            slot = _bisect_right(node.keys, key)
            path.append((page_id, slot))
            page_id = node.children[slot]
        leaf = self._read_node_copy(page_id)
        if not isinstance(leaf, _LeafNode):
            raise BTreeError("expected a leaf at the bottom of the tree")
        index = _bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            raise KeyNotFoundError(f"key {key!r} not found")
        del leaf.keys[index]
        del leaf.values[index]
        self._write_node(page_id, leaf)

    def seek(
        self, key: bytes, ctx: "ReadContext | None" = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries in key order starting at the first key >= ``key``.

        This is the equivalent of a Berkeley DB ``set_range`` cursor and is the
        primitive the OIF query algorithms use to locate the first block of a
        Range of Interest and then scan forward.  Page reads — the descent and
        every leaf the iteration advances to — are charged to ``ctx``.
        """
        leaf, page_id = self._descend_to_leaf(key, ctx)
        index = _bisect_left(leaf.keys, key)
        return self._iterate_from(leaf, page_id, index, ctx)

    def items(self, ctx: "ReadContext | None" = None) -> Iterator[tuple[bytes, bytes]]:
        """Iterate every entry in key order."""
        return self.seek(b"", ctx)

    def first_key(self) -> bytes | None:
        """Return the smallest key, or ``None`` when the tree is empty."""
        for key, _ in self.items():
            return key
        return None

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def bulk_load(
        self,
        entries: Iterable[tuple[bytes, bytes]],
        fill_factor: float = 0.9,
    ) -> None:
        """Replace the tree contents by bulk loading sorted ``entries``.

        ``entries`` must be sorted by key with no duplicates.  Leaves are
        packed to ``fill_factor`` of the page payload and chained left to
        right, then internal levels are built bottom-up.  Bulk loading places
        consecutive leaves on consecutive page ids, which makes range scans
        read mostly sequential pages — mirroring how contiguous inverted lists
        behave in the paper's Berkeley DB implementation.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise BTreeError(f"fill factor must be in [0.1, 1.0], got {fill_factor}")
        budget = int((self.page_size - _NODE_HEADER.size) * fill_factor)

        leaf_page_ids: list[int] = []
        leaf_first_keys: list[bytes] = []
        current = _LeafNode()
        current_bytes = 0
        previous_key: bytes | None = None

        pending: list[tuple[_LeafNode, int]] = []

        def flush_leaf(node: _LeafNode) -> None:
            page_id = self.pool.allocate_page()
            if pending:
                prev_node, prev_page = pending.pop()
                prev_node.next_leaf = page_id
                self._write_node(prev_page, prev_node)
            pending.append((node, page_id))
            leaf_page_ids.append(page_id)
            leaf_first_keys.append(node.keys[0] if node.keys else b"")

        for key, value in entries:
            if previous_key is not None and key <= previous_key:
                raise BTreeError(
                    "bulk load requires strictly increasing keys; "
                    f"got {previous_key!r} then {key!r}"
                )
            previous_key = key
            self._check_entry_fits(key, value)
            entry_bytes = len(key) + len(value) + _LEAF_ENTRY_OVERHEAD
            if current.keys and current_bytes + entry_bytes > budget:
                flush_leaf(current)
                current = _LeafNode()
                current_bytes = 0
            current.keys.append(key)
            current.values.append(value)
            current_bytes += entry_bytes

        if current.keys or not leaf_page_ids:
            flush_leaf(current)
        if pending:
            last_node, last_page = pending.pop()
            last_node.next_leaf = _NO_PAGE
            self._write_node(last_page, last_node)

        # Build the internal levels bottom-up.
        level_pages = leaf_page_ids
        level_keys = leaf_first_keys
        height = 1
        while len(level_pages) > 1:
            parent_pages: list[int] = []
            parent_keys: list[bytes] = []
            node = _InternalNode(children=[level_pages[0]])
            node_first_key = level_keys[0]
            node_bytes = node.byte_size()
            for child_page, child_key in zip(level_pages[1:], level_keys[1:]):
                entry_bytes = len(child_key) + _INTERNAL_ENTRY_OVERHEAD
                if node.keys and node_bytes + entry_bytes > budget:
                    page_id = self.pool.allocate_page()
                    self._write_node(page_id, node)
                    parent_pages.append(page_id)
                    parent_keys.append(node_first_key)
                    node = _InternalNode(children=[child_page])
                    node_first_key = child_key
                    node_bytes = node.byte_size()
                else:
                    node.keys.append(child_key)
                    node.children.append(child_page)
                    node_bytes += entry_bytes
            page_id = self.pool.allocate_page()
            self._write_node(page_id, node)
            parent_pages.append(page_id)
            parent_keys.append(node_first_key)
            level_pages = parent_pages
            level_keys = parent_keys
            height += 1

        self.root_page_id = level_pages[0]
        self.height = height
        self._write_meta()

    def check_invariants(self) -> None:
        """Validate structural invariants; used by the test suite.

        Checks that keys are globally sorted, that every internal separator key
        bounds its subtrees correctly, and that leaf chaining visits every key
        exactly once.
        """
        keys_via_structure = list(self._collect_keys(self.root_page_id, self.height))
        if keys_via_structure != sorted(keys_via_structure):
            raise BTreeError("keys are not in sorted order")
        if len(set(keys_via_structure)) != len(keys_via_structure):
            raise BTreeError("duplicate keys present")
        keys_via_chain = [key for key, _ in self.items()]
        if keys_via_chain != keys_via_structure:
            raise BTreeError("leaf chain does not agree with tree structure")

    # -- internals -----------------------------------------------------------------

    def _collect_keys(self, page_id: int, height: int) -> Iterator[bytes]:
        node = self._read_node(page_id)
        if height == 1:
            if not isinstance(node, _LeafNode):
                raise BTreeError("expected leaf at height 1")
            yield from node.keys
            return
        if not isinstance(node, _InternalNode):
            raise BTreeError("expected internal node above height 1")
        for child in node.children:
            yield from self._collect_keys(child, height - 1)

    def _iterate_from(
        self,
        leaf: _LeafNode,
        page_id: int,
        index: int,
        ctx: "ReadContext | None" = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        while True:
            while index < len(leaf.keys):
                yield leaf.keys[index], leaf.values[index]
                index += 1
            if leaf.next_leaf == _NO_PAGE:
                return
            page_id = leaf.next_leaf
            node = self._read_node(page_id, ctx)
            if not isinstance(node, _LeafNode):
                raise BTreeError("leaf chain points at a non-leaf page")
            leaf = node
            index = 0

    def _descend_to_leaf(
        self, key: bytes, ctx: "ReadContext | None" = None
    ) -> tuple[_LeafNode, int]:
        page_id = self.root_page_id
        for _ in range(self.height - 1):
            node = self._read_node(page_id, ctx)
            if not isinstance(node, _InternalNode):
                raise BTreeError("tree height is inconsistent with node types")
            slot = _bisect_right(node.keys, key)
            page_id = node.children[slot]
        node = self._read_node(page_id, ctx)
        if not isinstance(node, _LeafNode):
            raise BTreeError("expected a leaf at the bottom of the tree")
        return node, page_id

    def _insert_recursive(
        self, page_id: int, height: int, key: bytes, value: bytes, replace: bool
    ) -> tuple[bytes, int] | None:
        node = self._read_node_copy(page_id)
        if height == 1:
            if not isinstance(node, _LeafNode):
                raise BTreeError("expected a leaf at height 1")
            index = _bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                if not replace:
                    raise DuplicateKeyError(f"key {key!r} already present")
                node.values[index] = value
            else:
                node.keys.insert(index, key)
                node.values.insert(index, value)
            if node.byte_size() <= self.page_size:
                self._write_node(page_id, node)
                return None
            return self._split_leaf(page_id, node)

        if not isinstance(node, _InternalNode):
            raise BTreeError("expected an internal node above height 1")
        slot = _bisect_right(node.keys, key)
        split = self._insert_recursive(node.children[slot], height - 1, key, value, replace)
        if split is None:
            return None
        middle_key, new_child = split
        node.keys.insert(slot, middle_key)
        node.children.insert(slot + 1, new_child)
        if node.byte_size() <= self.page_size:
            self._write_node(page_id, node)
            return None
        return self._split_internal(page_id, node)

    def _split_leaf(self, page_id: int, node: _LeafNode) -> tuple[bytes, int]:
        half = self._split_point(
            [len(k) + len(v) + _LEAF_ENTRY_OVERHEAD for k, v in zip(node.keys, node.values)]
        )
        right = _LeafNode(
            keys=node.keys[half:], values=node.values[half:], next_leaf=node.next_leaf
        )
        node.keys = node.keys[:half]
        node.values = node.values[:half]
        right_page = self.pool.allocate_page()
        node.next_leaf = right_page
        self._write_node(right_page, right)
        self._write_node(page_id, node)
        return right.keys[0], right_page

    def _split_internal(self, page_id: int, node: _InternalNode) -> tuple[bytes, int]:
        half = max(1, len(node.keys) // 2)
        middle_key = node.keys[half]
        right = _InternalNode(keys=node.keys[half + 1 :], children=node.children[half + 1 :])
        node.keys = node.keys[:half]
        node.children = node.children[: half + 1]
        right_page = self.pool.allocate_page()
        self._write_node(right_page, right)
        self._write_node(page_id, node)
        return middle_key, right_page

    @staticmethod
    def _split_point(entry_sizes: list[int]) -> int:
        total = sum(entry_sizes)
        running = 0
        for index, size in enumerate(entry_sizes):
            running += size
            if running >= total // 2:
                return max(1, min(index + 1, len(entry_sizes) - 1))
        return max(1, len(entry_sizes) - 1)

    def _check_entry_fits(self, key: bytes, value: bytes) -> None:
        single = _NODE_HEADER.size + len(key) + len(value) + _LEAF_ENTRY_OVERHEAD
        if single > self.page_size:
            raise BTreeError(
                f"entry of {len(key)} + {len(value)} bytes cannot fit in a "
                f"{self.page_size}-byte page"
            )
        if len(key) > 0xFFFF or len(value) > 0xFFFF:
            raise BTreeError("keys and values are limited to 65535 bytes")

    def _read_node(
        self, page_id: int, ctx: "ReadContext | None" = None
    ) -> _LeafNode | _InternalNode:
        """The decoded node of ``page_id``, shared with the cache: read only.

        The page access is charged first, hit or miss, so a cached node
        costs exactly the simulated I/O of a decoded one.
        """
        page = self.pool.get_page(page_id, ctx)
        cache = self.node_cache
        if cache is None:
            return _deserialize(bytes(page))
        node = cache.get_node(page_id)
        if node is None:
            node = _deserialize(bytes(page))
            cache.put(page_id, node)
        return node

    def _read_node_copy(self, page_id: int) -> _LeafNode | _InternalNode:
        """A freshly decoded node the caller may modify (the write paths)."""
        return _deserialize(bytes(self.pool.get_page(page_id)))

    def _write_node(self, page_id: int, node: _LeafNode | _InternalNode) -> None:
        data = _serialize_leaf(node) if isinstance(node, _LeafNode) else _serialize_internal(node)
        if len(data) > self.page_size:
            raise BTreeError(
                f"serialized node of {len(data)} bytes exceeds page size {self.page_size}"
            )
        self.pool.put_page(page_id, data)
        if self.node_cache is not None:
            self.node_cache.discard(page_id)

    def _write_meta(self) -> None:
        self.pool.put_page(
            self.meta_page_id,
            _META_HEADER.pack(_META_MAGIC, self.root_page_id, self.height),
        )
