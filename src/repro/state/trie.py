"""An immutable hexary Merkle-Patricia trie (MPT).

This is the commitment structure Ethereum uses for the world state and for
per-contract storage (paper §2.1: two world states are identical iff their
MPT roots match, which is exactly how §5.2 validates correctness).

Design choices:

* **Immutable nodes with structural sharing.**  ``insert``/``delete``
  return a new root and copy only the path they touch, so snapshotting a
  trie is free — which is what lets the chain layer keep the state of every
  block (including fork siblings) alive simultaneously.
* **Yellow-paper encoding, hashed once per node.**  Leaf/extension paths
  use hex-prefix (HP) encoding.  Each node caches one thing, its *ref*:
  the bytes it contributes inside its parent's RLP list — ``0xa0 ‖
  keccak(rlp)`` when its RLP is 32 bytes or longer, else the RLP itself
  (inlined).  A node is immutable, so its ref is computed the first time
  an ancestor (or :meth:`MPT.root_hash`) needs it and never again; a
  parent's RLP is a list prefix over its children's refs joined as bytes,
  so encoding a new node touches only that node.
* **Bulk build.**  :meth:`MPT.from_items` builds a trie from a whole key
  set in one sorted, bottom-up pass (genesis state, snapshot restore,
  transaction and receipt roots); it yields the same nodes, and so the
  same root, as inserting the keys one by one.
* **byte-string keys and values.**  Callers hash/serialise their own keys
  (see :class:`SecureMPT` for the keccak-keyed variant used by the state).
  Internally a nibble path is a ``bytes`` object with one nibble (0-15)
  per byte, so slicing and comparing paths are C-level operations.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.common.hashing import keccak
from repro.common.rlp import rlp_encode, rlp_encode_string, rlp_wrap_list
from repro.common.types import Hash32
from repro.state.cache import keccak_cached

__all__ = ["MPT", "SecureMPT", "EMPTY_ROOT"]

#: One nibble (0-15) per byte.
Nibbles = bytes

_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_NIBBLE_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")
#: ``_NIBBLE[i]`` is the one-nibble path ``i``.
_NIBBLE = tuple(bytes((i,)) for i in range(16))


def bytes_to_nibbles(key: bytes) -> Nibbles:
    return key.hex().encode("ascii").translate(_HEX_TO_NIBBLE)


def nibbles_to_bytes(path: Nibbles) -> bytes:
    """Inverse of :func:`bytes_to_nibbles` (``path`` has even length)."""
    return bytes.fromhex(path.translate(_NIBBLE_TO_HEX).decode("ascii"))


def hp_encode(path: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path with the leaf/extension flag."""
    if len(path) % 2:
        prefix = "3" if is_leaf else "1"
    else:
        prefix = "20" if is_leaf else "00"
    return bytes.fromhex(prefix + path.translate(_NIBBLE_TO_HEX).decode("ascii"))


def _common_prefix_len(a: Nibbles, b: Nibbles) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


class _Leaf:
    __slots__ = ("path", "value", "_ref")

    def __init__(self, path: Nibbles, value: bytes) -> None:
        self.path = path
        self.value = value
        self._ref: Optional[bytes] = None


class _Extension:
    __slots__ = ("path", "child", "_ref")

    def __init__(self, path: Nibbles, child: "_Node") -> None:
        self.path = path
        self.child = child
        self._ref: Optional[bytes] = None


class _Branch:
    __slots__ = ("children", "value", "_ref")

    def __init__(
        self, children: Tuple[Optional["_Node"], ...], value: Optional[bytes]
    ) -> None:
        self.children = children
        self.value = value
        self._ref: Optional[bytes] = None


_Node = Union[_Leaf, _Extension, _Branch]

_EMPTY_CHILDREN: Tuple[Optional[_Node], ...] = (None,) * 16

#: Root hash of the empty trie: hash of the RLP of the empty byte string.
EMPTY_ROOT = keccak(rlp_encode(b""))

#: RLP of the empty string: an empty branch slot or an absent branch value.
_RLP_EMPTY = b"\x80"
#: RLP prefix of a 32-byte string: a hashed child reference is this + hash.
_RLP_HASH_PREFIX = b"\xa0"


def _node_rlp(node: _Node) -> bytes:
    """Canonical RLP of a node, built from its children's cached refs.

    Not cached itself: only :func:`_node_ref` keeps a result per node.
    """
    if isinstance(node, _Branch):
        value = node.value
        return rlp_wrap_list(
            b"".join([_RLP_EMPTY if c is None else (c._ref or _node_ref(c)) for c in node.children])
            + (_RLP_EMPTY if value is None else rlp_encode_string(value))
        )
    if isinstance(node, _Leaf):
        return rlp_wrap_list(rlp_encode_string(hp_encode(node.path, True)) + rlp_encode_string(node.value))
    child = node.child
    return rlp_wrap_list(rlp_encode_string(hp_encode(node.path, False)) + (child._ref or _node_ref(child)))


def _node_ref(node: _Node) -> bytes:
    """The bytes ``node`` contributes inside its parent's RLP list.

    ``0xa0 ‖ keccak(rlp)`` (the RLP of the 32-byte hash) when the node's
    RLP is 32 bytes or longer, otherwise the RLP itself, embedded inline.
    Computed once and cached in ``node._ref``; a hashed ref is 33 bytes
    and an inline one at most 31, so the length tells them apart.
    """
    ref = node._ref
    if ref is None:
        enc = _node_rlp(node)
        # keccak() without its Hash32 wrapper: the digest is only concatenated
        ref = _RLP_HASH_PREFIX + hashlib.sha3_256(enc).digest() if len(enc) >= 32 else enc
        node._ref = ref
    return ref


def _build(entries: List[Tuple[Nibbles, bytes]], lo: int, hi: int, depth: int) -> _Node:
    """Node for the sorted, distinct ``entries[lo:hi]``, which share their
    first ``depth`` nibbles."""
    path, value = entries[lo]
    if hi - lo == 1:
        return _Leaf(path[depth:], value)
    # sorted: the first and last paths' common prefix is everyone's
    common = depth + _common_prefix_len(path[depth:], entries[hi - 1][0][depth:])
    branch_value: Optional[bytes] = None
    if len(path) == common:  # a key that ends here sorts first
        branch_value = value
        lo += 1
    children: List[Optional[_Node]] = list(_EMPTY_CHILDREN)
    start = lo
    while start < hi:
        nibble = entries[start][0][common]
        end = start + 1
        while end < hi and entries[end][0][common] == nibble:
            end += 1
        children[nibble] = _build(entries, start, end, common + 1)
        start = end
    branch = _Branch(tuple(children), branch_value)
    if common > depth:
        return _Extension(path[depth:common], branch)
    return branch


def _get(node: Optional[_Node], path: Nibbles) -> Optional[bytes]:
    while node is not None:
        if isinstance(node, _Leaf):
            return node.value if node.path == path else None
        if isinstance(node, _Extension):
            k = len(node.path)
            if path[:k] != node.path:
                return None
            path = path[k:]
            node = node.child
            continue
        # branch
        if not path:
            return node.value
        child = node.children[path[0]]
        path = path[1:]
        node = child
    return None


def _insert(node: Optional[_Node], path: Nibbles, value: bytes) -> _Node:
    if node is None:
        return _Leaf(path, value)
    if isinstance(node, _Leaf):
        if node.path == path:
            return _Leaf(path, value)
        common = _common_prefix_len(node.path, path)
        old_rest = node.path[common:]
        new_rest = path[common:]
        children = list(_EMPTY_CHILDREN)
        branch_value: Optional[bytes] = None
        if old_rest:
            children[old_rest[0]] = _Leaf(old_rest[1:], node.value)
        else:
            branch_value = node.value
        if new_rest:
            children[new_rest[0]] = _Leaf(new_rest[1:], value)
        else:
            branch_value = value
        branch = _Branch(tuple(children), branch_value)
        if common:
            return _Extension(path[:common], branch)
        return branch
    if isinstance(node, _Extension):
        common = _common_prefix_len(node.path, path)
        if common == len(node.path):
            child = _insert(node.child, path[common:], value)
            return _Extension(node.path, child)
        # split the extension
        ext_rest = node.path[common:]
        new_rest = path[common:]
        children = list(_EMPTY_CHILDREN)
        branch_value = None
        sub = (
            node.child
            if len(ext_rest) == 1
            else _Extension(ext_rest[1:], node.child)
        )
        children[ext_rest[0]] = sub
        if new_rest:
            children[new_rest[0]] = _Leaf(new_rest[1:], value)
        else:
            branch_value = value
        branch = _Branch(tuple(children), branch_value)
        if common:
            return _Extension(path[:common], branch)
        return branch
    # branch
    if not path:
        return _Branch(node.children, value)
    idx = path[0]
    child = _insert(node.children[idx], path[1:], value)
    children = list(node.children)
    children[idx] = child
    return _Branch(tuple(children), node.value)


def _normalize_branch(node: _Branch) -> Optional[_Node]:
    """Collapse a branch left with <2 meaningful entries after a delete."""
    live = [(i, c) for i, c in enumerate(node.children) if c is not None]
    if node.value is not None:
        if live:
            return node
        return _Leaf(b"", node.value)
    if len(live) > 1:
        return node
    if not live:
        return None
    idx, child = live[0]
    # merge the branch slot nibble into the surviving child
    if isinstance(child, _Leaf):
        return _Leaf(_NIBBLE[idx] + child.path, child.value)
    if isinstance(child, _Extension):
        return _Extension(_NIBBLE[idx] + child.path, child.child)
    return _Extension(_NIBBLE[idx], child)


def _delete(node: Optional[_Node], path: Nibbles) -> Optional[_Node]:
    if node is None:
        return None
    if isinstance(node, _Leaf):
        return None if node.path == path else node
    if isinstance(node, _Extension):
        k = len(node.path)
        if path[:k] != node.path:
            return node
        child = _delete(node.child, path[k:])
        if child is node.child:
            return node
        if child is None:
            return None
        if isinstance(child, _Leaf):
            return _Leaf(node.path + child.path, child.value)
        if isinstance(child, _Extension):
            return _Extension(node.path + child.path, child.child)
        return _Extension(node.path, child)
    # branch
    if not path:
        if node.value is None:
            return node
        return _normalize_branch(_Branch(node.children, None))
    idx = path[0]
    old_child = node.children[idx]
    child = _delete(old_child, path[1:])
    if child is old_child:
        return node
    children = list(node.children)
    children[idx] = child
    return _normalize_branch(_Branch(tuple(children), node.value))


def _iter_items(node: Optional[_Node], prefix: Nibbles) -> Iterator[tuple[Nibbles, bytes]]:
    if node is None:
        return
    if isinstance(node, _Leaf):
        yield prefix + node.path, node.value
        return
    if isinstance(node, _Extension):
        yield from _iter_items(node.child, prefix + node.path)
        return
    if node.value is not None:
        yield prefix, node.value
    for i, child in enumerate(node.children):
        if child is not None:
            yield from _iter_items(child, prefix + _NIBBLE[i])


class MPT:
    """Immutable Merkle-Patricia trie handle.

    All mutating operations return a *new* :class:`MPT`; the receiver is
    unchanged.  Keys and values are ``bytes``; setting a key to the empty
    value deletes it (Ethereum semantics for zero-valued storage).
    """

    __slots__ = ("_root",)

    def __init__(self, _root: Optional[_Node] = None) -> None:
        self._root = _root

    @classmethod
    def from_items(cls, items: Iterable[Tuple[bytes, bytes]]) -> "MPT":
        """Bulk-build a trie from ``(key, value)`` pairs in one pass.

        Same trie as applying :meth:`set` to each pair in order on an
        empty trie (a later pair for a key wins; ``b""`` values are
        absent), built bottom-up from the sorted keys by grouping them on
        the nibble at each depth, so no intermediate trie is made.
        """
        latest = {bytes_to_nibbles(key): value for key, value in items}
        entries = sorted((path, value) for path, value in latest.items() if value)
        if not entries:
            return cls()
        return cls(_build(entries, 0, len(entries), 0))

    def get(self, key: bytes) -> Optional[bytes]:
        return _get(self._root, bytes_to_nibbles(key))

    def set(self, key: bytes, value: bytes) -> "MPT":
        if value == b"":
            return self.delete(key)
        return MPT(_insert(self._root, bytes_to_nibbles(key), value))

    def delete(self, key: bytes) -> "MPT":
        new_root = _delete(self._root, bytes_to_nibbles(key))
        if new_root is self._root:
            return self
        return MPT(new_root)

    def root_hash(self) -> Hash32:
        if self._root is None:
            return EMPTY_ROOT
        ref = _node_ref(self._root)
        if len(ref) == 33:  # hashed: 0xa0 ‖ keccak(rlp)
            return Hash32(ref[1:])
        return keccak(ref)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in lexicographic key order.

        Only keys with an even nibble count (i.e. whole bytes) are
        representable; all keys inserted through :meth:`set` qualify.
        """
        for nibbles, value in _iter_items(self._root, b""):
            yield nibbles_to_bytes(nibbles), value

    def __len__(self) -> int:
        return sum(1 for _ in _iter_items(self._root, b""))

    def is_empty(self) -> bool:
        return self._root is None


class SecureMPT:
    """MPT variant that keys entries by ``keccak(key)``.

    This mirrors Ethereum's *secure trie*: it bounds path depth and
    prevents key-grinding attacks on the structure.  Iteration yields
    hashed keys, so callers that need reverse lookup keep their own index
    (the :class:`~repro.state.statedb.StateDB` does).

    Key hashing goes through the process-wide :func:`keccak_cached` memo —
    commits re-hash the same addresses and slot keys block after block, so
    memoizing the preimage→digest map removes the dominant hashing cost
    without changing any root (the memo is a pure-function cache).
    """

    __slots__ = ("_trie",)

    def __init__(self, _trie: Optional[MPT] = None) -> None:
        self._trie = _trie if _trie is not None else MPT()

    @classmethod
    def from_items(cls, items: Iterable[Tuple[bytes, bytes]]) -> "SecureMPT":
        """Bulk-build a secure trie (see :meth:`MPT.from_items`)."""
        return cls(MPT.from_items((keccak_cached(key), value) for key, value in items))

    def get(self, key: bytes) -> Optional[bytes]:
        return self._trie.get(keccak_cached(key))

    def set(self, key: bytes, value: bytes) -> "SecureMPT":
        return SecureMPT(self._trie.set(keccak_cached(key), value))

    def delete(self, key: bytes) -> "SecureMPT":
        return SecureMPT(self._trie.delete(keccak_cached(key)))

    def update_many(self, items: Iterable[Tuple[bytes, bytes]]) -> "SecureMPT":
        """Apply a batch of ``(key, value)`` updates in one pass.

        ``b""`` values delete (Ethereum zero-storage semantics), matching
        :meth:`set`.  Returns ``self`` unchanged when every update is a
        no-op, preserving structural sharing for snapshot identity checks.
        The batch amortises the per-call ``SecureMPT`` wrapper allocation
        that ``StateDB.commit()`` previously paid per storage slot.
        """
        trie = self._trie
        for key, value in items:
            if value == b"":
                trie = trie.delete(keccak_cached(key))
            else:
                trie = trie.set(keccak_cached(key), value)
        if trie is self._trie:
            return self
        return SecureMPT(trie)

    def root_hash(self) -> Hash32:
        return self._trie.root_hash()

    def is_empty(self) -> bool:
        return self._trie.is_empty()
