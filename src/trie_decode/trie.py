"""Prefix tree over token sequences: the decoding constraint object.

Each node's children are the legal next tokens after the prefix spelled on
the path from the root.  Terminality is a node flag rather than an explicit
end-of-sequence edge; ``allowed_continuations`` reports ``EOS`` for a
terminal node, which keeps a name that is a prefix of another name (the node
is terminal *and* has children) unambiguous.  As a beam-search constraint
the state is a node: ``start()`` is the root, ``allowed(node)`` its
continuations and ``advance(node, token)`` the child.

Node-count convention: the root and every node with children count as
internal; a terminal node without children is a leaf; a terminal node with
children counts as internal and still contributes one to ``leaf_count``.
``leaf_count`` therefore always equals the number of distinct inserted
sequences.

Tries are immutable after construction.  ``insert`` returns a new trie that
shares structure with the old one, so concurrent readers of any version are
safe.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .vocab import EOS, SOS, TokenId

MAGIC = b"ETRIE\x00\x01\x00"

_HEADER = struct.Struct("<I")  # vocab size
_NODE_HEAD = struct.Struct("<BI")  # terminal flag, child count
_CHILD = struct.Struct("<IQ")  # token id, absolute offset of child record


class TrieError(ValueError):
    """Raised for invalid sequences handed to trie builders."""


class TrieFormatError(ValueError):
    """Raised when deserializing a malformed byte stream."""


class TrieNode:
    __slots__ = ("children", "terminal")

    def __init__(self, children: dict[TokenId, "TrieNode"] | None = None, terminal: bool = False) -> None:
        self.children: dict[TokenId, TrieNode] = children if children is not None else {}
        self.terminal = terminal


class TrieStats(NamedTuple):
    leaf_count: int
    internal_node_count: int


class EntityTrie:
    """Immutable prefix tree over token sequences.

    ``vocab_size`` bounds the token ids; it is recorded in the serialized
    form and checked on load.
    """

    __slots__ = ("root", "vocab_size", "leaf_count", "internal_node_count", "node_count")

    def __init__(self, root: TrieNode, vocab_size: int) -> None:
        self.root = root
        self.vocab_size = vocab_size
        leaves = internal = total = 0
        stack = [root]
        while stack:
            node = stack.pop()
            total += 1
            if node.terminal:
                leaves += 1
            if node.children or node is root:
                internal += 1
            stack.extend(node.children.values())
        self.leaf_count = leaves
        self.internal_node_count = internal
        self.node_count = total

    def stats(self) -> TrieStats:
        return TrieStats(self.leaf_count, self.internal_node_count)

    def _walk(self, prefix: Sequence[TokenId]) -> TrieNode | None:
        node = self.root
        for token in prefix:
            node = node.children.get(token)
            if node is None:
                return None
        return node

    def start(self) -> TrieNode:
        return self.root

    def allowed(self, node: TrieNode) -> frozenset[TokenId]:
        """Child tokens of ``node``, plus EOS when the node is terminal."""
        children = frozenset(node.children)
        return children | {EOS} if node.terminal else children

    def advance(self, node: TrieNode, token: TokenId) -> TrieNode:
        return node.children[token]

    def allowed_continuations(self, prefix: Sequence[TokenId]) -> frozenset[TokenId]:
        """Exact child set at ``prefix``, plus EOS when the node is terminal.

        An unreachable prefix yields the empty set.
        """
        node = self._walk(prefix)
        return frozenset() if node is None else self.allowed(node)

    def contains(self, sequence: Sequence[TokenId]) -> bool:
        node = self._walk(sequence)
        return node is not None and node.terminal

    def insert(self, sequence: Sequence[TokenId]) -> "EntityTrie":
        """Return a new trie that also accepts ``sequence``.

        Only the nodes along the inserted path are copied; all other
        structure is shared with this trie.
        """
        seq = _checked_sequence(sequence, self.vocab_size)
        new_root = TrieNode(dict(self.root.children), self.root.terminal)
        node = new_root
        for token in seq:
            child = node.children.get(token)
            if child is None:
                child = TrieNode()
            else:
                child = TrieNode(dict(child.children), child.terminal)
            node.children[token] = child
            node = child
        node.terminal = True
        return EntityTrie(new_root, self.vocab_size)

    def sequences(self) -> Iterator[tuple[TokenId, ...]]:
        """Yield all inserted sequences in ascending token-lex order."""
        stack = [(self.root, ())]
        while stack:
            node, prefix = stack.pop()
            if node.terminal:
                yield prefix
            # reversed so the smallest token id is popped (and yielded) first
            for token in sorted(node.children, reverse=True):
                stack.append((node.children[token], prefix + (token,)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityTrie):
            return NotImplemented
        if self.vocab_size != other.vocab_size:
            return False
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.terminal != b.terminal or a.children.keys() != b.children.keys():
                return False
            stack.extend((a.children[t], b.children[t]) for t in a.children)
        return True

    def __repr__(self) -> str:
        return f"EntityTrie(leaves={self.leaf_count}, internal={self.internal_node_count})"

    def serialize(self) -> bytes:
        """Canonical binary form.

        Layout: 8-byte magic, little-endian u32 vocab size, then node records
        in preorder (children visited in ascending token id).  Each record is
        a u8 terminal flag, a u32 child count, and ``(u32 token id, u64
        absolute byte offset)`` pairs sorted by token id.  Identical
        membership sets always produce identical bytes.
        """
        order: list[TrieNode] = []
        offsets: dict[int, int] = {}
        cursor = len(MAGIC) + _HEADER.size
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            offsets[id(node)] = cursor
            cursor += _NODE_HEAD.size + _CHILD.size * len(node.children)
            # reversed so the smallest token id is popped (and laid out) first
            stack.extend(node.children[t] for t in sorted(node.children, reverse=True))
        parts = [MAGIC, _HEADER.pack(self.vocab_size)]
        for node in order:
            parts.append(_NODE_HEAD.pack(1 if node.terminal else 0, len(node.children)))
            for token in sorted(node.children):
                parts.append(_CHILD.pack(token, offsets[id(node.children[token])]))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes) -> "EntityTrie":
        """Rebuild a trie from :meth:`serialize` output.

        Raises:
            TrieFormatError: on bad magic, truncation, dangling or cyclic
                child offsets, out-of-range token ids, or trailing bytes.
        """
        if data[: len(MAGIC)] != MAGIC:
            raise TrieFormatError("bad magic")
        if len(data) < len(MAGIC) + _HEADER.size + _NODE_HEAD.size:
            raise TrieFormatError("truncated stream")
        (vocab_size,) = _HEADER.unpack_from(data, len(MAGIC))
        root_offset = len(MAGIC) + _HEADER.size
        visited: set[int] = set()
        consumed = root_offset
        # preorder on an explicit stack, as names may outgrow the recursion limit
        found: dict[TokenId, TrieNode] = {}
        stack = [(root_offset, found, 0)]
        while stack:
            offset, slot, key = stack.pop()
            if offset in visited:
                raise TrieFormatError(f"cyclic child offset: {offset}")
            visited.add(offset)
            if offset + _NODE_HEAD.size > len(data):
                raise TrieFormatError("truncated stream")
            flag, count = _NODE_HEAD.unpack_from(data, offset)
            if flag not in (0, 1):
                raise TrieFormatError(f"invalid terminal flag: {flag}")
            end = offset + _NODE_HEAD.size + count * _CHILD.size
            if end > len(data):
                raise TrieFormatError("truncated stream")
            consumed += _NODE_HEAD.size + count * _CHILD.size
            node = slot[key] = TrieNode(terminal=bool(flag))
            prev_token = -1
            pos = offset + _NODE_HEAD.size
            entries = []
            for _ in range(count):
                token, child_offset = _CHILD.unpack_from(data, pos)
                pos += _CHILD.size
                if token <= prev_token:
                    raise TrieFormatError("children not sorted by token id")
                prev_token = token
                if token >= vocab_size:
                    raise TrieFormatError(f"token id {token} out of range")
                if child_offset < root_offset or child_offset >= len(data):
                    raise TrieFormatError(f"dangling child offset: {child_offset}")
                entries.append((child_offset, node.children, token))
            stack.extend(reversed(entries))
        if consumed != len(data):
            raise TrieFormatError("trailing data after last node record")
        return cls(found[0], vocab_size)


def _checked_sequence(sequence: Sequence[TokenId], vocab_size: int) -> tuple[TokenId, ...]:
    seq = tuple(sequence)
    if not seq:
        raise TrieError("empty sequence")
    for token in seq:
        if token in (SOS, EOS):
            raise TrieError("sequences must not contain SOS/EOS (terminality is implicit)")
        if not 0 <= token < vocab_size:
            raise TrieError(f"token id {token} out of range for vocab size {vocab_size}")
    return seq


def build_trie(sequences: Iterable[Sequence[TokenId]], vocab_size: int | None = None) -> EntityTrie:
    """Build a trie accepting exactly the given non-empty sequences.

    ``vocab_size`` defaults to one past the largest token id seen.
    """
    seqs = [tuple(s) for s in sequences]
    if not seqs:
        raise TrieError("cannot build a trie from zero sequences")
    if vocab_size is None:
        vocab_size = max(max(s, default=0) for s in seqs) + 1
    root = TrieNode()
    for seq in seqs:
        seq = _checked_sequence(seq, vocab_size)
        node = root
        for token in seq:
            node = node.children.setdefault(token, TrieNode())
        node.terminal = True
    return EntityTrie(root, vocab_size)
