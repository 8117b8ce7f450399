"""Prefix tree over token sequences: the decoding constraint object.

The nodes are numbered in level order (breadth first, siblings in ascending
token id) and held in three flat lists, which are also the file layout:
``token[v]`` is the edge label into node ``v`` (0 for the root, node 0),
``terminal[v]`` marks the nodes that end a name, and the children of ``v``
are the nodes ``first_child[v] .. first_child[v + 1] - 1``.  Terminality is
a node flag rather than an explicit end-of-sequence edge, which keeps a name
that is a prefix of another name (the node is terminal *and* has children)
unambiguous; ``allowed_continuations`` reports it as ``EOS``.  As a
beam-search constraint the state is a node index: ``start()`` is the root,
``final(node)`` its terminal flag, ``allowed(node)`` its child slice and
``advance(node, token)`` a bisection within that slice.  ``allowed`` hands
out read-only numpy views of a read-only copy of ``token``, at every node,
so a step costs no copy of the node's fanout; the copy is made on the first
``allowed`` call (a loaded trie reuses the array its file was parsed into),
so a trie that is only built and serialized never holds it.  Bisection stays
on the list, whose element access is cheaper than numpy's.

Node-count convention: the root and every node with children count as
internal; a terminal node without children is a leaf; a terminal node with
children counts as internal and still contributes one to ``leaf_count``.
``leaf_count`` therefore always equals the number of distinct inserted
sequences.

Tries are immutable after construction.  ``insert`` returns a new trie,
rebuilt in O(n) over all tokens, so concurrent readers of any version are
safe.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .vocab import EOS, SOS, TokenId

MAGIC = b"ETRIE\x00\x02\x00"
_MAGIC_V1 = b"ETRIE\x00\x01\x00"

_HEADER = struct.Struct("<II")  # vocab size, node count


class TrieError(ValueError):
    """Raised for invalid sequences handed to trie builders."""


class TrieFormatError(ValueError):
    """Raised when deserializing a malformed byte stream."""


class TrieStats(NamedTuple):
    leaf_count: int
    internal_node_count: int


class EntityTrie:
    """Immutable prefix tree over token sequences, in level-order arrays.

    ``vocab_size`` bounds the token ids; it is recorded in the serialized
    form and checked on load.  Build one with :func:`build_trie` or
    :meth:`deserialize`.
    """

    __slots__ = (
        "_token", "_tokens", "_first", "_terminal", "vocab_size",
        "leaf_count", "internal_node_count", "node_count", "max_depth", "min_label",
    )

    def __init__(
        self,
        token: list[int],
        first_child: list[int],
        terminal: list[bool],
        vocab_size: int,
        token_array: np.ndarray | None = None,
    ) -> None:
        self._token = token
        # the same labels as ``_token``, or None until the first ``allowed``
        self._tokens = token_array
        if token_array is not None:
            token_array.flags.writeable = False
        self._first = first_child
        self._terminal = terminal
        self.vocab_size = vocab_size
        self.node_count = len(token)
        self.leaf_count = sum(terminal)
        # every valid trie's root has children, so it is counted here too
        self.internal_node_count = sum(a < b for a, b in zip(first_child, first_child[1:]))
        # each level's children are one contiguous range: walk the levels down
        lo, hi, depth = 0, 1, 0
        while first_child[lo] < first_child[hi]:
            lo, hi, depth = first_child[lo], first_child[hi], depth + 1
        self.max_depth = depth
        # the smallest edge label; a valid trie's root always has a child
        self.min_label = min(islice(token, 1, None))

    def stats(self) -> TrieStats:
        return TrieStats(self.leaf_count, self.internal_node_count)

    def _child(self, node: int, token: TokenId) -> int:
        """Index of the child of ``node`` on ``token``, or -1."""
        hi = self._first[node + 1]
        i = bisect_left(self._token, token, self._first[node], hi)
        return i if i < hi and self._token[i] == token else -1

    def _walk(self, prefix: Sequence[TokenId]) -> int:
        node = 0
        for token in prefix:
            node = self._child(node, token)
            if node < 0:
                break
        return node

    def start(self) -> int:
        return 0

    def final(self, node: int) -> bool:
        return self._terminal[node]

    def allowed(self, node: int) -> np.ndarray:
        """Child tokens of ``node``: an ascending, read-only view of the trie's labels."""
        tokens = self._tokens
        if tokens is None:
            # threads racing here build equal arrays, and either may stay
            tokens = self._tokens = np.array(self._token, dtype=np.intp)
            tokens.flags.writeable = False
        return tokens[self._first[node] : self._first[node + 1]]

    def advance(self, node: int, token: TokenId) -> int:
        child = self._child(node, token)
        if child < 0:
            raise KeyError(token)
        return child

    def allowed_continuations(self, prefix: Sequence[TokenId]) -> frozenset[TokenId]:
        """Exact child set at ``prefix``, plus EOS when the node is terminal.

        An unreachable prefix yields the empty set.
        """
        node = self._walk(prefix)
        return frozenset() if node < 0 else frozenset(self.allowed(node).tolist() + [EOS] * self._terminal[node])

    def contains(self, sequence: Sequence[TokenId]) -> bool:
        node = self._walk(sequence)
        return node >= 0 and self._terminal[node]

    def insert(self, sequence: Sequence[TokenId]) -> "EntityTrie":
        """Return a new trie that also accepts ``sequence``.

        This is a full rebuild, O(n) in the total token count; the old trie
        is left untouched.
        """
        return build_trie([*self.sequences(), sequence], self.vocab_size)

    def sequences(self) -> Iterator[tuple[TokenId, ...]]:
        """Yield all inserted sequences in ascending token-lex order."""
        token, first = self._token, self._first
        stack = [(0, ())]
        while stack:
            node, prefix = stack.pop()
            if self._terminal[node]:
                yield prefix
            # reversed so the smallest token id is popped (and yielded) first
            for child in reversed(range(first[node], first[node + 1])):
                stack.append((child, prefix + (token[child],)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityTrie):
            return NotImplemented
        return (self.vocab_size, self._token, self._first, self._terminal) == (
            other.vocab_size, other._token, other._first, other._terminal,
        )

    def __repr__(self) -> str:
        return f"EntityTrie(leaves={self.leaf_count}, internal={self.internal_node_count})"

    def serialize(self) -> bytes:
        """Canonical binary form.

        Layout: 8-byte magic, little-endian u32 vocab size and u32 node
        count ``n``, then the arrays as little-endian dumps: ``token`` (n x
        u32), ``first_child`` (n + 1 x u32) and ``terminal`` (n x u8).
        Identical membership sets always produce identical bytes.
        """
        return b"".join((
            MAGIC,
            _HEADER.pack(self.vocab_size, self.node_count),
            np.array(self._token, dtype="<u4").tobytes(),
            np.array(self._first, dtype="<u4").tobytes(),
            np.array(self._terminal, dtype=np.uint8).tobytes(),
        ))

    @classmethod
    def deserialize(cls, data: bytes) -> "EntityTrie":
        """Rebuild a trie from :meth:`serialize` output.

        Every blob accepted here is the canonical form of its name set.

        Raises:
            TrieFormatError: on a version 1 file, bad magic, truncation,
                trailing bytes, or arrays that are not a level-order trie
                with ascending siblings, in-range tokens and 0/1 flags whose
                every childless node is terminal.
        """
        if data[: len(MAGIC)] == _MAGIC_V1:
            raise TrieFormatError(
                "version 1 trie file is no longer supported; rebuild it with `trie-decode build-trie`"
            )
        if data[: len(MAGIC)] != MAGIC:
            raise TrieFormatError("bad magic")
        start = len(MAGIC) + _HEADER.size
        if len(data) < start:
            raise TrieFormatError("truncated stream")
        vocab_size, n = _HEADER.unpack_from(data, len(MAGIC))
        size = start + 9 * n + 4
        if len(data) < size:
            raise TrieFormatError("truncated stream")
        if len(data) > size:
            raise TrieFormatError("trailing data after the arrays")
        token = np.frombuffer(data, "<u4", n, start).astype(np.int64)
        first = np.frombuffer(data, "<u4", n + 1, start + 4 * n).astype(np.int64)
        terminal = np.frombuffer(data, np.uint8, n, start + 8 * n + 4)
        if n < 2 or first[0] != 1 or first[n] != n:
            raise TrieFormatError("first_child must run from 1 to the node count")
        fanout = np.diff(first)
        if fanout.min() < 0 or np.any(first[:n] <= np.arange(n)):
            raise TrieFormatError("first_child decreases or points at or before its node")
        labels = token[1:]
        if token[0] != 0 or labels.max() >= vocab_size or np.any((labels == SOS) | (labels == EOS)):
            raise TrieFormatError("token id out of range, structural, or on the root")
        parent = np.repeat(np.arange(n), fanout)
        siblings = parent[1:] == parent[:-1]
        if np.any(labels[1:][siblings] <= labels[:-1][siblings]):
            raise TrieFormatError("children not sorted by token id")
        if terminal.max() > 1 or terminal[0] or not terminal[fanout == 0].all():
            raise TrieFormatError("invalid terminal flags")
        # one int object per distinct label, shared by every node carrying
        # it, so the list costs a pointer per node rather than an int each
        labels, index = np.unique(token, return_inverse=True)
        return cls(
            labels.astype(object)[index].tolist(),
            first.tolist(),
            terminal.astype(bool).tolist(),
            vocab_size,
            token.astype(np.intp, copy=False),
        )


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

    ``vocab_size`` defaults to one past the largest token id seen.  Runs in
    O(total tokens) after sorting: a FIFO of runs of sorted sequences that
    share a node's prefix numbers the nodes in level order.
    """
    seqs = [tuple(s) for s in sequences]
    if not seqs:
        raise TrieError("cannot build a trie from zero sequences")
    if vocab_size is None:
        vocab_size = max(max(s, default=0) for s in seqs) + 1
    seqs = sorted({_checked_sequence(s, vocab_size) for s in seqs})
    token, first, terminal = [0], [], []
    runs = deque([(0, len(seqs), 0)])  # node v: seqs[lo:hi] share its depth-token prefix
    while runs:
        lo, hi, depth = runs.popleft()
        first.append(len(token))
        ends_here = len(seqs[lo]) == depth  # sorted, so only the first can
        terminal.append(ends_here)
        lo += ends_here
        while lo < hi:
            label = seqs[lo][depth]
            end = lo + 1
            while end < hi and seqs[end][depth] == label:
                end += 1
            token.append(label)
            runs.append((lo, end, depth + 1))
            lo = end
    first.append(len(token))
    return EntityTrie(token, first, terminal, vocab_size)
