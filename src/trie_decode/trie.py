"""Prefix tree over token sequences: the decoding constraint object.

The nodes are numbered in level order (breadth first, siblings in ascending
token id) and described by three flat arrays, which are the file layout:
``token[v]`` is the edge label into node ``v`` (0 for the root, node 0),
``terminal[v]`` marks the nodes that end a name, and the children of ``v``
are the nodes ``first_child[v] .. first_child[v + 1] - 1``.  Terminality is
a node flag rather than an explicit end-of-sequence edge, which keeps a name
that is a prefix of another name (the node is terminal *and* has children)
unambiguous; ``allowed_continuations`` reports it as ``EOS``.  As a
beam-search constraint the state is a node index: ``start()`` is the root,
``final(node)`` its terminal flag, ``allowed(node)`` its child slice and
``advance(node, token)`` a bisection within that slice.

A trie holds its file bytes plus an ``np.intp`` label index.  ``allowed``
hands out read-only views of the index at every node, so a step costs no
copy of the node's fanout, and the bisection reads Python ints through a
``memoryview`` of it.  ``first_child`` is read in place from the bytes, and
``terminal`` is their last ``n`` bytes.  :func:`build_trie` and
:meth:`EntityTrie.deserialize` both end in the one constructor, which
checks the bytes.

Node-count convention: the root and every node with children count as
internal; a terminal node without children is a leaf; a terminal node with
children counts as internal and still contributes one to ``leaf_count``.
``leaf_count`` therefore always equals the number of distinct inserted
sequences.

Tries are immutable after construction.  ``insert`` returns a new trie,
rebuilt from all its sequences, so concurrent readers of any version are
safe.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .vocab import EOS, SOS, InputError, TokenId

MAGIC = b"ETRIE\x00\x02\x00"
_MAGIC_V1 = b"ETRIE\x00\x01\x00"

_HEADER = struct.Struct("<II")  # vocab size, node count
_U32_MAX = 0xFFFF_FFFF


class TrieError(InputError):
    """Raised for invalid sequences handed to trie builders."""


class TrieFormatError(InputError):
    """Raised for bytes that are not a trie file, whether read or built."""


class TrieStats(NamedTuple):
    leaf_count: int
    internal_node_count: int


class EntityTrie:
    """Immutable prefix tree over token sequences, held as its checked file bytes.

    ``EntityTrie(data)`` checks ``data`` against the file layout (see
    :meth:`serialize`) and keeps ``bytes(data)``: a ``bytearray`` is copied,
    so later writes to it cannot reach the trie.  ``vocab_size``, from the
    header, bounds the token ids.

    Raises:
        TrieFormatError: an :class:`InputError`, on a version 1 file, bad
            magic, truncation, trailing bytes, or arrays that are not a
            level-order trie with ascending siblings, in-range tokens and 0/1
            flags whose every childless node is terminal.
    """

    __slots__ = (
        "_data", "_tokens", "_token", "_first", "_terminal", "vocab_size",
        "leaf_count", "internal_node_count", "node_count", "max_depth", "min_label",
    )

    def __init__(self, data: bytes) -> None:
        data = bytes(data)
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
        token = np.frombuffer(data, "<u4", n, start).astype(np.intp)
        first = np.frombuffer(data, "<u4", n + 1, start + 4 * n)
        terminal = np.frombuffer(data, np.uint8, n, start + 8 * n + 4)
        if n < 2 or first[0] != 1 or first[n] != n:
            raise TrieFormatError("first_child must run from 1 to the node count")
        if np.any(first[:n] > first[1:]) or np.any(first[:n] <= np.arange(n)):
            raise TrieFormatError("first_child decreases or points at or before its node")
        labels = token[1:]
        if token[0] != 0 or labels.max() >= vocab_size or np.any((labels == SOS) | (labels == EOS)):
            raise TrieFormatError("token id out of range, structural, or on the root")
        # the nodes that start a run of children; any other node follows its sibling
        opens = np.zeros(n + 1, bool)
        opens[first] = True
        if np.any((labels[1:] <= labels[:-1]) & ~opens[2:n]):
            raise TrieFormatError("children not sorted by token id")
        childless = first[:n] == first[1:]  # once flags are 0 or 1, "<" finds a leaf flagged 0
        if terminal.max() > 1 or terminal[0] or np.any(terminal < childless):
            raise TrieFormatError("invalid terminal flags")
        self._data = data
        # the labels as the array ``allowed`` slices, and as a memoryview of
        # it for the bisect, whose items are Python ints
        token.flags.writeable = False
        self._tokens, self._token = token, memoryview(token)
        self._terminal = data[start + 8 * n + 4 :]  # bytes: they index faster than a memoryview
        self.vocab_size, self.node_count = vocab_size, n
        self.leaf_count = int(np.count_nonzero(terminal))
        # every valid trie's root has children, so it is counted here too
        self.internal_node_count = n - int(np.count_nonzero(childless))
        # each level's children are one contiguous range: walk the levels down
        self._first = first = memoryview(first)
        lo, hi, depth = 0, 1, 0
        while first[lo] < first[hi]:
            lo, hi, depth = first[lo], first[hi], depth + 1
        self.max_depth = depth
        # the smallest edge label; a valid trie's root always has a child
        self.min_label = int(labels.min())

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
        return self._terminal[node] == 1

    def allowed(self, node: int) -> np.ndarray:
        """Child tokens of ``node``: an ascending, read-only view of the trie's labels."""
        return self._tokens[self._first[node] : self._first[node + 1]]

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
        if node < 0:
            return frozenset()
        children = self._token[self._first[node] : self._first[node + 1]]
        return frozenset([*children, EOS] if self.final(node) else children)

    def contains(self, sequence: Sequence[TokenId]) -> bool:
        node = self._walk(sequence)
        return node >= 0 and self._terminal[node] == 1

    def insert(self, sequence: Sequence[TokenId]) -> "EntityTrie":
        """Return a new trie that also accepts ``sequence``.

        This is a full rebuild (see :func:`build_trie`); the old trie is
        left untouched.
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
        return self._data == other._data

    def __reduce__(self) -> tuple:
        return EntityTrie, (self._data,)

    def __repr__(self) -> str:
        return f"EntityTrie(leaves={self.leaf_count}, internal={self.internal_node_count})"

    def serialize(self) -> bytes:
        """Canonical binary form: the bytes the trie holds.

        Layout: 8-byte magic, little-endian u32 vocab size and u32 node
        count ``n``, then the arrays as little-endian dumps: ``token`` (n x
        u32), ``first_child`` (n + 1 x u32) and ``terminal`` (n x u8).
        Identical membership sets always produce identical bytes.
        """
        return self._data

    @classmethod
    def deserialize(cls, data: bytes) -> "EntityTrie":
        """``cls(data)``; every blob it accepts is the canonical form of its name set."""
        return cls(data)


def _token_index(token: object) -> int:
    try:
        return operator.index(token)
    except TypeError:
        raise TrieError(f"token id {token!r} is not an integer") from None


def _checked_sequence(sequence: Sequence[TokenId], vocab_size: int) -> None:
    """Raise the builder's :class:`TrieError` for the first bad token of ``sequence``."""
    seq = tuple(sequence)
    if not seq:
        raise TrieError("empty sequence")
    for token in map(_token_index, seq):
        if token in (SOS, EOS):
            raise TrieError("sequences must not contain SOS/EOS (terminality is implicit)")
        if not 0 <= token < vocab_size:
            raise TrieError(f"token id {token} out of range for vocab size {vocab_size}")


def _checked_ids(seqs: list[Sequence[TokenId]], length: np.ndarray, vocab_size: int) -> np.ndarray:
    """Every id of ``seqs``, in order, once all of them pass :func:`_checked_sequence`.

    The ids are converted once and checked by array reductions; on any
    failure every sequence goes through ``_checked_sequence`` in input
    order, so the first bad one raises as it would alone.
    """
    try:
        ids = np.fromiter(map(operator.index, chain.from_iterable(seqs)), np.int64, int(length.sum()))
    except (TypeError, OverflowError):  # not an integer, or far out of range
        ids = None
    if ids is None or not length.all() or np.any((ids < 0) | (ids >= vocab_size) | (ids == SOS) | (ids == EOS)):
        for seq in seqs:
            _checked_sequence(seq, vocab_size)
    return ids


def build_trie(sequences: Iterable[Sequence[TokenId]], vocab_size: int) -> EntityTrie:
    """Build a trie accepting exactly the given non-empty sequences.

    The checked ids go to :func:`_build_flat`, which builds level by level
    over one flat id array: at depth ``d`` the ``(parent node, token)``
    pairs of the sequences longer than ``d`` are sorted, and each run of
    equal pairs becomes one node of level ``d + 1``.  The sort puts them in
    level order with ascending siblings and merges duplicate names.  That
    is one stable argsort per depth of at most ``len(sequences)`` narrow
    integer keys, one per pair, and as many loop iterations as the longest
    sequence has tokens; everything else is array arithmetic.  The packed
    arrays pass a file's checks, so a build bug raises
    :class:`TrieFormatError`.

    Raises:
        TrieError: an :class:`InputError`, on no sequences, an empty
            sequence, SOS or EOS, an id that is not an integer or not below
            ``vocab_size``, or a vocab size beyond the file format's u32.
    """
    seqs = list(sequences)
    if not seqs:
        raise TrieError("cannot build a trie from zero sequences")
    try:
        vocab_size = operator.index(vocab_size)
    except TypeError:
        raise TrieError(f"vocab size {vocab_size!r} is not an integer") from None
    if not 0 <= vocab_size <= _U32_MAX:
        raise TrieError(f"vocab size {vocab_size} does not fit the trie file's u32 header")
    length = np.fromiter(map(len, seqs), np.int64, len(seqs))
    ids = _checked_ids(seqs, length, vocab_size)
    del seqs
    return _build_flat(ids, length, vocab_size)


def _build_flat(ids: Sequence[TokenId], length: Sequence[int], vocab_size: int) -> EntityTrie:
    """The trie of the sequences laid end to end in ``ids``, ``length[i]`` ids for sequence ``i``.

    ``ids`` is an integer array or buffer, read in place: ``build-trie``
    passes an ``array('I')``, :func:`build_trie` int64.  Each depth sorts
    once: one stable argsort of one key per pair, ``parent * vocab_size +
    label``, in the narrowest unsigned type that holds ``hi * vocab_size``,
    where the level ends before node ``hi``.  Both factors are u32, so a
    key always fits 64 bits.  NumPy sorts keys of 16 bits or less (the
    root of any vocabulary under 65,536 ids) by radix; below the root the
    parents arrive sorted, so wider keys come in runs.  A new node's parent
    and label are read back from its key.  Each level's labels and
    ``first_child`` are stored as the file's ``<u4`` as they are made.  The
    caller has checked what :func:`build_trie` checks: every length is at
    least 1, no id is SOS, EOS or outside ``0 .. vocab_size - 1``, and
    ``vocab_size`` fits the u32 header.
    """
    ids, length = np.asarray(ids), np.asarray(length, np.uint32)
    # per sequence still longer than ``depth``: its length, where it starts in
    # ``ids`` (64-bit; the file's u32 bounds the rest), and the node its prefix leads to
    start = np.cumsum(length, dtype=np.int64) - length
    node = np.zeros(len(length), np.uint32)
    token, first, terminal = [np.zeros(1, "<u4")], [], [np.zeros(1, bool)]
    lo, hi, depth = 0, 1, 0  # the current level is nodes lo .. hi - 1
    while len(node):
        # the ids are cast to the key's type: with int64 ids a uint64 sum would be float64
        key_type = np.min_scalar_type(hi * vocab_size)
        key = np.multiply(node, vocab_size, dtype=key_type)
        np.add(key, ids[start + depth], out=key, dtype=key_type, casting="unsafe")
        # the trie does not depend on the order within a run of equal keys;
        # "stable" picks radix sort for narrow keys and a merge of runs for wide ones
        order = np.argsort(key, kind="stable")
        key, start, length = key[order], start[order], length[order]
        del order
        new = np.ones(len(key), bool)  # the first pair of each run is a new node
        new[1:] = key[1:] != key[:-1]
        child = hi - 1 + np.cumsum(new, dtype=np.uint32)
        top = int(child[-1]) + 1
        parent, label = np.divmod(key[new], vocab_size)
        fanout = np.bincount((parent - lo).astype(np.intp), minlength=hi - lo)
        first.append((hi + np.cumsum(fanout) - fanout).astype("<u4"))
        token.append(label.astype("<u4"))
        ends = length == depth + 1
        level_terminal = np.zeros(top - hi, bool)
        level_terminal[child[ends] - hi] = True
        terminal.append(level_terminal)
        lo, hi, depth = hi, top, depth + 1
        node, start, length = child[~ends], start[~ends], length[~ends]
    first.append(np.full(hi - lo + 1, hi, "<u4"))  # the deepest level has no children
    token, first = np.concatenate(token), np.concatenate(first)
    blob = b"".join((MAGIC, _HEADER.pack(vocab_size, hi), token, first, np.concatenate(terminal)))
    del ids, token, first, terminal  # freed before the checks run, which allocate their own
    return EntityTrie(blob)
