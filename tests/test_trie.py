"""Prefix trie: membership, continuations, statistics, serialization."""

import copy
import pickle
import tracemalloc
from array import array
from itertools import chain

import numpy as np
import pytest

from trie_decode.trie import (
    MAGIC,
    EntityTrie,
    TrieError,
    TrieFormatError,
    _build_flat,
    build_trie,
)
from trie_decode.vocab import EOS, SOS, encode

from helpers import (
    SHARED_PREFIX_NAMES,
    legal_ids,
    pool_vocabulary,
    random_sequences,
    reference_build_trie,
    shared_prefix_vocabulary,
)


@pytest.fixture
def vocab():
    return shared_prefix_vocabulary()


@pytest.fixture
def names_trie(vocab):
    return build_trie([tuple(encode(n, vocab)) for n in SHARED_PREFIX_NAMES], vocab.size)


class TestBuild:
    def test_single_name(self, vocab):
        france = vocab.ordinary_id("France")
        trie = build_trie([encode("France", vocab)], vocab.size)
        assert trie.allowed_continuations([]) == {france}
        assert trie.allowed_continuations([france]) == {EOS}
        assert trie.contains([france])

    def test_shared_prefix_is_one_internal_node(self, vocab, names_trie):
        english = vocab.ordinary_id("English")
        france = vocab.ordinary_id("France")
        assert names_trie.allowed_continuations([]) == {english, france}
        assert names_trie.allowed_continuations([english]) == {
            vocab.ordinary_id("language"),
            vocab.ordinary_id("literature"),
        }
        assert not names_trie.contains([english])
        assert names_trie.leaf_count == 3

    def test_name_that_prefixes_another(self, vocab):
        english = vocab.ordinary_id("English")
        language = vocab.ordinary_id("language")
        trie = build_trie([(english,), (english, language)], vocab.size)
        assert trie.allowed_continuations([english]) == {EOS, language}
        # membership oracle for both
        assert trie.contains((english,)) and trie.contains((english, language))

    def test_empty_sequence_rejected(self, vocab):
        with pytest.raises(TrieError):
            build_trie([()], vocab.size)

    def test_no_sequences_rejected(self, vocab):
        with pytest.raises(TrieError):
            build_trie([], vocab.size)

    def test_structural_specials_rejected(self, vocab):
        with pytest.raises(TrieError):
            build_trie([(EOS,)], vocab.size)
        with pytest.raises(TrieError):
            build_trie([(SOS, 7)], vocab.size)

    @pytest.mark.parametrize("token", [7.5, 7.0, "7", None, np.float64(7)])
    def test_non_integer_id_rejected(self, token):
        # np.fromiter(..., int64) would truncate 7.5 to a valid id 7
        with pytest.raises(TrieError, match="is not an integer"):
            build_trie([(8,), (9, token)], 10)

    @pytest.mark.parametrize("vocab_size", [2**32, 2**33, -1])
    def test_vocab_size_beyond_the_u32_header_rejected(self, vocab_size):
        with pytest.raises(TrieError, match="does not fit the trie file's u32 header"):
            build_trie([(7,)], vocab_size)

    def test_non_integer_vocab_size_rejected(self):
        with pytest.raises(TrieError, match="vocab size 10.0 is not an integer"):
            build_trie([(7,)], 10.0)

    @pytest.mark.parametrize("token", [2**32 - 1, 2**40, 2**70])
    def test_id_beyond_u32_rejected(self, token):
        with pytest.raises(TrieError, match=f"token id {token} out of range for vocab size 10"):
            build_trie([(7,), (token,)], 10)

    def test_largest_u32_vocab_size_serializes(self):
        trie = build_trie([(2**32 - 2, 7)], 2**32 - 1)
        assert EntityTrie.deserialize(trie.serialize()) == trie

    def test_flat_build_traces_at_most_64_bytes_a_name(self):
        # build-trie's u32 arrays for 200k seeded names over a small vocabulary, so the
        # level loop, not the trie, sets the peak: only ``start``, the sort key and the
        # sort order are up to 64-bit per name, the node, length and child arrays 32-bit
        # (all 64-bit read 74).  A vocabulary of 2**31 ids makes every key below the
        # root 64-bit.
        vocab = pool_vocabulary()
        rng = np.random.default_rng(89)
        length = rng.integers(1, 6, size=200_000, dtype=np.uint32)
        ids = rng.integers(vocab.ordinary_base, vocab.size, size=int(length.sum()), dtype=np.uint32)
        ids, length = array("I", ids.tobytes()), array("I", length.tobytes())
        for vocab_size in (vocab.size, 2**31):
            tracemalloc.start()
            try:
                trie = _build_flat(ids, length, vocab_size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert trie.node_count > 50_000
            assert peak <= 64 * len(length)

    def test_integer_like_ids_build_the_plain_int_trie(self):
        seqs = [(7, 8), (9,), (7,)]
        expected = build_trie(seqs, 10)
        assert build_trie([np.array(s) for s in seqs], np.int64(10)) == expected
        assert build_trie([tuple(map(np.int32, s)) for s in seqs], 10) == expected
        assert type(build_trie([np.array(s) for s in seqs], np.int64(10)).vocab_size) is int


class TestReferenceBuild:
    """The level-by-level build, and its flat core, against the FIFO build it replaced."""

    @staticmethod
    def assert_same(seqs, vocab_size):
        trie = build_trie(seqs, vocab_size)
        reference = reference_build_trie(seqs, vocab_size)
        flat = _build_flat(array("q", chain(*seqs)), array("q", map(len, seqs)), vocab_size)
        # build-trie's path: the ids and lengths at the file's u32 width
        flat_u32 = _build_flat(array("I", chain(*seqs)), array("I", map(len, seqs)), vocab_size)
        assert trie == reference == flat == flat_u32
        assert trie.serialize() == reference.serialize() == flat.serialize() == flat_u32.serialize()

    def test_random_catalogs(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(53)
        for _ in range(60):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 60)), max_len=int(rng.integers(2, 9)))
            # duplicates, and a prefix of some names as a name of its own
            seqs += [seqs[i] for i in rng.integers(0, len(seqs), size=int(rng.integers(0, 5)))]
            seqs += [s[: int(rng.integers(1, len(s) + 1))] for s in seqs[: int(rng.integers(0, 6))]]
            rng.shuffle(seqs)
            self.assert_same(seqs, vocab.size)

    @pytest.mark.parametrize("vocab_size", [300, 70_000, 2**32 - 1])
    def test_every_sort_key_width(self, vocab_size):
        # each level sorts one key, ``parent * vocab_size + label``, in the narrowest
        # type that holds it: 300 ids make 16-bit keys at the root and 32-bit ones once
        # the levels built hold 219 nodes, 70,000 ids 32-bit keys throughout, and
        # 2**32 - 1 ids 64-bit keys below the root.  A small label pool that holds the largest id
        # gives every parent equal labels to tell apart.
        rng = np.random.default_rng(vocab_size % 997)
        pool = [2, 3, 7, vocab_size // 2, vocab_size - 2, vocab_size - 1]
        for _ in range(12):
            seqs = [
                tuple(int(t) for t in rng.choice(pool, size=int(rng.integers(1, 7))))
                for _ in range(int(rng.integers(1, 400)))
            ]
            self.assert_same(seqs, vocab_size)

    def test_one_name_catalogs(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(59)
        for length in (1, 2, 7):
            (seq,) = random_sequences(rng, vocab, size=1, max_len=length)
            self.assert_same([seq], vocab.size)
            self.assert_same([seq, seq], vocab.size)

    def test_one_long_name(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(61)
        ordinary = np.arange(vocab.ordinary_base, vocab.size)
        long_name = tuple(int(t) for t in rng.choice(ordinary, size=500))
        self.assert_same([long_name], vocab.size)
        self.assert_same([long_name, long_name[:250], long_name[:1]], vocab.size)
        others = random_sequences(rng, vocab, size=20)
        self.assert_same(others + [long_name] + others[:3], vocab.size)
        assert build_trie([long_name], vocab.size).max_depth == 500

    def test_shuffled_input(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(67)
        seqs = random_sequences(rng, vocab, size=200)
        blob = reference_build_trie(seqs, vocab.size).serialize()
        for _ in range(5):
            rng.shuffle(seqs)
            assert build_trie(seqs, vocab.size).serialize() == blob

    def test_malformed_inputs_raise_the_reference_message(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(71)
        bad = [(), (SOS,), (EOS,), (9, EOS), (SOS, 7), (vocab.size,), (7, vocab.size + 5), (-3,), (8, -1)]
        for _ in range(60):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(0, 12)))
            # one or two bad sequences anywhere: the first in input order raises
            for seq in rng.choice(len(bad), size=int(rng.integers(1, 3))):
                seqs.insert(int(rng.integers(0, len(seqs) + 1)), bad[seq])
            with pytest.raises(TrieError) as expected:
                reference_build_trie(seqs, vocab.size)
            with pytest.raises(TrieError) as got:
                build_trie(seqs, vocab.size)
            assert str(got.value) == str(expected.value)
        for build in (build_trie, reference_build_trie):
            with pytest.raises(TrieError, match="^cannot build a trie from zero sequences$"):
                build([], vocab.size)


class TestAllowedContinuations:
    def test_empty_prefix_is_root_children(self, vocab, names_trie):
        assert names_trie.allowed_continuations([]) == {
            vocab.ordinary_id("English"),
            vocab.ordinary_id("France"),
        }

    def test_internal_node(self, vocab, names_trie):
        assert names_trie.allowed_continuations([vocab.ordinary_id("English")]) == {
            vocab.ordinary_id("language"),
            vocab.ordinary_id("literature"),
        }

    def test_terminal_node_yields_eos(self, vocab, names_trie):
        assert names_trie.allowed_continuations([vocab.ordinary_id("France")]) == {EOS}

    def test_unreachable_prefix_yields_empty_set(self, vocab, names_trie):
        assert names_trie.allowed_continuations([vocab.ordinary_id("language")]) == frozenset()

    def test_allowed_views_are_read_only(self, vocab):
        # English is terminal with children, France a terminal leaf
        names = ["English", "English language", "France"]
        trie = build_trie([tuple(encode(n, vocab)) for n in names], vocab.size)
        blob = trie.serialize()
        english = trie.advance(trie.start(), vocab.ordinary_id("English"))
        france = trie.advance(trie.start(), vocab.ordinary_id("France"))
        for node in (trie.start(), english, france):
            allowed = trie.allowed(node)
            assert allowed.tolist() == sorted(allowed.tolist())
            with pytest.raises(ValueError):
                allowed[...] = vocab.ordinary_id("literature")
        assert trie.allowed(english).tolist() == [vocab.ordinary_id("language")] and trie.final(english)
        assert trie.allowed(france).tolist() == [] and trie.final(france)
        assert not trie.final(trie.start())
        assert trie.serialize() == blob
        assert EntityTrie.deserialize(blob).allowed(0).tolist() == trie.allowed(0).tolist()

    def test_built_and_loaded_tries_view_one_label_buffer_from_the_first_call(self, vocab):
        # the labels are one read-only np.intp array from construction on;
        # every ``allowed`` result is a view of it, never a copy
        trie = build_trie([tuple(encode(n, vocab)) for n in SHARED_PREFIX_NAMES], vocab.size)
        loaded = EntityTrie.deserialize(trie.serialize())
        assert trie.min_label == min(t for seq in trie.sequences() for t in seq)
        for t in (trie, loaded):
            labels = t._tokens
            assert labels.dtype == np.intp and not labels.flags.writeable
            views = [t.allowed(node) for node in range(t.node_count)]
            assert all(view.base is labels and not view.flags.writeable for view in views)
        assert loaded.allowed(loaded.start()).tolist() == trie.allowed(trie.start()).tolist()

    def test_loaded_trie_traces_at_most_twice_its_file(self):
        vocab = pool_vocabulary()
        blob = build_trie(random_sequences(np.random.default_rng(43), vocab, 6000), vocab.size).serialize()
        tracemalloc.start()
        try:
            trie = EntityTrie.deserialize(blob)
            traced, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trie.node_count >= 10_000
        # the caller's bytes are held, not copied: beyond them only the np.intp labels stay
        assert traced <= 1.2 * len(blob)
        # validating adds one index range and a few boolean masks, not a parent array or label copies
        assert peak <= 2.75 * len(blob)


class TestContains:
    def test_inserted_sequences(self, vocab, names_trie):
        assert names_trie.contains(encode("English language", vocab))

    def test_proper_prefix_not_contained(self, vocab, names_trie):
        assert not names_trie.contains([vocab.ordinary_id("English")])

    def test_empty_not_contained(self, names_trie):
        assert not names_trie.contains([])


class TestAdvance:
    def test_a_token_with_no_child_is_a_key_error(self, vocab, names_trie):
        english = names_trie.advance(names_trie.start(), vocab.ordinary_id("English"))
        assert names_trie.allowed(english).tolist() == [vocab.ordinary_id("language"), vocab.ordinary_id("literature")]
        with pytest.raises(KeyError):
            names_trie.advance(english, vocab.ordinary_id("France"))

    def test_equality_against_another_type_and_repr(self, vocab, names_trie):
        assert names_trie.__eq__(names_trie.serialize()) is NotImplemented
        assert names_trie != names_trie.serialize()
        assert repr(names_trie) == "EntityTrie(leaves=3, internal=2)"


class TestInsert:
    def test_insert_new_leaf(self, vocab, names_trie):
        grown = names_trie.insert([vocab.ordinary_id("literature")])
        assert grown.leaf_count == 4
        assert grown.contains([vocab.ordinary_id("literature")])
        assert names_trie.leaf_count == 3  # original untouched

    def test_reinsert_is_idempotent(self, vocab, names_trie):
        again = names_trie.insert(encode("France", vocab))
        assert again.stats() == names_trie.stats()
        assert again == names_trie

    def test_insert_prefix_of_existing_flags_terminal(self, vocab, names_trie):
        grown = names_trie.insert([vocab.ordinary_id("English")])
        assert grown.allowed_continuations([vocab.ordinary_id("English")]) == {
            EOS,
            vocab.ordinary_id("language"),
            vocab.ordinary_id("literature"),
        }
        assert grown.contains([vocab.ordinary_id("English")])
        assert grown.leaf_count == 4

    def test_prior_memberships_preserved(self, vocab, names_trie):
        grown = names_trie.insert([vocab.ordinary_id("literature"), vocab.ordinary_id("France")])
        for name in SHARED_PREFIX_NAMES:
            assert grown.contains(encode(name, vocab))


class TestStats:
    def test_single_entity(self, vocab):
        trie = build_trie([encode("France", vocab)], vocab.size)
        assert trie.stats() == (1, 1)  # root internal, France a leaf

    def test_shared_prefix_trie(self, names_trie):
        # root and the shared prefix node are internal; the three name ends are leaves
        assert names_trie.stats() == (3, 2)

    def test_terminal_with_children_counts_both_ways(self, vocab):
        english = vocab.ordinary_id("English")
        language = vocab.ordinary_id("language")
        trie = build_trie([(english,), (english, language)], vocab.size)
        assert trie.stats() == (2, 2)

    def test_structural_bounds_on_random_catalogs(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(11)
        for _ in range(50):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 40)))
            trie = build_trie(seqs, vocab.size)
            assert trie.leaf_count == len(set(seqs))
            assert trie.internal_node_count <= sum(len(s) for s in seqs)


class TestProperties:
    def test_every_prefix_allows_the_next_token(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(23)
        for _ in range(30):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 30)))
            trie = build_trie(seqs, vocab.size)
            for seq in seqs:
                state = trie.start()
                for i in range(len(seq)):
                    assert legal_ids(trie, state) == trie.allowed_continuations(seq[:i])
                    assert seq[i] in trie.allowed(state)
                    state = trie.advance(state, seq[i])
                assert legal_ids(trie, state) == trie.allowed_continuations(seq)
                assert trie.final(state)

    def test_every_node_hands_out_a_read_only_view_without_eos(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(31)
        for _ in range(20):
            trie = build_trie(random_sequences(rng, vocab, size=int(rng.integers(1, 40))), vocab.size)
            for node in range(trie.node_count):
                allowed = trie.allowed(node)
                assert allowed.base is trie._tokens and not allowed.flags.writeable
                assert EOS not in allowed and SOS not in allowed
                if len(allowed) == 0:
                    assert trie.final(node)  # every leaf ends a name

    def test_contains_iff_eos_allowed(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(29)
        seqs = random_sequences(rng, vocab, size=40)
        trie = build_trie(seqs, vocab.size)
        probes = seqs + [seq[:-1] for seq in seqs if len(seq) > 1]
        probes += [tuple(int(t) for t in rng.integers(7, vocab.size, size=3)) for _ in range(50)]
        for probe in probes:
            assert trie.contains(probe) == (EOS in trie.allowed_continuations(probe))


class TestSerialization:
    def test_round_trip_structure_and_stats(self, names_trie):
        blob = names_trie.serialize()
        back = EntityTrie.deserialize(blob)
        assert back == names_trie
        assert back.stats() == names_trie.stats()
        assert list(back.sequences()) == list(names_trie.sequences())

    def test_name_deeper_than_the_recursion_limit(self, vocab):
        deep = tuple(encode(" ".join(["English", "language"] * 600), vocab))
        france = tuple(encode("France", vocab))
        trie = build_trie([deep, france], vocab.size)
        blob = trie.serialize()
        back = EntityTrie.deserialize(blob)
        assert back == trie
        assert back.serialize() == blob
        assert list(back.sequences()) == [deep, france]

    def test_round_trip_is_canonical(self, names_trie):
        blob = names_trie.serialize()
        assert EntityTrie.deserialize(blob).serialize() == blob

    def test_loaded_trie_holds_the_callers_bytes(self, names_trie):
        blob = names_trie.serialize()
        assert EntityTrie.deserialize(blob).serialize() is blob
        assert EntityTrie(blob) == names_trie

    def test_writes_to_a_loaded_bytearray_leave_the_trie_unchanged(self, vocab, names_trie):
        blob = bytearray(names_trie.serialize())
        trie = EntityTrie.deserialize(blob)
        blob[:] = bytes(len(blob))  # in place: a shared buffer would lose its child offsets and flags
        blob += b"\x00"  # and a resize would raise while a view of it were held
        assert trie == names_trie
        assert trie.serialize() == names_trie.serialize()
        assert list(trie.sequences()) == list(names_trie.sequences())
        english = vocab.ordinary_id("English")
        assert trie.allowed(trie.advance(trie.start(), english)).tolist() == [
            vocab.ordinary_id("language"), vocab.ordinary_id("literature"),
        ]

    def test_built_and_loaded_tries_survive_pickle_and_deepcopy(self):
        vocab = pool_vocabulary()
        built = build_trie(random_sequences(np.random.default_rng(47), vocab, 60), vocab.size)
        for trie in (built, EntityTrie.deserialize(built.serialize())):
            for back in (pickle.loads(pickle.dumps(trie)), copy.deepcopy(trie)):
                assert back == trie and back is not trie
                assert back.serialize() == trie.serialize()
                for node in range(trie.node_count):
                    assert back.allowed(node).tolist() == trie.allowed(node).tolist()
                    assert back.final(node) == trie.final(node)

    def test_insertion_order_independence(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(31)
        for _ in range(30):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 25)))
            reference = build_trie(seqs, vocab.size).serialize()
            for _ in range(3):
                shuffled = list(seqs)
                rng.shuffle(shuffled)
                assert build_trie(shuffled, vocab.size).serialize() == reference

    def test_bad_magic_rejected(self, names_trie):
        blob = bytearray(names_trie.serialize())
        blob[0] ^= 0xFF
        with pytest.raises(TrieFormatError, match="magic"):
            EntityTrie.deserialize(bytes(blob))

    def test_truncated_stream_rejected(self, names_trie):
        blob = names_trie.serialize()
        for cut in (len(MAGIC) - 1, len(MAGIC) + 3, len(blob) - 1):
            with pytest.raises(TrieFormatError):
                EntityTrie.deserialize(blob[:cut])

    def test_dangling_child_offset_rejected(self, names_trie):
        blob = bytearray(names_trie.serialize())
        # the root's end of children, first_child[1], points past the last node
        n = names_trie.node_count
        pos = len(MAGIC) + 8 + 4 * n + 4
        blob[pos : pos + 4] = (n + 7).to_bytes(4, "little")
        with pytest.raises(TrieFormatError, match="first_child"):
            EntityTrie.deserialize(bytes(blob))

    def test_non_canonical_arrays_rejected(self, vocab, names_trie):
        # names_trie in level order: root, English, France, language, literature
        n = names_trie.node_count
        tokens, flags = len(MAGIC) + 8, len(MAGIC) + 8 + 8 * n + 4
        language = vocab.ordinary_id("language").to_bytes(4, "little")
        corruptions = {
            "sorted": (tokens + 4, vocab.ordinary_id("France").to_bytes(4, "little")),
            "out of range": (tokens + 4, vocab.size.to_bytes(4, "little")),
            "structural": (tokens + 8, EOS.to_bytes(4, "little")),
            "terminal": (flags + 3, b"\x00"),  # childless "language" node not terminal
            "flags": (flags, b"\x01"),  # terminal root
            "invalid terminal": (flags + 3, b"\x02"),  # a leaf's flag neither 0 nor 1
        }
        assert names_trie.serialize()[tokens + 12 : tokens + 16] == language
        for match, (pos, value) in corruptions.items():
            blob = bytearray(names_trie.serialize())
            blob[pos : pos + len(value)] = value
            with pytest.raises(TrieFormatError, match=match):
                EntityTrie.deserialize(bytes(blob))

    def test_version_1_file_asks_for_a_rebuild(self):
        with pytest.raises(TrieFormatError, match="rebuild it with `trie-decode build-trie`"):
            EntityTrie.deserialize(b"ETRIE\x00\x01\x00" + bytes(16))

    def test_trailing_data_rejected(self, names_trie):
        with pytest.raises(TrieFormatError, match="trailing"):
            EntityTrie.deserialize(names_trie.serialize() + b"\x00")

    def test_golden_bytes_single_name(self, vocab):
        # wire format pinned by hand: magic, u32 vocab size, u32 node count,
        # then token (n x u32), first_child (n + 1 x u32), terminal (n x u8)
        import struct

        trie = build_trie([encode("France", vocab)], vocab.size)
        france = vocab.ordinary_id("France")
        expected = (
            b"ETRIE\x00\x02\x00"
            + struct.pack("<II", vocab.size, 2)
            + struct.pack("<II", 0, france)
            + struct.pack("<III", 1, 2, 2)
            + bytes([0, 1])
        )
        assert trie.serialize() == expected


class TestMaxDepth:
    def test_longest_name_sets_the_depth(self, vocab, names_trie):
        assert names_trie.max_depth == 2
        assert build_trie([encode("France", vocab)], vocab.size).max_depth == 1
        deep = tuple(encode(" ".join(["English"] * 20), vocab))
        assert names_trie.insert(deep).max_depth == 20

    def test_matches_the_longest_sequence_on_random_catalogs(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(37)
        for _ in range(30):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 30)), max_len=9)
            assert build_trie(seqs, vocab.size).max_depth == max(len(s) for s in seqs)


class TestByteMutationFuzz:
    def test_format_error_is_the_only_failure_and_accepted_blobs_are_canonical(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(41)
        mutated = accepted = 0
        for _ in range(12):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 8)), max_len=4)
            blob = build_trie(seqs, vocab.size).serialize()
            blobs = [blob[:cut] for cut in range(len(blob))]
            blobs += [blob + bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))]
            for _ in range(150):
                flipped = bytearray(blob)
                for pos in rng.integers(0, len(blob), size=int(rng.integers(1, 4))):
                    flipped[pos] ^= int(rng.integers(1, 256))
                blobs.append(bytes(flipped))
            for candidate in blobs:
                mutated += 1
                try:
                    trie = EntityTrie.deserialize(candidate)
                except TrieFormatError:
                    continue
                accepted += 1
                assert trie.serialize() == candidate
                assert build_trie(list(trie.sequences()), trie.vocab_size) == trie
        assert mutated >= 2000
        assert accepted < mutated // 10


class TestRandomSequences:
    def test_more_sequences_than_the_pool_allows_raise(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(53)
        assert len(set(random_sequences(rng, vocab, 12, max_len=1))) == 12
        with pytest.raises(ValueError, match="asked for 13 distinct sequences; 12 ids make 12"):
            random_sequences(rng, vocab, 13, max_len=1)
