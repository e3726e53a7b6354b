"""Secure-deletion key tree (Appendix C): reads, deletion, tampering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.gcm import AuthenticationError
from repro.storage.blockstore import (
    CrashError,
    CrashingBlockStore,
    InMemoryBlockStore,
    TamperingBlockStore,
)
from repro.storage.securedel import (
    DeletedBlockError,
    NaiveSecureStore,
    SecureDeletionTree,
)


def make_tree(count=10, store=None):
    store = store if store is not None else InMemoryBlockStore()
    blocks = [bytes([i]) * 32 for i in range(count)]
    return SecureDeletionTree.setup(store, blocks), blocks, store


class TestReads:
    def test_all_blocks_readable(self):
        tree, blocks, _ = make_tree(10)
        for i, block in enumerate(blocks):
            assert tree.read(i) == block

    def test_non_power_of_two_count(self):
        tree, blocks, _ = make_tree(7)
        for i, block in enumerate(blocks):
            assert tree.read(i) == block

    def test_single_block(self):
        tree, blocks, _ = make_tree(1)
        assert tree.read(0) == blocks[0]

    def test_out_of_range(self):
        tree, _, _ = make_tree(4)
        with pytest.raises(IndexError):
            tree.read(99)

    def test_root_key_is_only_secret(self):
        tree, _, _ = make_tree(4)
        assert len(tree.root_key) == 16


class TestDeletion:
    def test_deleted_block_unreadable(self):
        tree, _, _ = make_tree(8)
        tree.delete(3)
        with pytest.raises(DeletedBlockError):
            tree.read(3)

    def test_neighbours_survive(self):
        tree, blocks, _ = make_tree(8)
        tree.delete(3)
        assert tree.read(2) == blocks[2]
        assert tree.read(4) == blocks[4]

    def test_double_delete_raises(self):
        tree, _, _ = make_tree(8)
        tree.delete(3)
        with pytest.raises(DeletedBlockError):
            tree.delete(3)

    def test_root_key_rotates_on_delete(self):
        tree, _, _ = make_tree(8)
        before = tree.root_key
        tree.delete(0)
        assert tree.root_key != before

    def test_delete_interrupted_by_a_store_crash_completes_on_next_access(self):
        # The provider hosting the key array dies after the first node of
        # the re-keyed path is written; the device survives, and once the
        # store is back every read sees one consistent tree.
        store = CrashingBlockStore()
        tree, blocks, _ = make_tree(8, store)
        store.crash_after(1)
        with pytest.raises(CrashError):
            tree.delete(3)
        store.crash_after(1 << 20)
        for i in (0, 2, 4, 7):
            assert tree.read(i) == blocks[i]
        with pytest.raises(DeletedBlockError):
            tree.read(3)

    def test_delete_all(self):
        tree, blocks, _ = make_tree(4)
        for i in range(4):
            tree.delete(i)
        for i in range(4):
            with pytest.raises(DeletedBlockError):
                tree.read(i)


class TestSecureDeletionProperty:
    def test_full_rollback_cannot_resurrect(self):
        """The defining property: a provider that snapshots *every* block
        version ever written, then rolls all of them back after a deletion,
        still cannot make the (new) root key decrypt the deleted block."""
        store = TamperingBlockStore()
        blocks = [bytes([i]) * 32 for i in range(8)]
        tree = SecureDeletionTree.setup(store, blocks)
        tree.delete(5)
        for addr in list(store.history):
            store._blocks[addr] = store.history[addr][0]
        with pytest.raises((AuthenticationError, DeletedBlockError)):
            tree.read(5)

    def test_partial_replay_cannot_resurrect(self):
        store = TamperingBlockStore()
        blocks = [bytes([i]) * 32 for i in range(8)]
        tree = SecureDeletionTree.setup(store, blocks)
        tree.delete(2)
        # Replay only the path nodes the deletion rewrote.
        for addr in tree._path_addrs(2)[:-1]:
            if len(store.history[addr]) > 1:
                store.replay(addr, 0)
        with pytest.raises((AuthenticationError, DeletedBlockError)):
            tree.read(2)


class TestIntegrity:
    def test_corrupted_leaf_detected(self):
        store = TamperingBlockStore()
        tree, _, _ = make_tree(8, store)
        store.corrupt((1 << tree.height) + 3)
        with pytest.raises(AuthenticationError):
            tree.read(3)

    def test_corrupted_internal_node_detected(self):
        store = TamperingBlockStore()
        tree, _, _ = make_tree(8, store)
        store.corrupt(1)  # the root node
        with pytest.raises(AuthenticationError):
            tree.read(0)

    def test_swapped_blocks_detected(self):
        """Address binding: serving leaf j's ciphertext for leaf i fails."""
        store = TamperingBlockStore()
        tree, _, _ = make_tree(8, store)
        base = 1 << tree.height
        store.swap(base + 0, base + 1)
        with pytest.raises(AuthenticationError):
            tree.read(0)


class TestNaiveStore:
    def test_roundtrip_and_delete(self):
        store = InMemoryBlockStore()
        blocks = [bytes([i]) * 16 for i in range(1, 6)]
        naive = NaiveSecureStore.setup(store, blocks)
        assert naive.read(2) == blocks[2]
        naive.delete(2)
        with pytest.raises(DeletedBlockError):
            naive.read(2)
        assert naive.read(3) == blocks[3]

    def test_key_rotates_on_delete(self):
        store = InMemoryBlockStore()
        naive = NaiveSecureStore.setup(store, [b"A" * 16, b"B" * 16])
        before = naive._key
        naive.delete(0)
        assert naive._key != before

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ValueError):
            NaiveSecureStore.setup(InMemoryBlockStore(), [b"a", b"bb"])

    def test_out_of_range(self):
        naive = NaiveSecureStore.setup(InMemoryBlockStore(), [b"A" * 16])
        with pytest.raises(IndexError):
            naive.read(5)


@given(
    count=st.integers(1, 20),
    deletions=st.lists(st.integers(0, 19), max_size=8, unique=True),
)
@settings(max_examples=20, deadline=None)
def test_delete_read_consistency_property(count, deletions):
    """After any sequence of deletions, exactly the deleted indices fail."""
    tree, blocks, _ = make_tree(count)
    deleted = set()
    for index in deletions:
        if index >= count:
            continue
        tree.delete(index)
        deleted.add(index)
    for i in range(count):
        if i in deleted:
            with pytest.raises(DeletedBlockError):
                tree.read(i)
        else:
            assert tree.read(i) == blocks[i]
