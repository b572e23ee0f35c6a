"""Merkle-Patricia trie tests: semantics, structural sharing, root properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import keccak
from repro.common.rlp import rlp_encode
from repro.common.types import Address
from repro.state.account import AccountData, encode_account
from repro.state.proofs import (
    ProofError,
    prove,
    prove_secure,
    verify_proof,
    verify_secure,
)
from repro.state.statedb import genesis_snapshot
from repro.state.trie import EMPTY_ROOT, MPT, SecureMPT, _Extension, _Leaf
from repro.workload import build_universe

# --------------------------------------------------------------------------- #
# Reference encoder: nodes rebuilt as nested lists for the generic recursive
# ``rlp_encode``, children re-encoded and re-hashed at every level, nibbles
# packed one at a time.  Slow, but it is the yellow-paper definition
# spelled out, so every root the cached-ref encoder produces must match it.
# --------------------------------------------------------------------------- #


def _oracle_hp(path, is_leaf):
    flag = 2 if is_leaf else 0
    nibbles = tuple(path)
    nibbles = (flag + 1,) + nibbles if len(nibbles) % 2 else (flag, 0) + nibbles
    return bytes((nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2))


def _oracle_struct(node):
    if isinstance(node, _Leaf):
        return [_oracle_hp(node.path, True), node.value]
    if isinstance(node, _Extension):
        return [_oracle_hp(node.path, False), _oracle_ref(node.child)]
    items = [b"" if c is None else _oracle_ref(c) for c in node.children]
    items.append(node.value if node.value is not None else b"")
    return items


def _oracle_ref(node):
    enc = rlp_encode(_oracle_struct(node))
    return keccak(enc) if len(enc) >= 32 else _oracle_struct(node)


def oracle_root(trie: MPT):
    if trie._root is None:
        return EMPTY_ROOT
    return keccak(rlp_encode(_oracle_struct(trie._root)))


def incremental(mapping) -> MPT:
    trie = MPT()
    for key, value in mapping.items():
        trie = trie.set(key, value)
    return trie


class TestBasicSemantics:
    def test_empty_root_constant(self):
        assert MPT().root_hash() == EMPTY_ROOT

    def test_get_missing_returns_none(self):
        assert MPT().get(b"missing") is None

    def test_set_then_get(self):
        t = MPT().set(b"dog", b"puppy")
        assert t.get(b"dog") == b"puppy"

    def test_overwrite(self):
        t = MPT().set(b"k", b"v1").set(b"k", b"v2")
        assert t.get(b"k") == b"v2"

    def test_empty_value_deletes(self):
        t = MPT().set(b"k", b"v").set(b"k", b"")
        assert t.get(b"k") is None
        assert t.root_hash() == EMPTY_ROOT

    def test_delete_missing_is_noop(self):
        t = MPT().set(b"a", b"1")
        t2 = t.delete(b"zz")
        assert t2.root_hash() == t.root_hash()

    def test_prefix_keys_coexist(self):
        t = MPT().set(b"do", b"verb").set(b"dog", b"puppy").set(b"doge", b"coin")
        assert t.get(b"do") == b"verb"
        assert t.get(b"dog") == b"puppy"
        assert t.get(b"doge") == b"coin"

    def test_immutability(self):
        t1 = MPT().set(b"a", b"1")
        t2 = t1.set(b"b", b"2")
        assert t1.get(b"b") is None
        assert t2.get(b"a") == b"1"
        assert t1.root_hash() != t2.root_hash()

    def test_items_sorted(self):
        t = MPT()
        for k in [b"zebra", b"apple", b"mango"]:
            t = t.set(k, k.upper())
        assert [k for k, _ in t.items()] == sorted([b"zebra", b"apple", b"mango"])

    def test_len(self):
        t = MPT().set(b"a", b"1").set(b"b", b"2")
        assert len(t) == 2


class TestRootProperties:
    def test_insertion_order_invariance(self):
        keys = [f"key{i}".encode() for i in range(30)]
        t1 = MPT()
        for k in keys:
            t1 = t1.set(k, k + b"-v")
        t2 = MPT()
        for k in reversed(keys):
            t2 = t2.set(k, k + b"-v")
        assert t1.root_hash() == t2.root_hash()

    def test_insert_delete_restores_root(self):
        t = MPT()
        for i in range(20):
            t = t.set(f"k{i}".encode(), b"v")
        before = t.root_hash()
        t2 = t.set(b"extra", b"x").delete(b"extra")
        assert t2.root_hash() == before

    def test_value_changes_root(self):
        t = MPT().set(b"k", b"v1")
        assert t.root_hash() != MPT().set(b"k", b"v2").root_hash()

    def test_known_single_entry_stability(self):
        # regression anchor: the root of a fixed tiny trie must never change
        r1 = MPT().set(b"a", b"1").root_hash()
        r2 = MPT().set(b"a", b"1").root_hash()
        assert r1 == r2


@st.composite
def key_value_dicts(draw):
    keys = draw(st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=25))
    return {k: draw(st.binary(min_size=1, max_size=16)) for k in keys}


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(key_value_dicts())
    def test_matches_dict_semantics(self, mapping):
        t = MPT()
        for k, v in mapping.items():
            t = t.set(k, v)
        for k, v in mapping.items():
            assert t.get(k) == v
        assert len(t) == len(mapping)

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts(), st.randoms(use_true_random=False))
    def test_root_independent_of_order(self, mapping, rng):
        items = list(mapping.items())
        t1 = MPT()
        for k, v in items:
            t1 = t1.set(k, v)
        rng.shuffle(items)
        t2 = MPT()
        for k, v in items:
            t2 = t2.set(k, v)
        assert t1.root_hash() == t2.root_hash()

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts())
    def test_delete_all_returns_to_empty(self, mapping):
        t = MPT()
        for k, v in mapping.items():
            t = t.set(k, v)
        for k in mapping:
            t = t.delete(k)
        assert t.root_hash() == EMPTY_ROOT

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts(), key_value_dicts())
    def test_distinct_mappings_distinct_roots(self, a, b):
        ta = MPT()
        for k, v in a.items():
            ta = ta.set(k, v)
        tb = MPT()
        for k, v in b.items():
            tb = tb.set(k, v)
        if a == b:
            assert ta.root_hash() == tb.root_hash()
        else:
            assert ta.root_hash() != tb.root_hash()


class TestRandomizedOps:
    """Seeded op-sequence soak: the trie must track a plain dict exactly.

    Long interleaved set/overwrite/delete runs are where structural bugs
    (branch collapse, extension merging) hide; a dict is the reference
    model and the insertion-order-invariant root is the cross-check.
    """

    KEYS = [f"acct-{i}".encode() for i in range(40)] + [
        b"a",
        b"ab",
        b"abc",
        b"abd",  # shared-prefix cluster to force extension splits
    ]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_random_ops_match_dict_reference(self, seed):
        rng = random.Random(seed)
        trie, model = MPT(), {}
        for step in range(300):
            key = rng.choice(self.KEYS)
            if rng.random() < 0.3 and model:
                key = rng.choice(list(model))
                trie = trie.delete(key)
                model.pop(key, None)
            else:
                value = f"v{step}".encode()
                trie = trie.set(key, value)
                model[key] = value
            if step % 50 == 0:
                assert len(trie) == len(model)
        for key in self.KEYS:
            assert trie.get(key) == model.get(key)
        rebuilt = MPT()
        for key in sorted(model):
            rebuilt = rebuilt.set(key, model[key])
        assert trie.root_hash() == rebuilt.root_hash()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_ops_secure_variant(self, seed):
        rng = random.Random(seed)
        trie, model = SecureMPT(), {}
        for step in range(200):
            key = rng.choice(self.KEYS)
            if rng.random() < 0.25 and model:
                key = rng.choice(list(model))
                trie = trie.delete(key)
                model.pop(key, None)
            else:
                value = f"s{step}".encode()
                trie = trie.set(key, value)
                model[key] = value
        for key in self.KEYS:
            assert trie.get(key) == model.get(key)
        assert trie.is_empty() == (not model)


class TestUpdateMany:
    def test_batch_equals_sequential_sets(self):
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(25)]
        batched = SecureMPT().update_many(items)
        sequential = SecureMPT()
        for key, value in items:
            sequential = sequential.set(key, value)
        assert batched.root_hash() == sequential.root_hash()

    def test_empty_value_deletes_in_batch(self):
        base = SecureMPT().set(b"keep", b"1").set(b"drop", b"2")
        updated = base.update_many([(b"drop", b"")])
        assert updated.get(b"drop") is None
        assert updated.get(b"keep") == b"1"
        assert updated.root_hash() == SecureMPT().set(b"keep", b"1").root_hash()

    def test_noop_batch_preserves_identity(self):
        base = SecureMPT().set(b"k", b"v")
        assert base.update_many([]) is base
        # deleting an absent key leaves the underlying trie untouched
        assert base.update_many([(b"ghost", b"")]) is base
        # rewriting an equal value rebuilds the path but keeps the root
        assert base.update_many([(b"k", b"v")]).root_hash() == base.root_hash()

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts())
    def test_batch_matches_sequential_for_any_mapping(self, mapping):
        items = list(mapping.items())
        batched = SecureMPT().update_many(items)
        sequential = SecureMPT()
        for key, value in items:
            sequential = sequential.set(key, value)
        assert batched.root_hash() == sequential.root_hash()


class TestProofs:
    def _populated(self):
        trie = MPT()
        for i in range(20):
            trie = trie.set(f"key-{i}".encode(), f"value-{i}".encode())
        return trie

    def test_inclusion_proof_round_trips(self):
        trie = self._populated()
        root = trie.root_hash()
        for i in (0, 7, 19):
            key = f"key-{i}".encode()
            proof = prove(trie, key)
            assert verify_proof(root, key, proof) == f"value-{i}".encode()

    def test_exclusion_proof_returns_none(self):
        trie = self._populated()
        proof = prove(trie, b"absent")
        assert verify_proof(trie.root_hash(), b"absent", proof) is None

    def test_empty_trie_exclusion(self):
        assert verify_proof(EMPTY_ROOT, b"anything", []) is None

    def test_tampered_node_rejected(self):
        trie = self._populated()
        proof = prove(trie, b"key-3")
        tampered = list(proof)
        tampered[0] = tampered[0][:-1] + bytes([tampered[0][-1] ^ 0x01])
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash(), b"key-3", tampered)

    def test_truncated_proof_rejected(self):
        trie = self._populated()
        proof = prove(trie, b"key-3")
        assert len(proof) > 1, "need a multi-node path to truncate"
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash(), b"key-3", proof[:-1])

    def test_proof_against_wrong_root_rejected(self):
        trie = self._populated()
        other = trie.set(b"key-0", b"changed")
        proof = prove(trie, b"key-0")
        with pytest.raises(ProofError):
            verify_proof(other.root_hash(), b"key-0", proof)

    def test_secure_proofs_round_trip(self):
        trie = SecureMPT()
        for i in range(10):
            trie = trie.set(f"acct{i}".encode(), f"data{i}".encode())
        root = trie.root_hash()
        proof = prove_secure(trie, b"acct4")
        assert verify_secure(root, b"acct4", proof) == b"data4"
        assert verify_secure(root, b"ghost", prove_secure(trie, b"ghost")) is None

    @settings(max_examples=30, deadline=None)
    @given(key_value_dicts())
    def test_every_key_proves_for_any_mapping(self, mapping):
        trie = MPT()
        for key, value in mapping.items():
            trie = trie.set(key, value)
        root = trie.root_hash()
        for key, value in mapping.items():
            assert verify_proof(root, key, prove(trie, key)) == value
        missing = b"\xff" * 9  # longer than any generated key
        assert verify_proof(root, missing, prove(trie, missing)) is None


class TestSecureMPT:
    def test_get_set(self):
        t = SecureMPT().set(b"account1", b"data")
        assert t.get(b"account1") == b"data"

    def test_keys_are_hashed(self):
        t = SecureMPT().set(b"k", b"v")
        # the raw key is not reachable through the underlying trie
        assert t._trie.get(b"k") is None
        assert t._trie.get(keccak(b"k")) == b"v"

    def test_delete(self):
        t = SecureMPT().set(b"k", b"v").delete(b"k")
        assert t.get(b"k") is None
        assert t.is_empty()

    def test_root_matches_regardless_of_insertion_order(self):
        keys = [f"acct{i}".encode() for i in range(10)]
        t1 = SecureMPT()
        t2 = SecureMPT()
        for k in keys:
            t1 = t1.set(k, b"v")
        for k in reversed(keys):
            t2 = t2.set(k, b"v")
        assert t1.root_hash() == t2.root_hash()


# keys from a 4-symbol alphabet collide on prefixes often, forcing
# extensions, branch values and one-nibble leaves
_short_keys = st.binary(min_size=0, max_size=4).map(lambda b: bytes(x % 4 for x in b))
# values around the 32-byte inline/hash boundary of a node's RLP
_values = st.binary(min_size=1, max_size=40)


@st.composite
def op_sequences(draw):
    """A set/delete sequence (``None`` deletes) over a small key space."""
    return draw(
        st.lists(st.tuples(_short_keys, st.none() | _values), min_size=0, max_size=40)
    )


class TestBulkBuild:
    """``MPT.from_items`` builds, and the ref cache hashes, the same trie
    that incremental ``set`` and the reference encoder do."""

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(_short_keys, _values, max_size=30) | key_value_dicts())
    def test_bulk_equals_incremental_and_oracle(self, mapping):
        bulk = MPT.from_items(mapping.items())
        one_by_one = incremental(mapping)
        assert bulk.root_hash() == one_by_one.root_hash() == oracle_root(one_by_one)
        assert list(bulk.items()) == sorted(mapping.items())

    @settings(max_examples=80, deadline=None)
    @given(op_sequences())
    def test_bulk_equals_set_delete_sequence(self, ops):
        trie, model = MPT(), {}
        for key, value in ops:
            if value is None:
                trie = trie.delete(key)
                model.pop(key, None)
            else:
                trie = trie.set(key, value)
                model[key] = value
        bulk = MPT.from_items(model.items())
        assert bulk.root_hash() == trie.root_hash() == oracle_root(trie)

    def test_later_pair_wins_and_empty_value_is_absent(self):
        bulk = MPT.from_items([(b"k", b"1"), (b"gone", b"x"), (b"k", b"2"), (b"gone", b"")])
        assert bulk.root_hash() == MPT().set(b"k", b"2").root_hash()
        assert MPT.from_items([]).root_hash() == EMPTY_ROOT
        assert MPT.from_items([(b"k", b"")]).is_empty()

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(_short_keys, _values, max_size=30), _short_keys)
    def test_proofs_verify_against_bulk_tries(self, mapping, probe):
        bulk = MPT.from_items(mapping.items())
        one_by_one = incremental(mapping)
        root = bulk.root_hash()
        for key, value in mapping.items():
            proof = prove(bulk, key)
            assert proof == prove(one_by_one, key)
            assert verify_proof(root, key, proof) == value
        assert verify_proof(root, probe, prove(bulk, probe)) == mapping.get(probe)

    def test_secure_bulk_equals_secure_sets(self):
        items = [(f"acct{i}".encode(), f"data{i}".encode()) for i in range(50)]
        sequential = SecureMPT()
        for key, value in items:
            sequential = sequential.set(key, value)
        assert SecureMPT.from_items(items).root_hash() == sequential.root_hash()


_accounts = st.builds(
    AccountData,
    nonce=st.integers(0, 3),
    balance=st.integers(0, 10**20),
    code=st.sampled_from([b"", b"\x60\x00", bytes(range(40))]),
    storage=st.dictionaries(st.integers(0, 2**256 - 1), st.integers(0, 2**256 - 1), max_size=6),
)


def _incremental_genesis(alloc):
    """The genesis state built by one-at-a-time trie inserts."""
    account_trie = SecureMPT()
    storage_roots = {}
    for address, data in alloc.items():
        if data.is_empty():
            continue
        storage = SecureMPT()
        for slot, value in data.storage.items():
            if value:
                storage = storage.set(slot.to_bytes(32, "big"), rlp_encode(value))
        storage_roots[address] = storage.root_hash()
        account_trie = account_trie.set(bytes(address), encode_account(data, storage_roots[address]))
    return account_trie.root_hash(), storage_roots


class TestGenesis:
    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.binary(min_size=20, max_size=20).map(Address), _accounts, max_size=12))
    def test_bulk_genesis_equals_incremental_build(self, alloc):
        snapshot = genesis_snapshot(alloc)
        state_root, storage_roots = _incremental_genesis(alloc)
        assert snapshot.state_root() == state_root
        for address, root in storage_roots.items():
            assert snapshot.storage_root(address) == root

    def test_default_universe_genesis_root_is_pinned(self):
        # regression vector: the root every golden and chain starts from
        assert build_universe().genesis.state_root().hex() == (
            "90f0f65580f96820578e1ba68e997eca3e44dec3d2af85ec639d51fc16e486e3"
        )
