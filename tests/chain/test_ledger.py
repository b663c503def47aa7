"""Tests for repro.chain.ledger."""

import pytest

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.errors import LedgerError
from tests.conftest import make_call


def extend(ledger: Ledger, parent_hash: str, height: int, txs=(), miner="pk"):
    block = Block.build(
        parent_hash=parent_hash,
        miner=miner,
        shard_id=ledger.shard_id,
        height=height,
        timestamp=float(height),
        transactions=list(txs),
    )
    ledger.add_block(block)
    return block


class TestAppend:
    def test_fresh_ledger_is_at_genesis(self):
        ledger = Ledger(shard_id=1)
        assert ledger.height == 0
        assert ledger.head.header.height == 0

    def test_simple_chain(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        b2 = extend(ledger, b1.block_hash, 2)
        assert ledger.height == 2
        assert ledger.head_hash == b2.block_hash

    def test_duplicate_rejected(self):
        ledger = Ledger()
        block = Block.build(ledger.head_hash, "pk", 0, 1, 1.0)
        ledger.add_block(block)
        with pytest.raises(LedgerError, match="duplicate"):
            ledger.add_block(block)

    def test_unknown_parent_rejected(self):
        ledger = Ledger()
        orphan = Block.build("f" * 64, "pk", 0, 1, 1.0)
        with pytest.raises(LedgerError, match="unknown parent"):
            ledger.add_block(orphan)

    def test_add_block_reports_head_change(self):
        """add_block returns (disconnected newest-first, connected
        oldest-first); both empty when the head does not move."""
        ledger = Ledger()
        genesis_hash = ledger.head_hash
        a1 = Block.build(genesis_hash, "pkA", 0, 1, 1.0)
        assert ledger.add_block(a1) == ([], [a1])  # plain tip extension
        a2 = Block.build(a1.block_hash, "pkA", 0, 2, 2.0)
        assert ledger.add_block(a2) == ([], [a2])
        fork = Block.build(genesis_hash, "pkB", 0, 1, 1.5)
        assert ledger.add_block(fork) == ([], [])  # side branch
        b2 = Block.build(fork.block_hash, "pkB", 0, 2, 2.5)
        assert ledger.add_block(b2) == ([], [])  # same height loses tie
        b3 = Block.build(b2.block_hash, "pkB", 0, 3, 3.0)
        # Reorg: branch A leaves newest first, branch B joins oldest first.
        assert ledger.add_block(b3) == ([a2, a1], [fork, b2, b3])
        assert ledger.head_hash == b3.block_hash


class TestForkChoice:
    def test_longest_chain_wins(self):
        ledger = Ledger()
        a1 = extend(ledger, ledger.head_hash, 1, miner="pkA")
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1)
        ledger.add_block(b1)
        assert ledger.head_hash == a1.block_hash  # first arrival keeps tie
        b2 = extend(ledger, b1.block_hash, 2, miner="pkB")
        assert ledger.head_hash == b2.block_hash  # longer fork overtakes

    def test_stale_blocks_counted(self):
        ledger = Ledger()
        extend(ledger, ledger.head_hash, 1, miner="pkA")
        loser = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.2)
        ledger.add_block(loser)
        assert ledger.count_stale_blocks() == 1

    def test_canonical_chain_order(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        b2 = extend(ledger, b1.block_hash, 2)
        chain = ledger.canonical_chain()
        assert [b.header.height for b in chain] == [0, 1, 2]
        assert chain[-1].block_hash == b2.block_hash


class TestStatistics:
    def test_confirmed_transactions(self):
        ledger = Ledger()
        tx1, tx2 = make_call("0xua"), make_call("0xub")
        b1 = extend(ledger, ledger.head_hash, 1, txs=[tx1])
        extend(ledger, b1.block_hash, 2, txs=[tx2])
        assert ledger.confirmed_tx_ids() == {tx1.tx_id, tx2.tx_id}

    def test_fork_txs_not_confirmed(self):
        ledger = Ledger()
        tx_main, tx_fork = make_call("0xua"), make_call("0xub")
        extend(ledger, ledger.head_hash, 1, txs=[tx_main])
        fork = Block.build(
            Block.genesis(0).block_hash, "pkB", 0, 1, 1.2, [tx_fork]
        )
        ledger.add_block(fork)
        assert tx_fork.tx_id not in ledger.confirmed_tx_ids()

    def test_count_empty_blocks_excludes_genesis(self):
        ledger = Ledger()
        assert ledger.count_empty_blocks() == 0
        b1 = extend(ledger, ledger.head_hash, 1)  # empty
        extend(ledger, b1.block_hash, 2, txs=[make_call("0xua")])
        assert ledger.count_empty_blocks() == 1

    def test_count_empty_blocks_all_vs_canonical(self):
        ledger = Ledger()
        extend(ledger, ledger.head_hash, 1)
        fork = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.2)
        ledger.add_block(fork)
        assert ledger.count_empty_blocks(canonical_only=True) == 1
        assert ledger.count_empty_blocks(canonical_only=False) == 2

    def test_knows(self):
        ledger = Ledger()
        block = extend(ledger, ledger.head_hash, 1)
        assert ledger.knows(block.block_hash)
        assert not ledger.knows("0" * 64)


class TestIncrementalViews:
    """The incremental canonical/confirmed views vs. the walk oracle."""

    def test_incremental_matches_scan_through_reorg(self):
        ledger = Ledger()
        tx_a, tx_b, tx_c = make_call("0xua"), make_call("0xub"), make_call("0xuc")
        a1 = extend(ledger, ledger.head_hash, 1, txs=[tx_a], miner="pkA")
        assert ledger.confirmed_tx_ids() == ledger.confirmed_tx_ids_scan()
        # A competing branch from genesis overtakes the head.
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1, [tx_b])
        ledger.add_block(b1)
        b2 = extend(ledger, b1.block_hash, 2, txs=[tx_c], miner="pkB")
        assert ledger.head_hash == b2.block_hash
        assert ledger.confirmed_tx_ids() == ledger.confirmed_tx_ids_scan()
        assert tx_a.tx_id not in ledger.confirmed_tx_ids()
        # The original branch fights back and wins again.
        a2 = extend(ledger, a1.block_hash, 2, txs=[tx_b], miner="pkA")
        a3 = extend(ledger, a2.block_hash, 3, miner="pkA")
        assert ledger.head_hash == a3.block_hash
        assert ledger.confirmed_tx_ids() == ledger.confirmed_tx_ids_scan()
        assert tx_a.tx_id in ledger.confirmed_tx_ids()

    def test_duplicate_tx_across_branches_survives_unwind(self):
        # The same tx id confirmed on both branches must stay confirmed
        # after one branch is unwound (the multiset case).
        ledger = Ledger()
        shared = make_call("0xua")
        a1 = extend(ledger, ledger.head_hash, 1, txs=[shared], miner="pkA")
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1, [shared])
        ledger.add_block(b1)
        extend(ledger, b1.block_hash, 2, miner="pkB")  # reorg to branch B
        assert shared.tx_id in ledger.confirmed_tx_ids()
        assert ledger.confirmed_tx_ids() == ledger.confirmed_tx_ids_scan()

    def test_canonical_hashes_and_is_canonical(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        loser = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.2)
        ledger.add_block(loser)
        assert ledger.is_canonical(b1.block_hash)
        assert not ledger.is_canonical(loser.block_hash)
        assert ledger.canonical_hashes() == {
            ledger.genesis_hash,
            b1.block_hash,
        }

    def test_block_and_parent_accessors(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        assert ledger.block(b1.block_hash) is b1
        assert ledger.parent_of(b1.block_hash) == ledger.genesis_hash
        assert ledger.parent_of(ledger.genesis_hash) is None
        with pytest.raises(LedgerError):
            ledger.block("f" * 64)
        with pytest.raises(LedgerError):
            ledger.parent_of("f" * 64)
