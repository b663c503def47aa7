"""The ledger: a fork-aware chain of blocks per shard.

Miners record blocks "locally in the form of linked lists, called ledgers"
(Sec. II-A). The ledger tracks every received block, applies the
longest-chain fork-choice rule used by PoW chains, and exposes the
statistics the evaluation needs: confirmed transactions, empty blocks and
stale (orphaned) blocks.

The ledger is the one place that decides how the canonical chain moves.
:meth:`Ledger.add_block` walks only the reorged branch and returns the
delta — the blocks that left the canonical chain and the blocks that
joined it. The ledger folds that delta into its own canonical-hash set
and confirmed-transaction multiset, so ``confirmed_tx_ids()`` is O(1)
instead of an O(chain) walk; the node applies the same delta to its
world state and hands it on to whoever tracks the run as a whole. The
full scan survives as :meth:`confirmed_tx_ids_scan`, the differential
oracle the ledger tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Block, GENESIS_PARENT
from repro.errors import LedgerError


@dataclass(slots=True)
class _ChainEntry:
    block: Block
    height: int
    parent: str | None


class Ledger:
    """A per-shard block store with longest-chain fork choice.

    The ledger accepts any block whose parent it knows (forks included)
    and keeps the head at the tip of the longest chain, breaking ties by
    earliest arrival — the behaviour that makes simultaneous duplicate
    blocks from fee-greedy miners waste work (Table I's saturation).
    """

    def __init__(self, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        genesis = Block.genesis(shard_id)
        genesis_hash = genesis.block_hash
        self._entries: dict[str, _ChainEntry] = {
            genesis_hash: _ChainEntry(block=genesis, height=0, parent=None)
        }
        self._genesis_hash = genesis_hash
        self._head_hash = genesis_hash
        self._arrival_order: dict[str, int] = {genesis_hash: 0}
        self._arrivals = 1
        # Incremental canonical-chain views, updated on every head change.
        self._canonical: set[str] = {genesis_hash}
        self._confirmed_counts: dict[str, int] = {}
        self._confirmed_ids: set[str] = set()

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> tuple[list[Block], list[Block]]:
        """Insert a block; returns the canonical-chain delta it caused.

        The delta is ``(disconnected, connected)``: the blocks that left
        the canonical chain, newest first, and the blocks that joined it,
        oldest first. Both are empty when the head did not move (a
        side-branch block or a losing tie); a plain tip extension is
        ``([], [block])``.

        Raises :class:`LedgerError` when the parent is unknown or the
        block was already inserted.
        """
        block_hash = block.block_hash
        if block_hash in self._entries:
            raise LedgerError(f"duplicate block {block_hash[:10]}")
        parent = block.header.parent_hash
        if parent not in self._entries:
            raise LedgerError(
                f"block {block_hash[:10]} references unknown parent {parent[:10]}"
            )
        height = self._entries[parent].height + 1
        self._entries[block_hash] = _ChainEntry(
            block=block, height=height, parent=parent
        )
        self._arrival_order[block_hash] = self._arrivals
        self._arrivals += 1

        if height <= self._entries[self._head_hash].height:
            return [], []
        # Walk the new branch back to the fork point (its first canonical
        # block), then the old branch down to it: only the branch delta
        # is touched, never the shared prefix.
        entries = self._entries
        canonical = self._canonical
        connected: list[Block] = []
        cursor = block_hash
        while cursor not in canonical:
            entry = entries[cursor]
            connected.append(entry.block)
            cursor = entry.parent
        fork_point, cursor = cursor, self._head_hash
        disconnected: list[Block] = []
        while cursor != fork_point:
            entry = entries[cursor]
            disconnected.append(entry.block)
            cursor = entry.parent
        connected.reverse()
        self._head_hash = block_hash
        for gone in disconnected:
            canonical.discard(gone.block_hash)
            self._remove_confirmed(gone)
        for new in connected:
            canonical.add(new.block_hash)
            self._add_confirmed(new)
        return disconnected, connected

    def _add_confirmed(self, block: Block) -> None:
        counts = self._confirmed_counts
        confirmed = self._confirmed_ids
        for tx in block.transactions:
            tx_id = tx.tx_id
            new = counts.get(tx_id, 0) + 1
            counts[tx_id] = new
            if new == 1:
                confirmed.add(tx_id)

    def _remove_confirmed(self, block: Block) -> None:
        counts = self._confirmed_counts
        confirmed = self._confirmed_ids
        for tx in block.transactions:
            tx_id = tx.tx_id
            new = counts[tx_id] - 1
            if new:
                counts[tx_id] = new
            else:
                del counts[tx_id]
                confirmed.discard(tx_id)

    def knows(self, block_hash: str) -> bool:
        return block_hash in self._entries

    # ------------------------------------------------------------------
    # chain views
    # ------------------------------------------------------------------
    @property
    def head(self) -> Block:
        """The block at the tip of the canonical (longest) chain."""
        return self._entries[self._head_hash].block

    @property
    def head_hash(self) -> str:
        return self._head_hash

    @property
    def genesis_hash(self) -> str:
        return self._genesis_hash

    @property
    def height(self) -> int:
        """Height of the canonical chain head (genesis = 0)."""
        return self._entries[self._head_hash].height

    def block(self, block_hash: str) -> Block:
        """Look up a known block by hash."""
        try:
            return self._entries[block_hash].block
        except KeyError:
            raise LedgerError(f"unknown block {block_hash[:10]}") from None

    def parent_of(self, block_hash: str) -> str | None:
        """Parent hash of a known block (None for genesis)."""
        try:
            return self._entries[block_hash].parent
        except KeyError:
            raise LedgerError(f"unknown block {block_hash[:10]}") from None

    def canonical_chain(self) -> list[Block]:
        """The canonical chain, genesis first."""
        chain: list[Block] = []
        cursor: str | None = self._head_hash
        while cursor is not None:
            entry = self._entries[cursor]
            chain.append(entry.block)
            cursor = entry.parent
        chain.reverse()
        return chain

    def canonical_hashes(self) -> set[str]:
        """Hashes of every block on the canonical chain."""
        return set(self._canonical)

    def is_canonical(self, block_hash: str) -> bool:
        """Whether a block is on the canonical chain — O(1)."""
        return block_hash in self._canonical

    def all_blocks(self) -> list[Block]:
        """Every block ever inserted, including orphans (genesis first)."""
        ordered = sorted(self._arrival_order.items(), key=lambda item: item[1])
        return [self._entries[block_hash].block for block_hash, __ in ordered]

    # ------------------------------------------------------------------
    # statistics used by the evaluation
    # ------------------------------------------------------------------
    def confirmed_transactions(self) -> list:
        """Transactions on the canonical chain, oldest block first."""
        txs = []
        for block in self.canonical_chain():
            txs.extend(block.transactions)
        return txs

    def confirmed_tx_ids(self) -> set[str]:
        """Ids of every transaction on the canonical chain — O(1).

        Returns the ledger's incrementally-maintained view; treat it as
        read-only (copy before mutating). The full-walk implementation
        survives as :meth:`confirmed_tx_ids_scan`, the differential
        oracle.
        """
        return self._confirmed_ids

    def confirmed_tx_ids_scan(self) -> set[str]:
        """The original O(chain) canonical walk, kept as the oracle."""
        return {tx.tx_id for tx in self.confirmed_transactions()}

    def count_empty_blocks(self, *, canonical_only: bool = True) -> int:
        """Number of empty non-genesis blocks (the wasted-power metric)."""
        blocks = self.canonical_chain() if canonical_only else self.all_blocks()
        return sum(
            1 for block in blocks if block.is_empty and block.header.height > 0
        )

    def count_stale_blocks(self) -> int:
        """Blocks that lost the fork race (mined but not canonical)."""
        canonical = self._canonical
        return sum(1 for h in self._entries if h not in canonical)
