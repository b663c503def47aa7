"""The bounded mempool: deterministic eviction, counters, and the
eviction/compaction interaction with the cached ranked view.

The load-bearing property: under any interleaving of add / evict /
remove / re-add, ``select_by_fee`` stays bit-identical to the
``select_by_fee_sorted`` oracle and ``_ranked_stale`` never over-counts
(over-counting would defer compaction forever and let stale entries
shadow live ones).
"""

import random

import pytest

from repro.chain.mempool import Mempool, _fee_rank
from repro.errors import ConfigError
from tests.conftest import make_call


def _assert_cache_consistent(pool: Mempool) -> None:
    """The ranked view's stale counter must be exact, never an estimate."""
    if pool._ranked is None:
        return
    actual_stale = sum(1 for tx in pool._ranked if tx.tx_id not in pool._pool)
    assert pool._ranked_stale == actual_stale
    live = [tx for tx in pool._ranked if tx.tx_id in pool._pool]
    assert len(live) == len(pool._pool)
    assert live == sorted(live, key=_fee_rank)


class TestBound:
    def test_limit_must_be_positive(self):
        with pytest.raises(ConfigError):
            Mempool(limit=0)
        with pytest.raises(ConfigError):
            Mempool(limit=-3)

    def test_evicts_lowest_fee_resident(self):
        pool = Mempool(limit=2)
        low = make_call("0xua", fee=1)
        mid = make_call("0xub", fee=5)
        high = make_call("0xuc", fee=9)
        assert pool.add(low) and pool.add(mid)
        assert pool.add(high)  # admitted; low is evicted
        assert len(pool) == 2
        assert low.tx_id not in pool
        assert pool.evictions == 1

    def test_incoming_worse_than_worst_is_refused(self):
        pool = Mempool(limit=2)
        pool.add(make_call("0xua", fee=5))
        pool.add(make_call("0xub", fee=6))
        worse = make_call("0xuc", fee=1)
        assert not pool.add(worse)
        assert worse.tx_id not in pool
        assert len(pool) == 2
        assert pool.evictions == 1

    def test_fee_tie_breaks_on_tx_id(self):
        a = make_call("0xua", fee=5)
        b = make_call("0xub", fee=5)
        best = min([a, b], key=_fee_rank)
        # Whatever the admission order, the rank winner keeps the seat.
        for order in ([a, b], [b, a]):
            pool = Mempool(limit=1)
            for tx in order:
                pool.add(tx)
            assert [t.tx_id for t in pool.pending()] == [best.tx_id]
            assert pool.evictions == 1

    def test_identical_admission_sequence_evicts_identically(self):
        rng = random.Random(11)
        txs = [make_call(f"0xu{i}", fee=rng.randrange(1, 30)) for i in range(60)]
        pool_a, pool_b = Mempool(limit=10), Mempool(limit=10)
        pool_a.select_by_fee(1)  # force the cache on one side only
        for tx in txs:
            pool_a.add(tx)
            pool_b.add(tx)
        assert sorted(t.tx_id for t in pool_a.pending()) == sorted(
            t.tx_id for t in pool_b.pending()
        )
        assert pool_a.evictions == pool_b.evictions
        assert pool_a.select_by_fee(10) == pool_b.select_by_fee_sorted(10)

    def test_eviction_counted_without_cache(self):
        # No selection ever runs, so the ranked view is never built and
        # eviction takes the uncached worst-resident scan.
        pool = Mempool(limit=1)
        pool.add(make_call("0xua", fee=2))
        pool.add(make_call("0xub", fee=7))
        assert pool.evictions == 1
        assert len(pool) == 1
        assert pool.pending()[0].fee == 7
        assert pool._ranked is None


class TestEvictionCompactionInteraction:
    """Satellite: ``_note_removed`` vs. tail eviction (`mempool.py:82`).

    Evicting through the ranked tail drops entries physically; routing
    those drops through the lazy stale counter would over-count and,
    past the threshold arithmetic, skip compaction while serving stale
    transactions. These tests pin the exact-counter behavior.
    """

    def test_stale_counter_exact_under_evictions(self):
        pool = Mempool(limit=5)
        txs = [make_call(f"0xu{i}", fee=i + 1) for i in range(5)]
        for tx in txs:
            pool.add(tx)
        pool.select_by_fee(3)  # build the cache
        # Confirm two (lazy removal), then force evictions via adds.
        pool.remove_confirmed({txs[0].tx_id, txs[1].tx_id})
        for i in range(4):
            pool.add(make_call(f"0xv{i}", fee=50 + i))
        _assert_cache_consistent(pool)
        assert pool.select_by_fee(10) == pool.select_by_fee_sorted(10)

    def test_evict_skips_stale_tail_entries(self):
        pool = Mempool(limit=3)
        low = make_call("0xua", fee=1)
        mid = make_call("0xub", fee=4)
        high = make_call("0xuc", fee=9)
        for tx in (low, mid, high):
            pool.add(tx)
        pool.select_by_fee(1)
        # Remove the ranked tail lazily, then admit at capacity... wait:
        # removal drops len below the limit; refill to capacity first.
        pool.remove(low.tx_id)
        pool.add(make_call("0xud", fee=6))
        _assert_cache_consistent(pool)
        # Now at capacity with a possibly-stale tail; the next eviction
        # must pick the live worst (mid, fee=4), never the stale entry.
        pool.add(make_call("0xue", fee=8))
        assert mid.tx_id not in pool
        _assert_cache_consistent(pool)
        assert pool.select_by_fee(10) == pool.select_by_fee_sorted(10)

    def test_readd_after_remove_does_not_duplicate_ranked_entry(self):
        pool = Mempool()
        tx = make_call("0xua", fee=5)
        other = make_call("0xub", fee=3)
        pool.add(tx)
        pool.add(other)
        pool.select_by_fee(1)  # build the cache
        pool.remove(tx.tx_id)
        pool.add(tx)  # faulty-network re-pooling
        _assert_cache_consistent(pool)
        assert pool._ranked is not None and len(pool._ranked) == 2
        assert pool.select_by_fee(10) == pool.select_by_fee_sorted(10)

    def test_differential_add_evict_remove_interleavings(self):
        """The satellite's differential test: cached selection vs. the
        full-sort oracle under seeded interleavings that exercise
        eviction, lazy removal, compaction and re-adds together."""
        for seed in range(6):
            rng = random.Random(100 + seed)
            pool = Mempool(limit=12)
            removed: list = []
            for step in range(300):
                op = rng.random()
                if op < 0.5:
                    tx = make_call(f"0xu{seed}-{step}", fee=rng.randrange(1, 25))
                    pool.add(tx)
                elif op < 0.7 and pool.pending():
                    victim = rng.choice(pool.pending())
                    pool.remove(victim.tx_id)
                    removed.append(victim)
                elif op < 0.8 and removed:
                    pool.add(removed.pop())  # re-add (re-pooled duplicate)
                else:
                    limit = rng.randrange(0, 15)
                    assert pool.select_by_fee(limit) == (
                        pool.select_by_fee_sorted(limit)
                    ), f"seed={seed} step={step}"
                assert len(pool) <= 12
            _assert_cache_consistent(pool)
            assert pool.select_by_fee(20) == pool.select_by_fee_sorted(20)
