"""Transaction workload generators.

All generators route through :class:`WorkloadBuilder`, which manages
sender accounts and their nonce sequences so that every generated
workload validates cleanly against a fresh world state.

Million-transaction campaigns use the *streaming* variants: they return
a :class:`TxStream` — a replayable declaration of the workload's shape
(total count, contract set, per-shard counts) plus a factory that
*yields* transactions instead of returning a list. A stream's first
``n`` transactions are field-identical to the list generator's first
``n`` (same seeded draws in the same order), which is what makes
generator-based injection digest-identical to list-based injection at
baseline scales. Materializing a stream above
:data:`MAX_MATERIALIZED_TXS` fails loudly — the whole point of a stream
is that nothing ever holds it in memory at once.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.chain.transaction import Transaction, TransactionKind
from repro.errors import WorkloadError
from repro.workloads.distributions import uniform_fee_stream, uniform_fees

#: Hard ceiling on turning a stream back into a list (t=0 injection,
#: tests, debugging). Above this, callers must inject in paced batches.
MAX_MATERIALIZED_TXS = 50_000


def _contract_address(index: int) -> str:
    return f"0xc{index:039d}"


def _user_address(name: str) -> str:
    return f"0xu{name}"


@dataclass
class WorkloadBuilder:
    """Stateful builder tracking sender nonces and contract addresses."""

    seed: int | None = None
    _nonces: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def contract_call(
        self,
        sender: str,
        contract: str,
        fee: int,
        amount: int = 1,
        extra_inputs: tuple[str, ...] = (),
    ) -> Transaction:
        """A contract-invoking transaction with the sender's next nonce."""
        nonce = self._nonces[sender]
        self._nonces[sender] += 1
        return Transaction(
            sender=sender,
            recipient=contract,
            amount=amount,
            fee=fee,
            kind=TransactionKind.CONTRACT_CALL,
            contract=contract,
            nonce=nonce,
            extra_inputs=extra_inputs,
        )

    def direct_transfer(
        self,
        sender: str,
        recipient: str,
        fee: int,
        amount: int = 1,
        extra_inputs: tuple[str, ...] = (),
    ) -> Transaction:
        """A user-to-user transfer (lands in the MaxShard)."""
        nonce = self._nonces[sender]
        self._nonces[sender] += 1
        return Transaction(
            sender=sender,
            recipient=recipient,
            amount=amount,
            fee=fee,
            kind=TransactionKind.DIRECT_TRANSFER,
            nonce=nonce,
            extra_inputs=extra_inputs,
        )

    def senders_seen(self) -> list[str]:
        return list(self._nonces)


@dataclass(frozen=True)
class TxStream:
    """A replayable, lazily generated transaction workload.

    ``contracts`` and ``shard_counts`` declare up front what the list
    generators only reveal after materialization: which contract
    addresses exist (so shard formation needs no transaction scan) and
    how many transactions each shard will eventually receive. Each
    :meth:`__iter__` call restarts the seeded factory, so the stream
    can be traversed more than once — note that transaction *ids* embed
    a process-global serial and therefore differ between traversals,
    while every digest-bearing field (sender, recipient, fee, nonce,
    kind, contract) is identical.
    """

    total: int
    contracts: tuple[str, ...]
    #: shard id -> intended transaction count; shard 0 is the MaxShard.
    shard_counts: dict[int, int]
    factory: Callable[[], Iterator[Transaction]]
    description: str = "stream"

    def __iter__(self) -> Iterator[Transaction]:
        return self.factory()

    def materialize(self, cap: int | None = None) -> list[Transaction]:
        """The full transaction list — small streams only, loudly.

        ``cap`` defaults to :data:`MAX_MATERIALIZED_TXS`; a stream
        declaring more transactions than the cap refuses instead of
        silently exhausting memory.
        """
        limit = MAX_MATERIALIZED_TXS if cap is None else cap
        if self.total > limit:
            raise WorkloadError(
                f"refusing to materialize {self.description!r}: "
                f"{self.total} transactions exceed the {limit}-tx cap — "
                f"use paced streaming injection (inject_batch=) instead"
            )
        txs = list(self.factory())
        if len(txs) != self.total:
            raise WorkloadError(
                f"stream {self.description!r} declared {self.total} "
                f"transactions but yielded {len(txs)}"
            )
        return txs


def _per_shard_counts(total: int, shards: int) -> list[int]:
    """Split ``total`` transactions as evenly as possible over shards."""
    base = total // shards
    counts = [base] * shards
    for i in range(total - base * shards):
        counts[i] += 1
    return counts


def uniform_contract_workload(
    total_txs: int,
    contract_shards: int,
    fee_low: int = 1,
    fee_high: int = 100,
    seed: int | None = None,
) -> list[Transaction]:
    """The Sec. VI-B1 workload: transactions uniform over shards.

    ``contract_shards`` is the paper's ``s``: there are ``s`` contracts
    plus the MaxShard, and "the number of transactions in each shard is
    total/(s+1)". Contract shards are fed by single-contract senders;
    the MaxShard slice is direct transfers. ``contract_shards=0`` yields
    a pure non-sharded (all-MaxShard) workload.
    """
    if total_txs < 0:
        raise WorkloadError("total_txs cannot be negative")
    if contract_shards < 0:
        raise WorkloadError("contract_shards cannot be negative")
    builder = WorkloadBuilder(seed=seed)
    fees = uniform_fees(total_txs, fee_low, fee_high, seed=seed)
    shard_slots = contract_shards + 1
    counts = _per_shard_counts(total_txs, shard_slots)

    txs: list[Transaction] = []
    fee_iter = iter(fees)
    # MaxShard slice: direct transfers between dedicated users.
    for i in range(counts[0]):
        sender = _user_address(f"max-{seed}-{i}")
        recipient = _user_address(f"maxdst-{seed}-{i}")
        txs.append(builder.direct_transfer(sender, recipient, fee=next(fee_iter)))
    # One slice per contract shard, from single-contract senders.
    for shard_index in range(contract_shards):
        contract = _contract_address(shard_index + 1)
        for i in range(counts[shard_index + 1]):
            sender = _user_address(f"c{shard_index + 1}-{seed}-{i}")
            txs.append(builder.contract_call(sender, contract, fee=next(fee_iter)))
    return txs


def streaming_uniform_contract_workload(
    total_txs: int,
    contract_shards: int,
    fee_low: int = 1,
    fee_high: int = 100,
    seed: int | None = None,
    senders_per_shard: int | None = None,
    interleave_shards: bool = False,
) -> TxStream:
    """:func:`uniform_contract_workload` as a bounded-memory stream.

    The factory yields transactions in the list generator's exact
    order — the MaxShard slice first, then one slice per contract
    shard — drawing fees lazily from the same seeded RNG sequence, so
    ``list(stream)[:n]`` is field-identical to the list version's first
    ``n`` transactions at any scale.

    ``interleave_shards`` rotates the yield order round-robin across
    the shard slices (MaxShard, shard 1, shard 2, …, repeating) instead
    of emitting each slice whole. Bulk ``t = 0`` injection is order-
    insensitive, but *paced* injection replays stream order in real
    time: slice-sequential order firehoses one shard at a time with the
    full offered rate while every other shard idles — the hot shard's
    mempool saturates, sheds mid-chain nonces, and the stranded tails
    never drain. Interleaving spreads each batch evenly so per-shard
    offered load matches the per-shard share. Within a slice the order
    (and each sender's nonce sequence) is unchanged. Off by default:
    the historical slice-sequential order is digest-pinned at baseline
    scales.

    ``senders_per_shard`` bounds each slice's account population:
    transaction ``i`` is issued by sender ``i % senders_per_shard``
    (with climbing nonces) instead of a fresh address, so every
    structure keyed by account — per-node world state, the call graph,
    classification memo — stays O(population) while the transaction
    count grows without bound. Reuse keeps each sender single-contract
    (a slice's senders only ever call that slice's contract), so shard
    classification is unchanged. In this mode fees follow a ladder
    that strictly decreases along each sender's nonce sequence instead
    of the seeded uniform draw: nonce order must agree with fee order,
    because fee-greedy packing validates against sender nonces and a
    high-fee later nonce ranked above an unpacked low-fee earlier one
    can never confirm — a pool of such pairs never drains. The ladder
    caps the chain depth at ``fee_high - fee_low + 1`` nonces per
    sender; a population too small for the slice refuses loudly. The
    default (``None``) preserves the historical
    one-address-per-transaction naming and fee draws exactly.
    """
    if total_txs < 0:
        raise WorkloadError("total_txs cannot be negative")
    if contract_shards < 0:
        raise WorkloadError("contract_shards cannot be negative")
    if senders_per_shard is not None and senders_per_shard < 1:
        raise WorkloadError("senders_per_shard must be positive")
    shard_slots = contract_shards + 1
    counts = _per_shard_counts(total_txs, shard_slots)
    contracts = tuple(
        _contract_address(index + 1) for index in range(contract_shards)
    )
    fee_span = fee_high - fee_low + 1
    if senders_per_shard is not None:
        depth = -(-max(counts) // senders_per_shard)  # ceil division
        if depth > fee_span:
            raise WorkloadError(
                f"senders_per_shard={senders_per_shard} gives each sender "
                f"up to {depth} nonces but the fee ladder only spans "
                f"{fee_span} rungs ({fee_low}..{fee_high}) — fee-greedy "
                f"selection would strand equal-fee nonce chains; use at "
                f"least {-(-max(counts) // fee_span)} senders per shard"
            )

    def slot(i: int) -> int:
        return i if senders_per_shard is None else i % senders_per_shard

    def fee_of(i: int, drawn: int) -> int:
        if senders_per_shard is None:
            return drawn
        return fee_high - (i // senders_per_shard) % fee_span

    def factory() -> Iterator[Transaction]:
        builder = WorkloadBuilder(seed=seed)
        fee_iter = uniform_fee_stream(fee_low, fee_high, seed=seed)

        def make(shard_slot: int, pos: int) -> Transaction:
            fee = fee_of(pos, next(fee_iter))
            if shard_slot == 0:
                return builder.direct_transfer(
                    _user_address(f"max-{seed}-{slot(pos)}"),
                    _user_address(f"maxdst-{seed}-{slot(pos)}"),
                    fee=fee,
                )
            return builder.contract_call(
                _user_address(f"c{shard_slot}-{seed}-{slot(pos)}"),
                contracts[shard_slot - 1],
                fee=fee,
            )

        if interleave_shards:
            # Round-robin over slices: global position g maps to slice
            # g % slots, which hands slice s exactly counts[s] turns
            # (the extras land on the low slices, same as
            # _per_shard_counts).
            positions = [0] * shard_slots
            for g in range(total_txs):
                shard_slot = g % shard_slots
                yield make(shard_slot, positions[shard_slot])
                positions[shard_slot] += 1
        else:
            for shard_slot in range(shard_slots):
                for pos in range(counts[shard_slot]):
                    yield make(shard_slot, pos)

    population = (
        "" if senders_per_shard is None else f", senders={senders_per_shard}"
    )
    if interleave_shards:
        population += ", interleaved"
    return TxStream(
        total=total_txs,
        contracts=contracts,
        shard_counts={index: count for index, count in enumerate(counts)},
        factory=factory,
        description=(
            f"uniform_contract(total={total_txs}, shards={contract_shards}, "
            f"seed={seed}{population})"
        ),
    )


def _powerlaw_counts(
    total: int, contract_shards: int, alpha: float
) -> list[int]:
    """Largest-remainder apportionment of ``total`` over Zipf weights.

    Contract shard ``k`` (slot ``k``, 1-based rank) gets weight
    ``1 / k**alpha``; the MaxShard slot (direct transfers) takes the
    coldest rank, ``contract_shards + 1`` — skewed workloads exist to
    stress *contract* placement, so plain transfers stay a minority.
    Floors first, then the largest fractional remainders win the
    leftover transactions (ties to the lower slot) — deterministic, and
    the counts always sum to ``total`` exactly.
    """
    ranks = [contract_shards + 1] + list(range(1, contract_shards + 1))
    weights = [1.0 / rank**alpha for rank in ranks]
    scale = total / sum(weights)
    quotas = [weight * scale for weight in weights]
    counts = [int(quota) for quota in quotas]
    remainders = sorted(
        range(len(quotas)),
        key=lambda s: (-(quotas[s] - counts[s]), s),
    )
    for s in remainders[: total - sum(counts)]:
        counts[s] += 1
    return counts


def streaming_powerlaw_contract_workload(
    total_txs: int,
    contract_shards: int,
    alpha: float = 1.0,
    fee_low: int = 1,
    fee_high: int = 100,
    seed: int | None = None,
    senders_per_shard: int | None = None,
) -> TxStream:
    """A Zipf-skewed contract workload as a bounded-memory stream.

    The hotspot generator behind the telemetry walkthrough: contract
    shard ``k`` receives a ``1 / k**alpha`` share of the calls (shard 1
    is the hot shard; ``alpha=0`` degenerates to uniform), with direct
    transfers the coldest slice. Emission order is a deterministic
    error-diffusion interleave — at every prefix each slice has
    received its proportional share, rounded — so *paced* streaming
    injection offers each shard its steady-state rate instead of
    firehosing slices one at a time (see
    :func:`streaming_uniform_contract_workload` on why order matters).

    ``senders_per_shard`` bounds each slice's account population with
    the same strictly decreasing fee ladder (and the same loud refusal
    when the hot slice's nonce chains would outrun the ladder) as the
    uniform stream.
    """
    if total_txs < 0:
        raise WorkloadError("total_txs cannot be negative")
    if contract_shards < 1:
        raise WorkloadError("powerlaw workload needs at least one contract shard")
    if alpha < 0:
        raise WorkloadError(f"alpha cannot be negative: {alpha}")
    if senders_per_shard is not None and senders_per_shard < 1:
        raise WorkloadError("senders_per_shard must be positive")
    shard_slots = contract_shards + 1
    counts = _powerlaw_counts(total_txs, contract_shards, alpha)
    contracts = tuple(
        _contract_address(index + 1) for index in range(contract_shards)
    )
    fee_span = fee_high - fee_low + 1
    if senders_per_shard is not None:
        depth = -(-max(counts) // senders_per_shard)  # ceil division
        if depth > fee_span:
            raise WorkloadError(
                f"senders_per_shard={senders_per_shard} gives the hot "
                f"shard's senders up to {depth} nonces but the fee ladder "
                f"only spans {fee_span} rungs ({fee_low}..{fee_high}); use "
                f"at least {-(-max(counts) // fee_span)} senders per shard"
            )

    def slot(i: int) -> int:
        return i if senders_per_shard is None else i % senders_per_shard

    def fee_of(i: int, drawn: int) -> int:
        if senders_per_shard is None:
            return drawn
        return fee_high - (i // senders_per_shard) % fee_span

    def factory() -> Iterator[Transaction]:
        builder = WorkloadBuilder(seed=seed)
        fee_iter = uniform_fee_stream(fee_low, fee_high, seed=seed)

        def make(shard_slot: int, pos: int) -> Transaction:
            fee = fee_of(pos, next(fee_iter))
            if shard_slot == 0:
                return builder.direct_transfer(
                    _user_address(f"pmax-{seed}-{slot(pos)}"),
                    _user_address(f"pmaxdst-{seed}-{slot(pos)}"),
                    fee=fee,
                )
            return builder.contract_call(
                _user_address(f"p{shard_slot}-{seed}-{slot(pos)}"),
                contracts[shard_slot - 1],
                fee=fee,
            )

        # Error-diffusion interleave: after g emissions, slice s has
        # emitted round(counts[s] * g / total) ± 1 — emit next from the
        # slice furthest behind its proportional quota (ties to the
        # lower slot). Deterministic, no RNG draw.
        emitted = [0] * shard_slots
        for g in range(total_txs):
            deficit, pick = None, 0
            for s in range(shard_slots):
                lag = counts[s] * (g + 1) - emitted[s] * total_txs
                if emitted[s] < counts[s] and (deficit is None or lag > deficit):
                    deficit, pick = lag, s
            yield make(pick, emitted[pick])
            emitted[pick] += 1

    population = (
        "" if senders_per_shard is None else f", senders={senders_per_shard}"
    )
    return TxStream(
        total=total_txs,
        contracts=contracts,
        shard_counts={index: count for index, count in enumerate(counts)},
        factory=factory,
        description=(
            f"powerlaw_contract(total={total_txs}, shards={contract_shards}, "
            f"alpha={alpha:g}, seed={seed}{population})"
        ),
    )


def streaming_single_shard_workload(
    count: int,
    fee_low: int = 1,
    fee_high: int = 100,
    seed: int | None = None,
) -> TxStream:
    """:func:`single_shard_workload` as a bounded-memory stream."""
    if count < 0:
        raise WorkloadError("count cannot be negative")
    contract = _contract_address(1)

    def factory() -> Iterator[Transaction]:
        builder = WorkloadBuilder(seed=seed)
        fee_iter = uniform_fee_stream(fee_low, fee_high, seed=seed)
        for i in range(count):
            yield builder.contract_call(
                _user_address(f"solo-{seed}-{i}"), contract, fee=next(fee_iter)
            )

    return TxStream(
        total=count,
        contracts=(contract,),
        shard_counts={0: 0, 1: count},
        factory=factory,
        description=f"single_shard(count={count}, seed={seed})",
    )


def small_shard_workload(
    total_txs: int,
    shard_count: int,
    small_shard_sizes: list[int],
    fee_low: int = 1,
    fee_high: int = 100,
    seed: int | None = None,
) -> tuple[list[Transaction], dict[int, int]]:
    """The Sec. VI-C workload: some deliberately tiny shards.

    ``small_shard_sizes`` fixes the transaction count of the first
    ``len(small_shard_sizes)`` contract shards (the paper injects 1-9
    each); the remaining transactions spread evenly over the other
    contract shards ("more than 22 transactions into a regular shard").
    Returns the transactions plus the intended size of every contract
    shard (keyed by shard index starting at 1; the MaxShard gets none
    here, matching the experiment's pure-contract traffic).
    """
    small_count = len(small_shard_sizes)
    if shard_count <= small_count:
        raise WorkloadError(
            f"need more shards ({shard_count}) than small shards ({small_count})"
        )
    small_total = sum(small_shard_sizes)
    if small_total > total_txs:
        raise WorkloadError("small shards cannot hold more than the whole workload")
    regular_count = shard_count - small_count
    regular_counts = _per_shard_counts(total_txs - small_total, regular_count)

    sizes: dict[int, int] = {}
    for index, size in enumerate(small_shard_sizes, start=1):
        sizes[index] = size
    for index, size in enumerate(regular_counts, start=small_count + 1):
        sizes[index] = size

    builder = WorkloadBuilder(seed=seed)
    fees = uniform_fees(total_txs, fee_low, fee_high, seed=seed)
    fee_iter = iter(fees)
    txs: list[Transaction] = []
    for shard_index, size in sizes.items():
        contract = _contract_address(shard_index)
        for i in range(size):
            sender = _user_address(f"c{shard_index}-{seed}-{i}")
            txs.append(builder.contract_call(sender, contract, fee=next(fee_iter)))
    return txs, sizes


def three_input_workload(
    count: int,
    inputs: int = 3,
    fee_low: int = 1,
    fee_high: int = 100,
    seed: int | None = None,
) -> list[Transaction]:
    """The Fig. 4(b) workload: transactions whose validation reads
    ``inputs`` accounts ("All the injected transactions have 3 inputs").

    In our design these are multi-account transfers routed to the
    MaxShard (zero cross-shard communication); ChainSpace scatters them
    randomly and pays S-BAC consensus per foreign input shard.
    """
    if inputs < 1:
        raise WorkloadError("a transaction needs at least one input")
    builder = WorkloadBuilder(seed=seed)
    fees = uniform_fees(count, fee_low, fee_high, seed=seed)
    txs: list[Transaction] = []
    for i in range(count):
        sender = _user_address(f"multi-{seed}-{i}")
        recipient = _user_address(f"multidst-{seed}-{i}")
        extra = tuple(
            _user_address(f"input-{seed}-{i}-{k}") for k in range(inputs - 1)
        )
        txs.append(
            builder.direct_transfer(
                sender, recipient, fee=fees[i], extra_inputs=extra
            )
        )
    return txs


def single_shard_workload(
    count: int,
    fees: list[int] | None = None,
    seed: int | None = None,
) -> list[Transaction]:
    """The Fig. 3(h)/Fig. 5(b) workload: one contract, many transactions.

    All senders invoke the same contract, so the whole workload lands in
    one shard and the intra-shard selection game is the only lever.
    """
    if fees is None:
        fees = uniform_fees(count, seed=seed)
    if len(fees) != count:
        raise WorkloadError(f"{len(fees)} fees for {count} transactions")
    builder = WorkloadBuilder(seed=seed)
    contract = _contract_address(1)
    return [
        builder.contract_call(
            _user_address(f"solo-{seed}-{i}"), contract, fee=fees[i]
        )
        for i in range(count)
    ]
