"""Batched relay: amortize the tag search over up to *k* wake-ups per exit.

The per-wait relay policies walk the tag structures once per monitor exit
and wake at most one thread, so waking *n* ready threads costs *n* searches.
On hot paths where a single state change satisfies many waiters at once
(a large ``put_many``, a barrier opening, a score jump past several
thresholds) that repeated search dominates.  This policy performs one search
per exit but signals up to ``batch_limit`` ready waiters found along the
way, via the condition manager's ``signal_many`` primitive — the search cost
is amortized over the whole batch.

The relay-invariance guarantee is unchanged: a batch search that signals
nobody has exhaustively established that no waiting predicate holds, exactly
like ``relay_signal``, so validate mode applies verbatim.  Waking several
threads can only add spurious wake-ups (each woken thread still re-checks
its predicate), never lose signals.
"""

from __future__ import annotations

from repro.core.signalling.base import RelayPolicyBase
from repro.core.signalling.registry import register_policy

__all__ = ["BatchedRelayPolicy", "DEFAULT_BATCH_LIMIT"]

#: Default number of waiters one exit may wake.
DEFAULT_BATCH_LIMIT = 4


@register_policy
class BatchedRelayPolicy(RelayPolicyBase):
    """Tag-directed relay that signals up to ``batch_limit`` waiters per exit."""

    name = "relay_batched"
    description = "tag-directed relay, up to k ready waiters woken per exit"
    use_tags = True

    def __init__(self, batch_limit: int = DEFAULT_BATCH_LIMIT) -> None:
        super().__init__()
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        self.batch_limit = batch_limit

    def relay(self) -> bool:
        return self._manager.signal_many(self.batch_limit) > 0

    def describe(self) -> str:
        return f"{self.description} (k={self.batch_limit})"
