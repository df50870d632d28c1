"""Offline pay-per-query metering with tamper-evident usage logs.

Paper Section III-C: a pay-per-query business model "is much more difficult
to implement as the model is now replicated on a large number of end-user's
devices that might not even be connected to the internet the moment they are
evaluating the model.  We could offer prepaid packages where the user
purchases the right to perform a certain number of model calls.  … Doing
this in a secure offline way on untrusted hardware is however not trivial."

We implement the practical software-only approximation:

* the backend issues signed :class:`QuotaGrant` tokens (prepaid packages);
* the on-device :class:`UsageLedger` appends one HMAC-chained entry per
  query, so any retroactive edit or deletion breaks the chain;
* fleet-scale serving uses :meth:`UsageLedger.record_batch`, which consumes
  quota for ``n`` queries in O(#grants) by appending *aggregated* chain
  entries carrying an explicit ``count`` — the count is covered by the MAC,
  so batching loses none of the tamper evidence;
* quota enforcement denies queries beyond the granted amount while offline;
* on reconnection the ledger is uploaded and verified by the backend
  (:class:`BillingBackend`), which detects tampering, double-spends and
  replay, and produces revenue reports.

Every chain MAC covers :func:`entry_payload`, whose bytes *are*
``json.dumps(body, sort_keys=True)``.  For an exact ``int`` index and count,
exact ``str`` grant id / model name / previous MAC and a finite exact
``float`` timestamp it formats those bytes from a string template (strings
through ``json.encoder.encode_basestring_ascii``, which ``json.dumps`` uses
under ``ensure_ascii``; ints through ``int.__format__``; the timestamp
through ``float.__repr__``) at about a quarter of ``json.dumps``' cost —
metering is most of an unmonitored serving window.  Bools, NumPy scalars,
int or str timestamps, nan/±inf and non-``str`` ids fall back to the
``json.dumps`` body, which is the spec.

A genuinely tamper-*proof* meter requires secure hardware (the paper cites
an offline-payment system [30]); DESIGN.md documents this substitution.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "QuotaGrant",
    "LedgerEntry",
    "UsageLedger",
    "LedgerHead",
    "QuotaExceededError",
    "PricingPlan",
    "entry_payload",
]


class QuotaExceededError(RuntimeError):
    """Raised when a device attempts a query beyond its prepaid quota."""


@dataclass(frozen=True)
class PricingPlan:
    """Per-model pricing: price per query and prepaid package sizes."""

    model_name: str
    price_per_query: float = 0.0015  # mirrors the $1.50 / 1000 queries example
    package_sizes: Tuple[int, ...] = (1000, 10000, 100000)

    def package_price(self, n_queries: int) -> float:
        """Price of a prepaid package of ``n_queries``."""
        return round(self.price_per_query * n_queries, 6)


@dataclass(frozen=True)
class QuotaGrant:
    """A signed prepaid package issued by the backend to one device."""

    grant_id: str
    device_id: str
    model_name: str
    n_queries: int
    signature: str

    def payload(self) -> bytes:
        return json.dumps(
            {
                "grant_id": self.grant_id,
                "device_id": self.device_id,
                "model_name": self.model_name,
                "n_queries": self.n_queries,
            },
            sort_keys=True,
        ).encode()

    @staticmethod
    def sign(grant_id: str, device_id: str, model_name: str, n_queries: int, key: bytes) -> "QuotaGrant":
        """Create a grant signed with the backend's key."""
        unsigned = QuotaGrant(grant_id, device_id, model_name, n_queries, signature="")
        sig = hmac.new(key, unsigned.payload(), hashlib.sha256).hexdigest()
        return QuotaGrant(grant_id, device_id, model_name, n_queries, signature=sig)

    def verify(self, key: bytes) -> bool:
        """Verify the backend signature."""
        expected = hmac.new(key, self.payload(), hashlib.sha256).hexdigest()
        return hmac.compare_digest(expected, self.signature)


_INF = float("inf")


def entry_payload(
    index: int,
    grant_id: str,
    model_name: str,
    timestamp: float,
    prev_mac: str,
    count: int = 1,
) -> bytes:
    """Canonical MAC payload of a ledger entry: ``json.dumps(body,
    sort_keys=True).encode()``, via the byte-identical template for the
    common argument types (see the module docstring).

    ``count`` is only serialized when it differs from 1, which keeps the
    payload (and therefore every MAC) of classic single-query entries
    byte-identical to the pre-batching format.  Aggregated batch entries
    include their count, so a tampered count always breaks the chain.
    """
    if (
        type(index) is type(count) is int
        and type(grant_id) is type(model_name) is type(prev_mac) is str
        and type(timestamp) is float
        and -_INF < timestamp < _INF
    ):
        # json.dumps' sorted keys and ", " / ": " separators, spelled out.
        body = (
            f'"grant_id": {_quote(grant_id)}, "index": {index}, "model_name": {_quote(model_name)}, '
            f'"prev_mac": {_quote(prev_mac)}, "timestamp": {timestamp!r}}}'
        )
        return ("{" + body if count == 1 else f'{{"count": {count}, ' + body).encode()
    body: Dict[str, object] = {
        "index": index,
        "grant_id": grant_id,
        "model_name": model_name,
        "timestamp": timestamp,
        "prev_mac": prev_mac,
    }
    if count != 1:
        body["count"] = count
    return json.dumps(body, sort_keys=True).encode()


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One metered query — or an aggregated batch of ``count`` queries —
    in the hash chain."""

    index: int
    grant_id: str
    model_name: str
    timestamp: float
    prev_mac: str
    mac: str
    count: int = 1

    def __reduce__(self):
        # Rebuilt positionally: sharded workers pickle segments back and
        # canaries deep-copy ledgers, and the slots dataclass' per-field
        # ``__getstate__`` / ``__setstate__`` would make both ~2.5x slower.
        return type(self), (self.index, self.grant_id, self.model_name, self.timestamp,
                            self.prev_mac, self.mac, self.count)

    def payload(self, prev_mac: str) -> bytes:
        return entry_payload(
            self.index, self.grant_id, self.model_name, self.timestamp, prev_mac, self.count
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form for durable segment persistence.

        The round-trip is exact (``timestamp`` survives float64 JSON
        encoding bit-for-bit), so a rehydrated entry MAC-verifies against
        the same device key — :meth:`UsageLedger.append_segment` re-checks
        every MAC on restore, making tampered persisted segments
        unappendable."""
        return {
            "index": self.index,
            "grant_id": self.grant_id,
            "model_name": self.model_name,
            "timestamp": self.timestamp,
            "prev_mac": self.prev_mac,
            "mac": self.mac,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LedgerEntry":
        return cls(
            index=int(payload["index"]),
            grant_id=str(payload["grant_id"]),
            model_name=str(payload["model_name"]),
            timestamp=float(payload["timestamp"]),
            prev_mac=str(payload["prev_mac"]),
            mac=str(payload["mac"]),
            count=int(payload.get("count", 1)),
        )


class UsageLedger:
    """On-device, append-only, HMAC-chained usage log with quota enforcement.

    The device key is provisioned by the backend at enrollment time.  Every
    :meth:`record_query` appends an entry whose MAC covers the previous
    entry's MAC, forming a chain: deleting or editing any entry invalidates
    all subsequent MACs, which the backend detects at reconciliation.
    """

    GENESIS = "0" * 64

    # Where this object's ``entries`` list starts in the device's chain.  A
    # ledger holds the chain from genesis; only a :class:`LedgerHead`
    # overrides these (per instance) with its parent's length and head MAC.
    _base_index = 0
    _base_mac = GENESIS

    def __init__(self, device_id: str, device_key: bytes) -> None:
        self.device_id = device_id
        self._key = bytes(device_key)
        self.entries: List[LedgerEntry] = []
        self.grants: Dict[str, QuotaGrant] = {}
        self._used_per_grant: Dict[str, int] = {}
        self._clock = 0.0

    # -- grants ------------------------------------------------------------
    def add_grant(self, grant: QuotaGrant, backend_key: Optional[bytes] = None) -> None:
        """Install a prepaid package.  Optionally verify the backend signature."""
        if grant.device_id != self.device_id:
            raise ValueError("grant issued to a different device")
        if backend_key is not None and not grant.verify(backend_key):
            raise ValueError("invalid grant signature")
        if grant.grant_id in self.grants:
            raise ValueError(f"grant {grant.grant_id} already installed")
        self.grants[grant.grant_id] = grant
        self._used_per_grant[grant.grant_id] = 0

    def remaining(self, model_name: Optional[str] = None) -> int:
        """Remaining prepaid queries (optionally for one model)."""
        total = 0
        for grant in self.grants.values():
            if model_name is not None and grant.model_name != model_name:
                continue
            total += max(0, grant.n_queries - self._used_per_grant[grant.grant_id])
        return total

    # -- metering ---------------------------------------------------------
    def _next_mac(
        self,
        entry_index: int,
        grant_id: str,
        model_name: str,
        timestamp: float,
        prev_mac: str,
        count: int = 1,
    ) -> str:
        payload = entry_payload(entry_index, grant_id, model_name, timestamp, prev_mac, count)
        return hmac.new(self._key, payload, hashlib.sha256).hexdigest()

    def _append_entry(self, grant_id: str, model_name: str, timestamp: Optional[float], count: int) -> LedgerEntry:
        self._clock += float(count)
        ts = timestamp if timestamp is not None else self._clock
        prev_mac = self.head_mac()
        index = self._base_index + len(self.entries)
        mac = self._next_mac(index, grant_id, model_name, ts, prev_mac, count)
        entry = LedgerEntry(index, grant_id, model_name, ts, prev_mac, mac, count)
        self.entries.append(entry)
        self._used_per_grant[grant_id] += count
        return entry

    def record_query(self, model_name: str, timestamp: Optional[float] = None) -> LedgerEntry:
        """Meter one query, consuming quota from the oldest matching grant.

        Raises :class:`QuotaExceededError` when no quota remains — the
        application denies the inference in that case (paper Sec. III-C).
        """
        grant_id = None
        for gid, grant in self.grants.items():
            if grant.model_name == model_name and self._used_per_grant[gid] < grant.n_queries:
                grant_id = gid
                break
        if grant_id is None:
            raise QuotaExceededError(f"no remaining quota for model {model_name!r} on {self.device_id}")
        return self._append_entry(grant_id, model_name, timestamp, count=1)

    def record_batch(self, model_name: str, n: int, timestamp: Optional[float] = None, partial: bool = True) -> int:
        """Meter up to ``n`` queries at once; returns the number granted.

        Quota is consumed across grants oldest-first, exactly like ``n``
        successive :meth:`record_query` calls, but the ledger grows by one
        aggregated, MAC-chained entry *per consumed grant* instead of one
        entry per query — O(#grants) work and ledger size instead of O(n).

        With ``partial=True`` (the serving-path semantics) the batch is
        truncated to the remaining quota and the granted count is returned,
        mirroring a per-query loop that denies each query past exhaustion.
        With ``partial=False`` the call raises :class:`QuotaExceededError`
        without consuming anything unless the full batch fits.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if n == 0:
            return 0
        if not partial and self.remaining(model_name) < n:
            raise QuotaExceededError(
                f"quota for model {model_name!r} on {self.device_id} cannot cover a batch of {n}"
            )
        granted = 0
        for gid, grant in self.grants.items():
            if granted >= n:
                break
            if grant.model_name != model_name:
                continue
            available = grant.n_queries - self._used_per_grant[gid]
            if available <= 0:
                continue
            take = min(available, n - granted)
            self._append_entry(gid, model_name, timestamp, count=take)
            granted += take
        return granted

    def used(self, model_name: Optional[str] = None) -> int:
        """Number of metered queries (optionally per model)."""
        return sum(e.count for e in self.entries if model_name is None or e.model_name == model_name)

    # -- shard segments ----------------------------------------------------
    def head_mac(self) -> str:
        """The chain head: the last entry's MAC, or GENESIS when empty."""
        return self.entries[-1].mac if self.entries else self._base_mac

    def fork_head(self) -> "LedgerHead":
        """A :class:`LedgerHead` of this ledger: all a worker needs to meter.

        A sharded worker only ever calls :meth:`record_batch` and ships back
        what it appended, so it gets the chain *head* — O(#grants) bytes
        however long the history is — meters on it, and returns
        ``head.export_segment(0)``; the parent re-chains that with
        :meth:`append_segment`, which validates it exactly as it would a
        segment metered on a full copy.
        """
        return LedgerHead(self)

    def export_segment(self, start: int) -> List[LedgerEntry]:
        """The entries appended since this object held ``start`` of them
        (on a :class:`LedgerHead`, ``export_segment(0)`` is everything
        metered since the fork)."""
        if not 0 <= start <= len(self.entries):
            raise ValueError(f"segment start {start} outside chain of length {len(self.entries)}")
        return list(self.entries[start:])

    def append_segment(self, entries: Sequence[LedgerEntry]) -> int:
        """Re-chain a segment produced by a forked copy of this ledger.

        The segment must extend this ledger's chain exactly: each entry's
        index must continue the chain, its ``prev_mac`` must equal the
        current head, its MAC must verify under this device's key and its
        grant must be installed.  On success the entries are appended and
        the per-grant quota counters and metering clock advance exactly as
        if :meth:`record_batch` had produced them here — so a merged ledger
        is byte-identical to one that metered the same windows in-process.
        Raises :class:`ValueError` (appending nothing) on any mismatch; a
        torn merge can therefore never happen mid-segment, because the
        whole segment is validated before the first append.
        """
        entries = list(entries)
        prev_mac = self.head_mac()
        index = len(self.entries)
        for entry in entries:
            if entry.index != index or entry.prev_mac != prev_mac:
                raise ValueError(
                    f"segment entry {entry.index} does not extend the chain of {self.device_id!r}"
                )
            expected = hmac.new(self._key, entry.payload(prev_mac), hashlib.sha256).hexdigest()
            if not hmac.compare_digest(expected, entry.mac):
                raise ValueError(f"segment entry {entry.index} has an invalid MAC for {self.device_id!r}")
            if entry.grant_id not in self.grants:
                raise ValueError(f"segment entry {entry.index} consumes unknown grant {entry.grant_id!r}")
            prev_mac = entry.mac
            index += 1
        for entry in entries:
            self.entries.append(entry)
            self._used_per_grant[entry.grant_id] += entry.count
            self._clock += float(entry.count)
        return len(entries)

    # -- verification -----------------------------------------------------
    def verify_chain(self, key: Optional[bytes] = None) -> bool:
        """Recompute every MAC; False if any entry was altered or removed."""
        key = key if key is not None else self._key
        prev_mac = self.GENESIS
        for i, entry in enumerate(self.entries):
            if entry.index != i or entry.prev_mac != prev_mac:
                return False
            expected = hmac.new(key, entry.payload(prev_mac), hashlib.sha256).hexdigest()
            if not hmac.compare_digest(expected, entry.mac):
                return False
            prev_mac = entry.mac
        return True

    def export(self) -> Dict[str, object]:
        """Serializable sync payload (entries + installed grants), built
        from fresh dicts: editing an export never touches the ledger."""
        return {
            "device_id": self.device_id,
            "entries": [e.to_dict() for e in self.entries],
            "grants": {gid: dict(vars(g)) for gid, g in self.grants.items()},
        }


class LedgerHead(UsageLedger):
    """The head of a ledger's chain: device key, grants, per-grant usage,
    clock, next index and head MAC — enough to *meter*, never to *audit*.

    :meth:`record_batch` / :meth:`record_query` extend the parent's chain
    byte-for-byte as the parent itself would have (``entries`` holds only
    what was metered since :meth:`UsageLedger.fork_head`).  Everything that
    needs the history raises, so a head can never pass for a ledger.
    """

    def __init__(self, ledger: UsageLedger) -> None:
        super().__init__(ledger.device_id, ledger._key)
        self.grants = dict(ledger.grants)
        self._used_per_grant = dict(ledger._used_per_grant)
        self._clock = ledger._clock
        self._base_index = ledger._base_index + len(ledger.entries)
        self._base_mac = ledger.head_mac()

    def _needs_history(self, *args, **kwargs):
        raise TypeError(f"ledger head of {self.device_id!r} holds no chain history")

    used = append_segment = verify_chain = export = _needs_history
