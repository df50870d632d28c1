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

A ledger must fit in device memory until the next sync, so a
:class:`UsageLedger` stores its chain as columns rather than one object per
entry: the raw 32-byte HMAC of each entry as one row of a ``bytearray``, its
timestamp in an ``array('d')``, its query count in an ``array('q')`` and the
id of its (grant id, model name) pair in an ``array('I')`` over a small
intern table.  Metering 20 000 entries retains about 53 bytes an entry,
over-allocation included, where a list of :class:`LedgerEntry` objects with
their hex MACs, boxed timestamps and boxed indices retained about 245
(``tracemalloc``; ``tests/billing/test_ledger_columns.py``).  An entry's index
is its position and its ``prev_mac`` the row before it (``GENESIS`` for the
first), so neither is stored; the head MAC's hex string is kept because the
next entry's payload needs it.  Metering, ``used``, ``verify_chain`` and
``export`` read and write the columns directly.  ``ledger.entries`` is a
read-only view that builds :class:`LedgerEntry` objects on access, equal
field for field to the ones the chain was metered as.

The chain rules live in one place, :func:`verify_rows`, and every verifier
calls it (``verify_chain``, ``append_segment``, the backend's
``reconcile``): the device refuses the chains the backend refuses.

:class:`LedgerEntry` stays the type that entries travel in between ledgers:
the segments a sharded worker ships back (:meth:`UsageLedger.export_segment`
/ :meth:`UsageLedger.append_segment`) and durable segment persistence
(``to_dict`` / ``from_dict``).  An entry's exported dict, its persisted
record and every MAC are the same bytes either way.

A genuinely tamper-*proof* meter requires secure hardware (the paper cites
an offline-payment system [30]); DESIGN.md documents this substitution.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Tuple

__all__ = [
    "QuotaGrant",
    "LedgerEntry",
    "UsageLedger",
    "LedgerHead",
    "QuotaExceededError",
    "PricingPlan",
    "entry_payload",
    "verify_rows",
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
    in the hash chain.

    A ledger does not hold these: it stores its chain as columns and builds
    an entry when ``ledger.entries`` is read.  Entries are how a chain
    segment travels — from a sharded worker back to its parent ledger
    (:meth:`UsageLedger.append_segment`) and to and from durable storage
    (:meth:`to_dict` / :meth:`from_dict`)."""

    index: int
    grant_id: str
    model_name: str
    timestamp: float
    prev_mac: str
    mac: str
    count: int = 1

    def __reduce__(self):
        # Rebuilt positionally: sharded workers pickle segments back, and
        # the slots dataclass' per-field ``__getstate__`` / ``__setstate__``
        # would make that ~2.5x slower.
        return type(self), (self.index, self.grant_id, self.model_name, self.timestamp,
                            self.prev_mac, self.mac, self.count)

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


_ROW = 32  # bytes of one raw HMAC-SHA256 row


def _hmac(key: bytes, payload: bytes) -> bytes:
    return hmac.digest(key, payload, "sha256")


def verify_rows(key: bytes, base_index: int, base_mac: str, rows: Iterable[tuple]) -> Optional[int]:
    """The position of the first of ``rows`` (each a :class:`LedgerEntry`'s
    fields, in order) that breaks the chain rules, or ``None``: row ``i``
    needs index ``base_index + i``, ``prev_mac`` equal to the running head
    (``base_mac``, then each row's MAC), an ``int`` count of at least 1, and
    an ASCII ``str`` MAC equal to the HMAC of :func:`entry_payload` at that
    *position and head*, not at the index and ``prev_mac`` the row claims."""
    head = base_mac
    for i, (index, grant_id, model_name, timestamp, prev_mac, mac, count) in enumerate(rows):
        position = base_index + i
        if index != position or prev_mac != head or type(count) is not int or count < 1:
            return i
        try:
            expected = _hmac(key, entry_payload(position, grant_id, model_name, timestamp, head, count))
            if not hmac.compare_digest(expected.hex(), mac):
                return i
        except (TypeError, ValueError):  # a field json.dumps cannot encode; a MAC that is no ASCII str
            return i
        head = mac
    return None


class _EntryView(Sequence):
    """``ledger.entries``: the ledger's chain columns read as
    :class:`LedgerEntry` objects, built on access.  Read-only and live (it
    grows with the ledger); ``len`` is O(1), and it equals a list or view
    holding equal entries."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: "UsageLedger") -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self._ledger._counts)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        j = operator.index(i)
        j = j + n if j < 0 else j
        if not 0 <= j < n:
            raise IndexError("ledger entry index out of range")
        return self._ledger._entry(j)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return (LedgerEntry(*row) for row in self._ledger._rows(0, len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, _EntryView)):
            return list(self) == list(other)
        return NotImplemented


class UsageLedger:
    """On-device, append-only, HMAC-chained usage log with quota enforcement.

    The device key is provisioned by the backend at enrollment time.  Every
    :meth:`record_query` appends an entry whose MAC covers the previous
    entry's MAC, forming a chain: deleting or editing any entry invalidates
    all subsequent MACs, which the backend detects at reconciliation.

    The chain is stored as columns, entry ``i`` in row ``i`` of each:
    ``_macs`` (raw 32-byte MACs, one ``bytearray``), ``_timestamps``
    (``array('d')``), ``_counts`` (``array('q')``) and ``_pair_ids``
    (``array('I')``) indexing ``_pairs``, the (grant id, model name) pairs
    in order of first use.  ``entries`` is a read-only view of them as
    :class:`LedgerEntry` objects (see the module docstring).
    """

    GENESIS = "0" * 64

    # Where this object's chain columns start in the device's chain.  A
    # ledger holds the chain from genesis; only a :class:`LedgerHead`
    # overrides these (per instance) with its parent's length and head MAC.
    _base_index = 0
    _base_mac = GENESIS

    def __init__(self, device_id: str, device_key: bytes) -> None:
        self.device_id = device_id
        self._key = bytes(device_key)
        self._macs = bytearray()
        self._timestamps = array("d")
        self._counts = array("q")
        self._pair_ids = array("I")
        self._pairs: List[Tuple[str, str]] = []
        self._pair_id: Dict[Tuple[str, str], int] = {}
        self._head_hex = self._base_mac
        self.grants: Dict[str, QuotaGrant] = {}
        self._used_per_grant: Dict[str, int] = {}
        self._clock = 0.0

    @property
    def entries(self) -> _EntryView:
        """The chain as :class:`LedgerEntry` objects, built on access."""
        return _EntryView(self)

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

    # -- chain columns ------------------------------------------------------
    def _intern(self, grant_id: str, model_name: str) -> int:
        """The id of a (grant id, model name) pair, added on first use."""
        pair = (grant_id, model_name)
        pair_id = self._pair_id.get(pair)
        if pair_id is None:
            pair_id = self._pair_id[pair] = len(self._pairs)
            self._pairs.append(pair)
        return pair_id

    def _rows(self, start: int, stop: int) -> Iterator[tuple]:
        """``LedgerEntry`` fields of entries ``start:stop``, in field order."""
        hexes = self._macs[max(start - 1, 0) * _ROW: stop * _ROW].hex()
        # chain[i] is entry start+i's prev_mac and chain[i + 1] its MAC
        chain = [hexes[at: at + 2 * _ROW] for at in range(0, len(hexes), 2 * _ROW)]
        if not start:
            chain.insert(0, self._base_mac)
        pair_ids = self._pair_ids[start:stop]
        return zip(
            range(self._base_index + start, self._base_index + stop),
            [self._pairs[k][0] for k in pair_ids],
            [self._pairs[k][1] for k in pair_ids],
            self._timestamps[start:stop].tolist(),
            chain,
            chain[1:],
            self._counts[start:stop].tolist(),
        )

    def _entry(self, i: int) -> LedgerEntry:
        grant_id, model_name = self._pairs[self._pair_ids[i]]
        prev_mac = self._macs[(i - 1) * _ROW: i * _ROW].hex() if i else self._base_mac
        mac = self._macs[i * _ROW: (i + 1) * _ROW].hex()
        return LedgerEntry(self._base_index + i, grant_id, model_name, self._timestamps[i], prev_mac, mac, self._counts[i])

    # -- metering ---------------------------------------------------------
    def _append_entry(self, grant_id: str, model_name: str, timestamp: Optional[float], count: int) -> None:
        clock = self._clock + float(count)
        ts = timestamp if timestamp is not None else clock
        index = self._base_index + len(self._counts)
        mac = _hmac(self._key, entry_payload(index, grant_id, model_name, ts, self._head_hex, count))
        self._counts.append(count)  # first: the only append that can raise (a count past int64)
        self._timestamps.append(ts)
        self._pair_ids.append(self._intern(grant_id, model_name))
        self._macs += mac
        self._head_hex = mac.hex()
        self._clock = clock
        self._used_per_grant[grant_id] += count

    def record_query(self, model_name: str, timestamp: Optional[float] = None) -> LedgerEntry:
        """Meter one query, consuming quota from the oldest matching grant.

        Raises :class:`QuotaExceededError` when no quota remains — the
        application denies the inference in that case (paper Sec. III-C).
        An explicit ``timestamp`` is stored (and MACed) as a ``float``.
        """
        grant_id = None
        for gid, grant in self.grants.items():
            if grant.model_name == model_name and self._used_per_grant[gid] < grant.n_queries:
                grant_id = gid
                break
        if grant_id is None:
            raise QuotaExceededError(f"no remaining quota for model {model_name!r} on {self.device_id}")
        self._append_entry(grant_id, model_name, None if timestamp is None else float(timestamp), count=1)
        return self.entries[-1]

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
        without consuming anything unless the full batch fits.  An explicit
        ``timestamp`` is stored (and MACed) as a ``float``.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if n == 0:
            return 0
        if not partial and self.remaining(model_name) < n:
            raise QuotaExceededError(
                f"quota for model {model_name!r} on {self.device_id} cannot cover a batch of {n}"
            )
        if timestamp is not None:
            timestamp = float(timestamp)
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
        if model_name is None:
            return sum(self._counts)
        ids = {i for i, (_, model) in enumerate(self._pairs) if model == model_name}
        return sum(count for pair_id, count in zip(self._pair_ids, self._counts) if pair_id in ids)

    # -- shard segments ----------------------------------------------------
    def head_mac(self) -> str:
        """The chain head: the last entry's MAC, or GENESIS when empty."""
        return self._head_hex

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
        n = len(self._counts)
        if not 0 <= start <= n:
            raise ValueError(f"segment start {start} outside chain of length {n}")
        # A segment is about one window: row by row skips _rows' fixed cost.
        return [self._entry(i) for i in range(start, n)]

    def append_segment(self, entries: Sequence[LedgerEntry]) -> int:
        """Re-chain a segment produced by a forked copy of this ledger.

        The segment must extend this ledger's chain under :func:`verify_rows`
        (index, ``prev_mac`` link, a count of at least 1, and the MAC over
        the entry as the columns will hold it: ``float`` timestamp, ``int``
        count), and may use only installed grants, none past its
        ``n_queries`` (the backend's over-use rule).  On success the quota
        counters and metering clock advance as if :meth:`record_batch` had
        metered the entries here, so a merged ledger is byte-identical to an
        in-process one.  Otherwise raises :class:`ValueError` naming the
        entry, having stored nothing.
        """
        timestamps, counts, rows = array("d"), array("q"), []
        for entry in entries:  # typed first, as the columns will hold it
            try:
                timestamps.append(entry.timestamp)
                counts.append(entry.count)
            except (TypeError, OverflowError):  # a timestamp no float holds, a count no int64 holds
                raise ValueError(f"segment entry {entry.index} does not fit the ledger's columns") from None
            rows.append((entry.index, entry.grant_id, entry.model_name, timestamps[-1],
                         entry.prev_mac, entry.mac, counts[-1]))
        broken = verify_rows(self._key, self._base_index + len(self._counts), self._head_hex, rows)
        if broken is not None:
            raise ValueError(f"segment entry {rows[broken][0]} does not extend the chain of {self.device_id!r}")
        used = dict(self._used_per_grant)
        for index, grant_id, _, _, _, _, count in rows:
            grant = self.grants.get(grant_id)
            if grant is None or used[grant_id] + count > grant.n_queries:
                raise ValueError(f"segment entry {index} consumes unknown or exhausted grant {grant_id!r}")
            used[grant_id] += count
        for _, grant_id, model_name, _, _, mac, count in rows:
            self._pair_ids.append(self._intern(grant_id, model_name))
            self._macs += bytes.fromhex(mac)
            self._head_hex = mac
            self._clock += float(count)
        self._used_per_grant = used
        self._timestamps.extend(timestamps)
        self._counts.extend(counts)
        return len(rows)

    # -- verification -----------------------------------------------------
    def verify_chain(self, key: Optional[bytes] = None) -> bool:
        """Whether every entry passes :func:`verify_rows` (none altered or removed)."""
        key = key if key is not None else self._key
        return verify_rows(key, self._base_index, self._base_mac, self._rows(0, len(self._counts))) is None

    def export(self) -> Dict[str, object]:
        """Serializable sync payload (entries + installed grants), built
        from fresh dicts: editing an export never touches the ledger."""
        return {
            "device_id": self.device_id,
            "entries": [
                {"index": index, "grant_id": grant_id, "model_name": model_name, "timestamp": timestamp,
                 "prev_mac": prev_mac, "mac": mac, "count": count}
                for index, grant_id, model_name, timestamp, prev_mac, mac, count
                in self._rows(0, len(self._counts))
            ],
            "grants": {gid: dict(vars(g)) for gid, g in self.grants.items()},
        }


class LedgerHead(UsageLedger):
    """The head of a ledger's chain: device key, grants, per-grant usage,
    clock, next index and head MAC — enough to *meter*, never to *audit*.

    :meth:`record_batch` / :meth:`record_query` extend the parent's chain
    byte-for-byte as the parent itself would have (its columns hold only
    what was metered since :meth:`UsageLedger.fork_head`), and so does
    :meth:`append_segment`, which checks a segment against the head alone
    (a canary sandbox's heads take a sharded window's segments this way).
    Everything that needs the history raises, so a head can never pass for
    a ledger.
    """

    def __init__(self, ledger: UsageLedger) -> None:
        super().__init__(ledger.device_id, ledger._key)
        self.grants = dict(ledger.grants)
        self._used_per_grant = dict(ledger._used_per_grant)
        self._clock = ledger._clock
        self._base_index = ledger._base_index + len(ledger._counts)
        self._base_mac = self._head_hex = ledger.head_mac()

    def _needs_history(self, *args, **kwargs):
        raise TypeError(f"ledger head of {self.device_id!r} holds no chain history")

    used = verify_chain = export = _needs_history
