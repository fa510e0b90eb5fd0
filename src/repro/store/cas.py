"""The durable content-addressed snapshot store.

Virtine snapshots (Section 5.2) are what make microsecond-scale starts
possible, which makes the snapshot store the serving plane's single
most critical piece of shared state.  This store gives it the
properties a production store needs:

* **content addressing** -- snapshot pages are stored as chunks keyed
  by their sha256, so identical pages across images/captures are stored
  once (the dedup ratio is a first-class counter) and every read is
  self-verifying: a chunk whose bytes no longer hash to its key is
  *detected* corruption, never silently served;
* **refcounting** -- chunks are shared between snapshots via per-
  reference counts; dropping a snapshot frees exactly the chunks no
  other snapshot still references (conservation is a scrub invariant);
* **cold GC** -- unpinned, unleased snapshots are collected coldest-
  first; a restore in progress holds a *lease*, so GC can never yank
  pages out from under a concurrent COW restore;
* **write-ahead journaling** -- every mutation (put / drop / pin / gc /
  scrub / checkpoint) is journaled before it is applied, so a host
  crash at any record boundary recovers to a consistent, integrity-
  verified state (proven per-boundary by
  :mod:`repro.store.crashpoint`).

Hosted-runtime payloads are pickled into the journal when they can be;
a payload the host cannot serialize makes its snapshot *volatile*: it
is served while the process lives but deliberately dropped on recovery
(a half-durable snapshot restored without its runtime state would be a
silent correctness bug, so the store fails safe to a cold boot).
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.store.journal import CHECKPOINT_OP, Journal, JournalRecord, SimDisk, canonical_json
from repro.wasp.snapshot import Snapshot, SnapshotGone

__all__ = ["DurableSnapshotStore", "ScrubReport", "SnapshotGone", "chunk_hash"]


def chunk_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


@dataclass(frozen=True)
class _SnapshotMeta:
    """The durable description of one stored snapshot."""

    key: str
    image_name: str
    #: ``(page number, chunk hash)`` per captured page.
    manifest: tuple[tuple[int, str], ...]
    #: Pickled, base64'd architectural vCPU state.
    cpu_b64: str
    checksum: int
    hosted: bool
    #: Pickled hosted payload, or None (no payload / volatile payload).
    payload_b64: str | None
    #: True when the payload could not be serialized: the snapshot is
    #: served live but dropped on recovery.
    volatile: bool
    #: Journal sequence of the put that created this version (the
    #: coldness fallback after recovery, when recency is lost).
    put_seq: int

    def to_payload(self) -> dict:
        return {
            "key": self.key, "image": self.image_name,
            "manifest": [[page, chash] for page, chash in self.manifest],
            "cpu": self.cpu_b64, "checksum": self.checksum,
            "hosted": self.hosted, "payload": self.payload_b64,
            "volatile": self.volatile, "put_seq": self.put_seq,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "_SnapshotMeta":
        return cls(
            key=payload["key"], image_name=payload["image"],
            manifest=tuple((int(p), str(h)) for p, h in payload["manifest"]),
            cpu_b64=payload["cpu"], checksum=int(payload["checksum"]),
            hosted=bool(payload["hosted"]), payload_b64=payload["payload"],
            volatile=bool(payload["volatile"]),
            put_seq=int(payload["put_seq"]),
        )


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one integrity scrub pass."""

    #: Chunks whose bytes no longer hash to their key.
    corrupt_chunks: tuple[str, ...]
    #: Manifest references to chunks that do not exist.
    missing_chunks: tuple[str, ...]
    #: Snapshots dropped because a chunk they reference is bad.
    dropped_snapshots: tuple[str, ...]
    #: Refcount entries corrected to the recomputed value.
    refcount_repairs: int

    @property
    def clean(self) -> bool:
        return (not self.corrupt_chunks and not self.missing_chunks
                and not self.dropped_snapshots and self.refcount_repairs == 0)

    @property
    def repairs(self) -> int:
        return len(self.dropped_snapshots) + self.refcount_repairs


class DurableSnapshotStore:
    """Content-addressed, refcounted, journaled snapshot store.

    Drop-in for :class:`~repro.wasp.snapshot.SnapshotStore` (same
    ``get``/``put``/``drop``/``note_restore``/``__contains__`` surface
    plus the ``captures``/``restores``/``integrity_failures`` counters
    the hypervisor maintains), constructed over a :class:`SimDisk`
    medium.  Constructing it over a non-empty medium *is* recovery: the
    journal's valid prefix is replayed, a torn tail is discarded, and
    orphaned chunks are pruned.
    """

    backend = "durable"

    def __init__(
        self,
        medium: SimDisk | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int = 0,
        gc_keep: int = 8,
    ) -> None:
        self.medium = medium if medium is not None else SimDisk()
        self.journal = Journal(self.medium)
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        #: Auto-checkpoint period in journal records (0 = manual only).
        self.checkpoint_every = checkpoint_every
        #: Default snapshot count :meth:`gc` retains.
        self.gc_keep = gc_keep
        # -- content-addressed chunk plane --
        self._chunks: dict[str, bytes] = {}
        self._refs: dict[str, int] = {}
        # -- snapshot plane --
        self._meta: dict[str, _SnapshotMeta] = {}
        self._pinned: set[str] = set()
        self._leases: dict[str, int] = {}
        self._volatile_payloads: dict[str, object] = {}
        self._use_seq = 0
        self._last_used: dict[str, int] = {}
        self._applied_seq = -1
        # -- SnapshotStore-compatible counters --
        self.captures = 0
        self.restores = 0
        self.integrity_failures = 0
        # -- store counters --
        self.reads = 0
        self.dedup_hits = 0
        self.logical_bytes = 0
        self.gc_runs = 0
        self.gc_reclaimed_snapshots = 0
        self.gc_reclaimed_chunks = 0
        self.gc_reclaimed_bytes = 0
        self.gc_race_drops = 0
        self.scrub_passes = 0
        self.scrub_repairs = 0
        self.checkpoints = 0
        self.journal_replays = 0
        self.recovered_records = 0
        self.torn_records = 0
        self._recover()

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> None:
        records, discarded = self.journal.scan()
        self.torn_records = discarded
        if not records:
            return
        for record in records:
            self._apply(record)
        # Chunks journaled by snapshots that did not survive recovery
        # (volatile payloads, overwritten versions) are orphans now.
        self._prune_orphans()
        self.journal_replays = 1
        self.recovered_records = len(records)

    def reapply_journal(self) -> int:
        """Re-apply the full journal onto the live state (idempotency
        check: sequence guards make every already-applied record a
        no-op).  Returns how many records actually mutated state."""
        records, _ = self.journal.scan()
        applied = 0
        for record in records:
            if self._apply(record):
                applied += 1
        return applied

    # -- the write path ------------------------------------------------------
    def _journal(self, op: str, payload: dict, apply: bool = True) -> JournalRecord:
        record = self.journal.append(op, payload)
        if apply:
            self._apply(record)
        else:
            self._applied_seq = record.seq
        if (self.checkpoint_every and op != CHECKPOINT_OP
                and self.journal.appended % self.checkpoint_every == 0):
            self.checkpoint()
        return record

    def _apply(self, record: JournalRecord) -> bool:
        """Apply one journal record; no-op for already-applied seqs."""
        if record.seq <= self._applied_seq:
            return False
        self._applied_seq = record.seq
        payload = record.payload
        if record.op == "put":
            self._apply_put(payload)
        elif record.op == "drop":
            self._apply_drop(payload["key"])
        elif record.op == "gc":
            for key in payload["keys"]:
                self._apply_drop(key)
        elif record.op == "pin":
            if payload["key"] in self._meta:
                self._pinned.add(payload["key"])
        elif record.op == "unpin":
            self._pinned.discard(payload["key"])
        elif record.op == "scrub":
            for key in payload["dropped"]:
                self._apply_drop(key)
        elif record.op == CHECKPOINT_OP:
            self._load_state(payload["state"])
        return True

    def _apply_put(self, payload: dict) -> None:
        for chash, data_b64 in payload["chunks"].items():
            if chash not in self._chunks:
                self._chunks[chash] = _unb64(data_b64)
                self._refs.setdefault(chash, 0)
        meta = _SnapshotMeta.from_payload(payload)
        if meta.volatile and meta.key not in self._volatile_payloads:
            # Replay of a volatile-payload put: the runtime object is
            # gone with the old process, so the snapshot is dropped
            # (its chunks stay until the orphan prune).
            return
        old = self._meta.pop(meta.key, None)
        for _page, chash in meta.manifest:
            self._refs[chash] = self._refs.get(chash, 0) + 1
            # Logical-byte accounting lives here (not in :meth:`put`) so
            # a journal replay reconstructs the same dedup ratio.
            self.logical_bytes += len(self._chunks[chash])
        if old is not None:
            self._decref_manifest(old.manifest)
        self._meta[meta.key] = meta
        if payload.get("pin"):
            self._pinned.add(meta.key)

    def _apply_drop(self, key: str) -> None:
        meta = self._meta.pop(key, None)
        if meta is None:
            return
        self._decref_manifest(meta.manifest)
        self._pinned.discard(key)
        self._volatile_payloads.pop(key, None)
        self._last_used.pop(key, None)

    def _decref_manifest(self, manifest: tuple[tuple[int, str], ...]) -> None:
        for _page, chash in manifest:
            count = self._refs.get(chash, 0) - 1
            if count <= 0:
                self._refs.pop(chash, None)
                self._chunks.pop(chash, None)
            else:
                self._refs[chash] = count

    def _prune_orphans(self) -> None:
        for chash in [h for h, n in self._refs.items() if n == 0]:
            self._refs.pop(chash, None)
            self._chunks.pop(chash, None)

    # -- SnapshotStore surface -----------------------------------------------
    def put(self, key: str, snapshot: Snapshot, pin: bool = False) -> None:
        manifest: list[list[int | str]] = []
        new_chunks: dict[str, str] = {}
        for page in sorted(snapshot.pages):
            data = snapshot.pages[page]
            chash = chunk_hash(data)
            manifest.append([page, chash])
            if chash in self._chunks or chash in new_chunks:
                self.dedup_hits += 1
            else:
                new_chunks[chash] = _b64(data)
        payload_b64: str | None = None
        volatile = False
        if snapshot.hosted_payload is not None:
            try:
                payload_b64 = _b64(pickle.dumps(snapshot.hosted_payload))
            except Exception:
                volatile = True
        self._journal("put", {
            "key": key, "image": snapshot.image_name, "manifest": manifest,
            "cpu": _b64(pickle.dumps(snapshot.cpu_state)),
            "checksum": snapshot.checksum, "hosted": snapshot.hosted,
            "payload": payload_b64, "volatile": volatile,
            "chunks": new_chunks, "pin": pin,
            "put_seq": self.journal._next_seq,
        })
        if volatile:
            self._volatile_payloads[key] = snapshot.hosted_payload
            # The journaled record skipped the meta; install it live.
            meta = _SnapshotMeta.from_payload({
                "key": key, "image": snapshot.image_name,
                "manifest": manifest,
                "cpu": _b64(pickle.dumps(snapshot.cpu_state)),
                "checksum": snapshot.checksum, "hosted": snapshot.hosted,
                "payload": None, "volatile": True,
                "put_seq": self.journal._next_seq - 1,
            })
            old = self._meta.pop(key, None)
            for _page, chash in meta.manifest:
                self._refs[chash] = self._refs.get(chash, 0) + 1
                self.logical_bytes += len(self._chunks[chash])
            if old is not None:
                self._decref_manifest(old.manifest)
            self._meta[key] = meta
            if pin:
                self._pinned.add(key)
        self._use_seq += 1
        self._last_used[key] = self._use_seq
        self.captures += 1

    def get(self, key: str) -> Snapshot | None:
        meta = self._meta.get(key)
        if meta is None:
            return None
        if self.fault_plan.draw(FaultSite.STORE_GC_RACE, key):
            # Model the concurrent-GC race: the collector won between
            # the caller's pool acquire and this materialization.  The
            # drop is real (journaled), not a pretend failure.
            self._journal("gc", {"keys": [key]})
            self.gc_race_drops += 1
            raise SnapshotGone(key, "lost the race with the collector")
        pages: dict[int, bytes] = {}
        for page, chash in meta.manifest:
            data = self._chunks.get(chash)
            if data is None:
                raise SnapshotGone(key, f"chunk {chash[:12]} missing")
            pages[page] = data
        self.reads += 1
        self._use_seq += 1
        self._last_used[key] = self._use_seq
        if key in self._volatile_payloads:
            payload = self._volatile_payloads[key]
        elif meta.payload_b64 is not None:
            payload = pickle.loads(_unb64(meta.payload_b64))
        else:
            payload = None
        return Snapshot(
            image_name=meta.image_name, pages=pages,
            cpu_state=pickle.loads(_unb64(meta.cpu_b64)),
            hosted_payload=payload, hosted=meta.hosted,
            checksum=meta.checksum,
        )

    def drop(self, key: str) -> None:
        if key in self._meta:
            self._journal("drop", {"key": key})

    def note_restore(self) -> None:
        self.restores += 1

    def __contains__(self, key: str) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return len(self._meta)

    # -- pinning & leases ----------------------------------------------------
    def pin(self, key: str) -> None:
        """Exempt ``key`` from garbage collection."""
        if key not in self._meta:
            raise KeyError(key)
        self._journal("pin", {"key": key})

    def unpin(self, key: str) -> None:
        if key in self._pinned:
            self._journal("unpin", {"key": key})

    def pinned(self) -> frozenset[str]:
        return frozenset(self._pinned)

    @contextmanager
    def lease(self, key: str) -> Iterator[None]:
        """Hold ``key`` against GC for the duration (a restore in
        progress -- notably a COW restore whose pages are still being
        materialized -- must never lose its chunks mid-copy).  Leases
        are runtime state, not journaled: a host crash drops them, and
        the restore they protected died with the process."""
        self._leases[key] = self._leases.get(key, 0) + 1
        try:
            yield
        finally:
            count = self._leases.get(key, 1) - 1
            if count <= 0:
                self._leases.pop(key, None)
            else:
                self._leases[key] = count

    def leased(self, key: str) -> bool:
        return self._leases.get(key, 0) > 0

    # -- garbage collection --------------------------------------------------
    def gc(self, keep: int | None = None) -> tuple[str, ...]:
        """Collect cold snapshots down to ``keep`` resident, coldest
        first.  Pinned and leased snapshots are never candidates."""
        keep = self.gc_keep if keep is None else keep
        candidates = sorted(
            (key for key in self._meta
             if key not in self._pinned and not self.leased(key)),
            key=lambda key: (self._last_used.get(key, 0),
                             self._meta[key].put_seq, key),
        )
        excess = len(self._meta) - keep
        victims = tuple(candidates[:max(0, excess)])
        if victims:
            chunks_before = len(self._chunks)
            bytes_before = sum(len(c) for c in self._chunks.values())
            self._journal("gc", {"keys": list(victims)})
            self.gc_reclaimed_snapshots += len(victims)
            self.gc_reclaimed_chunks += chunks_before - len(self._chunks)
            self.gc_reclaimed_bytes += (
                bytes_before - sum(len(c) for c in self._chunks.values())
            )
        self.gc_runs += 1
        return victims

    # -- integrity -----------------------------------------------------------
    def corrupt_chunk(self, chash: str | None = None) -> str | None:
        """Flip one bit of a stored chunk (the chaos plane's bit rot).

        Deliberately *not* journaled: rot is not a mutation the store
        performed, it is damage the scrub/verify paths must detect."""
        if not self._chunks:
            return None
        victim = chash if chash is not None else min(self._chunks)
        data = bytearray(self._chunks[victim])
        data[0] ^= 0x01
        self._chunks[victim] = bytes(data)
        return victim

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Verify every chunk hash, manifest reference, and refcount.

        With ``repair``, snapshots referencing corrupt or missing
        chunks are dropped (journaled), dead chunks are freed, and
        refcount drift is corrected to the recomputed truth."""
        corrupt = tuple(sorted(
            chash for chash, data in self._chunks.items()
            if chunk_hash(data) != chash
        ))
        missing = tuple(sorted({
            chash for meta in self._meta.values()
            for _page, chash in meta.manifest if chash not in self._chunks
        }))
        bad = set(corrupt) | set(missing)
        affected = tuple(sorted(
            key for key, meta in self._meta.items()
            if any(chash in bad for _page, chash in meta.manifest)
        ))
        expected: dict[str, int] = {}
        for meta in self._meta.values():
            for _page, chash in meta.manifest:
                expected[chash] = expected.get(chash, 0) + 1
        drift = sum(
            1 for chash in set(expected) | set(self._refs)
            if expected.get(chash, 0) != self._refs.get(chash, 0)
        )
        report = ScrubReport(
            corrupt_chunks=corrupt, missing_chunks=missing,
            dropped_snapshots=affected if repair else (),
            refcount_repairs=drift if repair else 0,
        )
        if repair:
            if affected:
                self._journal("scrub", {"dropped": list(affected)})
            for chash in corrupt:
                # Anything still holding the rotted chunk was just
                # dropped; free whatever the decrefs left behind.
                self._refs.pop(chash, None)
                self._chunks.pop(chash, None)
            if drift:
                recomputed: dict[str, int] = {}
                for meta in self._meta.values():
                    for _page, chash in meta.manifest:
                        recomputed[chash] = recomputed.get(chash, 0) + 1
                self._refs = recomputed
                self._prune_orphans()
            self.scrub_repairs += report.repairs
            self.integrity_failures += len(affected)
        self.scrub_passes += 1
        return report

    # -- checkpointing -------------------------------------------------------
    def _durable_state(self) -> dict:
        """The serialized durable state (checkpoint body / signature
        input).  Volatile-payload snapshots are excluded -- they cannot
        survive the process, so they are not part of durability."""
        return {
            "snapshots": {
                key: meta.to_payload() for key, meta in sorted(self._meta.items())
                if not meta.volatile
            },
            "pinned": sorted(k for k in self._pinned
                             if k in self._meta and not self._meta[k].volatile),
            "chunks": {chash: _b64(data)
                       for chash, data in sorted(self._chunks.items())},
        }

    def _load_state(self, state: dict) -> None:
        self._chunks = {chash: _unb64(data)
                        for chash, data in state["chunks"].items()}
        self._meta = {key: _SnapshotMeta.from_payload(payload)
                      for key, payload in state["snapshots"].items()}
        self._pinned = set(state["pinned"])
        self._volatile_payloads.clear()
        self._refs = {}
        self.logical_bytes = 0
        for meta in self._meta.values():
            for _page, chash in meta.manifest:
                self._refs[chash] = self._refs.get(chash, 0) + 1
                self.logical_bytes += len(self._chunks[chash])

    def checkpoint(self) -> None:
        """Journal a full-state checkpoint record.  The live state is
        already current, so the record is appended without re-applying
        (replaying it *is* how recovery fast-forwards)."""
        self._journal(CHECKPOINT_OP, {"state": self._durable_state()},
                      apply=False)
        self.checkpoints += 1

    def compact(self) -> int:
        """Physically drop journal records preceding the last
        checkpoint.  Crash-safe by construction: the checkpoint record
        carries the whole durable state."""
        raws = self.medium.records()
        last = -1
        for i, raw in enumerate(raws):
            record = JournalRecord.decode(raw)
            if record is not None and record.op == CHECKPOINT_OP:
                last = i
        if last <= 0:
            return 0
        self.medium.drop_prefix(last)
        return last

    # -- introspection -------------------------------------------------------
    def state_signature(self) -> str:
        """sha256 over the canonical durable state -- what a crash-point
        recovery must reproduce byte-for-byte."""
        return hashlib.sha256(canonical_json(self._durable_state())).hexdigest()

    @property
    def chunk_bytes(self) -> int:
        return sum(len(data) for data in self._chunks.values())

    @property
    def dedup_ratio(self) -> float:
        physical = self.chunk_bytes
        return self.logical_bytes / physical if physical else 1.0

    def counters(self) -> dict:
        return {
            "backend": self.backend,
            "snapshots": len(self._meta),
            "pinned": len(self._pinned),
            "captures": self.captures,
            "restores": self.restores,
            "reads": self.reads,
            "integrity_failures": self.integrity_failures,
            "chunks": len(self._chunks),
            "chunk_bytes": self.chunk_bytes,
            "logical_bytes": self.logical_bytes,
            "dedup_hits": self.dedup_hits,
            "dedup_ratio": round(self.dedup_ratio, 6),
            "gc_runs": self.gc_runs,
            "gc_reclaimed_snapshots": self.gc_reclaimed_snapshots,
            "gc_reclaimed_chunks": self.gc_reclaimed_chunks,
            "gc_reclaimed_bytes": self.gc_reclaimed_bytes,
            "gc_race_drops": self.gc_race_drops,
            "scrub_passes": self.scrub_passes,
            "scrub_repairs": self.scrub_repairs,
            "checkpoints": self.checkpoints,
            "journal_records": len(self.medium),
            "journal_replays": self.journal_replays,
            "torn_records": self.torn_records,
        }
