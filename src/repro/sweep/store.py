"""Persistent on-disk result store: fingerprint-keyed JSONL memoisation.

The sweep engine's in-process row cache makes repeated points free
*within* one engine; this module makes them ~free *across* processes and
runs.  A :class:`ResultStore` is an append-only JSONL file mapping
``(kind, fingerprint)`` to a JSON payload — one record per line::

    {"v": 1, "kind": "sweep-result", "key": "3fe1...", "value": {...}}

Design points, stated explicitly:

* **Content-addressed.**  Keys are the same SHA-256 fingerprints the
  in-memory caches use (:mod:`repro.sweep.fingerprint`), so an entry is
  valid for exactly the configuration that produced it — there is no
  staleness to manage, only growth.  ``kind`` namespaces the payload shape
  (sweep rows vs. cluster reports) so a key collision across shapes is
  structurally impossible and the file stays greppable.
* **Version-gated invalidation.**  Every record carries the store schema
  version (:data:`STORE_VERSION`).  Records written under a different
  version are skipped on load — bump the version whenever the *meaning* of
  stored payloads changes (cost-model semantics, fingerprint inputs, row
  schema), and old files degrade gracefully into cold caches instead of
  serving wrong numbers.  The rule is documented in CONTRIBUTING.md.
* **Append-only and crash-tolerant.**  Writes append whole lines; loading
  tolerates a torn final line (a crashed writer) and unknown/corrupt lines
  by skipping them.  Re-puts of the same key append a newer record; the
  *last* valid record wins on load, so the file never needs rewriting.
* **Safe under concurrent writers.**  One store object may be shared by
  many threads (the gateway's job workers all hit the multi-tenant cache):
  an internal lock serialises appends and index/stat updates, and each
  append is a single whole-line write, so interleaved puts can never tear
  or interleave partial records.  Separate *processes* appending to one
  file interleave whole lines too (POSIX ``O_APPEND`` semantics for
  single-write lines), which loading already tolerates by design.
* **JSON round-trip exactness.**  Payloads are :func:`repro.codec.encode`
  forms, and floats serialise via ``repr`` semantics (Python's ``json``),
  which round-trips IEEE-754 doubles exactly — a store-served row is
  bit-for-bit the row that was computed.
* **One decode policy.**  Readers call :meth:`ResultStore.load` with a
  decoder (:func:`repro.codec.decode` underneath).  A payload it rejects
  — a missing field, a value of the wrong shape, a row its constructor
  refuses — is counted as a miss, under the store lock, and the caller
  recomputes and overwrites it.

:class:`~repro.sweep.engine.SweepEngine` (whole sweep-point rows),
:func:`repro.serving.simulator.simulate_serving` and
:func:`repro.serving.cluster.simulate_cluster` (reports) honour a store,
which is what makes repeated/resumed co-design searches (``repro-sim
optimize --store``) perform zero new simulations.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import threading
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, Any

from repro.sweep.cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry

logger = logging.getLogger(__name__)

#: Schema version of stored payloads.  Bump when stored values change
#: meaning (not when new kinds are added); older records are then ignored.
STORE_VERSION = 1


class ResultStore:
    """A persistent ``(kind, key) -> JSON payload`` store backed by JSONL.

    The whole file is indexed into memory on open (entries are small result
    rows, not simulation inputs), so lookups after construction are plain
    dictionary gets.  ``stats`` counts hits and misses exactly like the
    in-memory :class:`~repro.sweep.cache.ResultCache`, so tests and
    benchmarks can assert "the warm search performed zero new simulations".
    """

    def __init__(self, path: str | os.PathLike[str] | pathlib.Path, *,
                 telemetry: "Telemetry | None" = None) -> None:
        self.path = pathlib.Path(path)
        self.stats = CacheStats()
        #: Optional telemetry sink mirroring ``stats`` as live counters
        #: (``store.hit`` / ``store.miss`` / ``store.put``); assignable
        #: after construction too — the CLI attaches it where the store
        #: object is built far from the traced run.
        self.telemetry = telemetry
        #: Serialises appends, index updates and stat counts so one store
        #: object can back many threads (the gateway's worker pool).
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], Any] = {}
        #: Records present in the file under a different schema version.
        self.skipped_versions = 0
        #: Malformed/torn lines tolerated while loading.
        self.skipped_corrupt = 0
        self._load()
        if self.skipped_corrupt or self.skipped_versions:
            logger.warning(
                "store %s: skipped %d corrupt and %d differently-versioned "
                "record(s) on load", self.path, self.skipped_corrupt,
                self.skipped_versions)

    # ----------------------------------------------------------------- loading
    def _load(self) -> None:
        if not self.path.exists():
            return
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                version = record["v"]
                kind = record["kind"]
                key = record["key"]
                value = record["value"]
            except (json.JSONDecodeError, KeyError, TypeError):
                self.skipped_corrupt += 1
                continue
            if version != STORE_VERSION:
                self.skipped_versions += 1
                continue
            self._entries[(str(kind), str(key))] = value

    # ----------------------------------------------------------------- lookups
    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[tuple[str, str]]:
        """The stored ``(kind, key)`` pairs."""
        return iter(self._entries)

    def get(self, kind: str, key: str) -> Any | None:
        """The stored payload, or ``None`` on a miss (hit/miss counted)."""
        with self._lock:
            value = self._entries.get((kind, key))
            if value is None:
                self.stats.misses += 1
                if self.telemetry is not None:
                    self.telemetry.count("store.miss")
                return None
            self.stats.hits += 1
            if self.telemetry is not None:
                self.telemetry.count("store.hit")
            return value

    def load(self, kind: str, key: str, decode: Callable[[Any], Any]) -> Any:
        """The stored payload decoded by ``decode``, or ``None`` on a miss.

        A payload ``decode`` rejects (``KeyError``, ``TypeError``,
        ``ValueError``) was written under a schema this build no longer
        reads, so the hit ``get`` counted becomes a miss.
        """
        payload = self.get(kind, key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except (KeyError, TypeError, ValueError):
            with self._lock:
                self.stats.hits -= 1
                self.stats.misses += 1
                if self.telemetry is not None:
                    self.telemetry.count("store.hit", -1)
                    self.telemetry.count("store.miss")
            return None

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store a JSON-serialisable payload and append it to the file.

        Thread-safe: the append, the in-memory index update and the
        telemetry count happen under the store lock, and the record is
        written as one whole line — N threads hammering one store produce
        exactly N parseable lines.  Concurrent writers in *other processes*
        interleave whole lines too; the last record of a key wins on the
        next load.
        """
        encoded = json.dumps({"v": STORE_VERSION, "kind": kind, "key": key,
                              "value": value}, separators=(",", ":"))
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(encoded + "\n")
            self._entries[(kind, key)] = value
            if self.telemetry is not None:
                self.telemetry.count("store.put")


class StoreView:
    """One call's view of a shared store: ``stats`` counts its loads only.

    The facade gives each call its own view, so the call's accounting is
    exact while concurrent gateway jobs share the store.
    """

    def __init__(self, store: "ResultStore | StoreView") -> None:
        self.store = store
        self.stats = CacheStats()

    def load(self, kind: str, key: str, decode: Callable[[Any], Any]) -> Any:
        """:meth:`ResultStore.load`, counted as this view's hit or miss."""
        value = self.store.load(kind, key, decode)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, kind: str, key: str, value: Any) -> None:
        """:meth:`ResultStore.put`."""
        self.store.put(kind, key, value)
