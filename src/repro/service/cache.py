"""Content-addressed artifact cache for the compile service.

A cache *key* is the sha256 of everything that determines a cached
answer: the source text, the allocator name, the register count, the
schedule flag, whether the program is executed (and, when it is, the
entry function and the cycle budget), the wire-format version
(:data:`repro.interp.serialize.FORMAT_VERSION`), and a fingerprint of
the compiler's *own source code* (:func:`source_fingerprint`).  Two
requests with equal keys are guaranteed the same artifact bytes and the
same execution result, so the server can answer the second one without
running a single compiler stage — the programs here take no runtime
input.

The code fingerprint closes the stale-artifact hole for long-lived
deployments: the disk tier survives restarts, so without it a change
inside an allocator would silently reuse artifacts produced by the old
code.  Any edit to a ``.py`` file under ``src/repro`` changes every
key, which simply makes the persisted tier cold — the same degradation
semantics as a ``FORMAT_VERSION`` bump.  The pipeline's configuration
is not a separate key input: the daemon always runs the default
:class:`~repro.resilience.pipeline.PassPipeline`, whose defaults are
source code the fingerprint already covers.

The memory tier
---------------

One thread-safe LRU over the whole byte budget, under one lock: entries
are charged ``len(blob) + len(canonical meta json)`` (``blob`` is the
stored, deflated image — :func:`repro.interp.serialize.dumps_image`),
computed once when the entry is built; the least
recently *used* entry is evicted first, and hit/miss/eviction counters
feed the server's ``stats`` endpoint and the load generator's report.
With ``persist_dir`` set, every entry is also written to disk as one
JSON file per key; a restarted server finds them there on a memory miss
(eviction never deletes the disk copy — memory is the hot tier, disk
the warm one).  The lock is never held across file I/O: a ``put``
writes its file before taking it (the write is atomic through
``os.replace``), and a memory miss reads the file before taking it
again to promote the entry, so a warm hit never waits on the disk.
Persisted payloads from an older wire format or other code are
ignored: a version bump or a deploy simply makes the disk tier cold.

Disk-tier integrity
-------------------

Every persisted file carries a sha256 of its payload in the header
(``{"sha256": ..., "code": ..., "meta": ..., "image": ...}``, where
``image`` is the base64 of the deflated blob and ``code`` the writer's
:func:`source_fingerprint`), folded in at write time.  A read
recomputes and compares: a mismatch, a file that no longer parses, or
an image that is not base64 of a deflate stream inflating within
:data:`~repro.service.defaults.CACHE_BYTES` is a miss counted under
``corrupt`` in :meth:`ArtifactCache.stats`, never a crash.
A cache constructed over a persist directory also runs a **startup
scrub**: every ``*.json`` file is verified once, corrupt files are
deleted (the replication layer above re-supplies them; a corrupt file
kept on disk would just re-fail every read), and the result is
reported under ``stats()["scrub"]``.  A read that finds a file corrupt
deletes it too, so it counts once, not on every later read.  Files
written by other code (a ``code`` header that is not this process's
fingerprint, or none), by an older format version, or holding the image
as plain canonical JSON text (the encoding before deflated images) read
as ``stale`` and are deleted as well: their keys fold in a format
version or code fingerprint no running daemon has, so nothing can ever
ask for them, and kept they would grow the directory by one working set
per deploy.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..digest import sha256
from ..interp.serialize import FORMAT_VERSION, inflate_image
from . import defaults

#: Default in-memory budget: generous for this repository's programs
#: (a stored, deflated bench image is a few KB).
DEFAULT_MAX_BYTES = defaults.CACHE_BYTES

#: Memoized :func:`source_fingerprint` for the installed package tree.
_SOURCE_FINGERPRINT: Optional[str] = None


def source_fingerprint(root: Optional[str] = None) -> str:
    """A sha256 digest of the compiler's own source code.

    Hashes every ``.py`` file under ``root`` (default: the installed
    ``repro`` package directory) as ``relpath ‖ NUL ‖ bytes ‖ NUL`` in
    sorted path order, so the digest is stable across filesystems and
    walk orders but changes when any file's content, name, or location
    does.  The default-root digest is computed once per process — the
    code cannot change under a running server.
    """
    global _SOURCE_FINGERPRINT
    if root is None and _SOURCE_FINGERPRINT is not None:
        return _SOURCE_FINGERPRINT
    base = root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    hasher = sha256()
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, base)
            hasher.update(rel.encode("utf-8"))
            hasher.update(b"\0")
            with open(path, "rb") as handle:
                hasher.update(handle.read())
            hasher.update(b"\0")
    digest = hasher.hexdigest()
    if root is None:
        _SOURCE_FINGERPRINT = digest
    return digest


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _document_digest(meta: Dict[str, Any], image: str) -> str:
    """The disk-tier integrity checksum: sha256 over the canonical JSON
    of the payload (meta + image), excluding the checksum field itself."""
    return _digest({"image": image, "meta": meta})


def verify_document(document: Any) -> Tuple[Optional[bytes], Optional[str]]:
    """How a parsed disk-tier document reads: ``(blob, None)`` when it
    can be served, else ``(None, cause)`` — ``"corrupt"`` (shape damage,
    checksum mismatch, or an image that does not decode — the file does
    not say what it said when written) or ``"stale"`` (written by an
    older format — pre-checksum header, the image as canonical JSON text
    rather than deflated, or an older wire version — or by other code:
    cold by design, not damaged)."""
    if not isinstance(document, dict):
        return None, "corrupt"
    meta = document.get("meta")
    image = document.get("image")
    recorded = document.get("sha256")
    if not isinstance(meta, dict) or not isinstance(image, str):
        return None, "corrupt"
    if recorded is None:
        return None, "stale"
    if _document_digest(meta, image) != recorded:
        return None, "corrupt"
    if image.startswith("{"):
        return None, "stale"  # canonical JSON text: the pre-deflate encoding
    try:
        blob = base64.b64decode(image, validate=True)
        version = json.loads(inflate_image(blob, defaults.CACHE_BYTES)).get(
            "version"
        )
    except (ValueError, AttributeError):  # base64, deflate, bound, JSON
        return None, "corrupt"
    if version != FORMAT_VERSION:
        return None, "stale"
    if document.get("code") != source_fingerprint():
        return None, "stale"  # written by other code: no key reaches it
    return blob, None


def _identity(status: os.stat_result) -> Tuple[int, int]:
    """Which file a path names: ``os.replace`` installs a new inode."""
    return status.st_ino, status.st_mtime_ns


def cache_key(
    source: str,
    allocator: str,
    k: int,
    schedule: bool = False,
    execute: bool = True,
    entry: str = "main",
    max_cycles: Optional[int] = None,
    code_fingerprint: Optional[str] = None,
) -> str:
    """``sha256(source ‖ allocator ‖ k ‖ schedule ‖ execute [‖ entry ‖
    max_cycles] ‖ code-fingerprint)``.

    The defaults are a ``compile`` request's.  ``entry`` and
    ``max_cycles`` take part only when ``execute`` is set: a compile
    that runs nothing caches no output.  ``max_cycles`` is keyed as the
    request gives it, so an omitted budget and an explicit default one
    are two keys (a spurious miss, never a wrong answer).
    ``code_fingerprint`` defaults to :func:`source_fingerprint` of the
    running package; tests pass an explicit value to simulate a code
    version bump without editing files.
    """
    payload: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "source": source,
        "allocator": allocator,
        "k": k,
        "schedule": bool(schedule),
        "execute": bool(execute),
        "code": code_fingerprint or source_fingerprint(),
    }
    if execute:
        payload["entry"] = entry
        payload["max_cycles"] = max_cycles
    return _digest(payload)


@dataclass(frozen=True)
class CacheEntry:
    """One immutable cached artifact.

    ``blob`` is the stored form of the allocated program image: its
    canonical JSON, deflated (:func:`repro.interp.serialize.dumps_image`);
    ``meta["image_sha256"]`` hashes the *inflated* bytes and
    ``meta["image_bytes"]`` is ``len(blob)``.  ``meta`` carries
    everything else the server needs to answer without recompiling
    (allocator used, fallback events, execution output and counters,
    per-stage telemetry).  ``size``, what the memory tier charges, is
    fixed when the entry is built.  Frozen on purpose: entries are
    shared across server worker threads, so nothing may mutate them
    after insertion.
    """

    key: str
    blob: bytes
    meta: Dict[str, Any]
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        meta_json = json.dumps(self.meta, sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "size", len(self.blob) + len(meta_json))


class ArtifactCache:
    """Thread-safe content-addressed store: one LRU memory tier over
    ``max_bytes`` under one lock and an optional disk tier."""

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        persist_dir: Optional[str] = None,
    ):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.persist_dir = persist_dir
        if persist_dir:
            os.makedirs(persist_dir, exist_ok=True)
        #: Guards the LRU and the counters; never held across disk I/O.
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.corrupt = 0
        self._scrub = self.scrub() if persist_dir else None

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or None (a miss).

        A memory hit refreshes the LRU recency.  On a memory miss the
        disk tier (when configured) is consulted; a disk hit is promoted
        back into memory — possibly evicting colder entries — and
        counted as both a hit and a ``disk_hit``; a disk file that fails
        its checksum is a miss that also counts ``corrupt``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        entry = self._promote_from_disk(key)
        with self._lock:
            if entry is not None:
                self.hits += 1
                self.disk_hits += 1
                return entry
            self.misses += 1
        return None

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Memory-tier lookup with no side effects: no counter bump, no
        LRU refresh, no disk read.  :meth:`fetch` starts with it so
        replication reads do not distort hit accounting."""
        with self._lock:
            return self._entries.get(key)

    def fetch(self, key: str) -> Optional[CacheEntry]:
        """Both tiers, no hit/miss accounting: the ``cache-get`` path.
        Replication reads are plumbing, not workload — they must not
        distort the hit-rate operators (and tests) reason about.  A
        corrupt disk file still counts ``corrupt`` (integrity is worth
        counting no matter who noticed), and a disk hit still promotes
        into memory (a replica asked for it; it is hot somewhere)."""
        entry = self.peek(key)
        if entry is None:
            entry = self._promote_from_disk(key)
        return entry

    def _promote_from_disk(self, key: str) -> Optional[CacheEntry]:
        """Read ``key``'s disk file outside the lock, then promote a
        good entry into memory or count a corrupt file."""
        entry, cause = self._load_persisted(key)
        with self._lock:
            if entry is not None:
                self._insert(entry)
            elif cause == "corrupt":
                self.corrupt += 1
        return entry

    # -- insertion ------------------------------------------------------------

    def put(self, key: str, blob: bytes, meta: Dict[str, Any]) -> CacheEntry:
        """Store an artifact; returns the (frozen) entry.

        Re-putting an existing key replaces the entry (last write wins —
        identical by construction, since the key covers every input).
        An entry larger than ``max_bytes`` is persisted to disk but not
        held in memory.
        """
        entry = CacheEntry(key, bytes(blob), dict(meta))
        self._persist(entry)
        with self._lock:
            if entry.size > self.max_bytes:
                old = self._entries.pop(key, None)
                if old is not None:
                    self.total_bytes -= old.size
            else:
                self._insert(entry)
        return entry

    def _insert(self, entry: CacheEntry) -> None:
        """Add ``entry`` as the most recent, evicting the least recent
        until the tier fits its budget.  Call under ``_lock``."""
        old = self._entries.pop(entry.key, None)
        if old is not None:
            self.total_bytes -= old.size
        self._entries[entry.key] = entry
        self.total_bytes += entry.size
        while self.total_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.total_bytes -= evicted.size
            self.evictions += 1

    # -- the disk tier --------------------------------------------------------

    def _path(self, key: str) -> str:
        assert self.persist_dir is not None
        return os.path.join(self.persist_dir, f"{key}.json")

    def _persist(self, entry: CacheEntry) -> None:
        if not self.persist_dir:
            return
        image = base64.b64encode(entry.blob).decode("ascii")
        document = {
            "sha256": _document_digest(entry.meta, image),
            "code": source_fingerprint(),
            "meta": entry.meta,
            "image": image,
        }
        path = self._path(entry.key)
        tmp = f"{path}.tmp.{threading.get_ident()}"
        with open(tmp, "w") as handle:
            json.dump(document, handle, sort_keys=True)
        os.replace(tmp, path)  # atomic: readers see old or new, never torn

    def _load_persisted(
        self, key: str
    ) -> Tuple[Optional[CacheEntry], Optional[str]]:
        """``(entry, miss_cause)``: the entry and None when the disk tier
        holds a good copy, or None and why not (``"absent"``, or
        ``"stale"`` / ``"corrupt"`` as :func:`verify_document` says).

        A file read as stale or corrupt is deleted, as the scrub does,
        so the next read is an ordinary miss instead of another
        ``corrupt``.  The file is removed only while it is still the one
        that was read: a concurrent :meth:`put` replaces it with a new
        inode."""
        if not self.persist_dir:
            return None, "absent"
        path = self._path(key)
        try:
            handle = open(path)
        except FileNotFoundError:
            return None, "absent"
        except OSError:
            return None, "corrupt"  # there but unreadable: counted, kept
        with handle:
            read = _identity(os.fstat(handle.fileno()))
            try:
                document = json.load(handle)
            except (OSError, ValueError):
                # Truncated or bit-flipped beyond parsing: corrupt, and
                # the store must say so — never a crash.
                document = None
        blob, cause = verify_document(document)
        if cause is not None:
            try:
                if _identity(os.stat(path)) == read:
                    os.remove(path)
            except OSError:
                pass  # already replaced or removed: nothing to delete
        if blob is None:
            return None, cause
        return CacheEntry(key, blob, document["meta"]), None

    # -- the startup scrub ----------------------------------------------------

    def scrub(self) -> Dict[str, int]:
        """Verify every persisted artifact file once, deleting the ones
        that cannot be served (a corrupt file would re-fail every future
        read, and deleting it lets the replication tier above re-supply
        the key; a stale one is unreachable).  Returns the tally:
        ``scanned`` / ``ok`` / ``stale`` (older format or other code —
        cold, not damaged; deleted) / ``corrupt`` (deleted).
        Automatically run by the constructor when ``persist_dir`` is
        set; callable again for a live re-scan (the result replaces the
        ``scrub`` block in :meth:`stats`)."""
        tally = {"scanned": 0, "ok": 0, "stale": 0, "corrupt": 0}
        if not self.persist_dir:
            return tally
        try:
            names = sorted(os.listdir(self.persist_dir))
        except OSError:
            return tally
        for name in names:
            # Artifact files live at ``<sha256-hex>.json``; anything
            # else in the directory (``quarantine.json``, tmp files
            # mid-replace) is a sidecar, not ours to judge or delete.
            stem, dot, ext = name.partition(".")
            if ext != "json" or len(stem) != 64 or any(
                c not in "0123456789abcdef" for c in stem
            ):
                continue
            cause = self._load_persisted(stem)[1]
            if cause == "absent":
                continue  # removed since the listing
            tally["scanned"] += 1
            tally[cause or "ok"] += 1
        self._scrub = tally
        return tally

    # -- accounting -----------------------------------------------------------

    def keys(self) -> List[str]:
        """Every key currently held in memory."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop the whole memory tier (persisted files stay on disk) —
        an operator reset, and the test harness's simulated cold cache.
        Counters are kept: a wipe is an event in a cache's life, not a
        new cache."""
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            hits, misses = self.hits, self.misses
            stats = {
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "hits": hits,
                "misses": misses,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "max_bytes": self.max_bytes,
            }
        stats["code_fingerprint"] = source_fingerprint()
        stats["hit_rate"] = hits / (hits + misses) if (hits + misses) else 0.0
        if self._scrub is not None:
            stats["scrub"] = dict(self._scrub)
        return stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
