"""The content-addressed artifact cache: keys, LRU accounting, disk tier,
integrity, and the 8-thread hammer."""

import base64
import hashlib
import json
import os
import threading
import zlib

import pytest

from repro.interp.serialize import FORMAT_VERSION
from repro.service import cache as cache_module
from repro.service import defaults
from repro.service.cache import (
    ArtifactCache,
    CacheEntry,
    cache_key,
    source_fingerprint,
)
from repro.service.server import CompileService

SOURCE = "void main() { print(1); }"


def _blob(tag: str, size: int = 64) -> bytes:
    """A fake stored payload of a controlled size: canonical JSON padded
    with spaces, deflated at level 0 (stored blocks: 11 bytes of zlib
    framing), so the blob is ``size`` bytes long."""
    body = {"version": FORMAT_VERSION, "tag": tag}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.compress((text + " " * max(0, size - 11 - len(text))).encode(), 0)


def _write_document(path: str, image: str, meta=None) -> None:
    """A disk-tier file whose checksum matches its (image, meta), so
    only the image's own encoding decides how it reads."""
    meta = meta or {}
    payload = json.dumps(
        {"image": image, "meta": meta}, sort_keys=True, separators=(",", ":")
    )
    document = {
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "meta": meta,
        "image": image,
    }
    with open(path, "w") as handle:
        json.dump(document, handle)


class TestCacheKey:
    def test_every_input_perturbs_the_key(self):
        base = cache_key(SOURCE, "rap", 5)
        assert cache_key(SOURCE, "rap", 5) == base  # deterministic
        assert cache_key(SOURCE + " ", "rap", 5) != base
        assert cache_key(SOURCE, "gra", 5) != base
        assert cache_key(SOURCE, "rap", 7) != base
        assert cache_key(SOURCE, "rap", 5, schedule=True) != base
        # What an executed compile's cached answer depends on: whether
        # it ran, which function, and under which cycle budget.
        assert cache_key(SOURCE, "rap", 5, execute=False) != base
        assert cache_key(SOURCE, "rap", 5, entry="f") != base
        assert cache_key(SOURCE, "rap", 5, max_cycles=1) != base
        # A compile that runs nothing keys on neither.
        assert cache_key(
            SOURCE, "rap", 5, execute=False, entry="f", max_cycles=1
        ) == cache_key(SOURCE, "rap", 5, execute=False)

    def test_served_key_ignores_filename(self):
        # ``filename`` only labels diagnostics; a request that leaves
        # the execution fields out keys like cache_key's defaults.
        service = CompileService(workers=1)  # never started: no worker
        keys = {
            service.prepare(
                {"source": SOURCE, "allocator": "rap", "k": 5, "filename": name}
            )[1].key
            for name in ("a.mc", "b.mc")
        }
        assert keys == {cache_key(SOURCE, "rap", 5)}

    def test_code_fingerprint_participates(self):
        # The compiler's own source is part of the key: a simulated
        # version bump (different fingerprint) changes every key.
        base = cache_key(SOURCE, "rap", 5)
        bumped = cache_key(SOURCE, "rap", 5, code_fingerprint="deadbeef")
        assert bumped != base
        # Deterministic for a fixed fingerprint.
        assert cache_key(SOURCE, "rap", 5, code_fingerprint="deadbeef") == bumped


class TestSourceFingerprint:
    def test_stable_and_sensitive(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        (pkg / "sub").mkdir()
        (pkg / "sub" / "b.py").write_text("y = 2\n")
        first = source_fingerprint(str(pkg))
        assert first == source_fingerprint(str(pkg))  # deterministic
        (pkg / "a.py").write_text("x = 3\n")
        assert source_fingerprint(str(pkg)) != first  # content-sensitive
        (pkg / "a.py").write_text("x = 1\n")
        assert source_fingerprint(str(pkg)) == first  # restored == original

    def test_rename_changes_the_digest(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        first = source_fingerprint(str(pkg))
        os.rename(pkg / "a.py", pkg / "b.py")
        assert source_fingerprint(str(pkg)) != first

    def test_non_python_and_pycache_ignored(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        first = source_fingerprint(str(pkg))
        (pkg / "notes.txt").write_text("irrelevant")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0\1")
        assert source_fingerprint(str(pkg)) == first

    def test_default_root_is_memoized(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 64  # sha256 hex

    def test_version_bump_misses_the_disk_tier(self, tmp_path):
        # The ROADMAP carried item, pinned: artifacts persisted by one
        # code version must not be served by another.  A bumped
        # fingerprint derives a different key, so the restarted "new
        # code" server finds the disk tier cold.
        cache = ArtifactCache(persist_dir=str(tmp_path))
        old_key = cache_key(SOURCE, "rap", 5, code_fingerprint="version-1")
        cache.put(old_key, _blob("v1"), {"n": 1})

        restarted = ArtifactCache(persist_dir=str(tmp_path))
        new_key = cache_key(SOURCE, "rap", 5, code_fingerprint="version-2")
        assert new_key != old_key
        assert restarted.get(new_key) is None  # cold: recompile
        # Same version still warm across the restart.
        same = restarted.get(
            cache_key(SOURCE, "rap", 5, code_fingerprint="version-1")
        )
        assert same is not None and same.blob == _blob("v1")
        assert restarted.disk_hits == 1


class TestLRUAccounting:
    def test_hit_miss_counters(self):
        cache = ArtifactCache(max_bytes=10_000)
        assert cache.get("absent") is None
        entry = cache.put("a", _blob("a"), {"n": 1})
        assert isinstance(entry, CacheEntry)
        got = cache.get("a")
        assert got is not None and got.blob == _blob("a")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] == entry.size

    def test_eviction_is_least_recently_used(self):
        entry_size = CacheEntry("x", _blob("x", 100), {}).size
        cache = ArtifactCache(max_bytes=3 * entry_size)
        for tag in ("a", "b", "c"):
            cache.put(tag, _blob(tag, 100), {})
        cache.get("a")  # refresh a: b is now the coldest
        cache.put("d", _blob("d", 100), {})
        assert cache.get("b") is None  # evicted
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.get("d") is not None
        assert cache.evictions == 1
        assert cache.total_bytes <= cache.max_bytes

    def test_replacing_a_key_does_not_leak_bytes(self):
        cache = ArtifactCache(max_bytes=10_000)
        cache.put("a", _blob("a", 100), {})
        cache.put("a", _blob("a", 200), {})
        assert cache.stats()["entries"] == 1
        assert cache.total_bytes == CacheEntry("a", _blob("a", 200), {}).size

    def test_oversized_entry_not_held_in_memory(self):
        cache = ArtifactCache(max_bytes=50)
        cache.put("big", _blob("big", 500), {})
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_one_budget_over_the_whole_tier(self):
        # The whole max_bytes is one budget: an entry bigger than an
        # eighth of it is held.
        entry = CacheEntry("big", _blob("big", 4_000), {})
        cache = ArtifactCache(max_bytes=8_000)
        assert entry.size > cache.max_bytes // 8
        cache.put("big", entry.blob, {})
        assert cache.peek("big") is not None
        assert cache.get("big") is not None
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] == entry.size
        assert stats["evictions"] == 0

    def test_keys_lists_every_memory_entry(self):
        cache = ArtifactCache(max_bytes=1_000_000)
        keys = {cache_key(f"prog {i}", "rap", 5) for i in range(20)}
        for key in keys:
            cache.put(key, _blob(key[:8]), {})
        assert set(cache.keys()) == keys
        assert len(cache) == len(keys)

    def test_blob_helper_has_the_stored_encoding(self):
        assert len(_blob("x", 100)) == 100
        assert json.loads(zlib.decompress(_blob("x", 100)))["tag"] == "x"

    def test_size_is_fixed_when_the_entry_is_built(self, monkeypatch):
        entry = CacheEntry("a", _blob("a"), {"output": [1]})
        want = len(_blob("a")) + len('{"output":[1]}')

        def no_encoding(*args, **kwargs):
            raise AssertionError("meta re-encoded on a size read")

        monkeypatch.setattr(json, "dumps", no_encoding)
        assert entry.size == want
        assert entry.size == want

    def test_negative_budget_refused(self):
        with pytest.raises(ValueError, match="max_bytes must be >= 0"):
            ArtifactCache(max_bytes=-5)


class TestDiskTier:
    def test_persist_and_reload_across_instances(self, tmp_path):
        first = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        first.put("k1", _blob("k1"), {"output": [3]})
        second = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        entry = second.get("k1")
        assert entry is not None
        assert entry.blob == _blob("k1")
        assert entry.meta == {"output": [3]}
        stats = second.stats()
        assert stats["hits"] == 1 and stats["disk_hits"] == 1
        # Promoted into memory: the next get is a pure memory hit.
        assert second.get("k1") is not None
        assert second.stats()["disk_hits"] == 1

    def test_memory_eviction_keeps_the_disk_copy(self, tmp_path):
        entry_size = CacheEntry("x", _blob("x", 100), {}).size
        cache = ArtifactCache(max_bytes=2 * entry_size, persist_dir=str(tmp_path))
        for tag in ("a", "b", "c"):
            cache.put(tag, _blob(tag, 100), {})
        assert cache.evictions >= 1
        assert cache.get("a") is not None  # back from disk
        assert cache.disk_hits == 1

    def test_older_format_version_is_cold(self, tmp_path):
        cache = ArtifactCache(persist_dir=str(tmp_path))
        stale = json.dumps({"version": FORMAT_VERSION - 1, "tag": "old"})
        with open(os.path.join(str(tmp_path), "k2.json"), "w") as handle:
            json.dump({"meta": {}, "image": stale}, handle)
        assert cache.get("k2") is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_file_is_a_miss_not_a_crash(self, tmp_path):
        cache = ArtifactCache(persist_dir=str(tmp_path))
        with open(os.path.join(str(tmp_path), "k3.json"), "w") as handle:
            handle.write("{nope")
        assert cache.get("k3") is None


def _hexkey(tag: str) -> str:
    """A real-shaped cache key (64 hex chars) — the startup scrub only
    judges files inside that namespace."""
    return hashlib.sha256(tag.encode()).hexdigest()


class TestIntegrity:
    """Checksummed disk tier: a damaged file must read as a classified
    ``corrupt`` miss — never ``unclassified``, never a crash — and the
    startup scrub must find and delete it."""

    @staticmethod
    def _flip_one_byte(path: str, offset: int = -10) -> None:
        with open(path, "r+b") as handle:
            handle.seek(offset, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))

    def test_bit_flip_reads_as_corrupt_miss(self, tmp_path):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        cache.put(_hexkey("k1"), _blob(_hexkey("k1")), {"output": [1]})
        self._flip_one_byte(os.path.join(str(tmp_path), _hexkey("k1") + ".json"))
        reloaded = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        # The startup scrub already classified and deleted the file...
        assert reloaded.stats()["scrub"] == {
            "scanned": 1, "ok": 0, "stale": 0, "corrupt": 1,
        }
        assert not os.path.exists(os.path.join(str(tmp_path), _hexkey("k1") + ".json"))
        # ...and a direct read is an ordinary (absent) miss, not a crash.
        assert reloaded.get(_hexkey("k1")) is None

    def test_bit_flip_without_scrub_is_classified_corrupt(self, tmp_path):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        path = os.path.join(str(tmp_path), _hexkey("k1") + ".json")
        cache.put(_hexkey("k1"), _blob(_hexkey("k1")), {"output": [1]})
        # Evict the memory copy so the read must go to disk.
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        self._flip_one_byte(path)
        assert cache.get(_hexkey("k1")) is None
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1

    def test_read_deletes_a_corrupt_file_and_counts_it_once(self, tmp_path):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        path = os.path.join(str(tmp_path), _hexkey("k1") + ".json")
        cache.put(_hexkey("k1"), _blob(_hexkey("k1")), {"output": [1]})
        cache.clear()  # the reads must go to disk
        self._flip_one_byte(path)
        for _ in range(3):
            assert cache.get(_hexkey("k1")) is None
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 3
        assert not os.path.exists(path)

    def test_read_keeps_a_file_a_put_replaced_meanwhile(self, tmp_path, monkeypatch):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        key = _hexkey("k1")
        path = os.path.join(str(tmp_path), key + ".json")
        cache.put(key, _blob(key), {"output": [1]})
        cache.clear()
        self._flip_one_byte(path)
        real_verify = cache_module.verify_document

        def verify_then_put(document):
            # A put lands between the read and the delete.
            cache.put(key, _blob(key), {"output": [1]})
            cache.clear()
            return real_verify(document)

        monkeypatch.setattr(cache_module, "verify_document", verify_then_put)
        assert cache.get(key) is None
        monkeypatch.undo()
        assert cache.stats()["corrupt"] == 1
        assert os.path.exists(path)
        assert cache.get(key) is not None  # the put's good file

    def test_truncated_file_is_corrupt(self, tmp_path):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        path = os.path.join(str(tmp_path), _hexkey("k1") + ".json")
        cache.put(_hexkey("k1"), _blob(_hexkey("k1")), {"output": [1]})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        # Scrub deleted the torn file; nothing is served from it.
        assert cache.stats()["scrub"]["corrupt"] == 1
        assert cache.get(_hexkey("k1")) is None

    def test_scrub_tallies_ok_stale_and_corrupt(self, tmp_path):
        writer = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        writer.put(_hexkey("good"), _blob(_hexkey("good")), {})
        stale = json.dumps({"version": FORMAT_VERSION - 1})
        with open(os.path.join(str(tmp_path), _hexkey("old") + ".json"), "w") as handle:
            json.dump({"meta": {}, "image": stale}, handle)
        with open(os.path.join(str(tmp_path), _hexkey("torn") + ".json"), "w") as handle:
            handle.write("{nope")
        scrubbed = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        assert scrubbed.stats()["scrub"] == {
            "scanned": 3, "ok": 1, "stale": 1, "corrupt": 1,
        }
        # Corrupt and stale deleted (no key can reach a stale file),
        # good still served.
        assert not os.path.exists(os.path.join(str(tmp_path), _hexkey("torn") + ".json"))
        assert not os.path.exists(os.path.join(str(tmp_path), _hexkey("old") + ".json"))
        assert scrubbed.get(_hexkey("good")) is not None

    def test_legacy_unchecksummed_file_reads_as_stale(self, tmp_path):
        # Pre-checksum files (no sha256 header) are stale, not corrupt:
        # they were written by an older tier, not damaged in place.
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        body = json.dumps({"version": FORMAT_VERSION, "tag": "legacy"})
        with open(
            os.path.join(str(tmp_path), _hexkey("k9") + ".json"), "w"
        ) as handle:
            json.dump({"meta": {}, "image": body}, handle)
        assert cache.get(_hexkey("k9")) is None
        assert cache.stats()["corrupt"] == 0

    @pytest.mark.parametrize(
        "image",
        [
            "not base64!",
            base64.b64encode(b"not a deflate stream").decode(),
            base64.b64encode(zlib.compress(b'{"version":1}')[:-3]).decode(),
            base64.b64encode(
                zlib.compress(b'{"version":1}' + b" " * 5_000)
            ).decode(),
        ],
        ids=["bad-base64", "bad-deflate", "truncated-deflate", "past-bound"],
    )
    def test_undecodable_image_is_corrupt(self, tmp_path, monkeypatch, image):
        # The checksum holds, so only the image's decode can fail.
        monkeypatch.setattr(defaults, "CACHE_BYTES", 1_000)
        path = os.path.join(str(tmp_path), _hexkey("k1") + ".json")
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        _write_document(path, image)
        assert cache.get(_hexkey("k1")) is None
        assert cache.stats()["corrupt"] == 1
        assert cache.stats()["misses"] == 1
        assert not os.path.exists(path)  # the read deleted it
        _write_document(path, image)
        scrubbed = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        assert scrubbed.stats()["scrub"] == {
            "scanned": 1, "ok": 0, "stale": 0, "corrupt": 1,
        }
        assert not os.path.exists(path)

    def test_canonical_json_image_reads_as_stale(self, tmp_path):
        # A checksummed file holding the image as JSON text was written
        # before images were stored deflated: cold, and deleted.
        path = os.path.join(str(tmp_path), _hexkey("k1") + ".json")
        _write_document(path, json.dumps({"version": FORMAT_VERSION}))
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        assert cache.stats()["scrub"] == {
            "scanned": 1, "ok": 0, "stale": 1, "corrupt": 0,
        }
        assert cache.get(_hexkey("k1")) is None
        assert cache.stats()["corrupt"] == 0
        assert not os.path.exists(path)

    def test_older_version_in_the_stored_encoding_is_stale(self, tmp_path):
        path = os.path.join(str(tmp_path), _hexkey("k1") + ".json")
        old = zlib.compress(json.dumps({"version": FORMAT_VERSION - 1}).encode())
        _write_document(path, base64.b64encode(old).decode())
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        assert cache.stats()["scrub"]["stale"] == 1
        assert cache.get(_hexkey("k1")) is None
        assert cache.stats()["corrupt"] == 0

    def test_other_codes_file_is_stale_and_deleted(self, tmp_path, monkeypatch):
        # A deploy leaves the old code's files behind: intact, but no
        # key of the new code can reach them.
        key = _hexkey("k1")
        path = os.path.join(str(tmp_path), key + ".json")
        monkeypatch.setattr(cache_module, "_SOURCE_FINGERPRINT", "a" * 64)
        ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path)).put(
            key, _blob(key), {"output": [1]}
        )
        with open(path) as handle:
            assert json.load(handle)["code"] == "a" * 64
        monkeypatch.setattr(cache_module, "_SOURCE_FINGERPRINT", "b" * 64)
        reopened = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        assert reopened.stats()["scrub"] == {
            "scanned": 1, "ok": 0, "stale": 1, "corrupt": 0,
        }
        assert not os.path.exists(path)

    def test_persisted_image_is_base64_of_the_blob(self, tmp_path):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        cache.put(_hexkey("k1"), _blob("k1"), {})
        with open(os.path.join(str(tmp_path), _hexkey("k1") + ".json")) as handle:
            document = json.load(handle)
        assert base64.b64decode(document["image"]) == _blob("k1")

    def test_memory_tier_unaffected_by_disk_damage(self, tmp_path):
        cache = ArtifactCache(max_bytes=10_000, persist_dir=str(tmp_path))
        cache.put(_hexkey("k1"), _blob(_hexkey("k1")), {"output": [1]})
        self._flip_one_byte(os.path.join(str(tmp_path), _hexkey("k1") + ".json"))
        # Memory copy still valid: damage on disk must not poison it.
        entry = cache.get(_hexkey("k1"))
        assert entry is not None and entry.blob == _blob(_hexkey("k1"))


class TestConcurrency:
    """Satellite: hammer the cache from 8 threads; no torn reads, exact
    byte accounting, counter conservation."""

    THREADS = 8
    ROUNDS = 60

    def test_eight_thread_hammer(self):
        entry_size = CacheEntry("t0.r0", _blob("t0.r0", 200), {"t": 0}).size
        # Budget for ~half the distinct keys, so eviction runs hot
        # concurrently with lookups and insertions.
        cache = ArtifactCache(
            max_bytes=(self.THREADS * self.ROUNDS // 2) * entry_size
        )
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def hammer(tid: int) -> None:
            try:
                barrier.wait()
                for round_ in range(self.ROUNDS):
                    key = f"t{tid}.r{round_}"
                    blob = _blob(key, 200)
                    cache.put(key, blob, {"t": tid})
                    # Read back own key plus a neighbour's stream.
                    for probe in (key, f"t{(tid + 1) % self.THREADS}.r{round_}"):
                        entry = cache.get(probe)
                        if entry is not None:
                            if entry.blob != _blob(probe, 200):
                                errors.append(f"torn read on {probe}")
                            if entry.meta["t"] != int(probe[1:].split(".")[0]):
                                errors.append(f"wrong meta on {probe}")
            except Exception as err:  # pragma: no cover - only on failure
                errors.append(repr(err))

        threads = [
            threading.Thread(target=hammer, args=(tid,))
            for tid in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        stats = cache.stats()
        # Counter conservation: every get was exactly a hit or a miss.
        gets = 2 * self.THREADS * self.ROUNDS
        assert stats["hits"] + stats["misses"] == gets
        assert stats["hits"] > 0 and stats["misses"] > 0
        # Byte accounting is exact: the tracked total equals the sum of
        # the live entries' sizes (entry size is a pure function of the
        # key here), and the tier respects its budget.
        live = sum(
            CacheEntry(key, _blob(key, 200), {"t": 0}).size
            for key in cache.keys()
        )
        assert cache.total_bytes == live == stats["bytes"]
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["evictions"] > 0
        # Deterministic responses: a surviving key still returns its
        # exact original bytes.
        for key in cache.keys():
            entry = cache.get(key)
            if entry is not None:  # may race with nothing here, but be safe
                assert entry.blob == _blob(key, 200)
