"""Every digest the service persists or routes by, pinned to a literal.

Cache keys name disk-tier files, document checksums guard them, the
source fingerprint keys both to a build, and ring positions decide
which backend holds an artifact.  Each literal below was computed with
``hashlib.sha256``; the service computes it with :mod:`repro.digest`.
A change of hash provider, or of what is hashed, that moved any of them
would silently re-key persisted artifacts or move ring placement.
(Image digests are pinned in ``tests/interp/test_serialize.py``.)

The module imports nothing beyond the standard library and ``repro``,
so it also runs without pytest: import it and call each ``test_*``.
"""

import os
import tempfile

from repro.service.cache import _document_digest, cache_key, source_fingerprint
from repro.service.router import HashRing, affinity_key

SOURCE = "void main() { print(7); }"
NODES = ["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]
AFFINITY = "7af764aaf0dd1dbaa7c5490c0f33aa7ada1879b95e3f8d3a84a45a82e53489ba"


def test_cache_key_is_pinned():
    key = cache_key(SOURCE, "rap", 5, execute=True, code_fingerprint="c0de" * 16)
    assert key == "2ac7a73fae5ebfa4f823dc35064046afab9c2c07c89301cf08aaad8bd5f6f6a4"


def test_source_fingerprint_is_pinned():
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "pkg"))
        with open(os.path.join(root, "a.py"), "wb") as handle:
            handle.write(b"x = 1\n")
        with open(os.path.join(root, "pkg", "b.py"), "wb") as handle:
            handle.write(b"y = 2\n")
        digest = source_fingerprint(root=root)
    assert digest == "6a8d0ceebee057e9755135fed3aea70da8e10aac79a272622a87fb184b1e9c66"


def test_document_digest_is_pinned():
    digest = _document_digest({"allocator_used": "rap", "k": 5}, "eJyrrgUAAXUA+Q==")
    assert digest == "b6028db5254d1b7f0769dc81c7009eb3a4b56539bc263cf382f0dcaa845e50a0"


def test_ring_placement_is_pinned():
    request = {"op": "compile", "source": SOURCE, "allocator": "rap", "k": 5}
    assert affinity_key(request) == AFFINITY
    ring = HashRing(NODES)
    assert ring._position(AFFINITY) == 10608391158161190181
    assert ring.replicas(AFFINITY, 2) == ["127.0.0.1:7003", "127.0.0.1:7001"]
