"""SHA-256 from CPython's own implementation, not OpenSSL's.

``hashlib`` loads ``_hashlib`` and with it OpenSSL's libcrypto, several
MB resident in every process that imports it.  The service hashes a few
KB per request (cache keys, ring positions, artifact identities), so
its router, daemons and worker children take ``sha256`` from here
instead: ``_sha2`` on CPython 3.12+, ``_sha256`` on 3.9-3.11, and
``hashlib`` only on an interpreter built without either.  It is the
same SHA-256, so every digest is bit-identical whichever one loads.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256  # type: ignore[no-redef]
    except ImportError:
        from hashlib import sha256  # type: ignore[no-redef]

__all__ = ["sha256"]
