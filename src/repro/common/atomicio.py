"""Atomic JSON file writes and entry integrity, shared by the on-disk stores.

The trace cache and the service's job files follow one durability rule: a
reader may never observe a half-written entry, so every write goes to a
same-directory temporary file first and lands with one atomic
:func:`os.replace`.  This module is the single implementation of that
rule.  (The result cache appends flushed lines to a segment log instead,
whose readers skip a torn tail; see :mod:`repro.sweep.cache`.)

Temporary files carry the ``.tmp`` suffix.  A process killed between
``mkstemp`` and ``os.replace`` (SIGKILL, power loss) orphans one such
file; the ordinary exception path unlinks it, and
:func:`repro.sweep.manage.gc_cache` sweeps any survivor older than a
grace period (``repro cache gc`` / ``stats`` report them), so orphans are
bounded garbage, never corruption.

Atomic replacement protects against *half-written* entries; it cannot
protect against bytes that rot **after** the write (disk corruption, a
truncating copy, an interrupted rsync).  For that, cache entries embed a
content checksum: :func:`encode_stamped` hashes the entry's canonical
JSON and returns that same text with the stamp appended — a put encodes
its entry once — and :func:`verify_checksum` re-derives the hash on read.  A
mismatched entry reads as a plain miss — recomputed, never trusted; the
trace cache also moves the file aside (renamed to ``*.corrupt``, see
:data:`CORRUPT_SUFFIX`).  An entry without a stamp cannot be verified
(written before checksums existed, or its stamp itself was damaged), so
it reads as a miss too and is rewritten stamped.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

__all__ = ["CHECKSUM_FIELD", "CORRUPT_SUFFIX", "TMP_SUFFIX",
           "atomic_write_text", "encode_stamped", "payload_checksum",
           "quarantine_corrupt", "verify_checksum"]

#: Suffix of in-flight temporary files; the cache manager recognises (and
#: eventually sweeps) stale files carrying it.
TMP_SUFFIX = ".tmp"

#: Suffix a store gives a corrupt entry when quarantining it: the bytes are
#: preserved for post-mortem inspection but can never again be read as a
#: cache hit.  ``repro cache stats`` counts these and ``gc`` sweeps them.
CORRUPT_SUFFIX = ".corrupt"

#: Entry field holding the embedded content checksum.
CHECKSUM_FIELD = "checksum"


#: How a checksum's canonical JSON is encoded.
_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def _digest(canonical: str) -> str:
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_checksum(entry: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``entry`` minus its own stamp.

    The checksum field itself is excluded so verification can re-derive
    the digest from a loaded entry without copying it first.
    """
    body = {k: v for k, v in entry.items() if k != CHECKSUM_FIELD}
    return _digest(json.dumps(body, **_CANONICAL))


def encode_stamped(entry: Dict[str, Any]) -> str:
    """Stamp ``entry``'s checksum (in place) and return the text to store.

    The text is the canonical JSON the checksum hashes, with the stamp
    appended as the last member: one :func:`json.dumps` per entry.  Read
    back, it gives ``entry``, whose canonical re-encoding is the hashed
    text again, so :func:`verify_checksum` accepts it (as it accepts
    entries written with the stamp in sorted position).
    """
    entry.pop(CHECKSUM_FIELD, None)
    canonical = json.dumps(entry, **_CANONICAL)
    stamp = entry[CHECKSUM_FIELD] = _digest(canonical)
    separator = "," if canonical != "{}" else ""
    return f'{canonical[:-1]}{separator}"{CHECKSUM_FIELD}":"{stamp}"}}'


def verify_checksum(entry: Any) -> bool:
    """Whether a loaded entry's embedded checksum matches its content.

    An entry without a stamp fails (nothing vouches for its bytes), and so
    does a non-dict entry: whatever it is, it is not one of ours.
    """
    return (isinstance(entry, dict)
            and entry.get(CHECKSUM_FIELD) == payload_checksum(entry))


def quarantine_corrupt(path: str) -> bool:
    """Move a corrupt entry aside as ``<path>.corrupt`` (best effort).

    The rename is atomic, so a concurrent reader sees either the corrupt
    entry (and quarantines it again — idempotent) or a plain miss.  Returns
    whether the rename happened.
    """
    try:
        os.replace(path, path + CORRUPT_SUFFIX)
        return True
    except OSError:
        return False


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tempfile + rename).

    The temporary file lives in ``path``'s directory (same filesystem, so
    the final :func:`os.replace` is atomic) and is unlinked on any failure
    between creation and rename.
    """
    import tempfile

    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
