"""Versioned on-disk cache for prime tables.

Format: one JSON header line (version, key fields, payload checksum)
followed by one JSON line per record.  A version mismatch, a header
whose key fields differ from the request, a checksum mismatch or any
parse failure is treated as a miss: the caller rebuilds and the stale
file is overwritten.  Writes go through a temp file and an atomic
replace so concurrent commands sharing a cache directory never see a
half-written file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

from . import ffpoly

CACHE_VERSION = 1

ENV_VAR = "FFSTAT_CACHE_DIR"


@dataclass(frozen=True)
class CacheEntry:
    kind: str  # "primes"
    q: int
    param: int  # degree
    variant: str
    payload: tuple  # tuple of JSON-serializable records
    checksum: str

    @classmethod
    def build(cls, kind, q, param, variant, payload):
        payload = tuple(payload)
        return cls(kind, q, param, variant, payload, _checksum(payload))


def _checksum(payload):
    blob = json.dumps(list(payload), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _path(cache_dir, kind, q, param, variant):
    name = f"{kind}-q{q}-{param}-{variant}.jsonl"
    return os.path.join(cache_dir, name)


def store(cache_dir, entry):
    os.makedirs(cache_dir, exist_ok=True)
    path = _path(cache_dir, entry.kind, entry.q, entry.param, entry.variant)
    header = {
        "version": CACHE_VERSION,
        "kind": entry.kind,
        "q": entry.q,
        "param": entry.param,
        "variant": entry.variant,
        "checksum": entry.checksum,
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in entry.payload:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load(cache_dir, kind, q, param, variant):
    """CacheEntry on a clean hit, else None (with a warning on corruption)."""
    path = _path(cache_dir, kind, q, param, variant)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            header = json.loads(fh.readline())
            if not isinstance(header, dict):
                raise ValueError("header is not a JSON object")
            if header.get("version") != CACHE_VERSION:
                return None
            payload = tuple(tuple(json.loads(line)) for line in fh if line.strip())
    except (ValueError, OSError):
        warnings.warn(f"corrupt cache file {path}; rebuilding")
        return None
    request = {"kind": kind, "q": q, "param": param, "variant": variant}
    if any(header.get(field) != value for field, value in request.items()):
        warnings.warn(f"cache header of {path} does not match {request}; rebuilding")
        return None
    if _checksum(payload) != header.get("checksum"):
        warnings.warn(f"cache checksum mismatch in {path}; rebuilding")
        return None
    return CacheEntry(kind, q, param, variant, payload, header["checksum"])


def primes_cached(field, degree, cache_dir=None):
    """Monic primes of one degree, through the disk cache when enabled."""
    if cache_dir:
        entry = load(cache_dir, "primes", field.q, degree, "monic")
        if entry is not None:
            return [ffpoly.Poly.from_coeffs(field, rec) for rec in entry.payload]
    ps = ffpoly.primes(field, degree)
    if cache_dir:
        store(cache_dir, CacheEntry.build(
            "primes", field.q, degree, "monic",
            [list(p.coeffs) for p in ps],
        ))
    return list(ps)

