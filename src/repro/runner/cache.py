"""On-disk result cache for the parallel experiment runner.

A cache entry is one JSON file per grid point, named by a SHA-256 key
over

* the point's canonical payload (kind, application, seed, knobs), and
* a **code fingerprint** — a hash of every ``repro`` source file that can
  affect simulation results.

Editing any simulator source therefore invalidates every entry
automatically (stale results can never be served), while re-running a
sweep after an interrupted or partial run only recomputes what is
missing.  The runner's own modules are excluded from the fingerprint:
orchestration changes do not change simulation outcomes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.runner.serialize import canonical_json

#: Bump to invalidate every existing cache entry (format changes).
#: 2: stats grew interconnect-contention fields and bandwidth
#: deserialization became tolerant of enum skew — entries written by
#: schema-1 builds must not be served into the new result shape.
CACHE_SCHEMA_VERSION = 2

#: Top-level ``repro`` subpackages whose sources are *excluded* from the
#: code fingerprint — they orchestrate runs but cannot change results.
_FINGERPRINT_EXCLUDED = ("runner",)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every result-relevant ``repro`` source file."""
    import repro

    package_root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.parts and relative.parts[0] in _FINGERPRINT_EXCLUDED:
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """A directory of JSON result files, one per grid point."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_temporaries()

    def _sweep_stale_temporaries(self) -> None:
        """Remove ``*.tmp`` leftovers of writers that died mid-``put``.

        Every writer uses a unique temporary name, so anything matching
        the pattern is either an orphan or an *in-flight* write from a
        live process — deleting the latter is tolerated too, because
        :meth:`put` retries once when its temporary vanishes.
        """
        for stale in self.directory.glob("*.tmp"):
            try:
                stale.unlink()
            except OSError:
                pass  # concurrently published or swept by another opener

    def key_for(self, payload: Dict[str, Any]) -> str:
        """The cache key of a grid-point payload under the current code."""
        digest = hashlib.sha256()
        digest.update(code_fingerprint().encode())
        digest.update(b"\0")
        digest.update(canonical_json(payload).encode())
        return digest.hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result for a key, or ``None`` on a miss.

        Truncated or garbage entries (a crashed pre-atomic-write build,
        disk corruption) count as misses *and* are unlinked, so the next
        :meth:`put` repairs the slot instead of the corpse shadowing it
        forever.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except json.JSONDecodeError:
            try:
                path.unlink()
            except OSError:
                pass  # another process repaired or removed it first
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return entry.get("result")

    def put(self, key: str, payload: Dict[str, Any], result: Dict[str, Any]) -> None:
        """Store one point's result (atomically, via rename).

        The temporary file name is unique per writer — a fixed name let
        two processes computing the same key interleave ``write`` and
        ``replace`` and publish a torn entry.  ``os.replace`` keeps the
        publish atomic; if a concurrent opener's stale-temporary sweep
        raced us and removed the temporary first, one retry with a fresh
        name suffices (the sweep runs only at cache open).
        """
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "point": payload,
            "result": result,
        }
        path = self._path(key)
        text = canonical_json(entry)
        for attempt in (0, 1):
            handle, temporary = tempfile.mkstemp(
                dir=self.directory, prefix=f"{key}.", suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(text)
                os.replace(temporary, path)
                return
            except FileNotFoundError:
                if attempt:
                    raise
            finally:
                try:
                    os.unlink(temporary)
                except OSError:
                    pass  # the normal case: already renamed into place

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
