"""Memoisation of completed experiment runs.

A :class:`RunCache` maps a scenario's content hash (:meth:`Scenario.key`)
to the :class:`~repro.experiments.runner.ExperimentResult` it produced.  Because the key hashes everything the run depends on
(algorithm, config spec, full workload parameters including the seed,
latency spec and run options), a hit is guaranteed to be the exact result
the job would recompute — the figure drivers share one cache across load
levels and sweeps so overlapping grid points (e.g. the same
``(algorithm, phi, seed)`` appearing in Figure 5 and Figure 6) are only
simulated once.

Two levels are provided:

* in-memory (the default) — a plain dict, private to one process;
* on-disk (``RunCache(path=...)`` or :meth:`RunCache.persistent`) — each
  result is additionally pickled under
  ``<path>/<code-fingerprint>/<key>.v<FORMAT>.pkl``, so repeated
  ``scripts/reproduce_results.py`` invocations skip completed grid points
  *across* processes and interpreter restarts.  Writes are atomic (tmp
  file + ``os.replace``), so concurrent sweeps sharing a directory at
  worst redo a run, never read a torn file; unreadable or stale-format
  files are treated as misses.  An entry file is the result's
  highest-protocol pickle and nothing else, so :meth:`RunCache.put`
  accepts those bytes from a caller that already holds them (the sweep
  executor, for results shipped from pool workers) instead of pickling —
  and LZMA-packing the records — a second time.  The executor puts each
  result as it arrives, not when the sweep ends.

The scenario key hashes only the *inputs* of a run, not the code that
interprets them, so the on-disk level additionally namespaces entries by
:func:`code_fingerprint` — a hash of the ``repro`` package sources.  Any
code change therefore starts a fresh namespace instead of silently
serving results computed by an older simulator (stale fingerprint
directories are inert and can be deleted freely).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult

#: Bump when the pickled payload layout changes incompatibly; files written
#: under another format version are simply ignored (treated as misses).
#: v2: ``ExperimentResult.records`` became the columnar
#: ``record_columns`` (struct-of-arrays ``RecordColumns`` payload) —
#: pre-bump entries hold the old record-list layout and must read as
#: clean misses, never as stale hits.
CACHE_FORMAT = 2

#: Default persistent cache location (see :meth:`RunCache.persistent`).
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Environment variable overriding :data:`DEFAULT_CACHE_DIR`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the ``repro`` package sources, namespacing the disk cache.

    Cached results are only valid for the code that computed them; hashing
    every ``*.py`` file of the installed package (sorted by relative path)
    invalidates the persistent level on *any* code change, without relying
    on version numbers being bumped.  Falls back to a constant when the
    sources are not reachable as files (zipapp, frozen build) — degrading
    to the weaker no-fingerprint behaviour rather than failing.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    try:
        for source in sorted(root.rglob("*.py")):
            digest.update(str(source.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(source.read_bytes())
    except OSError:  # pragma: no cover - unusual deployment
        return "unfingerprinted"
    return digest.hexdigest()[:16]


class RunCache:
    """Result store keyed by spec content hash, optionally disk-backed.

    Parameters
    ----------
    path:
        Root directory for the persistent level; ``None`` (default) keeps
        the cache in memory only.  Entries live in a
        :func:`code_fingerprint` subdirectory (exposed as ``self.path``),
        created on first use; if it cannot be created or written, the
        cache degrades gracefully to memory-only operation rather than
        failing the sweep.
    """

    __slots__ = ("_store", "hits", "misses", "path")

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None) -> None:
        self._store: Dict[str, "ExperimentResult"] = {}
        self.hits = 0
        self.misses = 0
        self.path: Optional[Path] = None
        if path is not None:
            directory = Path(path).expanduser() / code_fingerprint()
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError:
                directory = None  # unwritable location: stay memory-only
            self.path = directory

    @classmethod
    def persistent(cls, path: Optional[Union[str, os.PathLike]] = None) -> "RunCache":
        """Disk-backed cache at ``path`` (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``)."""
        if path is None:
            path = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        return cls(path=path)

    # ------------------------------------------------------------------ #
    # disk level
    # ------------------------------------------------------------------ #
    def _file(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.v{CACHE_FORMAT}.pkl"

    def _load(self, key: str) -> Optional["ExperimentResult"]:
        try:
            with open(self._file(key), "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:  # corrupt / truncated / incompatible: a miss
            return None

    def _dump(self, key: str, pickled: bytes) -> None:
        target = self._file(key)
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.path), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(pickled)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # disk full / permissions: keep the in-memory entry only

    # ------------------------------------------------------------------ #
    # cache protocol
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional["ExperimentResult"]:
        """Return the cached result for ``key``, tracking hit/miss counts."""
        result = self._store.get(key)
        if result is None and self.path is not None:
            result = self._load(key)
            if result is not None:
                self._store[key] = result
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: "ExperimentResult", pickled: Optional[bytes] = None) -> None:
        """Store ``result`` under ``key`` (last write wins).

        ``pickled`` is ``pickle.dumps(result, HIGHEST_PROTOCOL)`` when
        the caller already holds it (the executor does, for a result a
        pool worker shipped): the entry file is those bytes, so the
        result — whose record columns LZMA-pack themselves on every
        pickle — is not encoded a second time.
        """
        self._store[key] = result
        if self.path is not None:
            if pickled is None:
                pickled = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            self._dump(key, pickled)

    def __len__(self) -> int:
        """Number of results held in memory (disk entries load lazily)."""
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would hit (without touching the counters).

        Membership must agree with lookup: a disk entry is only counted
        present if it actually *loads* — a corrupt or torn file that
        ``get`` would treat as a miss must not answer ``True`` here.  The
        loaded result is kept, so a subsequent ``get`` is free.
        """
        if key in self._store:
            return True
        if self.path is None:
            return False
        result = self._load(key)
        if result is None:
            return False
        self._store[key] = result
        return True

    def clear(self) -> None:
        """Drop every cached result (memory *and* disk) and reset counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        if self.path is not None:
            # ``*.tmp``: what a writer killed between ``mkstemp`` and
            # ``os.replace`` left behind; nothing else ever removes it.
            for pattern in (f"*.v{CACHE_FORMAT}.pkl", "*.tmp"):
                for entry in self.path.glob(pattern):
                    try:
                        entry.unlink()
                    except OSError:
                        pass
