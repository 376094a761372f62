"""Identity-addressed on-disk store of :class:`~repro.store.record.ArtifactRecord`.

Layout under one root directory::

    <root>/
      objects/<k[:2]>/<k>.rple      # one record per exact labeled graph
      fingerprints/<fp[:2]>/<fp>    # the key stored under fp, or "ambiguous"
      sweeps/                       # batch and warm progress documents

``k`` is :meth:`~repro.portgraph.graph.PortLabeledGraph.cache_key`, the
BLAKE2b-128 of the name-free graph body: two records share a file exactly
when their graphs are equal (``==``), whatever their names.

Consistency model
-----------------
* **The objects directory is the index.**  A record's path is a pure
  function of its labeled graph, so :meth:`ArtifactStore.load_for_graph` is
  one object read -- no refinement pass, no index file -- and a put touches
  only its own object and its fingerprint alias: its cost does not depend
  on how many records the store holds, and no lock is taken.
* **Writes are atomic.**  Every write goes to a unique temp file in the same
  directory followed by ``os.replace`` (an exclusive ``os.link`` when an
  alias is created); a reader sees a complete file or none.  Records are
  values: re-putting unchanged bytes is detected by comparison and skipped,
  and concurrent writers of one labeled graph race only between records of
  that graph.
* **A fingerprint is an alias, never an address.**  The fingerprint is
  relabeling-invariant and only as discriminating as colour refinement, so
  different labeled graphs can share one (relabeled copies; a torus and a
  twisted torus of one size).  The alias names the one labeled graph stored
  under a fingerprint and turns ``ambiguous`` for good when a second one is
  put; :meth:`ArtifactStore.by_fingerprint` refuses an ambiguous alias
  rather than guess.  A put claims the alias before it writes its object,
  so no stored labeling is ever missing from its alias: a crash between
  the two leaves an alias without its object, which reads as a miss until
  the next put of that graph writes it.

A store written by an earlier layout (records named by fingerprint, plus an
index file) needs no migration: its objects are not named by an identity
key, so lookups miss, the recomputed records are written through under
their keys, and :meth:`ArtifactStore.compact` reclaims the old objects.  A
leftover index file is ignored.  A record of an earlier format version
needs no migration either: under its identity key it fails to decode, so
the first :meth:`ArtifactStore.get` quarantines it, the recomputed record
is written through in its place, and :meth:`ArtifactStore.compact`
reclaims the quarantined file.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..portgraph.graph import PortLabeledGraph
from .hottier import HotTier
from .record import ArtifactRecord

__all__ = ["AmbiguousFingerprint", "ArtifactStore"]

_OBJECT_SUFFIX = ".rple"
_QUARANTINE_SUFFIX = ".quarantine"
#: Only names of these shapes become paths: anything else (an absolute path,
#: ``..``) could name a file outside the store.
_KEY_RE = re.compile(r"[0-9a-f]{32}")
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")
#: The alias body once two labeled graphs were stored under one fingerprint.
_AMBIGUOUS = b"ambiguous"
#: Errors that mean "this object does not decode": truncation trips either
#: an explicit format check (``ValueError``) or an out-of-range varint read
#: (``IndexError``).
_DECODE_ERRORS = (ValueError, IndexError)

_logger = logging.getLogger(__name__)


class AmbiguousFingerprint(LookupError):
    """More than one labeled graph is stored under the fingerprint."""


class ArtifactStore:
    """A directory of persisted artifacts, safe for concurrent processes.

    ``hot_tier_bytes``, when positive, gives the store an in-process hot
    tier of that byte budget: repeat :meth:`get` lookups are served from
    mmap'd, pre-decoded residents (see :mod:`repro.store.hottier` for its
    admission and consistency model).
    """

    def __init__(self, root: str, *, create: bool = True, hot_tier_bytes: int = 0) -> None:
        self._root = os.path.abspath(root)
        self._objects = os.path.join(self._root, "objects")
        self._aliases = os.path.join(self._root, "fingerprints")
        if create:
            os.makedirs(self._objects, exist_ok=True)
        elif not os.path.isdir(self._objects):
            raise FileNotFoundError(f"no artifact store at {self._root}")
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._put_skips = 0
        self._bytes_read = 0
        self._bytes_written = 0
        self._corrupt_objects = 0
        self._compactions = 0
        self._compacted_objects = 0
        self._hot: Optional[HotTier] = HotTier(hot_tier_bytes) if hot_tier_bytes else None

    # ------------------------------------------------------------------ #
    @property
    def root(self) -> str:
        return self._root

    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + _OBJECT_SUFFIX)

    def _alias_path(self, fingerprint: str) -> str:
        return os.path.join(self._aliases, fingerprint[:2], fingerprint)

    # ------------------------------------------------------------------ #
    # hot tier
    # ------------------------------------------------------------------ #
    @property
    def hot_tier(self) -> Optional[HotTier]:
        """The in-process hot tier, if the store was built with one."""
        return self._hot

    def close(self) -> None:
        """Release the hot tier's mapped buffers; the store stays usable cold.

        Records already decoded from residents remain valid -- decode copies
        every value out of the mapped buffer -- so in-flight results never
        dangle.
        """
        hot = self._hot
        self._hot = None
        if hot is not None:
            hot.close()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _count_miss(self) -> None:
        with self._counter_lock:
            self._misses += 1

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The object bytes stored under the identity ``key``, or ``None``."""
        if not _KEY_RE.fullmatch(key):
            self._count_miss()
            return None
        try:
            with open(self._object_path(key), "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            self._count_miss()
            return None
        except OSError as error:
            # any other read failure (permissions clamped mid-deploy, a
            # directory squatting on the object path, EIO) is a miss for
            # the caller to recompute past, not a 500 from the service
            _logger.warning("store object %s unreadable, treating as miss: %s", key, error)
            self._count_miss()
            return None
        with self._counter_lock:
            self._hits += 1
            self._bytes_read += len(payload)
        return payload

    def _quarantine(self, key: str, error: Exception) -> None:
        """Move a corrupt object off the read path and re-book its hit as a miss.

        Only called after :meth:`get_bytes` counted a hit for ``key``; the
        renamed ``*.quarantine`` file keeps the bytes around for forensics
        and is reclaimed by :meth:`compact`.
        """
        path = self._object_path(key)
        try:
            os.replace(path, path + _QUARANTINE_SUFFIX)
        except OSError:  # a racing writer may have replaced it already
            pass
        with self._counter_lock:
            self._hits -= 1
            self._misses += 1
            self._corrupt_objects += 1
        if self._hot is not None:
            self._hot.invalidate(key)
        _logger.warning("quarantined corrupt store object %s: %s", key, error)

    def get(self, key: str) -> Optional[ArtifactRecord]:
        """The record stored under the identity ``key``, or ``None``.

        A key that is not 32 lowercase hex characters is a miss.  A torn or
        misfiled object -- bytes that fail to decode, or decode to a graph
        whose identity key is not ``key`` -- is counted as a miss
        (``corrupt_objects``), quarantined, and reported as ``None`` so the
        caller recomputes and writes a fresh object through.  With a hot
        tier enabled, a resident key skips the filesystem entirely.
        """
        hot = self._hot
        if hot is not None:
            record = hot.lookup(key)
            if record is not None:
                with self._counter_lock:
                    self._hits += 1
                return record
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            record = ArtifactRecord.from_bytes(payload)
            if record.graph.cache_key() != key:
                raise ValueError(f"object decodes to graph key {record.graph.cache_key()}")
        except _DECODE_ERRORS as error:
            self._quarantine(key, error)
            return None
        if hot is not None:
            hot.offer(key, self._object_path(key), record)
        return record

    def load_for_graph(self, graph: PortLabeledGraph) -> Optional[ArtifactRecord]:
        """The record of an exactly equal labeled graph, found without refining.

        This is the warm-start hot path, so it degrades to a miss rather
        than an error: an object that is corrupt, written by an unsupported
        format version, or misfiled is quarantined by :meth:`get` -- the
        caller recomputes (and its write-through replaces the bad object),
        instead of every lookup of that graph failing forever.
        """
        record = self.get(graph.cache_key())
        if record is not None and record.graph == graph:
            return record
        return None

    def by_fingerprint(self, fingerprint: str) -> Optional[ArtifactRecord]:
        """The one stored record whose graph has ``fingerprint``, or ``None``.

        Raises :class:`AmbiguousFingerprint` when more than one labeled graph
        has been stored under it: the fingerprint cannot tell them apart, so
        the caller must name the graph itself.  Anything that is not 64
        lowercase hex characters is a miss.
        """
        alias = None
        if _FINGERPRINT_RE.fullmatch(fingerprint):
            alias = _read(self._alias_path(fingerprint))
        if alias == _AMBIGUOUS:
            raise AmbiguousFingerprint(fingerprint)
        if alias is None:
            self._count_miss()
            return None
        record = self.get(alias.decode("ascii", "replace"))
        if record is None or record.fingerprint != fingerprint:
            return None
        return record

    def keys(self) -> List[str]:
        """The identity keys of every stored object, from the objects directory."""
        keys = []
        for _path, name in _shard_files(self._objects):
            key = name[: -len(_OBJECT_SUFFIX)]
            if name.endswith(_OBJECT_SUFFIX) and _KEY_RE.fullmatch(key):
                keys.append(key)
        return keys

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def put(self, record: ArtifactRecord) -> bool:
        """Persist ``record`` under its graph's identity key; returns whether
        bytes were written.

        Unchanged content is never rewritten (records are values); other
        bytes replace the object atomically, whatever it held -- a torn
        incumbent included -- since the key already proves it is the same
        labeled graph.  Before writing, the put claims the fingerprint's
        alias (:meth:`_claim`).  Only this record's object, its alias and
        their temp files are touched.
        """
        payload = record.to_bytes()
        key = record.graph.cache_key()
        path = self._object_path(key)
        if _read(path) == payload:
            with self._counter_lock:
                self._put_skips += 1
            return False
        self._claim(record.fingerprint, key)
        _replace(path, payload)
        with self._counter_lock:
            self._puts += 1
            self._bytes_written += len(payload)
        if self._hot is not None:
            # a resident maps the replaced inode; drop it so the next read
            # observes the new record
            self._hot.invalidate(key)
        return True

    def _claim(self, fingerprint: str, key: str) -> None:
        """Name ``key`` as the labeled graph stored under ``fingerprint``.

        The alias is created with an exclusive link, so of two first writers
        exactly one creates it; when it already names another key -- found
        on reading, or because a concurrent writer linked first -- it is
        rewritten as ambiguous, and nothing rewrites an ambiguous alias.
        """
        path = self._alias_path(fingerprint)
        claimed = key.encode("ascii")
        current = _read(path)
        if current is None:
            if _create(path, claimed):
                return
            current = _read(path)
        if current not in (claimed, _AMBIGUOUS):
            _replace(path, _AMBIGUOUS)

    # ------------------------------------------------------------------ #
    # compaction / GC
    # ------------------------------------------------------------------ #
    def compact(self, *, tmp_grace_seconds: float = 60.0) -> Dict[str, int]:
        """Garbage-collect the store; returns a summary of what was removed.

        Removes:

        * quarantined objects (``*.quarantine``) -- already off the read
          path, kept only for forensics;
        * temp files, of objects and of aliases, older than
          ``tmp_grace_seconds`` (writers that died before ``os.replace``);
        * objects that no longer decode, or whose graph's identity key is
          not their name -- torn writes that predate the quarantine path,
          and every object of an earlier layout.

        Takes no lock: object writes never need one, and two concurrent
        compactions race only on idempotent unlinks.
        """
        removed = {"quarantined": 0, "tmp": 0, "corrupt": 0}
        live = 0
        now = time.time()
        for path, name in [*_shard_files(self._objects), *_shard_files(self._aliases)]:
            if ".tmp." in name:
                try:
                    age = now - os.stat(path).st_mtime
                except OSError:
                    continue
                if age > tmp_grace_seconds and _remove_quietly(path):
                    removed["tmp"] += 1
            elif name.endswith(_QUARANTINE_SUFFIX):
                if _remove_quietly(path):
                    removed["quarantined"] += 1
            elif name.endswith(_OBJECT_SUFFIX):
                key = name[: -len(_OBJECT_SUFFIX)]
                try:
                    with open(path, "rb") as handle:
                        record = ArtifactRecord.from_bytes(handle.read())
                    misnamed = record.graph.cache_key() != key
                except (OSError, *_DECODE_ERRORS):
                    misnamed = True
                if not misnamed:
                    live += 1
                elif _remove_quietly(path):
                    removed["corrupt"] += 1
                    if self._hot is not None:
                        self._hot.invalidate(key)
        with self._counter_lock:
            self._compactions += 1
            self._compacted_objects += sum(removed.values())
        summary = {f"removed_{kind}": count for kind, count in removed.items()}
        summary["live_records"] = live
        return summary

    # ------------------------------------------------------------------ #
    def io_counters(self) -> Dict[str, int]:
        """Every counter of this handle, hot tier included.

        No filesystem access, so cheap enough to snapshot around a single
        evaluation (span profiling) or on every ``/metrics`` scrape.
        """
        with self._counter_lock:
            snapshot = {
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "put_skips": self._put_skips,
                "bytes_read": self._bytes_read,
                "bytes_written": self._bytes_written,
                "corrupt_objects": self._corrupt_objects,
                "compactions": self._compactions,
                "compacted_objects": self._compacted_objects,
            }
        hot = self._hot
        if hot is not None:
            snapshot.update(hot.counters())
        return snapshot

    def stats(self) -> Dict[str, int]:
        """:meth:`io_counters` plus ``records``, the objects stored on disk.

        The hot tier's ``hot_*`` counters are folded in, which is how they
        reach ``/stats`` and the ``repro_store_events`` metrics family
        without any extra service wiring.
        """
        return {"records": len(self.keys()), **self.io_counters()}


def _shard_files(top: str) -> Iterator[Tuple[str, str]]:
    """``(path, name)`` of every file in the shard directories under ``top``."""
    try:
        shards = sorted(os.listdir(top))
    except FileNotFoundError:
        return
    for shard in shards:
        shard_dir = os.path.join(top, shard)
        if os.path.isdir(shard_dir):
            for name in sorted(os.listdir(shard_dir)):
                yield os.path.join(shard_dir, name), name


def _read(path: str) -> Optional[bytes]:
    """The bytes at ``path``, or ``None`` when it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _write_temp(path: str, payload: bytes) -> str:
    """Write ``payload`` to a temp file unique to this thread, next to ``path``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp_path, "wb") as handle:
        handle.write(payload)
    return tmp_path


def _replace(path: str, payload: bytes) -> None:
    os.replace(_write_temp(path, payload), path)


def _create(path: str, payload: bytes) -> bool:
    """Create ``path`` holding ``payload``; ``False`` if it exists already."""
    tmp_path = _write_temp(path, payload)
    try:
        os.link(tmp_path, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp_path)
    return True


def _remove_quietly(path: str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    return True
