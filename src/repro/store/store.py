"""Content-addressed on-disk store of :class:`~repro.store.record.ArtifactRecord`.

Layout under one root directory::

    <root>/
      manifest.json            # index + per-record metadata (rebuildable)
      manifest.lock            # flock'd during manifest read-modify-write
      objects/<fp[:2]>/<fp>.rple   # one record, named by its fingerprint

Consistency model
-----------------
* **Records are immutable values.**  A record's path is derived from the
  graph fingerprint, and its bytes are a pure function of the graph and the
  (deterministic) results it carries, so concurrent writers of the same
  fingerprint race only between identical byte strings.
* **Writes are atomic.**  Every write goes to a unique temp file in the same
  directory followed by ``os.replace``; a reader either sees a complete
  record or no record, never a torn one.  Re-putting unchanged content is
  detected by byte comparison and skipped.
* **The manifest is an index, not a source of truth.**  It maps storage keys
  to metadata (graph label, sizes, the exact ``cache_key`` used for
  read-through lookups, observed compute cost) and is rewritten atomically
  under an ``flock``; if it is lost it can be rebuilt from the objects
  directory with :meth:`ArtifactStore.rebuild_manifest`, and a corrupt
  manifest, or one whose ``format_version`` is not the current record
  format (its index keys are another format's), is rebuilt on first use.
  Readers never need it to resolve a known fingerprint.
* **Colliding labelings spill.**  The fingerprint is relabeling-invariant
  and only as discriminating as colour refinement, so two *different*
  labeled graphs can share one fingerprint (relabeled copies; or genuinely
  different view-symmetric graphs, e.g. a torus and a twisted torus of the
  same size).  The first writer owns the primary object
  ``<fp>.rple``; a later put of a different labeled graph behind the same
  fingerprint goes to a spill object ``<fp>~<labeling-digest>.rple``
  (deterministic, so concurrent writers of the same labeling still race
  only between identical bytes).  ``load_for_graph`` resolves by exact
  labeled equality over all candidates, so every labeling warm-starts.

Read-through by graph (not by fingerprint) is the hot path of the runner
cache: computing a fingerprint requires refining the graph, which is exactly
the work a warm start wants to avoid.  :meth:`ArtifactStore.load_for_graph`
therefore looks up candidates by
:meth:`~repro.portgraph.graph.PortLabeledGraph.cache_key` -- an O(n + m)
digest of the exact labeled graph, name ignored -- recorded in the manifest,
and confirms each candidate by graph equality, so a cold process finds its
record without a single refinement pass.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..portgraph.graph import PortLabeledGraph
from ..portgraph.io import graph_to_bytes
from .hottier import DEFAULT_HOT_TIER_BYTES, HotTier
from .record import FORMAT_VERSION, ArtifactRecord

__all__ = ["ArtifactStore"]

_MANIFEST_NAME = "manifest.json"
_LOCK_NAME = "manifest.lock"
_OBJECT_SUFFIX = ".rple"
_QUARANTINE_SUFFIX = ".quarantine"
#: Separates the fingerprint from the labeling digest in a spill key
#: (not a hex character, so primary and spill keys cannot collide).
_SPILL_SEPARATOR = "~"
#: Errors that mean "this object does not decode": truncation trips either
#: an explicit format check (``ValueError``) or an out-of-range varint read
#: (``IndexError``).
_DECODE_ERRORS = (ValueError, IndexError)

_logger = logging.getLogger(__name__)


class ArtifactStore:
    """A directory of persisted artifacts, safe for concurrent processes."""

    def __init__(self, root: str, *, create: bool = True, hot_tier_bytes: int = 0) -> None:
        self._root = os.path.abspath(root)
        self._objects = os.path.join(self._root, "objects")
        self._manifest_path = os.path.join(self._root, _MANIFEST_NAME)
        self._lock_path = os.path.join(self._root, _LOCK_NAME)
        if create:
            os.makedirs(self._objects, exist_ok=True)
        elif not os.path.isdir(self._objects):
            raise FileNotFoundError(f"no artifact store at {self._root}")
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._put_skips = 0
        self._put_spills = 0
        self._bytes_read = 0
        self._bytes_written = 0
        self._manifest_rebuilds = 0
        self._corrupt_objects = 0
        self._compactions = 0
        self._compacted_objects = 0
        self._hot: Optional[HotTier] = None
        # manifest cache, keyed by the full stat triple (mtime_ns, size,
        # inode) of the manifest file.  mtime alone is not enough: two
        # rewrites within one filesystem timestamp tick would serve the
        # first rewrite's index forever.  Every manifest write is an
        # ``os.replace`` of a fresh temp file, so the inode changes on
        # *every* rewrite even when mtime and size do not.
        self._manifest_cache: Optional[
            Tuple[Tuple[int, int, int], dict, Dict[str, List[str]]]
        ] = None
        if hot_tier_bytes:
            self.enable_hot_tier(hot_tier_bytes)

    # ------------------------------------------------------------------ #
    @property
    def root(self) -> str:
        return self._root

    def _object_path(self, fingerprint: str) -> str:
        return os.path.join(self._objects, fingerprint[:2], fingerprint + _OBJECT_SUFFIX)

    # ------------------------------------------------------------------ #
    # hot tier
    # ------------------------------------------------------------------ #
    @property
    def hot_tier(self) -> Optional[HotTier]:
        """The attached in-process hot tier, if one is enabled."""
        return self._hot

    def enable_hot_tier(self, max_bytes: int = DEFAULT_HOT_TIER_BYTES) -> None:
        """Serve repeat :meth:`get` lookups from mmap'd, pre-decoded residents.

        Idempotent: enabling an already-hot store keeps the existing tier
        (and its residents).  See :mod:`repro.store.hottier` for the
        admission and consistency model.
        """
        if self._hot is None:
            self._hot = HotTier(max_bytes)

    def close(self) -> None:
        """Release the hot tier's mapped buffers; the store stays usable cold.

        Records already decoded from residents remain valid -- decode copies
        every array out of the mapped buffer -- so in-flight results never
        dangle.
        """
        hot = self._hot
        self._hot = None
        if hot is not None:
            hot.close()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def contains(self, fingerprint: str) -> bool:
        return os.path.exists(self._object_path(fingerprint))

    def get_bytes(self, fingerprint: str) -> Optional[bytes]:
        try:
            with open(self._object_path(fingerprint), "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            with self._counter_lock:
                self._misses += 1
            return None
        except OSError as error:
            # any other read failure (permissions clamped mid-deploy, a
            # directory squatting on the object path, EIO) is a miss for
            # the caller to recompute past, not a 500 from the service
            _logger.warning("store object %s unreadable, treating as miss: %s",
                            fingerprint, error)
            with self._counter_lock:
                self._misses += 1
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
        """The record stored under ``key`` (a fingerprint or spill key), or ``None``.

        A torn or misplaced object -- bytes that fail to decode, or decode
        to a record whose fingerprint contradicts the key -- is counted as
        a miss (``corrupt_objects``), quarantined, and reported as ``None``
        so the caller recomputes and writes a fresh object through.  With a
        hot tier enabled, a resident key skips the filesystem entirely.
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
        except _DECODE_ERRORS as error:
            self._quarantine(key, error)
            return None
        if record.fingerprint != key.partition(_SPILL_SEPARATOR)[0]:
            self._quarantine(
                key,
                ValueError(f"object decodes to fingerprint {record.fingerprint}"),
            )
            return None
        if hot is not None:
            hot.offer(key, self._object_path(key), record)
        return record

    def load_for_graph(self, graph: PortLabeledGraph) -> Optional[ArtifactRecord]:
        """The record of an exactly equal labeled graph, found without refining.

        This is the warm-start hot path, so it degrades to a miss rather
        than an error: a candidate object that is corrupt, written by an
        unsupported format version, or misfiled is quarantined and skipped
        -- the caller recomputes (and its write-through replaces the bad
        object), instead of every lookup of that graph failing forever.
        """
        candidates = self._index().get(graph.cache_key(), ())
        for fingerprint in candidates:
            record = self.get(fingerprint)
            if record is not None and record.graph == graph:
                return record
        return None

    def fingerprints(self) -> List[str]:
        """All stored object keys (fingerprints, plus ``fp~digest`` spill keys),
        from the objects directory (not the manifest)."""
        found: List[str] = []
        if not os.path.isdir(self._objects):
            return found
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(_OBJECT_SUFFIX):
                    found.append(name[: -len(_OBJECT_SUFFIX)])
        return found

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    @staticmethod
    def _spill_key(record: ArtifactRecord) -> str:
        """The deterministic secondary key of a colliding labeling."""
        digest = hashlib.blake2b(graph_to_bytes(record.graph), digest_size=8).hexdigest()
        return f"{record.fingerprint}{_SPILL_SEPARATOR}{digest}"

    def put(self, record: ArtifactRecord, *, cost: Optional[Dict[str, float]] = None) -> bool:
        """Persist ``record`` atomically; returns whether bytes were written.

        Unchanged content is never rewritten (records are values), but the
        manifest entry is still ensured, so a rebuilt or lagging index heals
        on the next write-through.  ``cost`` is optional volatile metadata
        (e.g. cold compute seconds) recorded in the manifest only.

        The fingerprint is relabeling-invariant, so two *different* labeled
        graphs can address the same primary object.  The first writer owns
        it; a later put of a different labeled graph spills to the key of
        :meth:`_spill_key`, which is a pure function of the labeled graph --
        so the primary never churns, every labeling has exactly one home,
        and concurrent writers of one labeling still race only between
        identical byte strings.  A new key is created with an exclusive
        link, never a replace: when two first writers of different
        labelings race for one primary, the loser finds the winner's bytes
        and spills instead of overwriting them.
        """
        payload = record.to_bytes()
        while True:
            key, existing = self._home(record, payload)
            wrote = existing != payload
            if not wrote or self._write_object(key, payload, replace=existing is not None):
                break
            # a concurrent writer created the key first: decide again
        if wrote:
            with self._counter_lock:
                self._puts += 1
                self._bytes_written += len(payload)
            if self._hot is not None:
                # a resident maps the replaced inode; drop it so the next
                # read observes the merged record
                self._hot.invalidate(key)
        else:
            with self._counter_lock:
                self._put_skips += 1
        meta = self._record_meta(record, len(payload))
        if cost:
            meta["cost"] = cost
        self._ensure_manifest_entry(key, meta, force=wrote)
        return wrote

    def _home(self, record: ArtifactRecord, payload: bytes) -> Tuple[str, Optional[bytes]]:
        """The key ``record`` belongs under, and the bytes stored there now."""
        key = record.fingerprint
        existing = self._read_object(key)
        if existing is not None and existing != payload:
            try:
                incumbent = ArtifactRecord.from_bytes(existing)
            except ValueError:
                incumbent = None  # corrupt incumbent: replace it
            if incumbent is not None and incumbent.graph != record.graph:
                key = self._spill_key(record)
                existing = self._read_object(key)
                with self._counter_lock:
                    self._put_spills += 1
        return key, existing

    def _read_object(self, key: str) -> Optional[bytes]:
        try:
            with open(self._object_path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def _write_object(self, key: str, payload: bytes, *, replace: bool) -> bool:
        """Write ``payload`` under ``key`` atomically.

        Without ``replace`` the key must not exist yet: returns ``False``,
        writing nothing, when a concurrent writer created it first.
        """
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
        if replace:
            os.replace(tmp_path, path)
            return True
        try:
            os.link(tmp_path, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp_path)
        return True

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    def _empty_manifest(self) -> dict:
        return {"format_version": FORMAT_VERSION, "generation": 0, "records": {}}

    def _load_manifest_file(self) -> Optional[dict]:
        """Parse the manifest file: an empty manifest if absent, ``None`` if
        the file is *present but unusable* -- corrupt (truncated write,
        garbage bytes, wrong shape), or written for another record format,
        whose index keys this code does not compute.  The two cases recover
        differently."""
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return self._empty_manifest()
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("records"), dict):
            return None
        if manifest.get("format_version") != FORMAT_VERSION:
            return None
        # manifests written before compaction existed carry no generation
        if not isinstance(manifest.get("generation"), int):
            manifest["generation"] = 0
        return manifest

    def _read_manifest(self) -> dict:
        # used under the manifest lock (read-modify-write), so it cannot call
        # rebuild_manifest(), which takes the lock: an unusable manifest is
        # re-indexed from the objects right here, so the rewrite keeps every
        # record it does not touch
        manifest = self._load_manifest_file()
        if manifest is None:
            with self._counter_lock:
                self._manifest_rebuilds += 1
            manifest = self._empty_manifest()
            manifest["generation"] = 1
            manifest["records"] = self._scan_records()
        return manifest

    def _manifest_stat(self) -> Tuple[int, int, int]:
        """The cache key of the manifest file: ``(mtime_ns, size, inode)``.

        Every manifest rewrite is an ``os.replace`` of a fresh temp file,
        which allocates a new inode -- so this triple changes on *every*
        rewrite, including a same-size rewrite that lands within one mtime
        tick (the stale-index bug mtime-only keying had).  The manifest's
        ``generation`` field tracks the same thing logically, but reading
        it would cost the very parse the cache exists to avoid; the inode
        is the zero-cost stand-in and strictly more sensitive (it also
        advances on record writes, not just compactions).
        """
        try:
            stat = os.stat(self._manifest_path)
        except FileNotFoundError:
            return (-1, -1, -1)
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def manifest(self) -> dict:
        """The current manifest, cached by the file's stat triple.  Treat as
        read-only.

        A corrupt-but-present manifest (a torn write, garbage bytes) is not
        an empty store: the objects directory is the source of truth, so the
        index is rebuilt from it in place -- lookups after recovery are
        byte-identical to lookups before the corruption.
        """
        stat_key = self._manifest_stat()
        cached = self._manifest_cache
        if cached is not None and cached[0] == stat_key:
            return cached[1]
        manifest = self._load_manifest_file()
        if manifest is None:
            with self._counter_lock:
                self._manifest_rebuilds += 1
            self.rebuild_manifest()
            manifest = self._load_manifest_file() or self._empty_manifest()
            stat_key = self._manifest_stat()
        index: Dict[str, List[str]] = {}
        for fingerprint, meta in manifest["records"].items():
            cache_key = meta.get("cache_key")
            if cache_key:
                index.setdefault(cache_key, []).append(fingerprint)
        self._manifest_cache = (stat_key, manifest, index)
        return manifest

    def generation(self) -> int:
        """The manifest generation: bumped by every compaction and rebuild."""
        return int(self.manifest().get("generation", 0))

    def _index(self) -> Dict[str, List[str]]:
        self.manifest()
        cached = self._manifest_cache
        return cached[2] if cached is not None else {}

    def _write_manifest(self, manifest: dict) -> None:
        tmp_path = f"{self._manifest_path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, self._manifest_path)
        self._manifest_cache = None

    def _ensure_manifest_entry(self, fingerprint: str, meta: dict, *, force: bool) -> None:
        if not force:
            existing = self.manifest()["records"].get(fingerprint)
            if existing is not None and existing.get("bytes") == meta.get("bytes"):
                return
        with self._manifest_lock():
            manifest = self._read_manifest()
            manifest["records"][fingerprint] = meta
            self._write_manifest(manifest)

    def _manifest_lock(self, timeout: float = 10.0):
        """An exclusive cross-process lock around manifest read-modify-write."""
        return _FileLock(self._lock_path, timeout=timeout)

    @staticmethod
    def _record_meta(record: ArtifactRecord, payload_size: int) -> dict:
        meta = {
            "cache_key": record.graph.cache_key(),
            "name": record.graph.name,
            "n": record.graph.num_nodes,
            "m": record.graph.num_edges,
            "bytes": payload_size,
            "stable_depth": record.stable_depth,
            "psi_entries": len(record.psi),
        }
        if record.parent_fingerprint:
            # delta lineage: which base record this one was replayed from
            meta["parent"] = record.parent_fingerprint
            meta["delta"] = record.delta_digest
        return meta

    def rebuild_manifest(self) -> int:
        """Regenerate the manifest by decoding every object; returns the count.

        The rewritten manifest carries ``generation + 1``, so every other
        handle's stat-keyed cache notices the new index.
        """
        records = self._scan_records()
        with self._manifest_lock():
            current = self._load_manifest_file()
            manifest = self._empty_manifest()
            manifest["generation"] = (current or {}).get("generation", 0) + 1
            manifest["records"] = records
            self._write_manifest(manifest)
        return len(records)

    def _scan_records(self) -> Dict[str, dict]:
        """Manifest metadata of every object that decodes, by storage key."""
        records = {}
        for key in self.fingerprints():
            payload = self.get_bytes(key)
            if payload is None:
                continue
            try:
                record = ArtifactRecord.from_bytes(payload)
            except _DECODE_ERRORS:
                continue  # a corrupt object must not block recovering the rest
            records[key] = self._record_meta(record, len(payload))
        return records

    # ------------------------------------------------------------------ #
    # compaction / GC
    # ------------------------------------------------------------------ #
    def compact(self, *, tmp_grace_seconds: float = 60.0) -> Dict[str, int]:
        """Garbage-collect the objects directory; rewrite the manifest index.

        Removes, under the manifest flock (so no concurrent compaction or
        manifest rewrite interleaves):

        * quarantined objects (``*.quarantine``) -- already off the read
          path, kept only for forensics;
        * temp files older than ``tmp_grace_seconds`` (writers that died
          between ``write`` and ``os.replace``);
        * objects that no longer decode or decode to the wrong fingerprint
          (torn writes that predate the quarantine path);
        * spill objects *superseded* by their primary: a spill whose
          labeled graph is exactly the primary's carries no identity of its
          own -- its memo entries are merged into the primary first, so no
          computed result is ever dropped.

        Valid primaries, and spills holding genuinely different labeled
        graphs, are never touched.  Survivors are re-indexed into a fresh
        manifest with ``generation + 1``.  Returns a summary of what was
        removed.
        """
        removed = {"quarantined": 0, "tmp": 0, "corrupt": 0, "spills": 0}
        now = time.time()
        decoded: Dict[str, ArtifactRecord] = {}
        sizes: Dict[str, int] = {}
        with self._manifest_lock():
            shards = sorted(os.listdir(self._objects)) if os.path.isdir(self._objects) else []
            for shard in shards:
                shard_dir = os.path.join(self._objects, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    path = os.path.join(shard_dir, name)
                    if name.endswith(_QUARANTINE_SUFFIX):
                        if self._remove_quietly(path):
                            removed["quarantined"] += 1
                        continue
                    if ".tmp." in name:
                        try:
                            age = now - os.stat(path).st_mtime
                        except OSError:
                            continue
                        if age > tmp_grace_seconds and self._remove_quietly(path):
                            removed["tmp"] += 1
                        continue
                    if not name.endswith(_OBJECT_SUFFIX):
                        continue
                    key = name[: -len(_OBJECT_SUFFIX)]
                    try:
                        with open(path, "rb") as handle:
                            payload = handle.read()
                        record = ArtifactRecord.from_bytes(payload)
                        if record.fingerprint != key.partition(_SPILL_SEPARATOR)[0]:
                            raise ValueError("fingerprint mismatch")
                    except (OSError, *_DECODE_ERRORS):
                        if self._remove_quietly(path):
                            removed["corrupt"] += 1
                            if self._hot is not None:
                                self._hot.invalidate(key)
                        continue
                    decoded[key] = record
                    sizes[key] = len(payload)
            # drop spills whose labeled graph the primary already holds,
            # folding their memo entries into the primary so nothing is lost
            for key in [k for k in decoded if _SPILL_SEPARATOR in k]:
                primary_key = key.partition(_SPILL_SEPARATOR)[0]
                primary = decoded.get(primary_key)
                spill = decoded[key]
                if primary is None or primary.graph != spill.graph:
                    continue
                merged = primary.merged_with(spill)
                merged_payload = merged.to_bytes()
                primary_path = self._object_path(primary_key)
                if merged_payload != primary.to_bytes():
                    tmp_path = f"{primary_path}.tmp.{os.getpid()}.{threading.get_ident()}"
                    with open(tmp_path, "wb") as handle:
                        handle.write(merged_payload)
                    os.replace(tmp_path, primary_path)
                    with self._counter_lock:
                        self._puts += 1
                        self._bytes_written += len(merged_payload)
                    if self._hot is not None:
                        self._hot.invalidate(primary_key)
                decoded[primary_key] = merged
                sizes[primary_key] = len(merged_payload)
                if self._remove_quietly(self._object_path(key)):
                    removed["spills"] += 1
                    if self._hot is not None:
                        self._hot.invalidate(key)
                del decoded[key]
            records = {
                key: self._record_meta(record, sizes[key])
                for key, record in decoded.items()
            }
            current = self._load_manifest_file()
            manifest = self._empty_manifest()
            manifest["generation"] = (current or {}).get("generation", 0) + 1
            manifest["records"] = records
            self._write_manifest(manifest)
        with self._counter_lock:
            self._compactions += 1
            self._compacted_objects += sum(removed.values())
        summary = {f"removed_{kind}": count for kind, count in removed.items()}
        summary["live_records"] = len(records)
        summary["generation"] = manifest["generation"]
        return summary

    @staticmethod
    def _remove_quietly(path: str) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------ #
    def io_counters(self) -> Dict[str, int]:
        """This handle's counters only -- no manifest read, so cheap enough
        to snapshot before/after a single evaluation (span profiling)."""
        with self._counter_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "bytes_read": self._bytes_read,
                "bytes_written": self._bytes_written,
            }

    def stats(self) -> Dict[str, int]:
        """Counters of this handle plus the on-disk record count.

        With a hot tier enabled its ``hot_*`` counters are folded in, which
        is how they reach ``/stats`` and the ``repro_store_events`` metrics
        family without any extra service wiring.
        """
        # read the manifest before taking the counter lock: a corrupt
        # manifest triggers a rebuild, which bumps a counter itself
        records = len(self.manifest()["records"])
        with self._counter_lock:
            snapshot = {
                "records": records,
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "put_skips": self._put_skips,
                "put_spills": self._put_spills,
                "bytes_read": self._bytes_read,
                "bytes_written": self._bytes_written,
                "manifest_rebuilds": self._manifest_rebuilds,
                "corrupt_objects": self._corrupt_objects,
                "compactions": self._compactions,
                "compacted_objects": self._compacted_objects,
            }
        hot = self._hot
        if hot is not None:
            snapshot.update(hot.counters())
        return snapshot


class _FileLock:
    """A small blocking ``flock`` wrapper with a timeout (POSIX; no-op elsewhere)."""

    def __init__(self, path: str, *, timeout: float) -> None:
        self._path = path
        self._timeout = timeout
        self._handle = None

    def __enter__(self) -> "_FileLock":
        try:
            import fcntl
        except ImportError:  # non-POSIX: fall back to atomic-replace-only safety
            return self
        handle = open(self._path, "a+b")
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._handle = handle
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    handle.close()
                    raise TimeoutError(f"could not lock {self._path} within {self._timeout}s")
                time.sleep(0.01)

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            import fcntl

            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
