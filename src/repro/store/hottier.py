"""In-process read-only hot tier of mmap'd artifact records.

Under sustained zipf-shaped traffic a handful of popular graphs dominate
the request mix, and every :meth:`ArtifactStore.get` of one of them
pays the same open + read + deserialize tax.  The hot tier removes that tax
for residents: an admitted object is an ``mmap`` of its immutable ``.rple``
file plus the lazily decoded :class:`~repro.store.record.ArtifactRecord`,
so a repeat lookup returns the already-decoded record without touching the
filesystem at all.  Decoding works directly on the mapped buffer -- the
record format reads integers by indexing and copies slices on access, the
same zero-copy discipline as the kernel's ``frombuffer`` CSR views -- so
admission itself never re-reads the payload either.

Consistency model
-----------------
Records are immutable values and writes are atomic (``os.replace``), so a
mapped buffer can never observe a torn write: it pins the inode it was
admitted from, and a concurrent re-put of the same key replaces the
*directory entry*, not the mapped bytes.  The only way a resident goes
stale is a local :meth:`ArtifactStore.put` or compaction through the same
handle, both of which invalidate the key.  Staleness across *processes* is
benign by construction -- two objects with one identity key decode to
records of the same graph, differing at most in memo coverage, and a
lagging memo only costs a recompute (which writes through and re-admits).

Admission is frequency-observing: a key is admitted on its *second*
observed request (a doorkeeper counts first touches), so one-hit sweep
traffic cannot evict hot residents.  Residency is bounded by a byte budget
with LRU eviction; evicting closes the mmap.  Records decoded from a
resident stay valid after eviction or :meth:`HotTier.close` because decode
builds its integers, strings and graph as new objects -- nothing retains a
view into the map, so closing never raises ``BufferError`` and callers
never hold a dangling buffer.
"""

from __future__ import annotations

import mmap
import threading
from collections import OrderedDict
from typing import Dict, Optional

from .record import ArtifactRecord

__all__ = ["HotTier", "DEFAULT_HOT_TIER_BYTES"]

#: Default residency budget when a hot tier is enabled without a size.
DEFAULT_HOT_TIER_BYTES = 64 * 1024 * 1024

#: Touches a key must accumulate before it is admitted.
_ADMIT_TOUCHES = 2

#: Doorkeeper capacity: first-touch counts tracked at once.  Bounded FIFO --
#: under a scan workload old one-touch keys age out instead of growing the
#: map without limit.
_DOORKEEPER_MAX = 4096


class _HotObject:
    """One resident: the mapped bytes and the lazily decoded record."""

    __slots__ = ("key", "data", "size", "_record")

    def __init__(self, key: str, data: mmap.mmap, size: int) -> None:
        self.key = key
        self.data = data
        self.size = size
        self._record: Optional[ArtifactRecord] = None

    def record(self) -> ArtifactRecord:
        """The decoded record, deserialized at most once per residency."""
        if self._record is None:
            self._record = ArtifactRecord.from_bytes(self.data)
        return self._record

    def seed_record(self, record: ArtifactRecord) -> None:
        self._record = record

    def close(self) -> None:
        try:
            self.data.close()
        except (BufferError, ValueError):  # pragma: no cover - defensive
            pass


class HotTier:
    """A byte-budgeted LRU of mmap'd records, admitting a key on its second touch."""

    def __init__(self, max_bytes: int = DEFAULT_HOT_TIER_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError("the hot tier's budget must be at least 1 byte")
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._residents: "OrderedDict[str, _HotObject]" = OrderedDict()
        self._doorkeeper: "OrderedDict[str, int]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._admissions = 0
        self._evictions = 0
        self._invalidations = 0

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._residents)

    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[ArtifactRecord]:
        """The resident record of ``key``, or ``None`` (counts the touch)."""
        with self._lock:
            resident = self._residents.get(key)
            if resident is not None:
                self._residents.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if resident is None:
            return None
        return resident.record()

    def offer(self, key: str, path: str, record: Optional[ArtifactRecord] = None) -> bool:
        """Observe a cold read of ``key``; admit on the second observation.

        Called by the store *after* it has read and validated the object, so
        ``record`` (when given) seeds the resident's decoded form and a bad
        object can never be admitted.  Returns whether ``key`` is resident
        on return.
        """
        with self._lock:
            if key in self._residents:
                return True
            touches = self._doorkeeper.pop(key, 0) + 1
            if touches < _ADMIT_TOUCHES:
                self._doorkeeper[key] = touches
                while len(self._doorkeeper) > _DOORKEEPER_MAX:
                    self._doorkeeper.popitem(last=False)
                return False
        # map outside the lock: admission does filesystem work
        try:
            with open(path, "rb") as handle:
                data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return False
        resident = _HotObject(key, data, len(data))
        if record is not None:
            resident.seed_record(record)
        evicted = []
        with self._lock:
            if key in self._residents:  # racing admitter won
                evicted.append(resident)
            else:
                self._residents[key] = resident
                self._bytes += resident.size
                self._admissions += 1
                while self._bytes > self._max_bytes and len(self._residents) > 1:
                    _old_key, old = self._residents.popitem(last=False)
                    self._bytes -= old.size
                    self._evictions += 1
                    evicted.append(old)
        for stale in evicted:
            stale.close()
        return True

    def invalidate(self, key: str) -> None:
        """Drop ``key`` (resident or doorkeeper state) after a local rewrite."""
        with self._lock:
            resident = self._residents.pop(key, None)
            if resident is not None:
                self._bytes -= resident.size
                self._invalidations += 1
            self._doorkeeper.pop(key, None)
        if resident is not None:
            resident.close()

    def close(self) -> None:
        """Release every mapped buffer (records already decoded stay valid)."""
        with self._lock:
            residents = list(self._residents.values())
            self._residents.clear()
            self._doorkeeper.clear()
            self._bytes = 0
        for resident in residents:
            resident.close()

    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """Counters under ``hot_``-prefixed keys, ready to fold into
        :meth:`ArtifactStore.stats` (and from there into ``/metrics``)."""
        with self._lock:
            return {
                "hot_hits": self._hits,
                "hot_misses": self._misses,
                "hot_admissions": self._admissions,
                "hot_evictions": self._evictions,
                "hot_invalidations": self._invalidations,
                "hot_bytes": self._bytes,
                "hot_entries": len(self._residents),
            }
