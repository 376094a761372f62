"""A minimal Prometheus-text-format metrics registry (stdlib only).

The container the reproduction targets has no ``prometheus_client``, so
this module implements the three instrument kinds the service needs --
monotonic counters, gauges (set directly or read from a callback at scrape
time) and cumulative-bucket histograms -- plus the text exposition format
(``# HELP`` / ``# TYPE`` comments, ``name{label="value"} 1.0`` samples)
that every Prometheus-compatible scraper understands.

Design constraints:

* **Scrapes must be cheap and lock-light.**  ``GET /metrics`` runs on the
  event loop's executor while queries are in flight; instruments share one
  registry lock held only for point reads/writes, and gauge callbacks are
  invoked outside it.  Nothing here does I/O or round-trips a worker pipe.
* **Label cardinality is the caller's problem, bounded by construction.**
  The server normalises paths (``/sweeps/<id>`` becomes ``/sweeps/{id}``)
  before labelling, so a scrape's size is O(endpoints x statuses), not
  O(sweeps ever served).
* **Rendering is deterministic.**  Families render in registration order,
  children in sorted label order, floats via ``repr`` -- two scrapes of an
  idle server are byte-identical, which keeps the CI smoke trivial.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "validate_exposition",
]

#: Request-latency buckets (seconds): sub-millisecond warm hits through
#: multi-second cold sweeps.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _sample(name: str, labels: Sequence[Tuple[str, str]], value: float) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label_value(str(val))}"' for key, val in labels
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Instrument:
    """Shared child bookkeeping: one value cell per label-value tuple."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str], lock: threading.Lock
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: Dict[Tuple[str, ...], float] = {}

    def _render_callback(self, callback: Callable[[], object]) -> List[str]:
        """Render from a scrape-time callback returning a number or a
        ``{labelvalues: number}`` dict keyed by tuples matching the label
        names (shared by callback gauges and callback counters)."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        observed = callback()
        if isinstance(observed, dict):
            for labelvalues in sorted(observed):
                values = (
                    labelvalues if isinstance(labelvalues, tuple) else (labelvalues,)
                )
                lines.append(
                    _sample(
                        self.name,
                        list(zip(self.labelnames, (str(v) for v in values))),
                        float(observed[labelvalues]),
                    )
                )
        else:
            lines.append(_sample(self.name, (), float(observed)))
        return lines

    def _labelvalues(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            children = sorted(self._children.items())
        if not children and not self.labelnames:
            children = [((), 0.0)]
        for labelvalues, value in children:
            lines.append(
                _sample(self.name, list(zip(self.labelnames, labelvalues)), value)
            )
        return lines


class Counter(_Instrument):
    """A monotonically increasing value, optionally split by labels.

    Like gauges, a counter may read a scrape-time callback instead of
    being incremented -- for values that are already accumulated elsewhere
    (dropped spans) but are semantically monotone.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        callback: Optional[Callable[[], object]] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self._callback = callback

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"{self.name}: callback counters cannot be incremented")
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._labelvalues(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._children.get(self._labelvalues(labels), 0.0)

    def render(self) -> List[str]:
        if self._callback is None:
            return super().render()
        return self._render_callback(self._callback)


class Gauge(_Instrument):
    """A point-in-time value: ``set`` directly, or supply a scrape callback.

    A callback gauge is read at render time (outside the registry lock) and
    must return either a number (no labels) or a ``{labelvalues: number}``
    dict keyed by tuples matching ``labelnames``.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        callback: Optional[Callable[[], object]] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self._callback = callback

    def set(self, value: float, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"{self.name}: callback gauges cannot be set")
        key = self._labelvalues(labels)
        with self._lock:
            self._children[key] = float(value)

    def render(self) -> List[str]:
        if self._callback is None:
            return super().render()
        return self._render_callback(self._callback)


class Histogram:
    """Cumulative-bucket histogram: ``_bucket{le=...}``, ``_sum``, ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{name}: at least one bucket bound is required")
        self._bounds = bounds
        # child -> (per-bucket counts, sum, count)
        self._children: Dict[Tuple[str, ...], Tuple[List[int], float, int]] = {}

    def _labelvalues(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def observe(self, value: float, **labels: str) -> None:
        key = self._labelvalues(labels)
        with self._lock:
            counts, total, count = self._children.get(
                key, ([0] * len(self._bounds), 0.0, 0)
            )
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    counts[index] += 1
                    break
            self._children[key] = (counts, total + value, count + 1)

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            children = sorted(
                (key, (list(counts), total, count))
                for key, (counts, total, count) in self._children.items()
            )
        for labelvalues, (counts, total, count) in children:
            base = list(zip(self.labelnames, labelvalues))
            cumulative = 0
            for bound, bucket_count in zip(self._bounds, counts):
                cumulative += bucket_count
                lines.append(
                    _sample(
                        f"{self.name}_bucket", base + [("le", _format_value(bound))], cumulative
                    )
                )
            lines.append(_sample(f"{self.name}_bucket", base + [("le", "+Inf")], count))
            lines.append(_sample(f"{self.name}_sum", base, total))
            lines.append(_sample(f"{self.name}_count", base, count))
        return lines


class MetricsRegistry:
    """Creates instruments and renders the whole exposition document."""

    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: List[object] = []
        self._names: set = set()

    def _register(self, instrument):
        if instrument.name in self._names:
            raise ValueError(f"duplicate metric name {instrument.name!r}")
        self._names.add(instrument.name)
        self._families.append(instrument)
        return instrument

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], object]] = None,
    ) -> Counter:
        return self._register(Counter(name, help_text, labelnames, self._lock, callback))

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], object]] = None,
    ) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames, self._lock, callback))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help_text, labelnames, self._lock, buckets))

    def render(self) -> str:
        lines: List[str] = []
        for family in self._families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# exposition lint: a tiny text-format parser for CI and tests
# --------------------------------------------------------------------------- #
_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_KNOWN_KINDS = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


def _parse_labels(raw: str, *, line: str) -> Tuple[Tuple[str, str], ...]:
    """Parse ``a="b",c="d"`` honouring the ``\\\\``/``\\"``/``\\n`` escapes."""
    labels: List[Tuple[str, str]] = []
    position = 0
    while position < len(raw):
        match = _METRIC_NAME_RE.match(raw, position)
        if match is None or raw[match.end(): match.end() + 2] != '="':
            raise ValueError(f"malformed label pair at {raw[position:]!r} in {line!r}")
        name = match.group(0)
        position = match.end() + 2
        value_chars: List[str] = []
        while True:
            if position >= len(raw):
                raise ValueError(f"unterminated label value in {line!r}")
            ch = raw[position]
            if ch == "\\":
                escape = raw[position: position + 2]
                if escape == "\\\\":
                    value_chars.append("\\")
                elif escape == '\\"':
                    value_chars.append('"')
                elif escape == "\\n":
                    value_chars.append("\n")
                else:
                    raise ValueError(f"bad escape {escape!r} in {line!r}")
                position += 2
                continue
            if ch == '"':
                position += 1
                break
            if ch == "\n":
                raise ValueError(f"raw newline inside label value in {line!r}")
            value_chars.append(ch)
            position += 1
        labels.append((name, "".join(value_chars)))
        if position < len(raw):
            if raw[position] != ",":
                raise ValueError(f"expected ',' between label pairs in {line!r}")
            position += 1
    return tuple(labels)


def _parse_value(raw: str, *, line: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"unparseable sample value {raw!r} in {line!r}") from None


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse a Prometheus text exposition into ``{family: {...}}``.

    Each family maps to ``{"help": str|None, "type": str, "samples":
    {(sample_name, labels): value}}`` with labels as sorted tuples.
    Raises :class:`ValueError` on any grammar violation.
    """
    families: Dict[str, Dict[str, object]] = {}
    pending_help: Dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            if not _METRIC_NAME_RE.fullmatch(name):
                raise ValueError(f"bad metric name in {line!r}")
            if name in families or name in pending_help:
                raise ValueError(f"duplicate HELP for {name!r}")
            pending_help[name] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2:
                raise ValueError(f"malformed TYPE line {line!r}")
            name, kind = parts
            if not _METRIC_NAME_RE.fullmatch(name):
                raise ValueError(f"bad metric name in {line!r}")
            if kind not in _KNOWN_KINDS:
                raise ValueError(f"unknown metric kind {kind!r} in {line!r}")
            if name in families:
                raise ValueError(f"duplicate TYPE for {name!r}")
            if name not in pending_help:
                raise ValueError(f"TYPE without preceding HELP for {name!r}")
            families[name] = {
                "help": pending_help.pop(name),
                "type": kind,
                "samples": {},
            }
            continue
        if line.startswith("#"):
            continue  # comments are legal and ignored
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line {line!r}")
        sample_name = match.group("name")
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                candidate = sample_name[: -len(suffix)]
                if families[candidate]["type"] in ("histogram", "summary"):
                    family_name = candidate
                break
        family = families.get(family_name)
        if family is None:
            raise ValueError(f"sample {sample_name!r} has no TYPE declaration")
        if family_name != sample_name and family["type"] not in ("histogram", "summary"):
            raise ValueError(
                f"suffixed sample {sample_name!r} under non-histogram {family_name!r}"
            )
        raw_labels = match.group("labels")
        labels = _parse_labels(raw_labels, line=line) if raw_labels else ()
        key = (sample_name, tuple(sorted(labels)))
        samples = family["samples"]
        if key in samples:
            raise ValueError(f"duplicate series {key!r}")
        samples[key] = _parse_value(match.group("value"), line=line)
    if pending_help:
        raise ValueError(f"HELP without TYPE for {sorted(pending_help)!r}")
    return families


def validate_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse and lint one ``/metrics`` scrape; raises :class:`ValueError`.

    Beyond the grammar checks of :func:`parse_exposition`: histograms must
    ship ``_sum``/``_count``/a ``+Inf`` bucket per labelset, bucket counts
    must be cumulative (non-decreasing in ``le``) and agree with
    ``_count``, and counter samples must be non-negative.
    """
    families = parse_exposition(text)
    for name, family in families.items():
        samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = family["samples"]
        if family["type"] == "counter":
            for (sample_name, _labels), value in samples.items():
                if value < 0:
                    raise ValueError(f"negative counter sample {sample_name!r}: {value}")
        if family["type"] != "histogram":
            continue
        by_labelset: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
        for (sample_name, labels), value in samples.items():
            if sample_name == f"{name}_bucket":
                le = dict(labels).get("le")
                if le is None:
                    raise ValueError(f"{sample_name!r} sample without an 'le' label")
                base = tuple(pair for pair in labels if pair[0] != "le")
                entry = by_labelset.setdefault(base, {"buckets": [], "sum": None, "count": None})
                bound = math.inf if le == "+Inf" else float(le)
                entry["buckets"].append((bound, value))
            elif sample_name == f"{name}_sum":
                by_labelset.setdefault(labels, {"buckets": [], "sum": None, "count": None})["sum"] = value
            elif sample_name == f"{name}_count":
                by_labelset.setdefault(labels, {"buckets": [], "sum": None, "count": None})["count"] = value
            else:
                raise ValueError(f"unexpected histogram sample {sample_name!r}")
        for labels, entry in by_labelset.items():
            buckets = sorted(entry["buckets"])
            if not buckets or buckets[-1][0] != math.inf:
                raise ValueError(f"{name!r} {labels!r}: histogram lacks a +Inf bucket")
            counts = [count for _bound, count in buckets]
            if any(b > a for b, a in zip(counts, counts[1:])):
                raise ValueError(f"{name!r} {labels!r}: bucket counts are not cumulative")
            if entry["sum"] is None or entry["count"] is None:
                raise ValueError(f"{name!r} {labels!r}: histogram lacks _sum/_count")
            if counts[-1] != entry["count"]:
                raise ValueError(f"{name!r} {labels!r}: +Inf bucket != _count")
    return families
