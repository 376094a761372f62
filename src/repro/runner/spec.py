"""Declarative specifications of experiment sweeps.

A sweep is *data*: which graphs to build (:class:`GraphSpec`), which of the
four ψ_Z indices to compute on each, and the knobs of the exact searches
(``max_depth`` / ``max_states``) plus optional per-depth view-class profiles
(:class:`SweepSpec`).  Keeping the description declarative is what lets the
:class:`~repro.runner.runner.ExperimentRunner` fan a sweep out over worker
processes -- specs are small, picklable, and rebuild their graphs
deterministically inside each worker -- and what makes result tables
reproducible: the same spec always produces byte-identical tables.

Graph builders are looked up in a registry by ``kind``; every generator of
:mod:`repro.portgraph.generators` and every lower-bound family of
:mod:`repro.families` is available, so one spec language covers both the
"assorted small graphs" studies (E13) and the family sweeps (E2, E5, E6).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..core.tasks import Task
from ..families import (
    build_gdk_member,
    build_jmuk_member,
    build_jmuk_template,
    build_udk_member,
    build_udk_template,
    jmuk_border_count,
    udk_tree_count,
)
from ..portgraph import generators
from ..portgraph.graph import PortLabeledGraph

__all__ = ["GraphSpec", "SweepSpec", "graph_kinds"]


def _udk_graph(delta: int, k: int, sigma: Optional[Sequence[int]] = None) -> PortLabeledGraph:
    if sigma is None:
        sigma = tuple(1 for _ in range(udk_tree_count(delta, k)))
    return build_udk_member(delta, k, tuple(sigma)).graph


def _jmuk_graph(mu: int, k: int, y: Optional[Sequence[int]] = None) -> PortLabeledGraph:
    if y is None:
        y = tuple(0 for _ in range(2 ** (jmuk_border_count(mu, k) - 1)))
    return build_jmuk_member(mu, k, tuple(y)).graph


#: kind -> builder(**params) -> PortLabeledGraph
_BUILDERS: Dict[str, Callable[..., PortLabeledGraph]] = {
    # generators
    "path": lambda n: generators.path_graph(n),
    "cycle": lambda n: generators.cycle_graph(n),
    "oriented-cycle": lambda n: generators.cycle_graph(n, oriented=True),
    "asymmetric-cycle": lambda n: generators.asymmetric_cycle(n),
    "star": lambda leaves: generators.star_graph(leaves),
    "complete": lambda n: generators.complete_graph(n),
    "rotational-complete": lambda n: generators.rotational_complete_graph(n),
    "hypercube": lambda dimension: generators.hypercube_graph(dimension),
    "grid": lambda rows, cols: generators.grid_graph(rows, cols),
    "full-ary-tree": lambda arity, height: generators.full_ary_tree(arity, height),
    "complete-bipartite": lambda left, right: generators.complete_bipartite_graph(left, right),
    "caterpillar": lambda spine, legs: generators.caterpillar_graph(spine, legs),
    "random-tree": lambda n, seed=0: generators.random_tree(n, seed=seed),
    "random": lambda n, extra_edges=0, seed=0: generators.random_connected_graph(
        n, extra_edges=extra_edges, seed=seed
    ),
    "two-node": lambda: generators.two_node_graph(),
    "three-node-line": lambda: generators.three_node_line(),
    # lower-bound families
    "gdk": lambda delta, k, index: build_gdk_member(delta, k, index).graph,
    "udk": _udk_graph,
    "udk-template": lambda delta, k: build_udk_template(delta, k).graph,
    "jmuk": _jmuk_graph,
    "jmuk-template": lambda mu, k: build_jmuk_template(mu, k).graph,
}

# the seeded scenario-corpus families (random-regular, connected
# Erdős–Rényi, circulant, torus / twisted-torus, de Bruijn-like) register
# here too, so specs, the CLI, the batch service and the benchmarks all see
# them; their single-size kinds surface in sized_graph_kinds() automatically
from ..scenarios.corpus import SCENARIO_BUILDERS as _SCENARIO_BUILDERS  # noqa: E402

_BUILDERS.update(_SCENARIO_BUILDERS)


def graph_kinds() -> Tuple[str, ...]:
    """The registered graph kinds, sorted (for CLI help and error messages)."""
    return tuple(sorted(_BUILDERS))


def sized_graph_kinds() -> Dict[str, str]:
    """Kinds parameterised by a single size: ``kind -> size parameter name``.

    Derived from the builder registry by signature inspection -- a kind
    qualifies when its builder has exactly one parameter without a default
    (e.g. ``n``, ``leaves``, ``dimension``).  This is the single source of
    truth behind every "generator + size" surface (the CLI's ``indices``
    subcommand and ``--generator`` sweep option), so registering a new
    one-parameter generator here makes it available everywhere at once.
    """
    sized: Dict[str, str] = {}
    for kind in sorted(_BUILDERS):
        required = [
            name
            for name, parameter in inspect.signature(_BUILDERS[kind]).parameters.items()
            if parameter.default is inspect.Parameter.empty
            and parameter.kind
            in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        ]
        if len(required) == 1:
            sized[kind] = required[0]
    return sized


def _holds_boolean(value: Any) -> bool:
    """Whether ``value`` is a boolean or a list or tuple holding one."""
    if isinstance(value, (list, tuple)):
        return any(_holds_boolean(item) for item in value)
    return isinstance(value, bool)


def _freeze(value: Any) -> Any:
    """Recursively turn lists into tuples so specs stay hashable/picklable."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON serialisation."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class GraphSpec:
    """One graph to build: a registered ``kind`` plus keyword parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so that
    two specs describing the same graph compare (and pickle) identically.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "GraphSpec":
        if kind not in _BUILDERS:
            raise ValueError(f"unknown graph kind {kind!r}; known: {', '.join(graph_kinds())}")
        for name, value in params.items():
            # bool subclasses int: a builder would take JSON true for 1
            if _holds_boolean(value):
                raise ValueError(f"parameter {name!r} of graph kind {kind!r} must not be a boolean")
        frozen = tuple(sorted((name, _freeze(value)) for name, value in params.items()))
        return cls(kind=kind, params=frozen)

    @property
    def label(self) -> str:
        """Stable human-readable identifier used in result tables."""
        if not self.params:
            return self.kind
        rendered = ",".join(f"{name}={value}" for name, value in self.params)
        return f"{self.kind}({rendered})"

    def build(self) -> PortLabeledGraph:
        """Construct the graph (deterministic: same spec, same graph)."""
        builder = _BUILDERS.get(self.kind)
        if builder is None:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        try:
            return builder(**dict(self.params))
        except TypeError:
            raise ValueError(
                f"invalid parameters for graph kind {self.kind!r}: "
                f"{dict(self.params) or '{}'}"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": {name: _thaw(value) for name, value in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GraphSpec":
        return cls.make(payload["kind"], **payload.get("params", {}))


@dataclass(frozen=True)
class SweepSpec:
    """A full experiment sweep: graphs x tasks (x optional depth profiles)."""

    graphs: Tuple[GraphSpec, ...]
    tasks: Tuple[Task, ...] = Task.ordered()
    max_depth: Optional[int] = None
    max_states: int = 200_000
    #: Depths at which to record the number of view classes and of nodes with
    #: a unique view (columns ``classes_at_d`` / ``unique_at_d``).
    profile_depths: Tuple[int, ...] = ()

    @classmethod
    def make(
        cls,
        graphs: Sequence[GraphSpec],
        *,
        tasks: Optional[Sequence[Task]] = None,
        max_depth: Optional[int] = None,
        max_states: int = 200_000,
        profile_depths: Sequence[int] = (),
    ) -> "SweepSpec":
        return cls(
            graphs=tuple(graphs),
            tasks=Task.ordered() if tasks is None else tuple(tasks),
            max_depth=max_depth,
            max_states=max_states,
            profile_depths=tuple(profile_depths),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graphs": [spec.to_dict() for spec in self.graphs],
            "tasks": [task.value for task in self.tasks],
            "max_depth": self.max_depth,
            "max_states": self.max_states,
            "profile_depths": list(self.profile_depths),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        return cls.make(
            [GraphSpec.from_dict(entry) for entry in payload["graphs"]],
            tasks=[Task(code) for code in payload["tasks"]] if "tasks" in payload else None,
            max_depth=payload.get("max_depth"),
            max_states=payload.get("max_states", 200_000),
            profile_depths=payload.get("profile_depths", ()),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))
