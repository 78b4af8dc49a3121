"""The declarative scenario description: :class:`ScenarioSpec`.

A spec names the four components of a trial — graph family, problem,
algorithm, adversary — by registry key plus JSON-safe parameters, and
carries the round cap. A spec plus a trial seed fully determines a
:class:`~repro.analysis.runner.PreparedTrial`; all per-trial randomness
(secret bridges, geographic placements, broadcaster samples) is drawn
from labelled child streams of the seed inside the registered
factories. That gives specs three properties the closure-based
scenarios never had:

* **serializable** — ``to_dict()``/``from_dict()`` round-trip through
  JSON, so scenarios live in files, configs, and CLI arguments;
* **picklable** — a spec is plain data, so the parallel executor can
  ship it to worker processes;
* **deterministic** — ``spec(seed)`` is a pure function, so serial and
  parallel execution produce identical results.

A spec is itself a :data:`~repro.analysis.runner.Scenario` (calling it
with a seed builds the trial), so every existing sweep/trial entry
point accepts one unchanged.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.analysis.runner import PreparedTrial, default_round_cap
from repro.core.engine import ENGINE_NAMES
from repro.core.errors import SpecError
from repro.registry import (
    ADVERSARIES,
    ALGORITHMS,
    GRAPHS,
    MACS,
    PROBLEMS,
    ScenarioContext,
)

__all__ = ["ComponentRef", "ScenarioSpec", "build_prepared_trial"]


_JSON_SCALARS = (str, int, float, bool, type(None))


def _check_json_value(value: Any, where: str) -> Any:
    """Validate (and normalize tuples in) a parameter value for JSON."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_check_json_value(v, where) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_check_json_value(v, where) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _check_json_value(v, where) for k, v in value.items()}
    raise SpecError(
        f"{where}: parameter value {value!r} is not JSON-serializable"
    )


@dataclass(frozen=True)
class ComponentRef:
    """A registry key plus its JSON parameters.

    Accepts several shorthands through :meth:`of` — a bare name, a
    ``(name, params)`` pair, or a ``{"name": ..., "params": ...}``
    dict — so spec literals stay compact.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"component needs a non-empty string name, got {self.name!r}")
        object.__setattr__(
            self,
            "params",
            {str(k): _check_json_value(v, self.name) for k, v in dict(self.params).items()},
        )

    @classmethod
    def of(cls, value: object, *, kind: str = "component") -> "ComponentRef":
        if isinstance(value, ComponentRef):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            extra = set(value) - {"name", "params"}
            if "name" not in value or extra:
                raise SpecError(
                    f"{kind} dict needs 'name' (+ optional 'params'); got keys {sorted(value)}"
                )
            return cls(name=value["name"], params=dict(value.get("params") or {}))
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(name=value[0], params=dict(value[1]))
        raise SpecError(
            f"cannot interpret {value!r} as a {kind}; pass a name, "
            "(name, params), or {'name': ..., 'params': ...}"
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    def with_param(self, key: str, value: object) -> "ComponentRef":
        params = dict(self.params)
        params[key] = value
        return ComponentRef(name=self.name, params=params)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the scenario space, declaratively.

    Build order is graph → problem → algorithm → adversary, so problem
    params may reference graph structure (``side: "A"``) and algorithm
    params may omit roles the problem already fixes (source ``B``).

    ``max_rounds=None`` falls back to the generous
    :func:`~repro.analysis.runner.default_round_cap`.

    ``engine`` picks the round-loop implementation
    (:data:`~repro.core.engine.ENGINE_NAMES`): ``"reference"``
    (default) or ``"bank"`` (the trial-batched fast engine — executors
    run a ``"bank"`` scenario's whole seed list as one lockstep bank);
    ``"bitset"`` is a deprecated alias for ``"bank"`` that stays valid
    (and keeps its own spec hash) for stored specs. The bank engine is
    seed-for-seed identical to the reference loop and auto-falls back
    (with a warning) for adaptive adversaries. Because it cannot change results, the engine
    is a *performance* knob: it serializes with the spec so a saved
    scenario reruns the way it was tuned, but editing it never alters
    the measured rounds.

    ``skip`` controls event-driven round skipping (see
    ``docs/architecture.md`` "Round skipping"): ``None`` (default)
    resolves to the engine's default — on for the fast engines, off
    for ``reference`` — while ``True``/``False`` force it. Like the
    engine, skipping is trace-identical by construction, so this is a
    performance knob too; it is omitted from the serialized form (and
    the spec hash) when ``None`` so stored specs and artifacts keep
    their identities.
    """

    graph: ComponentRef
    problem: ComponentRef
    algorithm: ComponentRef
    adversary: ComponentRef
    max_rounds: Optional[int] = None
    validate_topologies: bool = False
    name: Optional[str] = None
    engine: str = "reference"
    skip: Optional[bool] = None
    #: Optional abstract MAC layer (``repro.mac``): a registry ref such
    #: as ``("simulated", {})`` or ``("oracle", {"f_ack_factor": 2})``.
    #: ``None`` means "no MAC indirection" — multi-message algorithms
    #: then default to a plain simulated layer.
    mac: Optional[ComponentRef] = None
    #: Optional multi-message workload, e.g. ``{"k": 4, "sources":
    #: "random"}`` — resolved per trial seed into a
    #: :class:`~repro.mac.base.MessageAssignment` and consumed by the
    #: ``multi-message`` problem and the MAC-level algorithms.
    messages: Optional[dict] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "graph", ComponentRef.of(self.graph, kind="graph"))
        object.__setattr__(self, "problem", ComponentRef.of(self.problem, kind="problem"))
        object.__setattr__(
            self, "algorithm", ComponentRef.of(self.algorithm, kind="algorithm")
        )
        object.__setattr__(
            self, "adversary", ComponentRef.of(self.adversary, kind="adversary")
        )
        if self.mac is not None:
            object.__setattr__(self, "mac", ComponentRef.of(self.mac, kind="mac"))
        if self.messages is not None:
            if not isinstance(self.messages, Mapping):
                raise SpecError(
                    f"messages must be a mapping, got {type(self.messages).__name__}"
                )
            object.__setattr__(
                self,
                "messages",
                {
                    str(k): _check_json_value(v, "messages")
                    for k, v in self.messages.items()
                },
            )
        if self.max_rounds is not None:
            # Coerce: a float cap (e.g. 96.0 * n from a scale formula)
            # must serialize and compare identically after a JSON trip.
            object.__setattr__(self, "max_rounds", int(self.max_rounds))
            if self.max_rounds < 1:
                raise SpecError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.engine not in ENGINE_NAMES:
            raise SpecError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        if self.skip is not None:
            if not isinstance(self.skip, bool):
                raise SpecError(
                    f"skip must be true, false, or null, got {self.skip!r}"
                )

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def build(self, seed: int) -> PreparedTrial:
        """Resolve every component and assemble the trial for ``seed``."""
        return build_prepared_trial(self, seed)

    def __call__(self, seed: int) -> PreparedTrial:
        """A spec is a Scenario: ``spec(seed)`` builds the trial."""
        return self.build(seed)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "graph": self.graph.to_dict(),
            "problem": self.problem.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "adversary": self.adversary.to_dict(),
            "max_rounds": self.max_rounds,
            "validate_topologies": self.validate_topologies,
            "engine": self.engine,
        }
        if self.skip is not None:
            data["skip"] = self.skip
        if self.mac is not None:
            data["mac"] = self.mac.to_dict()
        if self.messages is not None:
            data["messages"] = dict(self.messages)
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got {type(data).__name__}")
        known = {
            "graph",
            "problem",
            "algorithm",
            "adversary",
            "max_rounds",
            "validate_topologies",
            "name",
            "engine",
            "skip",
            "mac",
            "messages",
        }
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec keys {sorted(unknown)}; known: {sorted(known)}")
        missing = {"graph", "problem", "algorithm", "adversary"} - set(data)
        if missing:
            raise SpecError(f"spec is missing sections {sorted(missing)}")
        max_rounds = data.get("max_rounds")
        return cls(
            graph=ComponentRef.of(data["graph"], kind="graph"),
            problem=ComponentRef.of(data["problem"], kind="problem"),
            algorithm=ComponentRef.of(data["algorithm"], kind="algorithm"),
            adversary=ComponentRef.of(data["adversary"], kind="adversary"),
            max_rounds=None if max_rounds is None else int(max_rounds),
            validate_topologies=bool(data.get("validate_topologies", False)),
            name=data.get("name"),
            engine=str(data.get("engine", "reference")),
            skip=data.get("skip"),
            mac=(
                None
                if data.get("mac") is None
                else ComponentRef.of(data["mac"], kind="mac")
            ),
            messages=data.get("messages"),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_dict(self) -> dict:
        """The result-determining fields only.

        ``name`` is a display label — two specs differing only in name
        produce identical trials — so it is excluded from the identity
        surface. Everything else (including ``engine``: it is a grid
        axis for campaigns and shard keys, even though results are
        engine-independent) participates.
        """
        data = self.to_dict()
        data.pop("name", None)
        return data

    def spec_hash(self) -> str:
        """Stable content hash of the spec: the serve-layer cache key.

        Canonical-JSON SHA-256 (:func:`repro.core.canonical.stable_hash`)
        of :meth:`canonical_dict`, domain-separated from campaign and
        shard hashes. Stable across dict insertion order, JSON
        round-trips, processes, and Python versions — so it doubles as
        a durable artifact name for benches and store records. A spec
        hash plus a master seed fully determines a trial batch, which
        is why ``(spec_hash, seed)`` is the dedup key of
        :meth:`repro.campaign.store.ResultStore.find` and of
        ``POST /v1/runs``.
        """
        from repro.core.canonical import stable_hash

        return stable_hash({"kind": "scenario", "spec": self.canonical_dict()})

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Derivation (sweeps)
    # ------------------------------------------------------------------
    _SECTIONS = ("graph", "problem", "algorithm", "adversary", "mac")

    def with_param(self, path: str, value: object) -> "ScenarioSpec":
        """A copy with one dotted-path parameter replaced.

        ``"graph.n"`` sets the graph's ``n`` parameter; ``"mac.<p>"``
        sets a MAC-layer parameter (the spec must already carry a
        ``mac``); ``"messages.<key>"`` edits the message workload (so
        ``sweep(spec, "messages.k", …)`` sweeps the message load); the
        bare field names ``"max_rounds"`` / ``"validate_topologies"``
        / ``"name"`` / ``"engine"`` / ``"skip"`` set the spec's own
        fields. This is
        how :func:`repro.api.sweep` derives one spec per swept value
        and how ``--engine`` overrides ride along an experiment.
        """
        if path in ("max_rounds", "validate_topologies", "name", "engine", "skip"):
            return dataclasses.replace(self, **{path: value})
        section, dot, key = path.partition(".")
        if section == "messages" and dot and key:
            messages = dict(self.messages or {})
            messages[key] = value
            return dataclasses.replace(self, messages=messages)
        if not dot or section not in self._SECTIONS or not key:
            raise SpecError(
                f"bad parameter path {path!r}; use '<section>.<param>' with "
                f"section in {self._SECTIONS + ('messages',)} or a top-level "
                "field name"
            )
        ref: Optional[ComponentRef] = getattr(self, section)
        if ref is None:
            raise SpecError(
                f"cannot set {path!r}: the spec has no {section} section "
                "(set one before deriving its parameters)"
            )
        return dataclasses.replace(self, **{section: ref.with_param(key, value)})

    def describe(self) -> str:
        """Compact one-line label for tables and progress output."""
        return self.name or (
            f"{self.algorithm.name} vs {self.adversary.name} "
            f"on {self.graph.name} ({self.problem.name})"
        )


#: Shared builds of deterministic graph families, keyed by
#: ``(name, canonical params JSON)``. DualGraphs are immutable, so one
#: instance can back every trial of a sweep point; this removes graph
#: construction + validation from the per-trial hot path (it dominated
#: short executions on large fixed topologies). Bounded FIFO — a sweep
#: only ever touches a handful of keys.
_DETERMINISTIC_NETWORKS: dict = {}
_DETERMINISTIC_NETWORKS_MAX = 64


def _build_network(spec: "ScenarioSpec", ctx: ScenarioContext):
    """Build (or reuse) the spec's network for this trial."""
    name, params = spec.graph.name, spec.graph.params
    if not GRAPHS.is_deterministic(name):
        return GRAPHS.build(name, ctx, params)
    key = (name, json.dumps(params, sort_keys=True))
    network = _DETERMINISTIC_NETWORKS.get(key)
    if network is None:
        network = GRAPHS.build(name, ctx, params)
        if len(_DETERMINISTIC_NETWORKS) >= _DETERMINISTIC_NETWORKS_MAX:
            _DETERMINISTIC_NETWORKS.pop(next(iter(_DETERMINISTIC_NETWORKS)))
        _DETERMINISTIC_NETWORKS[key] = network
    return network


def build_prepared_trial(spec: ScenarioSpec, seed: int) -> PreparedTrial:
    """Resolve a spec's components through the registries for one seed.

    Build order: graph → messages → MAC → problem → algorithm →
    adversary — the message workload and MAC layer come right after
    the graph because the multi-message problem and the MAC-level
    algorithms both read them from the context.
    """
    ctx = ScenarioContext(seed=seed)
    network = _build_network(spec, ctx)
    ctx.network = network
    ctx.graph = getattr(network, "graph", network)
    if spec.messages is not None:
        from repro.mac.base import resolve_messages

        ctx.messages = resolve_messages(ctx, spec.messages)
    if spec.mac is not None:
        ctx.mac = MACS.build(spec.mac.name, ctx, spec.mac.params)
    ctx.problem = PROBLEMS.build(spec.problem.name, ctx, spec.problem.params)
    ctx.algorithm = ALGORITHMS.build(spec.algorithm.name, ctx, spec.algorithm.params)
    adversary = ADVERSARIES.build(spec.adversary.name, ctx, spec.adversary.params)
    cap = (
        int(spec.max_rounds)
        if spec.max_rounds is not None
        else default_round_cap(ctx.graph.n)
    )
    return PreparedTrial(
        network=ctx.graph,
        algorithm=ctx.algorithm,
        link_process=adversary,
        problem=ctx.problem,
        max_rounds=cap,
        validate_topologies=spec.validate_topologies,
        engine=spec.engine,
        mac=ctx.mac,
        skip=spec.skip,
        label=spec.describe(),
    )
