"""Exception hierarchy for the dual-graph radio network simulator.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library-level failures without masking programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphValidationError(ReproError):
    """A dual graph violated a structural invariant.

    Typical causes: an edge of ``G`` missing from ``G'``, asymmetric
    adjacency, a self-loop, or a node id outside ``range(n)``.
    """


class TopologyViolationError(ReproError):
    """A link process chose a round topology outside ``[G, G']``.

    The engine (when validation is enabled) checks every round that the
    chosen communication topology contains every reliable edge of ``G``
    and no edge absent from ``G'``.
    """


class PlanError(ReproError):
    """A process declared an invalid round plan.

    Raised when a plan's transmit probability is outside ``[0, 1]`` or
    when a positive probability is declared without a message to send.
    """


class BitStreamError(ReproError):
    """A bit stream was consumed past its end with cycling disabled."""


class AdversaryUsageError(ReproError):
    """A link process was driven with the wrong view for its class."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent or failed to build."""


class RegistryError(ReproError):
    """A component registry lookup or registration failed.

    Raised for unknown component names, duplicate registrations under
    one name, and factories invoked with parameters they do not accept.
    """


class SpecError(ReproError):
    """A :class:`~repro.api.spec.ScenarioSpec` is malformed.

    Typical causes: a missing component section in a spec dict, a
    parameter value that is not JSON-serializable, or a component that
    requires network structure the named graph family does not provide.
    """


class ServeError(ReproError):
    """A simulation-service request or job failed.

    Raised by :mod:`repro.serve` for malformed submission documents,
    unknown job ids, jobs that finished in the ``failed`` state, and
    client-side transport errors against a ``repro serve`` endpoint.
    """


class EngineError(ReproError):
    """An engine selection or configuration is invalid.

    Raised for unknown engine names passed to
    :func:`repro.core.engine.create_engine` (and therefore to
    ``ScenarioSpec(engine=...)`` and the CLI ``--engine`` flag).
    """


class EngineFallbackWarning(RuntimeWarning):
    """The bank engine declined a scenario and used the reference engine.

    Emitted by :func:`repro.core.engine.create_engine` when
    ``engine="bank"`` (or its deprecated alias ``"bitset"``) is
    requested against an *adaptive* link process: online/offline
    adaptive adversaries are entitled to per-node plan introspection
    (the declared probability vector, and for offline adversaries the
    realized coins) every round, which is exactly the per-node
    materialization the bank kernels exist to avoid. Results are
    unaffected — the reference engine is used instead.

    A deliberate :class:`RuntimeWarning` rather than a ``ReproError``
    subclass: the run proceeds correctly, only slower than asked.
    """
