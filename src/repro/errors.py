"""Exception hierarchy for the SonicJoin reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A structure or algorithm was configured with invalid parameters.

    Examples: a Sonic index with a non-power-of-two capacity, a bucket size
    of zero, or an index asked to hold wider tuples than it was built for.
    """


class SchemaError(ReproError):
    """A relation or query references attributes inconsistently.

    Raised when tuples do not match the declared arity, when a query names
    an attribute that no relation provides, or when a total order cannot be
    aligned with a relation's schema.
    """


class CapacityError(ReproError):
    """A fixed-capacity structure ran out of space.

    Sonic levels are single-allocation by design (§3.1 of the paper); when
    the caller under-provisions them, the insert fails loudly instead of
    silently rehashing.
    """


class QueryError(ReproError):
    """A join query is malformed or unsupported.

    Examples: an empty query, a query whose hypergraph has no fractional
    edge cover (an attribute appearing in no relation), or a datalog string
    that does not parse.
    """


class ExecutionError(ReproError):
    """A join failed at execution time, outside the caller's plan inputs.

    Raised by the multiprocess sharded executor (:mod:`repro.parallel`)
    when a shard worker dies, times out, or reports a task failure — the
    worker-side traceback rides along in the message.  Distinct from
    :class:`ConfigurationError`: the plan was valid, the run broke.

    ``flight_log`` carries the parent-side flight-recorder dump
    (:mod:`repro.obs.flightrec`) when the parallel layer raised the
    error: the last N pool lifecycle events, oldest first, for
    post-mortem context the message alone cannot give.
    """

    #: flight-recorder tail attached by the parallel layer, when any
    flight_log: "str | None" = None


class UnsupportedOperationError(ReproError):
    """An index was asked for an operation it does not support.

    Mirrors the paper's evaluation (§5.4): e.g. SuRF supports point lookups
    and approximate prefix counts but not exact prefix enumeration; plain
    hash sets support no prefix operations at all.
    """
