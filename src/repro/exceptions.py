"""Exception hierarchy shared by every subpackage of the reproduction.

All library errors derive from :class:`CharlesError` so that callers can catch a
single base class at API boundaries while still being able to distinguish the
failure domain (schema, snapshot alignment, model fitting, configuration) when
they need to.
"""

from __future__ import annotations


class CharlesError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SchemaError(CharlesError):
    """A table or column definition is malformed or violated.

    Raised for duplicate column names, unknown dtypes, values that cannot be
    coerced to the declared dtype, or references to columns that do not exist.
    """


class SnapshotAlignmentError(CharlesError):
    """Two snapshots violate the ChARLES input contract.

    The contract (paper §2) requires identical schemas, identical key sets
    (no insertions or deletions) and a usable primary key.
    """


class ModelFitError(CharlesError):
    """A regression or clustering model could not be fitted.

    Typical causes: empty input, all-constant features, or a singular design
    matrix that even the least-squares fallback cannot handle.
    """


class ConfigurationError(CharlesError):
    """A user-supplied parameter is outside its valid domain."""


class DiscoveryError(CharlesError):
    """The diff-discovery engine could not produce any summary.

    Raised when the target attribute is missing/non-numeric or when every
    candidate attribute combination fails to produce a scorable summary.
    """


class CacheStoreError(CharlesError):
    """A cache backend could not serve its storage.

    Raised when an on-disk store cannot be opened, when a cache server
    cannot be reached or answers with a malformed frame, or when a backend
    is constructed with an invalid location.
    """


class TimelineError(CharlesError):
    """A version-chain operation on a :class:`~repro.timeline.store.TimelineStore` failed.

    Raised for duplicate or unknown version names and for malformed windows;
    appended versions that violate the snapshot contract itself (schema or
    entity-set mismatches) raise :class:`SnapshotAlignmentError` as usual.
    """


class SessionClosedError(CharlesError):
    """An :class:`~repro.timeline.session.EngineSession` was used after ``close()``.

    A closed session has released its cache backends (disk connections,
    remote sockets), so serving another query through it would silently
    run cold at best and crash a backend at worst.  Long-lived
    deployments tear idle sessions down on expiry; the caller must create a
    fresh session instead.
    """


class ServingError(CharlesError):
    """A request to the multi-tenant serving layer could not be honoured.

    Base class for the serving layer's refusal family: unknown or foreign
    sessions, malformed requests, and load shedding
    (:class:`~repro.serving.admission.LoadShedError`), each of which the HTTP
    front door maps to a specific status code.
    """
