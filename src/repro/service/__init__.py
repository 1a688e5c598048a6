"""Tuning-as-a-service: the shared config-knowledge daemon.

Every tuned configuration used to die with the process that found it:
the evaluation memo is process-wide, the sweep cache is per-sweep, the
history file is per-path.  This package promotes that knowledge into a
long-lived, multi-tenant service:

* :mod:`repro.service.store` - the disk-persistent, schema-stamped,
  sharded store (atomic writes, torn-shard quarantine + rebuild, LRU
  admission, write-behind batching, fsync on shutdown);
* :mod:`repro.service.protocol` - the newline-delimited JSON wire
  protocol shared by daemon and client;
* :mod:`repro.service.daemon` - the asyncio socket server behind
  ``repro serve``;
* :mod:`repro.service.client` - the blocking client with per-request
  deadlines, seeded backoff retries and a circuit breaker;
* :mod:`repro.service.source` - the :class:`ConfigSource` degradation
  chain (remote service -> warm memo) that the controller and
  experiment runner consult after their local history.
"""

from repro.service.client import (
    CircuitBreaker,
    ServiceClient,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.daemon import ConfigServiceDaemon, serve_forever
from repro.service.source import (
    ChainedConfigSource,
    ConfigKey,
    ConfigSource,
    MemoSource,
    ServiceSource,
    config_key,
    default_chain,
)
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    ServiceStore,
    StoreStats,
)

__all__ = [
    "CircuitBreaker",
    "ChainedConfigSource",
    "ConfigKey",
    "ConfigServiceDaemon",
    "ConfigSource",
    "MemoSource",
    "ServiceClient",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceSource",
    "ServiceStore",
    "ServiceTimeout",
    "ServiceUnavailable",
    "StoreStats",
    "STORE_SCHEMA_VERSION",
    "config_key",
    "default_chain",
    "serve_forever",
]
