"""Verification as a service (README "Verification as a service").

The serve subsystem wraps the verification driver in a long-lived
daemon so the edit-annotate-recheck loop the paper promises (§1, §8:
*interactive-speed* foundational verification) never pays pool
cold-start, re-interning, or planner-state re-parsing between requests:

* :mod:`.protocol` — the JSON-RPC-over-HTTP request schema and the
  NDJSON response event stream, with structured errors;
* :mod:`.queue` — the multi-tenant FIFO request queue with queue-wait
  telemetry;
* :mod:`.server` — the asyncio daemon: a warm
  :class:`repro.driver.PoolSession` shared across requests, per-project
  cache/depgraph namespaces, streamed per-function results, graceful
  drain/shutdown and poisoned-pool recovery;
* :mod:`.watcher` — mtime/sha polling that turns file edits into dirty
  sets for ``rcd watch``;
* :mod:`.client` — the stdlib HTTP client behind ``scripts/rcd.py``.

Import layering: the client side (:mod:`.client`, :mod:`.protocol`)
imports only the standard library, and the names below resolve lazily
(PEP 562), so ``import repro.serve.client`` never loads the checker.
Only :mod:`.server` does.
"""

from .. import lazy_getattr

#: public name -> the submodule that defines it
_LAZY = {
    "DaemonClient": ".client", "DaemonError": ".client",
    "default_state_path": ".client", "read_state": ".client",
    "MAX_BODY_BYTES": ".protocol", "PROTOCOL_VERSION": ".protocol",
    "ProtocolError": ".protocol", "Request": ".protocol",
    "encode_event": ".protocol", "event": ".protocol",
    "parse_request": ".protocol",
    "RequestQueue": ".queue", "Ticket": ".queue",
    "Namespace": ".server", "ServeConfig": ".server",
    "VerifyDaemon": ".server",
    "FileWatcher": ".watcher",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(__name__, _LAZY)
