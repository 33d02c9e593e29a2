"""The serve wire protocol: JSON-RPC-ish requests, NDJSON event streams.

One HTTP ``POST /rpc`` per request.  The body is a single JSON object::

    {"protocol": 1, "method": "verify", "params": {...}, "id": "..."}

The response is a stream of newline-delimited JSON events
(``application/x-ndjson``), written as the daemon produces them and
terminated by connection close — so a client sees ``queued``/``start``
immediately, per-function results as each unit finishes, and a final
``done`` (or ``error``) event.  Every event carries an ``event`` key;
errors are structured (``code`` + ``message``) and never tear down the
daemon or its warm pool.

Validation is strict and bounded: an unknown method, a non-object
``params``, or a body over :data:`MAX_BODY_BYTES` yields a structured
error *before* any work is queued.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PROTOCOL_VERSION = 1

#: the daemon's state file (its published address), written under the
#: serve root by the server and read by the client
STATE_FILE_NAME = ".rc-serve.json"

#: reject request bodies larger than this before reading them fully —
#: a verify request is a few hundred bytes of stems, never megabytes
MAX_BODY_BYTES = 1 << 20

#: the methods the daemon dispatches
METHODS = ("status", "verify", "reset", "shutdown")

# Structured error codes (the ``code`` field of ``error`` events).
E_HTTP = "bad-http"                  # malformed HTTP envelope
E_TOO_LARGE = "request-too-large"    # body over MAX_BODY_BYTES
E_PARSE = "parse-error"              # body is not valid JSON
E_REQUEST = "bad-request"            # JSON but not a valid request object
E_METHOD = "unknown-method"
E_PARAMS = "bad-params"              # method-specific parameter defect
E_DRAINING = "draining"              # daemon is shutting down
E_INTERNAL = "internal-error"        # unexpected failure serving a request


class ProtocolError(Exception):
    """A request defect with a structured (code, message) identity."""

    def __init__(self, code: str, message: str,
                 http_status: int = 400) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = http_status

    def to_event(self) -> dict:
        return event("error", code=self.code, message=self.message)


@dataclass
class Request:
    """A validated request: what the queue and the worker loop see."""

    method: str
    params: dict = field(default_factory=dict)
    id: str = ""


def event(name: str, /, **fields) -> dict:
    """Build one response event; ``event`` is the discriminator key.
    The discriminator is positional-only so payload fields may freely
    use ``name`` (the ``function`` events do)."""
    ev = {"event": name}
    ev.update(fields)
    return ev


def encode_event(ev: dict) -> bytes:
    """One NDJSON line.  Sorted keys keep streams byte-deterministic for
    the same payload, which the serve tests and CI comparisons rely on."""
    return (json.dumps(ev, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def parse_request(body: bytes) -> Request:
    """Validate a request body into a :class:`Request`.

    Raises :class:`ProtocolError` — never a bare exception — so the
    server can always answer with a structured error event."""
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(E_TOO_LARGE,
                            f"request body {len(body)} bytes exceeds "
                            f"limit {MAX_BODY_BYTES}", http_status=413)
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(E_PARSE, f"request body is not JSON: {exc}")
    if not isinstance(data, dict):
        raise ProtocolError(E_REQUEST, "request must be a JSON object")
    proto = data.get("protocol", PROTOCOL_VERSION)
    if proto != PROTOCOL_VERSION:
        raise ProtocolError(E_REQUEST,
                            f"unsupported protocol version {proto!r} "
                            f"(daemon speaks {PROTOCOL_VERSION})")
    method = data.get("method")
    if not isinstance(method, str) or method not in METHODS:
        raise ProtocolError(E_METHOD,
                            f"unknown method {method!r} "
                            f"(expected one of {', '.join(METHODS)})")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(E_REQUEST, "params must be a JSON object")
    req_id = data.get("id", "")
    if not isinstance(req_id, str):
        raise ProtocolError(E_REQUEST, "id must be a string")
    if method == "verify":
        _validate_verify_params(params)
    return Request(method=method, params=params, id=req_id)


def _validate_verify_params(params: dict) -> None:
    paths = params.get("paths")
    if paths is not None and (
            not isinstance(paths, list)
            or not all(isinstance(p, str) and p for p in paths)):
        raise ProtocolError(E_PARAMS,
                            "paths must be a list of non-empty strings")
    root = params.get("root")
    if root is not None and not isinstance(root, str):
        raise ProtocolError(E_PARAMS, "root must be a string path")
    jobs = params.get("jobs")
    if jobs is not None and (not isinstance(jobs, int)
                             or isinstance(jobs, bool) or jobs < 1):
        raise ProtocolError(E_PARAMS, "jobs must be a positive integer")
    full = params.get("full")
    if full is not None and not isinstance(full, bool):
        raise ProtocolError(E_PARAMS, "full must be a boolean")
