"""The client-side transport boundaries: client ↔ HSM and client ↔ provider.

A :class:`Channel` is the only way client code reaches an HSM: one
``decrypt_share`` method.  The default transport (:class:`WireChannel`)
serializes the request and the reply through ``repro.core.wire`` — the
client and the device exchange *bytes*, never live Python objects, so the
trust boundary of the paper (everything between client and HSM crosses the
untrusted provider's network) is real in the reproduction too.

A :class:`ProviderChannel` is the same idea for the client ↔ provider leg:
backup upload/fetch, incremental blobs, attempt reservation, log-and-prove,
inclusion-proof refresh, and reply escrow.  Its methods are generated from
the one op table, ``repro.core.wire.PROVIDER_OPS``.  The default transport
(:class:`WireProviderChannel` over a :class:`ProviderWireEndpoint`) frames
every call through the tagged provider RPC encoding in ``repro.core.wire``;
failures come back as typed ``PROV_REPLY_ERROR`` frames and are re-raised
client-side as :class:`~repro.core.provider.ProviderError` (or
:class:`~repro.service.batcher.ServiceTimeout` for epoch timeouts) — a
Python exception object never crosses the boundary.
:class:`DirectProviderChannel` is the no-serialization reference path kept
for tests and micro-benchmarks.

Error outcomes (refused / punctured / fail-stopped) cross the wire as
status codes and are re-raised client-side as the same exception types the
devices throw, so protocol code is transport-agnostic.

Each ``decrypt_share`` bottoms out in HSM-side ElGamal/BFE point
multiplications, which since the crypto fast-path layer ride the fixed-base
comb and per-key cached window tables in ``repro.crypto.ec`` — the channel
turnaround (and therefore per-HSM queue drain rate in
``service.workers``) tracks those table-backed rates rather than the naive
rebuild-per-call cost.

Thread safety: channels are stateless pass-throughs (safe to share across
threads); serialization of *device* state is not their job — wrap them
with ``service.workers.queued_channels`` so every call lands on the
device's single FIFO worker, as the service does.
"""

from __future__ import annotations

import inspect
import threading
from typing import Any, Callable, Dict, Sequence, Tuple

from repro.core import wire
from repro.core.provider import ProviderError
from repro.crypto.bfe import PuncturedKeyError
from repro.crypto.elgamal import ElGamalCiphertext
from repro.hsm.device import (
    DecryptShareRequest,
    HsmRefusedError,
    HsmStaleProofError,
    HsmUnavailableError,
)
from repro.service.batcher import ServiceTimeout

#: Maps an HSM index to the Channel reaching that device.
ChannelFactory = Callable[[int], "Channel"]

#: The single status↔exception table, most-derived exception types first so
#: the encoding side can pick the first isinstance match (HsmStaleProofError
#: subclasses HsmRefusedError).  Both transport directions derive from it.
_ERROR_STATUS_BY_TYPE = (
    (HsmStaleProofError, wire.REPLY_STALE_PROOF),
    (HsmUnavailableError, wire.REPLY_UNAVAILABLE),
    (PuncturedKeyError, wire.REPLY_PUNCTURED),
    (HsmRefusedError, wire.REPLY_REFUSED),
)
_ERROR_TYPES = tuple(exc_type for exc_type, _ in _ERROR_STATUS_BY_TYPE)
_STATUS_EXCEPTIONS = {status: exc_type for exc_type, status in _ERROR_STATUS_BY_TYPE}


def _status_for(exc: Exception) -> int:
    for exc_type, status in _ERROR_STATUS_BY_TYPE:
        if isinstance(exc, exc_type):
            return status
    raise TypeError(f"no wire status for {type(exc)}")  # pragma: no cover


class Channel:
    """Narrow interface between a client and one HSM."""

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Ask the device to decrypt one share (raises on refusal)."""
        raise NotImplementedError


class DirectChannel(Channel):
    """In-process shortcut: call the device object directly.

    Kept for tests and micro-benchmarks that want to exclude serialization
    cost; production wiring uses :class:`WireChannel`.
    """

    def __init__(self, device) -> None:
        self._device = device

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Call the device object directly (no serialization)."""
        return self._device.decrypt_share(request)


class HsmWireEndpoint:
    """Device-side half of the wire transport: bytes in, bytes out.

    Decodes the request, runs the device, and encodes the outcome —
    including the error outcomes, which become status replies rather than
    exceptions crossing the boundary.
    """

    def __init__(self, device) -> None:
        self._device = device

    def handle_decrypt_share(self, request_bytes: bytes) -> bytes:
        """Decode, run the device, encode the outcome (reply or status)."""
        request = wire.decode_decrypt_request(request_bytes)
        try:
            reply = self._device.decrypt_share(request)
        except _ERROR_TYPES as exc:
            return wire.encode_decrypt_error(_status_for(exc), str(exc))
        return wire.encode_decrypt_reply(reply)


class WireChannel(Channel):
    """Default transport: every request/reply round-trips through bytes.

    ``transport`` is any ``bytes -> bytes`` callable (an endpoint's
    ``handle_decrypt_share`` or a fault-injecting wrapper); an
    :class:`HsmWireEndpoint` is accepted and used through that method.
    """

    def __init__(self, transport) -> None:
        if isinstance(transport, HsmWireEndpoint):
            transport = transport.handle_decrypt_share
        self._transport: Callable[[bytes], bytes] = transport

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Round-trip through bytes; re-raise error statuses client-side."""
        reply_bytes = self._transport(wire.encode_decrypt_request(request))
        status, payload = wire.decode_decrypt_reply(reply_bytes)
        if status == wire.REPLY_OK:
            return payload
        raise _STATUS_EXCEPTIONS[status](payload)


def _memoized(make: Callable[[int], Channel]) -> ChannelFactory:
    """A factory that builds each index's channel once and then reuses it."""
    cache: Dict[int, Channel] = {}

    def factory(index: int) -> Channel:
        if index not in cache:
            cache[index] = make(index)
        return cache[index]

    return factory


def wire_channels(devices: Sequence) -> ChannelFactory:
    """A factory of wire channels over an indexable device collection."""
    return _memoized(lambda index: WireChannel(HsmWireEndpoint(devices[index])))


def direct_channels(devices: Sequence) -> ChannelFactory:
    """A factory of direct (no serialization) channels."""
    return _memoized(lambda index: DirectChannel(devices[index]))


# ---------------------------------------------------------------------------
# The client <-> provider transport boundary
# ---------------------------------------------------------------------------
class ProviderChannel:
    """Narrow interface between a client and the service provider.

    One method per row of ``wire.PROVIDER_OPS`` (backup upload/fetch,
    incrementals, attempt numbering, log-and-prove, proof refresh, reply
    escrow), generated by :func:`_rpc_method`.  Each binds its arguments,
    defaults applied, into a tuple in request-schema order and hands it to
    :meth:`_invoke`, the one method a transport implements.  Client code
    holds a ProviderChannel, never a live
    :class:`~repro.core.provider.ServiceProvider`.
    """

    def _invoke(self, op: wire.ProviderOp, args: Tuple) -> Any:
        """Carry out one provider RPC and return its reply value."""
        raise NotImplementedError


class DirectProviderChannel(ProviderChannel):
    """In-process reference path: call the provider object directly.

    Kept so tests and benchmarks can measure exactly what the wire framing
    costs; production wiring uses :class:`WireProviderChannel`.
    """

    def __init__(self, provider) -> None:
        self._provider = provider

    def _invoke(self, op: wire.ProviderOp, args: Tuple) -> Any:
        return getattr(self._provider, op.method)(*args)


class ProviderWireEndpoint:
    """Provider-side half of the wire transport: bytes in, bytes out.

    Decodes each request frame, calls the provider method its op names,
    and encodes the outcome.  *Every* failure becomes a typed error frame:
    malformed requests answer ``PROV_ERR_BAD_REQUEST``, provider refusals
    answer ``PROV_ERR_PROVIDER``, epoch timeouts answer
    ``PROV_ERR_TIMEOUT``, and — defense in depth — a raw ``KeyError`` /
    ``IndexError`` / ``ValueError`` escaping the provider is converted
    rather than propagated, so no Python exception ever crosses the wire.
    """

    def __init__(self, provider) -> None:
        self._provider = provider

    def handle(self, request_bytes: bytes) -> bytes:
        """Serve one framed request; always returns a reply frame."""
        try:
            tag, fields = wire.decode_provider_request(request_bytes)
        except wire.WireFormatError as exc:
            return wire.encode_provider_error(wire.PROV_ERR_BAD_REQUEST, str(exc))
        op = wire.PROVIDER_OPS_BY_TAG[tag]
        try:
            # Decoded fields come back in schema order, i.e. argument order.
            result = getattr(self._provider, op.method)(*fields.values())
            # Encoding inside the try: a provider returning an
            # out-of-contract value (unencodable field) must also answer
            # with an error frame, not crash the connection handler.
            return wire.encode_provider_reply(op.reply, _reply_fields(op.reply, result))
        except ServiceTimeout as exc:
            return wire.encode_provider_error(wire.PROV_ERR_TIMEOUT, str(exc))
        except (ProviderError, wire.WireFormatError) as exc:
            return wire.encode_provider_error(wire.PROV_ERR_PROVIDER, str(exc))
        except (KeyError, IndexError, ValueError) as exc:
            return wire.encode_provider_error(
                wire.PROV_ERR_PROVIDER, f"{type(exc).__name__}: {exc}"
            )


def _reply_fields(kind: int, result) -> Dict:
    """Pack a provider method's result into the reply kind's fields: no
    field drops it, one field holds it, two fields unpack a pair."""
    names = [name for name, _ in wire.PROVIDER_REPLY_SCHEMAS[kind]]
    return dict(zip(names, result if len(names) > 1 else [result]))


def _reply_value(fields: Dict):
    """Inverse of :func:`_reply_fields` on decoded reply fields (which come
    back in schema order): None, the one value, or a tuple."""
    values = tuple(fields.values())
    if len(values) > 1:
        return values
    return values[0] if values else None


class WireProviderChannel(ProviderChannel):
    """Default transport: every provider call round-trips through bytes.

    ``transport`` is any ``bytes -> bytes`` callable (an endpoint's
    ``handle``, an in-memory loopback, or a fault-injecting test wrapper).
    Error frames re-raise as :class:`ProviderError` /
    :class:`~repro.service.batcher.ServiceTimeout`; a malformed reply
    raises :class:`~repro.core.wire.WireFormatError`.

    Traffic counters (``frames_sent`` / ``bytes_sent`` /
    ``bytes_received``) accumulate under a lock, so benchmarks can report
    the wire overhead of the provider leg; the channel itself is a
    stateless pass-through otherwise and safe to share across threads.
    """

    #: Lock contract, checked by `repro.lintkit`'s lock-discipline pass.
    _GUARDED_BY = {
        "frames_sent": "_counter_lock",
        "bytes_sent": "_counter_lock",
        "bytes_received": "_counter_lock",
    }

    def __init__(self, transport) -> None:
        if isinstance(transport, ProviderWireEndpoint):
            transport = transport.handle
        self._transport: Callable[[bytes], bytes] = transport
        self._counter_lock = threading.Lock()
        self.frames_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def wire_stats(self) -> Dict[str, int]:
        """Snapshot of the traffic counters (frames and bytes both ways)."""
        with self._counter_lock:
            return {
                "frames_sent": self.frames_sent,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }

    def _invoke(self, op: wire.ProviderOp, args: Tuple) -> Any:
        fields = {name: value for (name, _), value in zip(op.request, args)}
        request = wire.encode_provider_request(op.tag, fields)
        reply_bytes = self._transport(request)
        with self._counter_lock:
            self.frames_sent += 1
            self.bytes_sent += len(request)
            self.bytes_received += len(reply_bytes)
        kind, reply = wire.decode_provider_reply(reply_bytes)
        if kind == wire.PROV_REPLY_ERROR:
            if reply["status"] == wire.PROV_ERR_TIMEOUT:
                raise ServiceTimeout(reply["message"])
            raise ProviderError(reply["message"])
        if kind != op.reply:
            raise wire.WireFormatError(
                f"unexpected reply kind {kind} to provider op {op.tag}"
            )
        return _reply_value(reply)


def _rpc_method(owner: type, op: wire.ProviderOp) -> Callable:
    """The channel method for one op: bind the arguments against the op's
    signature and pass them to ``self._invoke`` in schema order."""
    names = ["self"] + [name for name, _ in op.request]
    defaults = [inspect.Parameter.empty] * (len(names) - len(op.defaults)) + list(op.defaults)
    signature = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=default)
        for name, default in zip(names, defaults)
    ])
    arity = len(names)

    def method(*args, **kwargs):
        if kwargs or len(args) != arity:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        return args[0]._invoke(op, args[1:])

    method.__name__ = op.method
    method.__qualname__ = f"{owner.__name__}.{op.method}"
    method.__signature__ = signature
    method.__doc__ = f"Provider RPC ``{op.method}`` (request op {op.tag})."
    return method


# Installed on each class (not only the base) so every transport owns its
# methods and can be wrapped per class.
for _owner in (ProviderChannel, DirectProviderChannel, WireProviderChannel):
    for _op in wire.PROVIDER_OPS:
        setattr(_owner, _op.method, _rpc_method(_owner, _op))
del _owner, _op


def provider_channel(provider, transport: str = "wire") -> ProviderChannel:
    """Wrap a provider(-facade) in the channel flavor ``transport`` names.

    ``"wire"`` builds the byte-level loopback
    (:class:`WireProviderChannel` over a :class:`ProviderWireEndpoint`);
    ``"direct"`` builds the no-serialization reference path.
    """
    if transport == "wire":
        return WireProviderChannel(ProviderWireEndpoint(provider))
    if transport == "direct":
        return DirectProviderChannel(provider)
    raise ValueError(f"unknown transport {transport!r}")
