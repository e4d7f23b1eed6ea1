"""JSON-lines TCP front end for the pricing gateway.

``python -m repro gateway`` serves this protocol.  One request per
line::

    {"id": 7, "kernel": "black_scholes", "tier": "greeks",
     "S": [...], "X": [...], "T": [...], "rate": 0.05, "vol": 0.2}

One response per line (order may differ from request order — each
request is priced as its batch flushes, so pipelined clients win)::

    {"id": 7, "ok": true, "n": 8, "digest": "...",
     "outputs": {"price": [[...calls], [...puts]], ...}}

Errors come back as ``{"id": ..., "ok": false, "error": "...",
"message": "..."}``; ``{"op": "stats"}`` returns gateway counters.  A
line that is not a JSON object gets an error reply too, and the
connection stays usable.  A line longer than the gateway's
``max_batch`` options can need gets one ``GatewayError`` reply naming
the limit, then the connection closes.

This wrapper exists for operability (poke the gateway with ``nc``),
not peak throughput: JSON float marshalling costs far more than the
dispatch it wraps, which is why the loadtest bench drives the gateway
in-process instead.  SIGINT/SIGTERM drain gracefully — intake closes,
queued batches price, sockets flush, then the daemon pins release
and an owned worker fleet stops.
"""

from __future__ import annotations

import asyncio
import json
import signal

from ..errors import GatewayError, ReproError
from .gateway import PricingGateway
from .request import PricingRequest


#: Bytes one option can take on a request line: three float arrays
#: (S, X, T), each element at most a double's 24-character ``repr``
#: plus json's ``", "`` separator.
_OPTION_LINE_BYTES = 3 * 26

#: Room on a request line for everything but the arrays.
_LINE_HEADROOM = 1 << 16


def _encode(obj) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


async def _reply(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                 reply: dict) -> None:
    async with lock:                     # one writer per connection
        try:
            writer.write(_encode(reply))
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass


async def _handle_line(gateway: PricingGateway, line: bytes,
                       writer: asyncio.StreamWriter,
                       lock: asyncio.Lock) -> None:
    req_id = None
    try:
        msg = json.loads(line)
        if not isinstance(msg, dict):
            raise GatewayError(f"a request must be a JSON object, "
                               f"got {type(msg).__name__}")
        req_id = msg.get("id")
        if msg.get("op") == "stats":
            reply = {"id": req_id, "ok": True, "stats": gateway.stats}
        else:
            request = PricingRequest(
                S=msg["S"], X=msg["X"], T=msg["T"],
                rate=msg["rate"], vol=msg["vol"],
                kernel=msg.get("kernel", "black_scholes"),
                tier=msg.get("tier", "parallel"))
            result = await gateway.submit(request)
            reply = {
                "id": req_id, "ok": True, "n": result.n,
                "digest": result.digest(),
                "outputs": {name: result[name].tolist()
                            for name in result},
            }
    except (ReproError, KeyError, ValueError, TypeError) as exc:
        reply = {"id": req_id, "ok": False,
                 "error": type(exc).__name__, "message": str(exc)}
    await _reply(writer, lock, reply)


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard input through the end of the current line (or EOF)."""
    while True:
        chunk = await reader.read(1 << 16)
        if not chunk or b"\n" in chunk:
            return


async def _handle_conn(gateway: PricingGateway,
                       reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter, limit: int) -> None:
    lock = asyncio.Lock()
    # In flight only: a finished line's task leaves the set, so a
    # long-lived pipelining connection holds none of its answered ones.
    tasks: set[asyncio.Task] = set()
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:      # EOF
                line = exc.partial
                if not line:
                    break
            except asyncio.LimitOverrunError:
                await _reply(writer, lock, {
                    "id": None, "ok": False, "error": "GatewayError",
                    "message": f"request line exceeds the {limit}-byte "
                               f"limit (max_batch="
                               f"{gateway.max_batch} options)"})
                # Read the rest of the line so the close is clean.
                await _skip_line(reader)
                break
            line = line.strip()
            if not line:
                continue
            # Task-per-request so a connection can pipeline: requests
            # coalesce into batches instead of serializing.
            task = asyncio.ensure_future(
                _handle_line(gateway, line, writer, lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        # Drain the lines still in flight.
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def serve_gateway(gateway: PricingGateway, host: str = "127.0.0.1",
                        port: int = 7101, *, ready=None,
                        stop_event: asyncio.Event | None = None) -> None:
    """Run the TCP server over a started ``gateway`` until
    ``stop_event`` (or SIGINT/SIGTERM) fires, then drain."""
    stop = stop_event or asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass

    # Own the per-connection tasks (rather than letting the streams
    # machinery wrap the coroutine): connections still open at shutdown
    # get cancelled *here*, where _handle_conn's finally can drain
    # in-flight replies, instead of at loop teardown where asyncio
    # logs a CancelledError traceback for each.
    conn_tasks: set[asyncio.Task] = set()
    limit = gateway.max_batch * _OPTION_LINE_BYTES + _LINE_HEADROOM

    def _on_conn(reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(
            _handle_conn(gateway, reader, writer, limit))
        conn_tasks.add(task)
        task.add_done_callback(conn_tasks.discard)

    server = await asyncio.start_server(_on_conn, host, port, limit=limit)
    addr = server.sockets[0].getsockname()
    if ready is not None:
        ready(addr)
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        for task in list(conn_tasks):
            task.cancel()
        if conn_tasks:
            await asyncio.gather(*conn_tasks, return_exceptions=True)
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass


async def _amain(host: str, port: int, **gateway_kw) -> int:
    async with PricingGateway(**gateway_kw) as gateway:
        def ready(addr):
            print(f"repro gateway listening on {addr[0]}:{addr[1]} "
                  f"(backend={gateway.backend}, "
                  f"max_wait={gateway.max_wait_s * 1e3:.1f}ms, "
                  f"max_batch={gateway.max_batch}); "
                  f"JSON lines, Ctrl-C drains", flush=True)
        await serve_gateway(gateway, host, port, ready=ready)
        print("draining gateway...", flush=True)
    return 0


def run_server(host: str = "127.0.0.1", port: int = 7101,
               **gateway_kw) -> int:
    """Blocking entry point for ``python -m repro gateway``."""
    import sys
    # Warm batches price on the loop, but a compile runs on a helper
    # thread and shares the GIL with it; the default 5 ms switch
    # interval would let a compile stall intake (and vice versa) for
    # several times a millisecond latency budget.
    sys.setswitchinterval(0.001)
    try:
        return asyncio.run(_amain(host, port, **gateway_kw))
    except GatewayError as exc:
        print(f"gateway error: {exc}")
        return 1
    except KeyboardInterrupt:
        return 0
