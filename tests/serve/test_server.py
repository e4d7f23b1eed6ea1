"""JSON-lines TCP front end: round-trip, pipelining, error replies."""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import PricingGateway, PricingRequest, serial_reference
from repro.serve.server import serve_gateway

#: Client stream limit: a reply to a full batch of Greeks carries far
#: more floats than its request did.
_CLIENT_LIMIT = 1 << 24


async def _with_server(body):
    """Run ``body(reader, writer)`` against a live gateway server on an
    ephemeral port."""
    ready = asyncio.Event()
    addr = {}
    stop = asyncio.Event()

    def on_ready(a):
        addr["port"] = a[1]
        ready.set()

    async with PricingGateway(backend="serial", max_wait_s=0.002) as gw:
        server = asyncio.ensure_future(serve_gateway(
            gw, "127.0.0.1", 0, ready=on_ready, stop_event=stop))
        await asyncio.wait_for(ready.wait(), timeout=5.0)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", addr["port"], limit=_CLIENT_LIMIT)
        try:
            return await body(reader, writer)
        finally:
            writer.close()
            stop.set()
            await asyncio.wait_for(server, timeout=5.0)


async def _rpc(reader, writer, msg):
    writer.write((json.dumps(msg) + "\n").encode())
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(),
                                             timeout=10.0))


class TestServer:
    def test_price_round_trip_matches_serial_reference(self):
        S = list(np.linspace(50.0, 150.0, 6))
        X = [100.0] * 6
        T = [1.0] * 6

        async def body(reader, writer):
            reply = await _rpc(reader, writer, {
                "id": 1, "kernel": "black_scholes", "tier": "parallel",
                "S": S, "X": X, "T": T, "rate": 0.05, "vol": 0.2})
            assert reply["ok"] and reply["id"] == 1
            assert reply["n"] == 6
            ref = serial_reference(PricingRequest(
                S=S, X=X, T=T, rate=0.05, vol=0.2))
            assert reply["digest"] == ref.digest()
            got = np.asarray(reply["outputs"]["price"])
            assert np.array_equal(got, np.asarray(ref["price"]))
        asyncio.run(_with_server(body))

    def test_pipelined_requests_all_answered(self):
        async def body(reader, writer):
            for i in range(4):
                writer.write((json.dumps({
                    "id": i, "S": [100.0], "X": [95.0], "T": [1.0],
                    "rate": 0.05, "vol": 0.2}) + "\n").encode())
            await writer.drain()
            ids = set()
            for _ in range(4):
                reply = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=10.0))
                assert reply["ok"]
                ids.add(reply["id"])
            assert ids == {0, 1, 2, 3}
        asyncio.run(_with_server(body))

    def test_stats_op(self):
        async def body(reader, writer):
            reply = await _rpc(reader, writer, {"id": 9, "op": "stats"})
            assert reply["ok"]
            assert reply["stats"]["backend"] == "serial"
        asyncio.run(_with_server(body))

    def test_bad_request_gets_error_reply_not_disconnect(self):
        async def body(reader, writer):
            reply = await _rpc(reader, writer,
                               {"id": 2, "S": [1.0]})  # missing fields
            assert not reply["ok"]
            assert reply["error"] == "KeyError"
            # The connection survives for the next request.
            reply = await _rpc(reader, writer, {
                "id": 3, "S": [100.0], "X": [95.0], "T": [1.0],
                "rate": 0.05, "vol": 0.2})
            assert reply["ok"] and reply["id"] == 3
        asyncio.run(_with_server(body))

    def test_nonfinite_parameter_gets_error_reply(self):
        async def body(reader, writer):
            reply = await _rpc(reader, writer, {
                "id": 5, "S": [100.0], "X": [95.0], "T": [1.0],
                "rate": 0.05, "vol": float("nan")})   # sent as NaN
            assert not reply["ok"]
            assert reply["error"] == "DomainError"
            assert "finite" in reply["message"]
            reply = await _rpc(reader, writer, {
                "id": 6, "S": [100.0], "X": [95.0], "T": [1.0],
                "rate": 0.05, "vol": 0.2})
            assert reply["ok"] and reply["id"] == 6
        asyncio.run(_with_server(body))

    def test_integer_beyond_float_range_gets_error_reply(self):
        async def body(reader, writer):
            reply = await _rpc(reader, writer, {
                "id": 7, "S": [10 ** 400], "X": [95.0], "T": [1.0],
                "rate": 0.05, "vol": 0.2})
            assert not reply["ok"] and reply["id"] == 7
            assert reply["error"] == "DomainError"
            reply = await _rpc(reader, writer, {
                "id": 8, "S": [100.0], "X": [95.0], "T": [1.0],
                "rate": 0.05, "vol": 0.2})
            assert reply["ok"] and reply["id"] == 8
        asyncio.run(_with_server(body))

    def test_unbatchable_tier_reported(self):
        async def body(reader, writer):
            reply = await _rpc(reader, writer, {
                "id": 4, "tier": "implied", "S": [100.0], "X": [95.0],
                "T": [1.0], "rate": 0.05, "vol": 0.2})
            assert not reply["ok"]
            assert reply["error"] == "GatewayError"
            assert "implied" in reply["message"]
        asyncio.run(_with_server(body))

    @pytest.mark.parametrize("tier", ["parallel", "greeks"])
    def test_max_batch_request_round_trips(self, tier):
        # 4096 full-precision options make a ~250 KB line, well past
        # asyncio's default 64 KiB stream limit.
        gen = np.random.default_rng(30)
        S, X, T = (gen.uniform(50.0, 150.0, 4096).tolist(),
                   gen.uniform(50.0, 150.0, 4096).tolist(),
                   gen.uniform(0.1, 2.0, 4096).tolist())

        async def body(reader, writer):
            reply = await _rpc(reader, writer, {
                "id": 11, "tier": tier, "S": S, "X": X, "T": T,
                "rate": 0.05, "vol": 0.2})
            assert reply["ok"] and reply["n"] == 4096
            ref = serial_reference(PricingRequest(
                S=S, X=X, T=T, rate=0.05, vol=0.2, tier=tier))
            assert reply["digest"] == ref.digest()
        asyncio.run(_with_server(body))

    def test_over_limit_line_gets_error_reply_then_close(self):
        async def body(reader, writer):
            writer.write(b'{"id": 1, "pad": "' + b"x" * 500_000 + b'"}\n')
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                      timeout=10.0))
            assert not reply["ok"]
            assert reply["error"] == "GatewayError"
            assert "limit" in reply["message"]
            assert "max_batch=4096" in reply["message"]
            assert await asyncio.wait_for(reader.read(), timeout=10.0) == b""
        asyncio.run(_with_server(body))

    @pytest.mark.parametrize("line", ["[1, 2]", "42", '"x"', "null"])
    def test_non_object_line_gets_error_reply(self, line):
        async def body(reader, writer):
            writer.write(line.encode() + b"\n")
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                      timeout=10.0))
            assert not reply["ok"]
            assert reply["error"] == "GatewayError"
            assert "JSON object" in reply["message"]
            # The connection survives for the next request.
            reply = await _rpc(reader, writer, {
                "id": 8, "S": [100.0], "X": [95.0], "T": [1.0],
                "rate": 0.05, "vol": 0.2})
            assert reply["ok"] and reply["id"] == 8
        asyncio.run(_with_server(body))
