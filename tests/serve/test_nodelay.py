"""Served connections disable Nagle's algorithm.

``RequestHandler`` writes a response's headers and body in two sends.
With Nagle on, the second send of a keep-alive response waits for the
client's delayed ACK (~40 ms); ``TCP_NODELAY`` removes that floor.  The
test reads the socket option off the accepted connection itself — no
timing is asserted.
"""

from __future__ import annotations

import http.client
import socket
import threading

from repro.serve.app import RequestHandler, create_server


def test_accepted_connections_have_tcp_nodelay(app):
    seen: list[int] = []

    class Probe(RequestHandler):
        def setup(self) -> None:
            super().setup()
            seen.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

    server = create_server("127.0.0.1", 0, app, access_log_file=None)
    server.RequestHandlerClass = Probe
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        for _ in range(2):  # two requests on one keep-alive connection
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        connection.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert len(seen) == 1
    assert seen[0] != 0
