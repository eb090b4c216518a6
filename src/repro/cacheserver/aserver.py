"""The cache server: every connection multiplexed on one asyncio event loop.

:class:`AsyncCacheServer` puts :class:`~repro.cacheserver.server.
CacheServerCore` on the wire — the process ``charles cache-server`` runs.
A fleet of engines each holding a few pipelined connections per shard puts
*connections*, not CPU, on the server: request handling is dict lookups, so
an idle connection costs one reader coroutine parked on the loop, and a
burst of pipelined requests is answered with one ``write`` of the joined
response frames.

The listening socket is created synchronously in ``__init__``, so
:attr:`url` is valid before ``start``.  Use the server as a context manager,
or pair :meth:`~AsyncCacheServer.start` / :meth:`~AsyncCacheServer.
serve_forever` with :meth:`~AsyncCacheServer.shutdown`.

Every verb is dispatched inline on the loop: none of them blocks, so
responses leave each connection in arrival order as the protocol requires.

The server accepts its connections itself (a reader on the listening socket)
and tracks each accepted socket from that moment until it is closed.
Shutdown stops accepting first, then cancels every connection, then closes
the sockets whose connection task never ran.  ``asyncio.start_server``
cannot promise that: a connection it accepts in the loop iteration that
stops the server fails ``Server._attach`` after ``Server.close()`` and
leaks its transport.

Each accepted connection runs with ``TCP_NODELAY``.  The server sets it
itself: asyncio only does so when the listening socket's ``proto`` is
``IPPROTO_TCP``, and ``socket.create_server`` leaves it 0.  With Nagle's
algorithm on, a small response queued behind an un-ACKed earlier one waits
for the client's delayed ACK, about 40 ms on Linux.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading

from repro.cacheserver import protocol
from repro.cacheserver.server import CacheServerCore

__all__ = ["AsyncCacheServer"]


class AsyncCacheServer(CacheServerCore):
    """A fleet-shared cache service, every connection on one event loop.

    ``port=0`` binds an ephemeral port (read it back from :attr:`address` /
    :attr:`url`); ``capacity`` bounds the region's entry count, evicting
    the oldest write first.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int | None = None,
    ) -> None:
        super().__init__(capacity=capacity)
        # bind synchronously so .address/.url work before the loop exists
        self._sock = socket.create_server((host, port))
        self._address = self._sock.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        # every accepted connection's task → its socket, until the task ends
        self._conn_tasks: dict[asyncio.Task, socket.socket] = {}
        self._resume: asyncio.TimerHandle | None = None  # re-arms a paused accept
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` the server is listening on."""
        host, port = self._address
        return host, port

    # -- the event loop ----------------------------------------------------------

    async def _main(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._sock.setblocking(False)
        loop.add_reader(self._sock, self._accept)
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            # stop accepting before tearing down, so no connection can
            # arrive while the others close
            if self._resume is not None:
                self._resume.cancel()
            loop.remove_reader(self._sock)
            self._sock.close()
            # tear down live connections so a stopped server immediately
            # looks *down* to its fleet: clients degrade to misses and
            # reconnect instead of staying parked on a dead conversation
            tasks = dict(self._conn_tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for conn in tasks.values():
                conn.close()  # a no-op unless the task was cancelled before it ran
            await asyncio.sleep(0)  # transports closed above finish closing

    def _accept(self) -> None:
        """Adopt every connection waiting in the listen backlog."""
        while True:
            try:
                conn, _ = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                # out of descriptors or buffers: the client waits in the
                # backlog; pause accepting for a second instead of spinning
                self._count_connection_error()
                self._loop.remove_reader(self._sock)
                self._resume = self._loop.call_later(
                    1.0, self._loop.add_reader, self._sock, self._accept
                )
                return
            task = self._loop.create_task(self._adopt(conn))
            self._conn_tasks[task] = conn
            self._inflight.set(len(self._conn_tasks))

    async def _adopt(self, conn: socket.socket) -> None:
        """Wrap an accepted socket in streams and serve it until it closes."""
        try:
            reader, writer = await asyncio.open_connection(sock=conn)
        except OSError:
            conn.close()
            self._count_connection_error()
        else:
            await self._serve_connection(reader, writer)
        finally:
            self._conn_tasks.pop(asyncio.current_task(), None)
            self._inflight.set(len(self._conn_tasks))

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: request frames answered in arrival order.

        A pipelined client may queue many frames before reading anything
        back; answering them sequentially per connection (responses echo the
        request id) gives that client read-your-writes on its own traffic.
        Every complete frame buffered at wake time is dispatched, and all
        their responses go out in one write — a pipelined client's burst of
        PUTs costs a handful of syscalls, not two per entry.
        """
        buffer = bytearray()
        try:
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    return  # clean EOF (mid-frame leftovers are the peer's bug)
                buffer += chunk
                try:
                    frames = protocol.drain_frames(buffer)
                except protocol.ProtocolError:
                    return  # corrupt length prefix: framing is lost, drop the peer
                responses: list[bytes] = []
                for frame in frames:
                    try:
                        request_id, body = protocol.parse_message(frame)
                    except protocol.ProtocolError:
                        return  # unframeable peer: drop the connection, not the server
                    responses.append(
                        protocol.frame_message(request_id, self.dispatch(body))
                    )
                if responses:
                    writer.write(b"".join(responses))
                    await writer.drain()
        except (ConnectionError, OSError):
            # a reset or a broken pipe (say, the client's process exited)
            self._count_connection_error()
        except asyncio.CancelledError:
            return  # server shutdown: connections die with it
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    # -- lifecycle ---------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` is called."""
        asyncio.run(self._main())

    def start(self) -> "AsyncCacheServer":
        """Serve on a background thread (returns self for chaining)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="charles-cache-aserver", daemon=True
        )
        self._thread.start()
        # wait for the loop to be accepting, so callers can connect right away
        self._ready.wait(timeout=10.0)
        return self

    def shutdown(self) -> None:
        """Stop the loop, tear down connections and close the socket.

        Idempotent; entries are process-local, so they die with the server —
        clients degrade to misses and recompute, never to wrong results.
        """
        if self._closed:
            return
        self._closed = True
        if self._ready.is_set() and self._loop is not None:
            loop, stop = self._loop, self._stop
            if stop is not None and not loop.is_closed():
                try:
                    loop.call_soon_threadsafe(stop.set)
                except RuntimeError:  # pragma: no cover - loop already gone
                    pass
        else:
            # never served: just release the listening socket
            self._sock.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "AsyncCacheServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
