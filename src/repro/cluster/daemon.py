"""The worker daemon: one node of the real-wire cluster.

A :class:`WorkerDaemon` is what the simulated network called a "worker
node", promoted to a real OS process listening on a real TCP port.  Per
connection it speaks the framed-record protocol of
:mod:`repro.cluster.stream`; the message kinds are:

- ``ping`` -> ``pong`` (liveness probe, used by spawners);
- ``vote`` -> ``vote-reply``: the daemon is one voter of the
  majority-consensus 0-1 semaphore (section 3.4, Thomas 1979); its
  per-decision grant is irrevocable for the daemon's lifetime, and a
  SIGKILLed daemon simply stops answering -- the quorum arithmetic of
  :class:`~repro.cluster.semaphore.ClusterMajoritySemaphore` absorbs it;
- ``ship``: one arm shipment.  The daemon restores the shipped parent
  image into a fresh paged address space, ``alt_spawn``\\ s a COW child,
  runs the arm's body and guards exactly as the home node would
  (:func:`repro.core.sequential._run_body`), heartbeats on the
  connection while the body runs, and ships the child's dirty pages
  home in the result record the moment the body returns (the arm
  thread wakes the handler through a per-shipment pipe) -- the paper's
  "the changed state is updated in the parent's storage", over a
  socket;
- ``cancel``: the section 3.2.1 termination instruction, delivered to
  the running body through its cooperative
  :class:`~repro.core.backends.base.CancellationToken`.

Robustness contract (the reason this module exists):

- SIGTERM sets a flag and lets blocking calls resume (PEP 475); in
  flight arms are cancelled, the listener closes, and shutdown runs the
  shared-memory audit (:func:`repro.pages.shm.cleanup_all_slabs` +
  :func:`~repro.pages.shm.orphaned_segments`) so a politely stopped
  daemon can never leak ``/dev/shm`` segments;
- a client that vanishes mid-race (half-open connection, EPIPE on a
  heartbeat) orphans the arm: the body is cancelled and the world
  released -- the worker-side lease-lapse self-termination of
  :mod:`repro.net.lease`, enforced by the wire itself;
- a shipment that dies mid-frame is detected by the stream's reader and
  closes the conversation; the daemon never acts on a torn record.
"""

from __future__ import annotations

import os
import secrets as _secrets
import select
import signal
import threading
import time
from typing import Dict, Optional, Tuple

from repro.consensus.node import ConsensusNode
from repro.core.alternative import AltContext, Alternative
from repro.core.backends.base import CancellationToken
from repro.core.sequential import _run_body
from repro.cluster.auth import load_secret, serve_handshake
from repro.cluster.stream import RecordStream, StreamClosed, listener
from repro.errors import ConsensusUnavailable
from repro.pages.shm import cleanup_all_slabs, orphaned_segments
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager

#: How long a stopping daemon waits for in-flight arm threads.
_STOP_GRACE = 2.0


class _Wake:
    """A shipment's self-pipe: the arm thread's return, as an fd the
    handler polls together with the connection.

    The handler owns both ends and closes them exactly once.  A
    soft-crashed or orphaned arm can outlive its handler, so ``set``
    after ``close`` is a no-op rather than a write into a closed (or
    recycled) fd.
    """

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        self._lock = threading.Lock()

    def fileno(self) -> int:
        return self._read

    def set(self) -> None:
        with self._lock:
            if self._write >= 0:
                os.write(self._write, b"\0")

    def close(self) -> None:
        with self._lock:
            ends, self._read, self._write = (self._read, self._write), -1, -1
        for fd in ends:
            if fd >= 0:
                os.close(fd)


def _buffered(stream) -> bool:
    """True when a previous ``recv`` left bytes in the stream's own
    buffer (parsed records, or an authenticated envelope's bytes), where
    polling the socket cannot see them."""
    return bool(getattr(stream, "_ready", None) or getattr(stream, "_buf", None))


class WorkerDaemon:
    """One cluster worker: arm executor + consensus voter on a socket."""

    def __init__(
        self,
        node_id: str = "worker",
        host: str = "127.0.0.1",
        port: int = 0,
        hb_interval: float = 0.05,
        allow_hard_crash: bool = False,
        process_owner: bool = False,
        secret=None,
        join_addr: Optional[Tuple[str, int]] = None,
        gossip_interval: float = 0.2,
        epoch: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.hb_interval = hb_interval
        self.allow_hard_crash = allow_hard_crash
        self.process_owner = process_owner
        """True when this daemon owns its OS process (the CLI mode): its
        shutdown may reclaim every owned shm slab.  In-process daemons
        (tests) must not -- the host process's live slabs are not theirs
        to destroy."""
        """When true (the subprocess CLI mode), an injected
        ``crash_after`` SIGKILLs the whole daemon -- a real mid-arm
        death.  In-process daemons (tests) emulate the crash at
        connection grain instead of killing the host process."""

        self.voter = ConsensusNode(node_id)
        self.host = host
        self.port = port
        self._key = load_secret(secret)
        self.join_addr = join_addr
        """``(host, port)`` of the home node's membership server; when
        set, the daemon announces itself on start and gossips pings --
        the mechanism by which a respawned daemon re-enters the executor
        rotation with no home-node restart."""
        self.gossip_interval = gossip_interval
        self.epoch = (
            epoch if epoch is not None
            else (os.getpid() << 16) | _secrets.randbits(16)
        )
        """Incarnation id: a respawn gets a new epoch, so the membership
        table can tell this daemon from its predecessor of the same name."""
        self._announcer = None
        self._listener = None
        self._stopping = threading.Event()
        self._threads: list = []
        self._inflight: Dict[int, CancellationToken] = {}
        self._inflight_lock = threading.Lock()
        self._next_ship = 0
        self.arms_run = 0
        self.arms_cancelled = 0
        self.arms_orphaned = 0
        self.auth_rejects = 0
        self.shm_leaks_at_shutdown: Tuple[str, ...] = ()
        self.shm_leaks_after_orphan: Tuple[str, ...] = ()
        # Segments predating this daemon are someone else's corpse; the
        # shutdown audit reports only what appeared on our watch.
        self._shm_baseline = frozenset(orphaned_segments())

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind and serve in background threads; returns the address."""
        self._listener, self.host, self.port = listener(self.host, self.port)
        accept = threading.Thread(
            target=self._accept_loop,
            name=f"daemon-{self.node_id}",
            daemon=True,
        )
        accept.start()
        self._threads.append(accept)
        if self.join_addr is not None:
            from repro.cluster.membership import MembershipAnnouncer

            self._announcer = MembershipAnnouncer(
                self.node_id,
                advertise=(self.host, self.port),
                join_addr=self.join_addr,
                epoch=self.epoch,
                secret=self._key,
                interval=self.gossip_interval,
            )
            self._announcer.start()
        return self.host, self.port

    def serve_forever(self) -> None:
        """Blocking serve (the CLI entry point); returns after stop()."""
        if self._listener is None:
            self.start()
        while not self._stopping.wait(0.1):
            pass

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT set the stop flag -- handlers never raise, so
        EINTR'd syscalls resume (PEP 475) and loops drain cleanly."""

        def _stop(signum, frame):  # pragma: no cover - signal path
            self.stop()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)

    def stop(self, leave: bool = True) -> None:
        """Graceful shutdown: cancel arms, close sockets, audit shm.

        ``leave=False`` skips the membership goodbye -- the in-process
        way to model an abrupt death (the home node must *detect* it
        through suspicion instead of being told).
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._announcer is not None:
            self._announcer.stop(leave=leave)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._inflight_lock:
            tokens = list(self._inflight.values())
        for token in tokens:
            token.cancel()
        deadline = time.monotonic() + _STOP_GRACE
        with self._inflight_lock:
            pending = dict(self._inflight)
        while pending and time.monotonic() < deadline:
            time.sleep(0.01)
            with self._inflight_lock:
                pending = dict(self._inflight)
        # The shutdown audit: reclaim owned slabs (only when the process
        # is ours to clean), then record anything still carrying our
        # prefix (a leak a test or operator can see).
        if self.process_owner:
            cleanup_all_slabs()
        self.shm_leaks_at_shutdown = tuple(
            sorted(set(orphaned_segments()) - self._shm_baseline)
        )

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    # ------------------------------------------------------------------
    # connection handling

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            handler = threading.Thread(
                target=self._handle_conn,
                args=(RecordStream(sock, name=self.node_id),),
                name=f"daemon-{self.node_id}-conn",
                daemon=True,
            )
            handler.start()
            # Reap finished handlers as we go; connection churn must
            # not grow this list for the life of the daemon.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(handler)

    def _handle_conn(self, raw: RecordStream) -> None:
        # With a cluster secret configured, *every* conversation -- ship,
        # vote, ping, shutdown -- starts with the nonce challenge; an
        # unauthenticated or forged frame ends it (auth-reject traced by
        # the wrapper) before any message kind is even looked at.
        try:
            stream = serve_handshake(raw, self._key)
        except StreamClosed:
            raw.close()
            return
        try:
            while not self._stopping.is_set():
                try:
                    msg = stream.recv(timeout=0.1)
                except StreamClosed:
                    return
                if msg is None:
                    continue
                kind = msg.get("kind")
                if kind == "ping":
                    stream.send({"kind": "pong", "node": self.node_id})
                elif kind == "vote":
                    self._handle_vote(stream, msg)
                elif kind == "ship":
                    self._handle_ship(stream, msg)
                    return  # one arm per connection; conversation over
                elif kind == "shutdown":
                    stream.send({"kind": "bye", "node": self.node_id})
                    self.stop()
                    return
                # unknown kinds are ignored (forward compatibility)
        finally:
            self.auth_rejects += getattr(stream, "rejects", 0)
            stream.close()

    def _handle_vote(self, stream: RecordStream, msg: dict) -> None:
        try:
            granted = self.voter.request_vote(
                msg.get("decision"), msg.get("requester")
            )
        except ConsensusUnavailable:  # pragma: no cover - voter never down
            granted = False
        stream.send({
            "kind": "vote-reply",
            "node": self.node_id,
            "decision": msg.get("decision"),
            "granted": granted,
        })

    # ------------------------------------------------------------------
    # arm execution

    def _handle_ship(self, stream: RecordStream, msg: dict) -> None:
        ship_id = self._next_ship
        self._next_ship += 1
        token = CancellationToken()
        with self._inflight_lock:
            self._inflight[ship_id] = token
        box: dict = {}
        wake = _Wake()

        def arm() -> None:
            try:
                self._run_arm(msg, token, box)
            finally:
                wake.set()

        body = threading.Thread(
            target=arm,
            name=f"daemon-{self.node_id}-arm{msg.get('arm')}",
            daemon=True,
        )
        started = time.monotonic()
        body.start()
        crash_after = msg.get("crash_after")
        crash_at = None if crash_after is None else started + crash_after
        # The home node's warden knows the lease terms; the ship record
        # carries the heartbeat period so both sides agree on the clock.
        hb_iv = float(msg.get("hb_interval") or self.hb_interval)
        orphaned = False
        seq = 0
        next_hb = started + hb_iv
        # poll(), not select(): a busy daemon's fds can pass FD_SETSIZE.
        poller = select.poll()
        poller.register(stream, select.POLLIN)
        poller.register(wake, select.POLLIN)
        # The conversation loop's last recv may have pulled a cancel off
        # the socket already; poll() cannot see those bytes.
        buffered = _buffered(stream)
        try:
            while True:
                if self._stopping.is_set():
                    token.cancel()
                now = time.monotonic()
                if crash_at is not None and now >= crash_at:
                    self._crash(stream, token)
                    return
                if now >= next_hb:
                    next_hb = now + hb_iv
                    if not stream.send({
                        "kind": "hb",
                        "node": self.node_id,
                        "arm": msg.get("arm"),
                        "epoch": msg.get("epoch"),
                        "seq": seq,
                    }):
                        orphaned = True  # half-open: home is gone
                        token.cancel()
                        break
                    seq += 1
                if buffered:
                    try:
                        incoming = stream.recv(timeout=min(hb_iv, 0.05))
                    except StreamClosed:
                        orphaned = True  # the wire died under the race
                        token.cancel()
                        break
                    if incoming is not None and incoming.get("kind") == "cancel":
                        self.arms_cancelled += 1
                        token.cancel()
                    buffered = incoming is not None and _buffered(stream)
                    continue
                # Sleep until the next heartbeat (or injected crash) is
                # due, a frame arrives, or the arm body returns.
                due = next_hb if crash_at is None else min(next_hb, crash_at)
                ready = {
                    fd for fd, _ in poller.poll(max(0.0, due - now) * 1000)
                }
                if wake.fileno() in ready:
                    break  # the arm returned: ship its result now
                # Readable, hung up or in error: recv tells which.
                buffered = bool(ready)
            body.join(timeout=_STOP_GRACE)
            if orphaned:
                # The abnormal-exit path used to skip the shm audit
                # entirely -- only a polite ``shutdown`` checked for
                # leaks, so exactly the deaths most likely to leak went
                # unexamined.  Audit here too, once our own shipment is
                # out of the in-flight set.
                self.arms_orphaned += 1
                with self._inflight_lock:
                    self._inflight.pop(ship_id, None)
                self._abnormal_exit_audit()
                return
            if self._stopping.is_set():
                return
            record = box.get("record")
            if record is None:  # body wedged past the grace: report it
                record = self._failure_record(msg, "arm body did not finish")
            stream.send(record)
        finally:
            wake.close()
            with self._inflight_lock:
                self._inflight.pop(ship_id, None)

    def _abnormal_exit_audit(self) -> None:
        """The shm leak audit, run when an arm is *orphaned* (the home
        vanished mid-race) rather than politely shut down.

        Owned slabs are reclaimed only when this daemon owns its process
        and no other arm is still in flight -- an in-process test daemon
        must never vaporise its host's live slabs.  The leak list is
        recorded either way, so tests and operators can assert on it.
        """
        with self._inflight_lock:
            busy = bool(self._inflight)
        if self.process_owner and not busy:
            cleanup_all_slabs()
        self.shm_leaks_after_orphan = tuple(
            sorted(set(orphaned_segments()) - self._shm_baseline)
        )

    def _crash(self, stream: RecordStream, token: CancellationToken) -> None:
        """An injected mid-arm worker death.

        Hard mode (daemon-per-process) is a genuine SIGKILL: no goodbye,
        no cleanup, the kernel resets the connections.  Soft mode (an
        in-process daemon in a test) emulates the observable effect at
        connection grain: the wire drops dead mid-conversation and the
        arm is abandoned.
        """
        if self.allow_hard_crash:  # pragma: no cover - kills the process
            os.kill(os.getpid(), signal.SIGKILL)
        token.cancel()
        stream.close()

    def _run_arm(self, msg: dict, token: CancellationToken,
                 box: dict) -> None:
        started = time.monotonic()
        parent = child = None
        try:
            alt: Alternative = msg["alt"]
            manager = ProcessManager(PageStore())
            parent = manager.create_initial(
                space_size=msg.get("space_size", 64 * 1024)
            )
            image = msg.get("image")
            if image:
                parent.space.write(0, image)
            (child,) = manager.alt_spawn(parent, 1)
            import random as _random

            index = int(msg.get("arm", 0))
            context = AltContext(
                child.space,
                rng=_random.Random(f"{msg.get('seed', 0)}:ctx:{index}"),
                alt_index=index + 1,
                name=msg.get("name", alt.name),
                process=child,
                token=token,
            )
            succeeded, value, detail = _run_body(alt, context)
            dirty = {
                vpn: child.space.table.read_page(vpn)
                for vpn in sorted(child.space.table.dirty_pages)
            }
            self.arms_run += 1
            box["record"] = {
                "kind": "result",
                "node": self.node_id,
                "arm": index,
                "epoch": msg.get("epoch"),
                "ok": bool(succeeded),
                "value": value,
                "detail": detail,
                "dirty_pages": dirty,
                "pages_written": len(dirty),
                "duration": time.monotonic() - started,
                "cancelled": token.cancelled,
            }
        except Exception as exc:  # noqa: BLE001 - shipped, not swallowed
            box["record"] = self._failure_record(
                msg, f"arm body raised: {exc!r}",
                duration=time.monotonic() - started,
            )
        finally:
            # Worker-side world hygiene: nothing outlives the shipment.
            for process in (child, parent):
                if process is not None:
                    try:
                        process.space.release()
                    except Exception:  # pragma: no cover - best effort
                        pass

    def _failure_record(self, msg: dict, detail: str,
                        duration: float = 0.0) -> dict:
        return {
            "kind": "result",
            "node": self.node_id,
            "arm": msg.get("arm"),
            "epoch": msg.get("epoch"),
            "ok": False,
            "value": None,
            "detail": detail,
            "dirty_pages": {},
            "pages_written": 0,
            "duration": duration,
            "cancelled": False,
        }

    def __repr__(self) -> str:
        state = "stopping" if self.stopping else "serving"
        return (
            f"WorkerDaemon({self.node_id!r}, {self.host}:{self.port}, "
            f"{state}, arms_run={self.arms_run})"
        )
