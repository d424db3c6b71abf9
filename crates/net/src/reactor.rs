//! The readiness reactor: one thread, one epoll instance, thousands of
//! multiplexed connections.
//!
//! The reactor owns a nonblocking `TcpListener` plus every accepted
//! connection, and drives each one through a small state machine:
//!
//! ```text
//!   readable ──> read_buf ──> Driver::slice ──┬── Partial: wait for bytes
//!                                             ├── Frame: Driver::dispatch
//!                                             └── Fatal:  queue reply, close
//!   dispatch ──┬── direct (nothing else pending; reads stay armed)
//!              │     ──> ReplyQueue::push writes the socket on its own
//!              │         thread ──> idle; next readable event reads on
//!              └── queued (pipelined bytes, unflushed output, half-close;
//!                    or the peer sent bytes mid-flight: reads paused)
//!                    ──> ReplyQueue::push ──> waker ──> write_buf ──> flush,
//!                        EPOLLOUT on short write ──> drained ──> parse the
//!                        next pipelined frame or resume reading
//! ```
//!
//! Exactly one frame per connection is in flight at a time: while one is,
//! the reactor neither parses nor reads that connection (natural
//! backpressure, and it keeps pipelined requests sequentially ordered —
//! the same observable behavior as a blocking one-thread-per-connection
//! server). Responses are produced on *other* threads and delivered with
//! [`ReplyQueue::push`]. When the reactor marked the flight *direct*, the
//! replying thread writes the response to the socket itself and the
//! reactor is never woken: level-triggered READ interest stays armed, so
//! the peer's next request is the next event. Anything else — a short
//! write, a closing reply, a write error, or a flight the reactor took
//! back because the peer sent more bytes — lands in the shard's queue, and
//! the queue's [`Waker`] pulls the reactor out of `epoll_wait` to finish
//! it. A hashed [`TimerWheel`] drives periodic driver ticks and optional
//! per-connection idle deadlines.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atpm_obs::trace::tracer;

use crate::buf::{read_nonblocking, ReadStatus, WriteBuf};
use crate::fault::{gate, Site};
use crate::metrics::NetMetrics;
use crate::poll::{Event, Interest, Poller};
use crate::timer::{TimerId, TimerWheel};
use crate::wake::Waker;

/// Opaque connection identity: slot plus generation, so a reply addressed
/// to a connection that died (and whose slot was recycled) is dropped
/// instead of corrupting the successor.
pub type ConnId = u64;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;
/// Timer tag reserved for the driver's periodic tick.
const TAG_TICK: u64 = u64::MAX;

fn conn_token(slot: u32, gen: u32) -> u64 {
    TOKEN_BASE + slot as u64 + ((gen as u64) << 32)
}

fn token_slot(token: u64) -> u32 {
    // Wrapping: an id below `TOKEN_BASE` (never issued) maps to a slot far
    // past any table, so its lookup fails instead of panicking.
    (token & 0xFFFF_FFFF).wrapping_sub(TOKEN_BASE) as u32
}

/// Verdict of [`Driver::slice`] over a connection's read buffer.
pub enum Sliced {
    /// No complete frame yet; `head_complete` reports whether the frame
    /// head (e.g. the HTTP header block) has fully arrived — it decides
    /// what a mid-frame EOF means.
    Partial {
        /// Frame head fully buffered, body still streaming.
        head_complete: bool,
    },
    /// The first `n` bytes of the buffer are one complete frame.
    Frame(usize),
    /// The peer sent something unusable: send these reply bytes and close.
    Fatal(Vec<u8>),
}

/// A finished response traveling back to the reactor, from any thread.
pub struct Reply {
    /// The connection the frame came from.
    pub conn: ConnId,
    /// Wire bytes to send.
    pub bytes: Vec<u8>,
    /// `false` closes the connection once the bytes are flushed.
    pub keep_alive: bool,
    /// Request id for diagnostics: when set, the reactor attaches it to
    /// the `inflight` span so a trace links back to the `X-Request-Id`
    /// the client saw. Workers only populate it while tracing is enabled
    /// (it is an allocation the hot path otherwise skips).
    pub id: Option<String>,
}

// Flight states of a connection, held in its `Shared` record:
// - `IDLE → DIRECT | QUEUED` at dispatch (reactor);
// - `DIRECT → WRITING → IDLE | QUEUED` in `ReplyQueue::push` (replying
//   thread);
// - `DIRECT → QUEUED` when the peer sends bytes mid-flight, and
//   `QUEUED → IDLE` when the reactor delivers a queued reply (reactor);
// - anything `→ CLOSED` when the reactor lets go of the connection.
// Only a replying thread leaves `WRITING`, and only after one nonblocking
// write pass, so the reactor waits it out instead of racing it.

/// No frame in flight.
const IDLE: u8 = 0;
/// In flight; the replying thread may write the reply itself.
const DIRECT: u8 = 1;
/// In flight; a replying thread is writing the reply right now.
const WRITING: u8 = 2;
/// In flight; the reply goes through the queue and the reactor writes it.
const QUEUED: u8 = 3;
/// The reactor closed the connection or exited; nobody writes it again.
const CLOSED: u8 = 4;

/// The part of a connection that replying threads may touch: the stream,
/// the flight state, and the two timestamps a reply updates.
struct Shared {
    /// The connection's token, checked on lookup.
    id: ConnId,
    stream: TcpStream,
    flight: AtomicU8,
    /// Reactor-clock ms of the last read, reply or write.
    last_activity_ms: AtomicU64,
    /// Dispatch time of the in-flight frame as nanoseconds since the
    /// reactor's epoch plus one (0 = none), kept only while tracing is
    /// enabled; whichever thread finishes the write closes the
    /// dispatch→reply span with it.
    dispatched_ns: AtomicU64,
}

impl Shared {
    fn in_flight(&self) -> bool {
        self.flight.load(Ordering::Acquire) != IDLE
    }

    /// Moves the flight state from anything but `WRITING` to `to`, waiting
    /// out a write in progress. Returns the state it replaced.
    fn settle(&self, to: impl Fn(u8) -> u8) -> u8 {
        loop {
            let cur = self.flight.load(Ordering::Acquire);
            if cur == WRITING {
                // A replying thread is inside one nonblocking write pass;
                // give it the CPU rather than spin against it.
                std::thread::yield_now();
                continue;
            }
            let next = to(cur);
            // Only the reactor moves a connection out of `IDLE` or
            // `QUEUED`, and it is the caller here: no race to lose.
            if next == cur
                || self
                    .flight
                    .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return cur;
            }
        }
    }

    fn take_dispatch(&self, t0: Instant) -> Option<Instant> {
        match self.dispatched_ns.swap(0, Ordering::Relaxed) {
            0 => None,
            ns => Some(t0 + Duration::from_nanos(ns - 1)),
        }
    }
}

/// The completion side of a shard: replying threads push, the reactor
/// drains what they could not write themselves. One per reactor.
pub struct ReplyQueue {
    queue: Mutex<Vec<Reply>>,
    waker: Waker,
    /// The shard's live connections by slot, for [`push`](Self::push) to
    /// find the stream of a direct flight.
    conns: Mutex<Vec<Option<Arc<Shared>>>>,
    /// The reactor clock's epoch.
    t0: Instant,
}

impl ReplyQueue {
    /// Delivers a finished response. When the reactor left the write to
    /// the replying thread (see the module docs), the bytes go straight to
    /// the socket and the reactor is not woken. Otherwise — or when the
    /// write comes up short or fails — the reply (or its unwritten
    /// remainder) is queued and the reactor woken to finish it.
    pub fn push(&self, reply: Reply) {
        if let Some(rest) = self.write_direct(reply) {
            self.queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(rest);
            self.waker.wake();
        }
    }

    /// The shard's waker (also usable to interrupt the reactor for
    /// shutdown).
    pub fn waker(&self) -> &Waker {
        &self.waker
    }

    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    fn drain_into(&self, out: &mut Vec<Reply>) {
        out.append(&mut self.queue.lock().unwrap_or_else(|p| p.into_inner()));
    }

    fn table(&self) -> std::sync::MutexGuard<'_, Vec<Option<Arc<Shared>>>> {
        self.conns.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lookup(&self, id: ConnId) -> Option<Arc<Shared>> {
        let slot = token_slot(id);
        let table = self.table();
        let conn = table.get(slot as usize)?.as_ref()?;
        (conn.id == id).then(|| conn.clone())
    }

    /// Writes `reply` on the calling thread if its connection's flight is
    /// direct. Returns what the reactor still has to deliver: the whole
    /// reply, the unwritten remainder of a short write, an empty closing
    /// reply after a write error, or nothing.
    fn write_direct(&self, reply: Reply) -> Option<Reply> {
        if !reply.keep_alive {
            return Some(reply);
        }
        let Some(shared) = self.lookup(reply.conn) else {
            return Some(reply);
        };
        if shared
            .flight
            .compare_exchange(DIRECT, WRITING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // The reactor took the reply back, or let the connection go.
            return Some(reply);
        }
        let Reply {
            conn, bytes, id, ..
        } = reply;
        let mut out = WriteBuf::from(bytes);
        let written = out.flush_to(&mut &shared.stream);
        shared
            .last_activity_ms
            .store(self.now_ms(), Ordering::Relaxed);
        let (rest, keep_alive) = match written {
            Ok(true) => {
                // Take the span start before the flight ends: right after,
                // the reactor may dispatch the connection's next frame.
                let start = shared.take_dispatch(self.t0);
                shared.flight.store(IDLE, Ordering::Release);
                if let Some(start) = start {
                    tracer().record_with_id(
                        "net",
                        "inflight",
                        start,
                        start.elapsed(),
                        id.as_deref(),
                    );
                }
                return None;
            }
            Ok(false) => (out.into_pending(), true),
            // The reactor closes the connection, as after its own failed
            // write.
            Err(_) => (Vec::new(), false),
        };
        shared.flight.store(QUEUED, Ordering::Release);
        Some(Reply {
            conn,
            bytes: rest,
            keep_alive,
            id,
        })
    }
}

/// The protocol plugged into a reactor. `slice` runs on the reactor thread
/// and must be cheap (a scan, not a parse); `dispatch` hands the frame off
/// — to a worker pool, or inline for trivial protocols — and the response
/// comes back through the [`ReplyQueue`].
pub trait Driver: Send {
    /// Frame-cut the front of the read buffer.
    fn slice(&mut self, buf: &[u8]) -> Sliced;

    /// Process one complete frame; the reply lands in `replies` whenever
    /// it is ready.
    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>);

    /// Parting reply for a peer that closed mid-frame (`None` = just
    /// close). An HTTP driver answers 400 for a half-sent head but stays
    /// silent for a half-sent body, matching blocking-server behavior.
    fn eof_reply(&mut self, head_complete: bool) -> Option<Vec<u8>> {
        let _ = head_complete;
        None
    }

    /// Period of the maintenance tick, if the driver wants one.
    fn tick_every_ms(&self) -> Option<u64> {
        None
    }

    /// Maintenance tick (session sweeps, stat flushes, ...).
    fn on_tick(&mut self, now_ms: u64) {
        let _ = now_ms;
    }
}

/// Reactor knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Per-connection read-buffer cap; reads pause (backpressure) once
    /// buffered bytes reach it. Must exceed the protocol's largest frame or
    /// oversized frames can never complete.
    pub read_limit: usize,
    /// Pause reading while more than this many response bytes are queued.
    pub write_backpressure: usize,
    /// Timer wheel granularity, milliseconds.
    pub tick_ms: u64,
    /// Close connections idle longer than this (no reads, no writes).
    /// `None` keeps them forever, like a blocking server would.
    pub idle_timeout_ms: Option<u64>,
    /// Accept cap: connections beyond this are accepted and immediately
    /// dropped, shedding load instead of ballooning.
    pub max_conns: usize,
    /// Graceful-drain budget on stop: keep the loop alive (listener
    /// deregistered, no new accepts) up to this long while in-flight
    /// frames finish and queued reply bytes flush. `0` preserves the old
    /// semantics — exit immediately, dropping unflushed responses.
    pub drain_ms: u64,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            read_limit: 1 << 20,
            write_backpressure: 1 << 20,
            tick_ms: 50,
            idle_timeout_ms: None,
            max_conns: 65_536,
            drain_ms: 0,
        }
    }
}

/// End-of-run accounting, returned by [`Reactor::run`]. In a leak-free
/// shutdown every slot that ever existed is back on the free list and the
/// timer wheel holds nothing — the chaos suite asserts exactly that after
/// every fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections still open when the loop exited (their streams close
    /// with the reactor; nonzero is normal when clients are still
    /// connected at stop, but must be zero once all peers have hung up).
    pub live_conns: usize,
    /// Total connection slots ever allocated.
    pub slots: usize,
    /// Slots on the free list at exit.
    pub free_slots: usize,
    /// Timers still scheduled (and not cancelled) at exit.
    pub pending_timers: usize,
}

/// The reactor's side of a connection. Dropping it (close, or reactor
/// exit) marks the shared record closed, so no replying thread writes the
/// stream afterwards.
struct Conn {
    shared: Arc<Shared>,
    read_buf: Vec<u8>,
    write: WriteBuf,
    /// Peer closed its write side; `read_buf` holds the final bytes.
    eof: bool,
    /// Close as soon as the write buffer drains.
    close_after_flush: bool,
    interest: Interest,
    idle_timer: Option<TimerId>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.shared.settle(|_| CLOSED);
    }
}

/// One event loop. Construct with a bound listener, then [`run`](Self::run)
/// it on a dedicated thread.
pub struct Reactor {
    listener: TcpListener,
    poller: Poller,
    replies: Arc<ReplyQueue>,
    cfg: ReactorConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    gens: Vec<u32>,
    wheel: TimerWheel,
    live: usize,
    metrics: Option<Arc<NetMetrics>>,
}

impl Reactor {
    /// Wraps `listener` (switched to nonblocking; clones of one listener
    /// may back several reactors — registration is `EPOLLEXCLUSIVE`, so
    /// shards don't stampede on every connect).
    pub fn new(listener: TcpListener, cfg: ReactorConfig) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(&listener, TOKEN_LISTENER, Interest::READ, true)?;
        poller.add(&waker, TOKEN_WAKER, Interest::READ, false)?;
        let wheel = TimerWheel::new(cfg.tick_ms, 256, 0);
        Ok(Reactor {
            listener,
            poller,
            replies: Arc::new(ReplyQueue {
                queue: Mutex::new(Vec::new()),
                waker,
                conns: Mutex::new(Vec::new()),
                t0: Instant::now(),
            }),
            cfg,
            conns: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            wheel,
            live: 0,
            metrics: None,
        })
    }

    /// Attaches connection-plane counters (typically registered in the
    /// owning server's metrics registry). Without this the reactor runs
    /// uncounted — the chaos and unit harnesses don't care.
    pub fn with_metrics(mut self, metrics: Arc<NetMetrics>) -> Reactor {
        self.metrics = Some(metrics);
        self
    }

    /// The shard's completion queue — hand it to whoever produces replies.
    /// Its waker also interrupts [`run`](Self::run) so a raised stop flag
    /// is observed immediately.
    pub fn replies(&self) -> Arc<ReplyQueue> {
        self.replies.clone()
    }

    fn now_ms(&self) -> u64 {
        self.replies.now_ms()
    }

    /// Runs the event loop until `stop` is raised. Consumes the reactor;
    /// every owned connection closes on exit. Returns slot/timer
    /// accounting so harnesses can assert the shard leaked nothing.
    ///
    /// With no pending timer the reactor parks *indefinitely* — there is no
    /// polling heartbeat. Shutdown is therefore a two-step contract: raise
    /// `stop`, then fire the shard's waker
    /// ([`ReplyQueue::waker`](ReplyQueue::waker)) to pull the loop out of
    /// `epoll_wait`. [`ReplyQueue::push`] wakes whenever it leaves work for
    /// the reactor, so a queued reply never stalls; a reply written
    /// directly needs no wake, because its connection's READ interest
    /// stayed armed and the peer's next bytes are the next event.
    ///
    /// With a nonzero [`ReactorConfig::drain_ms`], a raised stop flag first
    /// deregisters the listener and keeps the loop running — up to the
    /// budget — until no connection has a dispatched frame awaiting its
    /// reply or unflushed response bytes, so accepted work is answered
    /// instead of dropped on the floor.
    pub fn run(mut self, mut driver: impl Driver, stop: &AtomicBool) -> ReactorStats {
        let mut events: Vec<Event> = Vec::new();
        let mut finished: Vec<Reply> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        // Drain deadline (reactor-clock ms), set when stop is first seen.
        let mut drain_until: Option<u64> = None;
        if let Some(period) = driver.tick_every_ms() {
            self.wheel.schedule(self.now_ms() + period, TAG_TICK);
        }
        loop {
            if stop.load(Ordering::SeqCst) {
                if self.cfg.drain_ms == 0 {
                    break;
                }
                let deadline = *drain_until.get_or_insert_with(|| {
                    // Entering drain: no new connections, finish the rest.
                    let _ = self.poller.remove(&self.listener);
                    self.now_ms() + self.cfg.drain_ms
                });
                // Direct replies end their flights without a wake; the
                // bounded naps below notice.
                let in_flight = self
                    .conns
                    .iter()
                    .flatten()
                    .any(|c| c.shared.in_flight() || !c.write.is_empty());
                if !in_flight || self.now_ms() >= deadline {
                    break;
                }
            }
            let now = self.now_ms();
            let mut timeout = self
                .wheel
                .next_deadline()
                .map(|d| Duration::from_millis(d.saturating_sub(now)));
            if drain_until.is_some() {
                // Bounded naps while draining, so the deadline is honored
                // even if no event ever arrives.
                let cap = Duration::from_millis(25);
                timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
            }
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing epoll instance is unrecoverable for this shard;
                // bail rather than spin.
                break;
            }
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    // A listener event already in flight when drain began
                    // must not admit new work.
                    TOKEN_LISTENER if drain_until.is_none() => self.accept_ready(),
                    TOKEN_LISTENER => {}
                    TOKEN_WAKER => self.replies.waker().drain(),
                    token => self.conn_ready(token, ev, &mut driver),
                }
            }
            events = batch;

            // Completions may have landed whether or not the waker event
            // made this batch; always drain.
            self.replies.drain_into(&mut finished);
            for reply in finished.drain(..) {
                self.reply_ready(reply, &mut driver);
            }

            let now = self.now_ms();
            fired.clear();
            self.wheel.advance(now, &mut fired);
            for tag in fired.drain(..) {
                if tag == TAG_TICK {
                    driver.on_tick(now);
                    if let Some(period) = driver.tick_every_ms() {
                        self.wheel.schedule(now + period, TAG_TICK);
                    }
                } else {
                    self.idle_deadline(tag, now);
                }
            }
        }
        let stats = ReactorStats {
            live_conns: self.live,
            slots: self.conns.len(),
            free_slots: self.free.len(),
            pending_timers: self.wheel.pending(),
        };
        // Let go of every connection: each is marked closed (no replying
        // thread writes it again), and its stream closes once the last
        // in-progress reply drops its handle.
        self.conns.clear();
        self.replies.table().clear();
        stats
    }

    fn accept_ready(&mut self) {
        loop {
            // Fault gate first: an injected EMFILE/EINTR exercises the same
            // arms a real kernel error would.
            let accepted = match gate(Site::Accept) {
                Ok(_) => self.listener.accept().map(|(stream, _)| stream),
                Err(e) => Err(e),
            };
            match accepted {
                Ok(stream) => {
                    if self.live >= self.cfg.max_conns {
                        drop(stream); // shed
                        continue;
                    }
                    let _ = self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Fd exhaustion (EMFILE=24 / ENFILE=23): the pending
                // connection keeps the level-triggered listener readable,
                // so returning immediately would spin this shard at 100%
                // CPU against the very workers that could free fds. Back
                // off briefly; the connection either gets accepted on a
                // later pass or times out client-side.
                Err(e) if e.raw_os_error() == Some(24) || e.raw_os_error() == Some(23) => {
                    std::thread::sleep(Duration::from_millis(25));
                    return;
                }
                // Other transient accept errors (ECONNABORTED, ...):
                // yield; level-triggered epoll re-arms us.
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                (self.conns.len() - 1) as u32
            }
        };
        let gen = self.gens[slot as usize];
        let token = conn_token(slot, gen);
        if let Err(e) = self.poller.add(&stream, token, Interest::READ, false) {
            // The slot was claimed above but no Conn was installed; without
            // this push it would leak from both lists forever.
            self.free.push(slot);
            return Err(e);
        }
        let now = self.now_ms();
        let idle_timer = self
            .cfg
            .idle_timeout_ms
            .map(|t| self.wheel.schedule(now + t, token));
        let shared = Arc::new(Shared {
            id: token,
            stream,
            flight: AtomicU8::new(IDLE),
            last_activity_ms: AtomicU64::new(now),
            dispatched_ns: AtomicU64::new(0),
        });
        {
            let mut table = self.replies.table();
            if table.len() <= slot as usize {
                table.resize(slot as usize + 1, None);
            }
            table[slot as usize] = Some(shared.clone());
        }
        self.conns[slot as usize] = Some(Conn {
            shared,
            read_buf: Vec::new(),
            write: WriteBuf::new(),
            eof: false,
            close_after_flush: false,
            interest: Interest::READ,
            idle_timer,
        });
        self.live += 1;
        if let Some(m) = &self.metrics {
            m.accepts.inc();
        }
        Ok(())
    }

    fn lookup(&self, token: u64) -> Option<u32> {
        let slot = token_slot(token);
        match self.conns.get(slot as usize)? {
            Some(conn) if conn.shared.id == token => Some(slot),
            _ => None,
        }
    }

    fn close(&mut self, slot: u32) {
        if let Some(conn) = self.conns[slot as usize].take() {
            let _ = self.poller.remove(&conn.shared.stream);
            self.replies.table()[slot as usize] = None;
            if let Some(id) = conn.idle_timer {
                self.wheel.cancel(id);
            }
            self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
            self.free.push(slot);
            self.live -= 1;
            if let Some(m) = &self.metrics {
                m.conns_closed.inc();
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &Event, driver: &mut impl Driver) {
        let Some(slot) = self.lookup(token) else {
            return;
        };
        if ev.readable {
            self.read_ready(slot, driver);
        }
        // The read path may have closed the slot.
        if self.conns[slot as usize].is_some() && ev.writable {
            self.flush_and_rearm(slot, driver);
        }
    }

    fn read_ready(&mut self, slot: u32, driver: &mut impl Driver) {
        {
            let cfg_read_limit = self.cfg.read_limit;
            let now = self.now_ms();
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.shared.last_activity_ms.store(now, Ordering::Relaxed);
            // Bytes (or a hangup) while a frame is in flight: a direct
            // flight becomes queued — the reply is left to this thread —
            // and reads pause. A flight whose reply was just written is
            // over, and the bytes are the next request.
            let was = conn
                .shared
                .settle(|cur| if cur == DIRECT { QUEUED } else { cur });
            if was != IDLE {
                self.flush_and_rearm(slot, driver);
                return;
            }
            if conn.close_after_flush || conn.eof {
                // Not interested in bytes right now (level-triggered events
                // for a paused conn are possible until interest updates).
                return;
            }
            match read_nonblocking(&mut &conn.shared.stream, &mut conn.read_buf, cfg_read_limit) {
                Ok(ReadStatus::Eof) => conn.eof = true,
                Ok(ReadStatus::WouldBlock) | Ok(ReadStatus::LimitReached) => {}
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.advance_conn(slot, driver);
    }

    /// Parses and dispatches as much as the connection's state allows, then
    /// flushes and recomputes interest.
    fn advance_conn(&mut self, slot: u32, driver: &mut impl Driver) {
        let replies = self.replies.clone();
        loop {
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            // An inline driver may have answered (directly) inside the
            // previous dispatch; then the loop parses on.
            if conn.shared.in_flight() || conn.close_after_flush {
                break;
            }
            match driver.slice(&conn.read_buf) {
                Sliced::Frame(n) => {
                    let frame: Vec<u8> = conn.read_buf.drain(..n).collect();
                    if tracer().enabled() {
                        let ns = replies.t0.elapsed().as_nanos() as u64 + 1;
                        conn.shared.dispatched_ns.store(ns, Ordering::Relaxed);
                    }
                    // The replying thread may write the reply itself only
                    // when nothing else is owed or pending on the
                    // connection; READ interest then stays armed.
                    let direct = conn.read_buf.is_empty() && conn.write.is_empty() && !conn.eof;
                    let flight = if direct { DIRECT } else { QUEUED };
                    conn.shared.flight.store(flight, Ordering::Release);
                    if let Some(m) = &self.metrics {
                        m.dispatches.inc();
                    }
                    driver.dispatch(conn.shared.id, frame, &replies);
                }
                Sliced::Partial { head_complete } => {
                    if conn.eof {
                        if !conn.read_buf.is_empty() {
                            if let Some(reply) = driver.eof_reply(head_complete) {
                                conn.write.push(&reply);
                            }
                            conn.read_buf.clear();
                        }
                        conn.close_after_flush = true;
                    }
                    break;
                }
                Sliced::Fatal(reply) => {
                    conn.write.push(&reply);
                    conn.read_buf.clear();
                    conn.close_after_flush = true;
                }
            }
        }
        self.flush_and_rearm(slot, driver);
    }

    /// A reply came through the queue: buffer it for writing and keep the
    /// connection's pipeline moving.
    fn reply_ready(&mut self, reply: Reply, driver: &mut impl Driver) {
        let Some(slot) = self.lookup(reply.conn) else {
            return; // connection died while the worker was busy
        };
        {
            let now = self.now_ms();
            let t0 = self.replies.t0;
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.shared.flight.store(IDLE, Ordering::Release);
            conn.shared.last_activity_ms.store(now, Ordering::Relaxed);
            if let Some(start) = conn.shared.take_dispatch(t0) {
                tracer().record_with_id(
                    "net",
                    "inflight",
                    start,
                    start.elapsed(),
                    reply.id.as_deref(),
                );
            }
            conn.write.push(&reply.bytes);
            if !reply.keep_alive {
                conn.close_after_flush = true;
                conn.read_buf.clear();
            }
        }
        self.advance_conn(slot, driver);
    }

    /// Flushes the write buffer and recomputes epoll interest; closes the
    /// connection when its story is over.
    fn flush_and_rearm(&mut self, slot: u32, _driver: &mut impl Driver) {
        let conn = self.conns[slot as usize].as_mut().expect("live slot");
        let drained = match conn.write.flush_to(&mut &conn.shared.stream) {
            Ok(d) => d,
            Err(_) => {
                self.close(slot);
                return;
            }
        };
        if drained && conn.close_after_flush {
            self.close(slot);
            return;
        }
        if drained && conn.eof && !conn.shared.in_flight() && conn.read_buf.is_empty() {
            // Peer is gone and nothing is owed: done.
            self.close(slot);
            return;
        }
        // Reads pause while the reactor owes a queued reply. A direct
        // flight keeps them armed: the replying thread ends it without
        // telling this one, and the peer's next bytes find it over.
        let desired = Interest {
            readable: conn.shared.flight.load(Ordering::Acquire) != QUEUED
                && !conn.close_after_flush
                && !conn.eof
                && conn.write.pending() < self.cfg.write_backpressure
                && conn.read_buf.len() < self.cfg.read_limit,
            writable: !drained,
        };
        if desired != conn.interest {
            if self
                .poller
                .modify(&conn.shared.stream, conn.shared.id, desired)
                .is_err()
            {
                self.close(slot);
                return;
            }
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.interest = desired;
        }
    }

    /// An idle deadline fired for `tag` (= connection token). Closes truly
    /// idle connections; re-arms for ones that were active since.
    fn idle_deadline(&mut self, tag: u64, now: u64) {
        let Some(slot) = self.lookup(tag) else {
            return;
        };
        let timeout = match self.cfg.idle_timeout_ms {
            Some(t) => t,
            None => return,
        };
        let (idle_since, busy) = {
            let shared = &self.conns[slot as usize]
                .as_ref()
                .expect("live slot")
                .shared;
            (
                shared.last_activity_ms.load(Ordering::Relaxed),
                shared.in_flight(),
            )
        };
        if !busy && now.saturating_sub(idle_since) >= timeout {
            self.close(slot);
        } else {
            let id = self.wheel.schedule(idle_since + timeout, tag);
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.idle_timer = Some(id);
        }
    }
}
