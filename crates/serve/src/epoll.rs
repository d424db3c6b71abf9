//! The epoll backend: reactor shards multiplexing thousands of keep-alive
//! connections over a small request-executing worker pool.
//!
//! Topology: `shards` reactor threads each own an epoll instance and a
//! clone of the shared listener (registered `EPOLLEXCLUSIVE`, so the
//! kernel wakes one shard per connect). A reactor never executes a
//! request — its [`HttpDriver`] frame-cuts the receive buffer with
//! [`frame_request`](crate::http::frame_request) and pushes the complete
//! frame onto the shared [`JobQueue`]. Each push wakes at most one parked
//! worker. Workers — the same one-[`CoverageScratch`]-per-thread discipline
//! as the pool backend — parse, dispatch through
//! [`route`](crate::server::route) via [`respond`], encode the response,
//! and hand it to the owning shard's [`ReplyQueue`]. When the shard
//! dispatched the frame with nothing else pending on its connection (no
//! pipelined bytes, no unflushed output, no half-close), the worker writes
//! the response to the socket itself and the reactor is not woken: its
//! READ interest stayed armed, so the client's next request is its next
//! event. Otherwise, or when the write comes up short, the response (or
//! its remainder) is queued and the queue's eventfd waker pulls the
//! reactor out of `epoll_wait` to write it, resuming across partial
//! writes.
//!
//! The request pipeline is therefore identical to the pool backend's
//! (`read → parse → respond → write`, one in-flight request per
//! connection, pipelined requests served in order) — only the threading
//! changed, which is why `tests/e2e_equivalence.rs` passes unmodified
//! against either backend. Worker count bounds CPU concurrency; connection
//! count is bounded only by fds; the reactor→worker queue is bounded by
//! overload shedding (a push that would leave more than `max_queue` jobs
//! waiting is refused under the queue's lock, and the reactor thread
//! answers `503 Retry-After` itself, counted in `/healthz`).
//!
//! Shard 0's reactor tick doubles as the session-expiry sweeper when a TTL
//! is configured.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use atpm_net::{ConnId, Driver, Reactor, ReactorConfig, Reply, ReplyQueue, Sliced};
use atpm_ris::CoverageScratch;

use crate::http::{self, FrameStatus};
use crate::json::Json;
use crate::server::{
    encode_reply, error_reply, request_id, respond, valid_request_id, AppState, ServeConfig,
};

/// A complete request frame on its way to a worker, with the return
/// address (shard queue + connection) attached.
struct Job {
    conn: ConnId,
    frame: Vec<u8>,
    replies: Arc<ReplyQueue>,
    /// Dispatch time, for the queue-wait histogram (reactor → worker).
    enqueued: Instant,
}

/// The reactor → worker hand-off: a bounded FIFO under one mutex, with a
/// condvar that idle workers park on.
///
/// A push wakes at most one parked worker, and only when one is parked, so
/// a hand-off costs one wake. [`close`](Self::close) lets workers drain
/// what is already queued; [`pop`](Self::pop) returns `None` only once the
/// queue is both closed and empty.
struct JobQueue<T> {
    inner: Mutex<QueueState<T>>,
    ready: Condvar,
    /// Most jobs allowed to wait; 0 is unbounded.
    bound: usize,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    /// Workers parked in `pop`.
    idle: usize,
    closed: bool,
}

impl<T> JobQueue<T> {
    fn new(bound: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            bound,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues `job`, or hands it back when the queue already holds
    /// `bound` jobs or is closed. The bound check and the enqueue share one
    /// critical section, so concurrent shards cannot overshoot the bound.
    fn push(&self, job: T) -> Result<(), T> {
        let mut q = self.lock();
        if q.closed || (self.bound > 0 && q.jobs.len() >= self.bound) {
            return Err(job);
        }
        q.jobs.push_back(job);
        let wake = q.idle > 0;
        drop(q);
        // Notify after unlocking, so the woken worker does not block on
        // the mutex the pusher still holds.
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks until a job is queued and takes it; `None` once the queue is
    /// closed and drained.
    fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q.idle += 1;
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            q.idle -= 1;
        }
    }

    /// Refuses further pushes and wakes every parked worker, so each
    /// drains the remaining jobs and then sees `None`.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Cheap header scan for a client-supplied `X-Request-Id` in a raw frame.
///
/// The shed path answers 503 from the reactor thread *without* parsing the
/// request, but an overloaded rejection should still echo the caller's id
/// so it can be correlated client-side. Only a valid id (per
/// [`valid_request_id`]) is returned; the generated-id counter is never
/// consumed here, keeping generated sequences identical across backends.
fn shed_request_id(frame: &[u8]) -> Option<&str> {
    let head_end = frame.windows(4).position(|w| w == b"\r\n\r\n")?;
    for line in frame[..head_end].split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue; // request line, or a fragment with no header syntax
        };
        if line[..colon].eq_ignore_ascii_case(b"x-request-id") {
            let value = std::str::from_utf8(&line[colon + 1..]).ok()?.trim();
            return valid_request_id(value).then_some(value);
        }
    }
    None
}

/// The HTTP protocol plugged into a reactor shard.
struct HttpDriver {
    jobs: Arc<JobQueue<Job>>,
    state: Arc<AppState>,
    /// `Some((ttl_ms, period_ms))` on the shard that owns the expiry sweep.
    sweep: Option<(u64, u64)>,
}

impl Driver for HttpDriver {
    fn slice(&mut self, buf: &[u8]) -> Sliced {
        match http::frame_request(buf) {
            FrameStatus::Partial { head_complete } => Sliced::Partial { head_complete },
            FrameStatus::Complete { len } => Sliced::Frame(len),
            FrameStatus::Malformed { status, message } => {
                Sliced::Fatal(error_reply(status, &message))
            }
        }
    }

    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>) {
        // Overload control: the queue between the reactors and the workers
        // is the only unbounded buffer in the pipeline. A push past
        // `max_queue` waiting jobs comes back refused, and the request is
        // shed right here — a cheap 503 with Retry-After now beats an
        // indefinitely queued answer later. The gauge counts the job before
        // the push, so a worker's decrement can never run ahead of it.
        let m = &self.state.metrics;
        m.queue_depth.inc();
        let job = Job {
            conn,
            frame,
            replies: replies.clone(),
            enqueued: Instant::now(),
        };
        let Err(job) = self.jobs.push(job) else {
            return;
        };
        m.queue_depth.dec();
        m.shed_503.inc();
        let body =
            Json::obj([("error", Json::Str("server overloaded; retry later".into()))]).encode();
        let mut extra = vec![("retry-after", "1")];
        if let Some(id) = shed_request_id(&job.frame) {
            extra.push(("x-request-id", id));
        }
        replies.push(Reply {
            conn,
            bytes: http::encode_response_with(503, body.as_bytes(), false, &extra),
            keep_alive: false,
            id: None,
        });
    }

    fn eof_reply(&mut self, head_complete: bool) -> Option<Vec<u8>> {
        // Mid-header EOF answers 400 like the blocking reader; mid-body EOF
        // closes silently (the blocking path's read_exact fails the same
        // way).
        (!head_complete).then(|| error_reply(400, "connection closed mid-header"))
    }

    fn tick_every_ms(&self) -> Option<u64> {
        self.sweep.map(|(_, period)| period)
    }

    fn on_tick(&mut self, _now_ms: u64) {
        if let Some((ttl, _)) = self.sweep {
            self.state.manager.sweep_expired(ttl);
        }
    }
}

fn worker_loop(jobs: &JobQueue<Job>, state: &AppState) {
    // One scratch per worker for its whole life — the same zero-allocation
    // steady state the pool backend keeps.
    let mut scratch = CoverageScratch::new();
    // No stop check here: on shutdown the queue must *drain* (every
    // accepted job gets its reply flushed by the draining reactor), so a
    // worker exits only when `pop` reports the queue closed and empty.
    while let Some(job) = jobs.pop() {
        let m = &state.metrics;
        m.queue_depth.dec();
        let waited = job.enqueued.elapsed();
        let reply = match http::parse_frame(&job.frame) {
            Ok(req) => {
                // Latency (and the queue wait measured above) record
                // strictly after respond — same discipline as the pool
                // backend, so a /metrics scrape never counts itself, a
                // /debug/events tail never lists its own request, and an
                // at-rest exposition is byte-identical across backends.
                let rid = request_id(state, &req);
                let t0 = Instant::now();
                let (status, body) = respond(state, &req, &mut scratch);
                m.queue_wait_seconds.record_duration(waited);
                m.record_request(&req.method, &req.path, t0);
                state.events.record(
                    "http",
                    &rid,
                    &format!("{} {}", req.method, req.path),
                    status,
                    t0.elapsed(),
                );
                let keep = !req.wants_close();
                Reply {
                    conn: job.conn,
                    bytes: encode_reply(status, &body, keep, &rid),
                    keep_alive: keep,
                    // Reply ids feed the reactor's per-request span args;
                    // skip the clone entirely when tracing is off.
                    id: atpm_obs::tracer().enabled().then(|| rid.clone()),
                }
            }
            Err((status, message)) => Reply {
                conn: job.conn,
                bytes: error_reply(status, &message),
                keep_alive: false,
                id: None,
            },
        };
        job.replies.push(reply);
    }
}

/// A running epoll backend: shard reactors + worker pool.
pub(crate) struct EpollBackend {
    shards: Vec<JoinHandle<()>>,
    queues: Vec<Arc<ReplyQueue>>,
    jobs: Arc<JobQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl EpollBackend {
    /// Spawns `cfg.shards` reactors over clones of `listener` and
    /// `cfg.workers` request executors. Fails with `Unsupported` where the
    /// epoll shims don't exist (the caller falls back to the pool backend).
    pub(crate) fn start(
        state: Arc<AppState>,
        cfg: &ServeConfig,
        listener: &TcpListener,
        stop: Arc<AtomicBool>,
    ) -> io::Result<EpollBackend> {
        let jobs = Arc::new(JobQueue::new(cfg.max_queue));
        let sweep = cfg
            .session_ttl_ms
            .map(|ttl| (ttl, cfg.sweep_every_ms.max(1)));

        // Reactors first: if epoll is unsupported, fail before spawning
        // anything.
        let mut reactors = Vec::new();
        for _ in 0..cfg.shards.max(1) {
            let reactor = Reactor::new(
                listener.try_clone()?,
                ReactorConfig {
                    // A frame can never legitimately exceed head + body
                    // caps; beyond that reads pause, not break.
                    read_limit: http::MAX_HEAD + http::MAX_BODY + 1024,
                    write_backpressure: 1 << 20,
                    tick_ms: 50,
                    idle_timeout_ms: cfg.idle_timeout_ms,
                    max_conns: 65_536,
                    drain_ms: cfg.drain_ms,
                },
            )?
            .with_metrics(state.metrics.net.clone());
            reactors.push(reactor);
        }

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let jobs = jobs.clone();
                let state = state.clone();
                std::thread::spawn(move || worker_loop(&jobs, &state))
            })
            .collect();

        let mut queues = Vec::new();
        let mut shards = Vec::new();
        for (i, reactor) in reactors.into_iter().enumerate() {
            queues.push(reactor.replies());
            let driver = HttpDriver {
                jobs: jobs.clone(),
                state: state.clone(),
                // Exactly one shard runs the expiry sweep.
                sweep: if i == 0 { sweep } else { None },
            };
            let stop = stop.clone();
            shards.push(std::thread::spawn(move || {
                reactor.run(driver, &stop);
            }));
        }
        Ok(EpollBackend {
            shards,
            queues,
            jobs,
            workers,
        })
    }

    /// Interrupts the shards (the stop flag is already raised) and joins
    /// everything.
    pub(crate) fn shutdown(&mut self) {
        for queue in &self.queues {
            queue.waker().wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        // Every reactor has drained and returned, so no job can arrive any
        // more: close the queue, and the workers exit once it is empty.
        self.jobs.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::JobQueue;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Polls `cond` for up to five seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn one_push_lets_exactly_one_pop_through() {
        let q = Arc::new(JobQueue::new(0));
        let popped = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (q, popped) = (q.clone(), popped.clone());
                std::thread::spawn(move || {
                    while q.pop().is_some() {
                        popped.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        assert!(eventually(|| q.lock().idle == 3), "workers never parked");

        q.push(7u32).unwrap();
        assert!(eventually(|| popped.load(Ordering::SeqCst) == 1));
        // The woken worker parks again; nobody else got anything.
        assert!(eventually(|| q.lock().idle == 3));
        assert_eq!(popped.load(Ordering::SeqCst), 1);
        assert!(q.lock().jobs.is_empty());

        // Close wakes every parked worker, and each one exits.
        q.close();
        for worker in workers {
            worker.join().unwrap();
        }
        assert_eq!(popped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn close_hands_out_queued_jobs_then_none() {
        let q = JobQueue::new(0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "a closed queue refuses pushes");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_past_the_bound_is_refused() {
        let q = JobQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        // A pop makes room again.
        assert_eq!(q.pop(), Some(1));
        q.push(4).unwrap();
        assert_eq!(q.push(5), Err(5));

        // Bound 0 means unbounded.
        let unbounded = JobQueue::new(0);
        for i in 0..10_000 {
            unbounded.push(i).unwrap();
        }
    }
}
