//! Replies written by the replying thread itself.
//!
//! When a frame is dispatched with nothing else pending on its connection,
//! [`ReplyQueue::push`] on the worker writes the response straight to the
//! socket and the reactor is never woken. These tests pin the mechanism
//! (no eventfd write and no `epoll_ctl` per closed-loop round trip), its
//! fallbacks (short writes, `EAGAIN`, write errors, bytes arriving
//! mid-flight), ordering of pipelined requests, and slot accounting when a
//! peer hangs up mid-flight. Fault policies are thread-local: each test
//! installs its policy on the thread whose syscalls it means to perturb.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atpm_net::fault::{self, site_index, FaultPlan, Site, SysPolicy, Verdict, SITE_COUNT};
use atpm_net::{ConnId, Driver, Reactor, ReactorConfig, ReactorStats, Reply, ReplyQueue, Sliced};

type Job = (ConnId, Vec<u8>, Arc<ReplyQueue>);

/// Newline-framed echo-uppercase whose replies are computed on a worker
/// thread, the way the serve layer hands frames to its pool.
struct ToWorker(mpsc::Sender<Job>);

impl Driver for ToWorker {
    fn slice(&mut self, buf: &[u8]) -> Sliced {
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => Sliced::Frame(nl + 1),
            None => Sliced::Partial {
                head_complete: false,
            },
        }
    }

    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>) {
        self.0.send((conn, frame, replies.clone())).unwrap();
    }
}

/// Per-site gate-call counts, shared with the test thread.
#[derive(Default)]
struct Counts([AtomicU64; SITE_COUNT]);

impl Counts {
    fn at(&self, site: Site) -> u64 {
        self.0[site_index(site)].load(Ordering::SeqCst)
    }
}

/// A pass-through policy that counts every gate call.
struct Counting(Arc<Counts>);

impl SysPolicy for Counting {
    fn intercept(&mut self, site: Site) -> Verdict {
        self.0 .0[site_index(site)].fetch_add(1, Ordering::SeqCst);
        Verdict::Pass
    }
}

/// Wraps a policy and logs every verdict it gives.
struct Recording<P> {
    inner: P,
    log: Arc<Mutex<Vec<(Site, Verdict)>>>,
}

impl<P: SysPolicy> SysPolicy for Recording<P> {
    fn intercept(&mut self, site: Site) -> Verdict {
        let verdict = self.inner.intercept(site);
        self.log.lock().unwrap().push((site, verdict));
        verdict
    }
}

/// One reactor shard plus one replying thread, each with an optional
/// fault policy installed on itself.
struct Shard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ReplyQueue>,
    reactor: JoinHandle<ReactorStats>,
    worker: JoinHandle<()>,
    /// Replies the worker has pushed.
    pushed: Arc<AtomicU64>,
}

type PolicyFn = Box<dyn FnOnce() -> Box<dyn SysPolicy> + Send>;

impl Shard {
    fn start(
        cfg: ReactorConfig,
        reactor_policy: Option<PolicyFn>,
        worker_policy: Option<PolicyFn>,
        work: Duration,
    ) -> Shard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new(listener, cfg).unwrap();
        let queue = reactor.replies();
        let stop = Arc::new(AtomicBool::new(false));
        let pushed = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel::<Job>();
        let worker = {
            let pushed = pushed.clone();
            std::thread::spawn(move || {
                if let Some(policy) = worker_policy {
                    fault::install(policy());
                }
                while let Ok((conn, frame, replies)) = rx.recv() {
                    std::thread::sleep(work);
                    replies.push(Reply {
                        conn,
                        bytes: frame.to_ascii_uppercase(),
                        keep_alive: true,
                        id: None,
                    });
                    pushed.fetch_add(1, Ordering::SeqCst);
                }
                fault::clear();
            })
        };
        let reactor = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                if let Some(policy) = reactor_policy {
                    fault::install(policy());
                }
                let stats = reactor.run(ToWorker(tx), &stop);
                fault::clear();
                stats
            })
        };
        Shard {
            addr,
            stop,
            queue,
            reactor,
            worker,
            pushed,
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    }

    /// Stops the reactor (its driver, and with it the worker's channel,
    /// drops on exit) and returns its leak accounting.
    fn finish(self) -> ReactorStats {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.waker().wake();
        let stats = self.reactor.join().unwrap();
        self.worker.join().unwrap();
        stats
    }
}

fn read_exactly(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf).unwrap();
    buf
}

fn assert_leak_free(stats: &ReactorStats, context: &str) {
    assert_eq!(stats.live_conns, 0, "{context}: connections still live");
    assert_eq!(stats.free_slots, stats.slots, "{context}: leaked slots");
    assert_eq!(stats.pending_timers, 0, "{context}: stranded timers");
}

/// Polls `cond` for up to five seconds.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

fn line(client: usize, i: usize) -> Vec<u8> {
    format!("client{client} request{i} the quick brown fox jumps\n").into_bytes()
}

#[test]
fn closed_loop_round_trips_make_no_wake_and_no_epoll_ctl() {
    if !atpm_net::supported() {
        return;
    }
    const N: u64 = 200;
    let on_reactor = Arc::new(Counts::default());
    let on_worker = Arc::new(Counts::default());
    let (r, w) = (on_reactor.clone(), on_worker.clone());
    let shard = Shard::start(
        ReactorConfig::default(),
        Some(Box::new(move || Box::new(Counting(r)))),
        Some(Box::new(move || Box::new(Counting(w)))),
        Duration::ZERO,
    );
    let mut c = shard.connect();
    // One round trip registers the connection.
    c.write_all(b"hello\n").unwrap();
    assert_eq!(read_exactly(&mut c, 6), b"HELLO\n");
    let count = |site| on_reactor.at(site) + on_worker.at(site);
    let (wakes, ctls, writes) = (
        count(Site::EventfdWrite),
        count(Site::EpollCtl),
        on_worker.at(Site::StreamWrite),
    );
    for i in 0..N {
        let req = format!("ping {i}\n");
        c.write_all(req.as_bytes()).unwrap();
        assert_eq!(
            read_exactly(&mut c, req.len()),
            req.to_ascii_uppercase().as_bytes()
        );
    }
    assert_eq!(count(Site::EventfdWrite) - wakes, 0, "eventfd writes");
    assert_eq!(count(Site::EpollCtl) - ctls, 0, "epoll_ctl calls");
    // Every reply went out from the worker, one write each.
    assert_eq!(on_worker.at(Site::StreamWrite) - writes, N);
    drop(c);
    assert!(eventually(|| on_reactor.at(Site::EpollCtl) > ctls));
    assert_leak_free(&shard.finish(), "counting");
}

/// Closed-loop conversations from `CLIENTS` connections, then a half-close;
/// returns what each client received.
fn conversations(shard: &Shard, clients: usize, lines: usize) -> Vec<Vec<u8>> {
    let addr = shard.addr;
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut got = Vec::new();
                for i in 0..lines {
                    let req = line(id, i);
                    s.write_all(&req).unwrap();
                    got.extend(read_exactly(&mut s, req.len()));
                }
                s.shutdown(Shutdown::Write).unwrap();
                let mut rest = Vec::new();
                s.read_to_end(&mut rest).unwrap();
                got.extend(rest);
                got
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn recoverable_faults_on_the_replying_thread_are_invisible() {
    if !atpm_net::supported() {
        return;
    }
    const CLIENTS: usize = 3;
    const LINES: usize = 40;
    let expected: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|id| {
            (0..LINES)
                .flat_map(|i| line(id, i).to_ascii_uppercase())
                .collect()
        })
        .collect();
    let clean = Shard::start(ReactorConfig::default(), None, None, Duration::ZERO);
    let clean_out = conversations(&clean, CLIENTS, LINES);
    assert_leak_free(&clean.finish(), "clean");
    assert_eq!(clean_out, expected);

    let mut eagain_seen = false;
    for seed in 0..6u64 {
        let plan = FaultPlan::recoverable(seed);
        let tally = plan.tally();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let shard = Shard::start(
            ReactorConfig {
                idle_timeout_ms: Some(10_000),
                tick_ms: 10,
                ..ReactorConfig::default()
            },
            None,
            Some(Box::new(move || {
                Box::new(Recording {
                    inner: plan,
                    log: log2,
                })
            })),
            Duration::ZERO,
        );
        let out = conversations(&shard, CLIENTS, LINES);
        assert_leak_free(&shard.finish(), &format!("seed {seed}"));
        assert_eq!(out, clean_out, "seed {seed}: wire output diverged");

        // The tally is exactly the injections in the verdict script the
        // plan produced, site by site.
        let log = log.lock().unwrap();
        for (site, _) in fault::SITES {
            let injected = log
                .iter()
                .filter(|(s, v)| *s == site && *v != Verdict::Pass);
            assert_eq!(
                tally.at(site),
                injected.count() as u64,
                "seed {seed} {site:?}"
            );
        }
        // The worker's own writes took the faults.
        let at_write = |want: fn(&Verdict) -> bool| {
            log.iter()
                .filter(|(s, v)| *s == Site::StreamWrite && want(v))
                .count()
        };
        assert!(
            at_write(|v| matches!(v, Verdict::Short(_))) > 0,
            "seed {seed}"
        );
        assert!(
            at_write(|v| *v == Verdict::Fail(fault::EINTR)) > 0,
            "seed {seed}"
        );
        eagain_seen |= at_write(|v| *v == Verdict::Fail(fault::EAGAIN)) > 0;
    }
    assert!(
        eagain_seen,
        "no seed drove a short-write remainder through the queue"
    );
}

#[test]
fn pipelined_requests_keep_their_order() {
    if !atpm_net::supported() {
        return;
    }
    // Bursts of 1–4 requests per write, plus a second burst sent while the
    // first is still being answered: flights switch between worker-written
    // and reactor-written replies, and the order must hold throughout.
    let shard = Shard::start(
        ReactorConfig::default(),
        None,
        None,
        Duration::from_micros(200),
    );
    let mut c = shard.connect();
    let mut next = 0;
    for round in 0..60 {
        let mut expected = Vec::new();
        for _ in 0..2 {
            let mut burst = Vec::new();
            for _ in 0..=(round % 4) {
                burst.extend(line(0, next));
                next += 1;
            }
            c.write_all(&burst).unwrap();
            expected.extend(burst.to_ascii_uppercase());
            if round % 3 == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        assert_eq!(
            read_exactly(&mut c, expected.len()),
            expected,
            "round {round}"
        );
    }
    drop(c);
    std::thread::sleep(Duration::from_millis(50));
    assert_leak_free(&shard.finish(), "pipelined");
}

#[test]
fn peer_hanging_up_mid_flight_leaks_no_slot() {
    if !atpm_net::supported() {
        return;
    }
    let shard = Shard::start(
        ReactorConfig {
            idle_timeout_ms: Some(10_000),
            tick_ms: 10,
            ..ReactorConfig::default()
        },
        None,
        None,
        Duration::from_millis(20),
    );
    // Half-close and full close, each while its request is with the worker.
    for (i, half) in [(0u64, true), (1, false), (2, true), (3, false)] {
        let mut c = shard.connect();
        c.write_all(b"never mind\n").unwrap();
        if half {
            c.shutdown(Shutdown::Write).unwrap();
            // A half-closed peer still gets its answer, then EOF.
            let mut got = Vec::new();
            c.read_to_end(&mut got).unwrap();
            assert_eq!(got, b"NEVER MIND\n");
        } else {
            drop(c);
        }
        assert!(eventually(|| shard.pushed.load(Ordering::SeqCst) > i));
    }
    // The last reply is pushed; give the reactor a moment to reap.
    std::thread::sleep(Duration::from_millis(100));
    assert_leak_free(&shard.finish(), "hang-up");
}

#[test]
fn a_failed_direct_write_closes_the_connection() {
    if !atpm_net::supported() {
        return;
    }
    // The worker's first socket write fails with a reset: the reply goes
    // back to the reactor as a close, and the slot is released.
    let shard = Shard::start(
        ReactorConfig::default(),
        None,
        Some(Box::new(|| {
            Box::new(FaultPlan::recoverable(0).script(Site::StreamWrite, 0, fault::ECONNRESET))
        })),
        Duration::ZERO,
    );
    let mut c = shard.connect();
    c.write_all(b"doomed\n").unwrap();
    let mut got = Vec::new();
    let _ = c.read_to_end(&mut got);
    assert!(
        got.is_empty(),
        "no reply bytes after a failed write: {got:?}"
    );
    // The shard keeps serving.
    let mut c2 = shard.connect();
    c2.write_all(b"fine\n").unwrap();
    let mut got = Vec::new();
    while got.len() < 5 {
        let mut buf = [0u8; 64];
        let n = c2.read(&mut buf).unwrap();
        assert!(n > 0, "closed early");
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, b"FINE\n");
    drop(c2);
    std::thread::sleep(Duration::from_millis(50));
    assert_leak_free(&shard.finish(), "failed write");
}
