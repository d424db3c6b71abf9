//! Deterministic syscall fault injection.
//!
//! Every IO edge the reactor touches — the raw shims in [`crate::sys`]
//! (epoll, eventfd) and the `std` TCP edges in [`crate::buf`] and the
//! accept loop — consults a per-thread [`SysPolicy`] before doing real
//! work. The default is passthrough: one thread-local `Option` check, no
//! allocation, no syscall; production never installs a policy. The chaos
//! suite installs a seeded [`FaultPlan`] on the reactor thread and replays
//! the exact failure modes the kernel can produce — `EINTR`, `EAGAIN`,
//! short reads/writes, `ECONNRESET` mid-frame, `EMFILE` storms, failing
//! `epoll_ctl` — without needing a misbehaving kernel on cue.
//!
//! The policy is *thread-local* by design: the chaos harness spawns the
//! reactor thread itself, installs the plan there, and drives traffic from
//! ordinary client threads whose sockets stay honest. Injection is
//! therefore exactly scoped to the code under test. A reply that a worker
//! writes to its socket directly passes the `StreamWrite` gate on that
//! worker's thread, so faults for it are installed there.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `EINTR`: interrupted by a signal before any data transferred.
pub const EINTR: i32 = 4;
/// `EAGAIN`/`EWOULDBLOCK`: the operation would block.
pub const EAGAIN: i32 = 11;
/// `ENFILE`: the system file table is full.
pub const ENFILE: i32 = 23;
/// `EMFILE`: the per-process fd limit is hit (accept storms).
pub const EMFILE: i32 = 24;
/// `ENOSPC`: no space — what `epoll_ctl` returns when the watch limit
/// (`max_user_watches`) is exhausted.
pub const ENOSPC: i32 = 28;
/// `ECONNRESET`: the peer slammed the connection shut.
pub const ECONNRESET: i32 = 104;

/// A call site a policy can intercept. Raw-shim sites cover the epoll and
/// eventfd plane; the `Stream*`/`Accept` sites cover TCP IO, which goes
/// through `std` (whose own retry loops would otherwise hide `EINTR` from
/// us entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `epoll_create1` in [`crate::sys`].
    EpollCreate,
    /// `epoll_ctl` (ADD/MOD/DEL) in [`crate::sys`].
    EpollCtl,
    /// `epoll_pwait` in [`crate::sys`].
    EpollWait,
    /// `eventfd2` in [`crate::sys`].
    EventfdCreate,
    /// raw `read` on the waker eventfd.
    EventfdRead,
    /// raw `write` on the waker eventfd.
    EventfdWrite,
    /// `TcpStream` reads inside [`crate::buf::read_nonblocking`].
    StreamRead,
    /// `TcpStream` writes inside [`crate::buf::WriteBuf::flush_to`].
    StreamWrite,
    /// `TcpListener::accept` in the reactor's accept loop.
    Accept,
}

/// Number of interceptable sites (the arity of [`Site`]).
pub const SITE_COUNT: usize = 9;

/// Sites in `site_index` order, with their metric-label names.
pub const SITES: [(Site, &str); SITE_COUNT] = [
    (Site::EpollCreate, "epoll_create"),
    (Site::EpollCtl, "epoll_ctl"),
    (Site::EpollWait, "epoll_wait"),
    (Site::EventfdCreate, "eventfd_create"),
    (Site::EventfdRead, "eventfd_read"),
    (Site::EventfdWrite, "eventfd_write"),
    (Site::StreamRead, "stream_read"),
    (Site::StreamWrite, "stream_write"),
    (Site::Accept, "accept"),
];

/// Index of `site` into [`SITES`] / per-site count arrays.
pub fn site_index(site: Site) -> usize {
    match site {
        Site::EpollCreate => 0,
        Site::EpollCtl => 1,
        Site::EpollWait => 2,
        Site::EventfdCreate => 3,
        Site::EventfdRead => 4,
        Site::EventfdWrite => 5,
        Site::StreamRead => 6,
        Site::StreamWrite => 7,
        Site::Accept => 8,
    }
}

/// What a policy decided about one intercepted call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Perform the real operation.
    Pass,
    /// Fail the call with this raw errno before any IO happens.
    Fail(i32),
    /// Perform the real operation but cap its length to at most this many
    /// bytes (short read/write). Only meaningful for stream IO; other
    /// sites treat it as [`Verdict::Pass`].
    Short(usize),
}

/// A pluggable syscall policy. Implementations decide per call, so they can
/// inject by site, by call count, or probabilistically.
pub trait SysPolicy: Send {
    /// Rule on one intercepted call at `site`.
    fn intercept(&mut self, site: Site) -> Verdict;
}

thread_local! {
    static POLICY: RefCell<Option<Box<dyn SysPolicy>>> = const { RefCell::new(None) };
}

/// Process-wide injected-fault hit counters, one per site, incremented by
/// [`gate`] whenever a policy verdict actually perturbs a call (`Fail` or
/// `Short`). These are the single source of truth the `/metrics`
/// exposition reads through render-time callbacks; with no policy
/// installed anywhere they stay zero forever.
static INJECTED: [AtomicU64; SITE_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; SITE_COUNT]
};

/// Total faults injected at `site` since process start.
pub fn injected_total(site: Site) -> u64 {
    INJECTED[site_index(site)].load(Ordering::Relaxed)
}

/// A shared, exact tally of the non-`Pass` verdicts one [`FaultPlan`]
/// produced, by site. The chaos suite holds a clone and compares it
/// against what the script was expected to fire — unlike the process-wide
/// [`injected_total`], it cannot be perturbed by plans on other threads.
#[derive(Debug, Default)]
pub struct FaultTally {
    counts: [AtomicU64; SITE_COUNT],
}

impl FaultTally {
    /// Injections this plan performed at `site`.
    pub fn at(&self, site: Site) -> u64 {
        self.counts[site_index(site)].load(Ordering::Relaxed)
    }

    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Installs `policy` for the current thread (replacing any previous one).
pub fn install(policy: Box<dyn SysPolicy>) {
    POLICY.with(|slot| *slot.borrow_mut() = Some(policy));
}

/// Removes the current thread's policy, restoring passthrough.
pub fn clear() {
    POLICY.with(|slot| *slot.borrow_mut() = None);
}

/// Consults the thread's policy about a call at `site`. `Ok(None)` means
/// proceed normally, `Ok(Some(cap))` means proceed but transfer at most
/// `cap` bytes, `Err` means the call fails with the injected error. With no
/// policy installed this is a single TLS read.
pub fn gate(site: Site) -> io::Result<Option<usize>> {
    POLICY.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_mut() {
            None => Ok(None),
            Some(policy) => match policy.intercept(site) {
                Verdict::Pass => Ok(None),
                // A zero-byte cap would read as EOF to callers; shortest
                // honest short IO is one byte.
                Verdict::Short(n) => {
                    INJECTED[site_index(site)].fetch_add(1, Ordering::Relaxed);
                    Ok(Some(n.max(1)))
                }
                Verdict::Fail(errno) => {
                    INJECTED[site_index(site)].fetch_add(1, Ordering::Relaxed);
                    Err(io::Error::from_raw_os_error(errno))
                }
            },
        }
    })
}

/// A seeded, reproducible fault plan: probabilistic recoverable faults
/// (`EINTR`, `EAGAIN`, short IO) plus scripted one-shot faults addressed by
/// `(site, nth call of that site)`. Same seed, same byte stream of
/// verdicts.
pub struct FaultPlan {
    rng: u64,
    /// Chance (percent) of `EINTR` per eligible call.
    eintr_pct: u32,
    /// Chance (percent) of a spurious `EAGAIN` on stream IO.
    wouldblock_pct: u32,
    /// Chance (percent) of a short read/write on stream IO.
    short_pct: u32,
    /// Consecutive-injection cap — guarantees retry loops (`EINTR` →
    /// retry) always make progress under any seed.
    max_streak: u32,
    streak: u32,
    counts: [u64; SITE_COUNT],
    scripted: Vec<(Site, u64, i32)>,
    tally: Arc<FaultTally>,
}

impl FaultPlan {
    /// A plan injecting only *recoverable* faults: `EINTR` everywhere a
    /// correct reactor must retry or shrug, spurious `EAGAIN` and short
    /// transfers on stream IO. Application output must be byte-identical
    /// to a fault-free run under this plan.
    pub fn recoverable(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            eintr_pct: 12,
            wouldblock_pct: 12,
            short_pct: 25,
            max_streak: 3,
            streak: 0,
            counts: [0; SITE_COUNT],
            scripted: Vec::new(),
            tally: Arc::new(FaultTally::default()),
        }
    }

    /// The plan's shared injection tally. Clone it before
    /// [`install`]ing the plan; it keeps counting as the plan runs.
    pub fn tally(&self) -> Arc<FaultTally> {
        self.tally.clone()
    }

    /// Adds a scripted fault: the `nth` call (0-based, per site) at `site`
    /// fails with `errno`. Scripted faults fire exactly once and take
    /// precedence over the probabilistic layer.
    pub fn script(mut self, site: Site, nth: u64, errno: i32) -> FaultPlan {
        self.scripted.push((site, nth, errno));
        self
    }

    fn next_u32(&mut self) -> u32 {
        // xorshift64* — tiny, seedable, good enough to scatter faults.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as u32
    }
}

impl SysPolicy for FaultPlan {
    fn intercept(&mut self, site: Site) -> Verdict {
        let idx = site_index(site);
        let nth = self.counts[idx];
        self.counts[idx] += 1;
        if let Some(pos) = self
            .scripted
            .iter()
            .position(|&(s, n, _)| s == site && n == nth)
        {
            let (_, _, errno) = self.scripted.swap_remove(pos);
            self.streak = 0;
            self.tally.counts[idx].fetch_add(1, Ordering::Relaxed);
            return Verdict::Fail(errno);
        }
        if self.streak >= self.max_streak {
            self.streak = 0;
            return Verdict::Pass;
        }
        let roll = self.next_u32() % 100;
        let verdict = match site {
            Site::StreamRead | Site::StreamWrite => {
                if roll < self.eintr_pct {
                    Verdict::Fail(EINTR)
                } else if roll < self.eintr_pct + self.wouldblock_pct {
                    Verdict::Fail(EAGAIN)
                } else if roll < self.eintr_pct + self.wouldblock_pct + self.short_pct {
                    Verdict::Short(1 + (self.next_u32() % 7) as usize)
                } else {
                    Verdict::Pass
                }
            }
            // EINTR is the one fault these sites can all absorb: the poll
            // loop treats it as zero events, accept retries, the waker
            // retries its write and the drain loop its read. An injected
            // EAGAIN on the eventfd *write* would silently eat a wakeup —
            // that is a real kernel impossibility (the counter saturates at
            // 2^64-1), so the plan does not fake it.
            Site::EpollWait | Site::Accept | Site::EventfdRead | Site::EventfdWrite => {
                if roll < self.eintr_pct {
                    Verdict::Fail(EINTR)
                } else {
                    Verdict::Pass
                }
            }
            // Failures here are never recoverable-transparent; only
            // scripted faults touch them.
            Site::EpollCreate | Site::EpollCtl | Site::EventfdCreate => Verdict::Pass,
        };
        match verdict {
            Verdict::Pass => self.streak = 0,
            _ => {
                self.streak += 1;
                self.tally.counts[idx].fetch_add(1, Ordering::Relaxed);
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_by_default_and_scoped_to_the_thread() {
        assert!(gate(Site::StreamRead).unwrap().is_none());
        install(Box::new(FaultPlan::recoverable(1).script(
            Site::EpollCtl,
            0,
            ENOSPC,
        )));
        assert_eq!(
            gate(Site::EpollCtl).unwrap_err().raw_os_error(),
            Some(ENOSPC)
        );
        // Another thread sees no policy.
        std::thread::spawn(|| {
            assert!(gate(Site::EpollCtl).unwrap().is_none());
        })
        .join()
        .unwrap();
        clear();
        assert!(gate(Site::EpollCtl).unwrap().is_none());
    }

    #[test]
    fn plans_are_deterministic_and_streak_bounded() {
        let drive = |seed: u64| -> Vec<Verdict> {
            let mut plan = FaultPlan::recoverable(seed);
            (0..200).map(|_| plan.intercept(Site::StreamRead)).collect()
        };
        assert_eq!(drive(7), drive(7), "same seed, same verdicts");
        assert_ne!(drive(7), drive(8), "different seeds diverge");
        // No more than max_streak consecutive injections: retry loops
        // always terminate.
        let verdicts = drive(7);
        let mut streak = 0;
        for v in &verdicts {
            if *v == Verdict::Pass {
                streak = 0;
            } else {
                streak += 1;
                assert!(streak <= 3, "unbounded injection streak");
            }
        }
        assert!(verdicts.iter().any(|v| *v != Verdict::Pass));
    }

    #[test]
    fn scripted_faults_fire_once_at_the_addressed_call() {
        let mut plan = FaultPlan {
            eintr_pct: 0,
            wouldblock_pct: 0,
            short_pct: 0,
            ..FaultPlan::recoverable(3)
        }
        .script(Site::Accept, 2, EMFILE);
        assert_eq!(plan.intercept(Site::Accept), Verdict::Pass);
        assert_eq!(plan.intercept(Site::Accept), Verdict::Pass);
        assert_eq!(plan.intercept(Site::Accept), Verdict::Fail(EMFILE));
        assert_eq!(plan.intercept(Site::Accept), Verdict::Pass);
    }

    #[test]
    fn short_verdicts_are_never_zero_capped() {
        struct AlwaysShort;
        impl SysPolicy for AlwaysShort {
            fn intercept(&mut self, _: Site) -> Verdict {
                Verdict::Short(0)
            }
        }
        install(Box::new(AlwaysShort));
        assert_eq!(gate(Site::StreamWrite).unwrap(), Some(1));
        clear();
    }
}
