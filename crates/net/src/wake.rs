//! [`Waker`]: the cross-thread wakeup primitive — an eventfd registered in
//! the reactor's poller, so a worker thread that leaves a response for the
//! reactor to write (or a shutdown) can pull a parked `epoll_wait` out of
//! its nap. Responses the worker writes itself need no wake.
//!
//! Eventfd beats the classic self-pipe: one fd instead of two, writes are a
//! single 8-byte counter add that never blocks (short of 2^64-1 pending
//! wakes), and draining is one read. The fd is shared by `Arc`, so any
//! number of worker threads hold cheap clones.

use std::io;
use std::os::fd::{AsFd, BorrowedFd, OwnedFd};
use std::sync::Arc;

use crate::sys;

/// A clonable handle that can wake one reactor from any thread.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<OwnedFd>,
}

impl Waker {
    /// A fresh waker (its fd must be registered in the poller by the
    /// reactor that wants to be woken).
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: Arc::new(sys::eventfd()?),
        })
    }

    /// Wakes the reactor. Never blocks; a full counter (already signalled
    /// ~2^64 times) is already awake, so that error is ignored — but an
    /// `EINTR` before the counter add would silently lose the wakeup, so
    /// interrupted writes retry.
    pub fn wake(&self) {
        loop {
            match sys::write(self.fd.as_fd(), &1u64.to_ne_bytes()) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }

    /// Consumes all pending wakeups (called by the reactor when the waker's
    /// fd reports readable).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // One read zeroes an eventfd counter; loop anyway in case of a
        // racing wake between read and return — the extra read just hits
        // WouldBlock. An interrupted read has NOT drained, so it retries
        // rather than ending the loop with the counter still set.
        loop {
            match sys::read(self.fd.as_fd(), &mut buf) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

impl AsFd for Waker {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.fd.as_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Interest, Poller};
    use std::time::Duration;

    #[test]
    fn wake_from_another_thread_unparks_a_poll() {
        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&waker, 42, Interest::READ, false).unwrap();

        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        handle.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);

        // Drained: the level-triggered fd goes quiet.
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // Coalescing: many wakes, one drain.
        for _ in 0..100 {
            waker.wake();
        }
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(events.len(), 1);
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }
}
