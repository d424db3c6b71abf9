//! Connection buffers: a write buffer with partial-write resumption and a
//! nonblocking read helper.
//!
//! These are the two halves of the per-connection state machine's IO edge:
//! [`WriteBuf`] owns every byte queued for the peer and survives any number
//! of short writes (the kernel send buffer filling up is normal under load,
//! not an error), and [`read_nonblocking`] slurps whatever the kernel has
//! buffered without ever parking the reactor thread.

use std::cell::RefCell;
use std::io::{self, Read, Write};

use crate::fault::{gate, Site};

/// An output queue with a consumption cursor: pushed bytes stay put until
/// the socket accepts them, however many `write` calls that takes.
#[derive(Default)]
pub struct WriteBuf {
    data: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queues bytes for the peer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.data.len() {
            // Fully drained: restart at the front instead of growing.
            self.data.clear();
            self.pos = 0;
        }
        self.data.extend_from_slice(bytes);
    }

    /// The bytes not yet accepted by the socket, as one vector.
    pub fn into_pending(mut self) -> Vec<u8> {
        self.data.drain(..self.pos);
        self.data
    }

    /// Bytes not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether everything pushed has been written out.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Writes as much as the socket will take. Returns `Ok(true)` when the
    /// buffer fully drained, `Ok(false)` on `WouldBlock` with bytes left
    /// (re-arm `EPOLLOUT` and resume later). Short writes are resumed
    /// in-place; a `WriteZero`-class failure is an error like any other.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.data.len() {
            // Fault gate: an injected error takes the same arms a real one
            // would; a short-write cap just trims this pass's slice (≥1
            // byte, so `Ok(0)` still only ever means the real socket died).
            let attempt = match gate(Site::StreamWrite) {
                Ok(cap) => {
                    let end = cap.map_or(self.data.len(), |c| (self.pos + c).min(self.data.len()));
                    w.write(&self.data[self.pos..end])
                }
                Err(e) => Err(e),
            };
            match attempt {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.data.clear();
        self.pos = 0;
        Ok(true)
    }

    /// Drops consumed bytes once they dominate the buffer, so a long-lived
    /// connection under backpressure doesn't accrete a graveyard prefix.
    fn compact(&mut self) {
        if self.pos >= 4096 && self.pos * 2 >= self.data.len() {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
    }
}

impl From<Vec<u8>> for WriteBuf {
    /// A buffer holding `bytes`, queued for the peer without a copy.
    fn from(bytes: Vec<u8>) -> WriteBuf {
        WriteBuf {
            data: bytes,
            pos: 0,
        }
    }
}

/// What a nonblocking read pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// Kernel buffer drained; more may arrive later.
    WouldBlock,
    /// Peer closed its write side (appended bytes, if any, are final).
    Eof,
    /// `limit` reached with the socket still readable — the caller stops
    /// reading as backpressure and resumes after consuming.
    LimitReached,
}

/// Bytes one read pass asks the kernel for.
const CHUNK: usize = 16 * 1024;

thread_local! {
    /// Landing zone for [`read_nonblocking`]: zeroed once per thread and
    /// reused by every call, so a read pass copies out only the bytes it
    /// received instead of zero-filling a fresh chunk of the caller's
    /// buffer first.
    static LANDING: RefCell<Box<[u8]>> = RefCell::new(vec![0; CHUNK].into_boxed_slice());
}

/// Reads everything currently available from `stream` into `buf`, up to
/// `limit` total buffered bytes. The stream must be in nonblocking mode.
pub fn read_nonblocking(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<ReadStatus> {
    LANDING.with(|landing| {
        let chunk = &mut landing.borrow_mut()[..];
        loop {
            if buf.len() >= limit {
                return Ok(ReadStatus::LimitReached);
            }
            let mut want = CHUNK.min(limit - buf.len());
            // Fault gate: injected errors flow through the arms below
            // exactly like kernel ones; a short-read cap shrinks this
            // pass's chunk.
            let attempt = match gate(Site::StreamRead) {
                Ok(cap) => {
                    if let Some(c) = cap {
                        want = want.min(c);
                    }
                    stream.read(&mut chunk[..want])
                }
                Err(e) => Err(e),
            };
            match attempt {
                Ok(0) => return Ok(ReadStatus::Eof),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => {
                    return match e.kind() {
                        io::ErrorKind::WouldBlock => Ok(ReadStatus::WouldBlock),
                        io::ErrorKind::Interrupted => continue,
                        _ => Err(e),
                    };
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call and signals
    /// WouldBlock after `budget` total bytes — a kernel send buffer in
    /// miniature.
    struct Choppy {
        out: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl Write for Choppy {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = b.len().min(self.cap).min(self.budget);
            self.out.extend_from_slice(&b[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_without_loss_or_duplication() {
        let mut wb = WriteBuf::new();
        wb.push(b"hello ");
        wb.push(b"world");
        let mut sink = Choppy {
            out: Vec::new(),
            cap: 3,
            budget: 4,
        };
        // First pass: 4 bytes, then WouldBlock.
        assert!(!wb.flush_to(&mut sink).unwrap());
        assert_eq!(wb.pending(), 7);
        // Push more while blocked — ordering must hold.
        wb.push(b"!");
        sink.budget = usize::MAX;
        assert!(wb.flush_to(&mut sink).unwrap());
        assert_eq!(sink.out, b"hello world!");
        assert!(wb.is_empty());
        // Buffer reuse after drain.
        wb.push(b"again");
        assert!(wb.flush_to(&mut sink).unwrap());
        assert_eq!(&sink.out[12..], b"again");
    }

    #[test]
    fn read_nonblocking_observes_eof_and_limit() {
        // A cursor reader: yields data then EOF.
        let data = vec![7u8; 40_000];
        let mut reader = io::Cursor::new(data.clone());
        let mut buf = Vec::new();
        // Generous limit: everything arrives, then EOF.
        assert_eq!(
            read_nonblocking(&mut reader, &mut buf, 1 << 20).unwrap(),
            ReadStatus::Eof
        );
        assert_eq!(buf, data);
        // Tight limit: stop early.
        let mut reader = io::Cursor::new(data);
        let mut buf = Vec::new();
        assert_eq!(
            read_nonblocking(&mut reader, &mut buf, 10_000).unwrap(),
            ReadStatus::LimitReached
        );
        assert_eq!(buf.len(), 10_000);
    }
}
