//! The benchmark's own spans: one per call it makes into a layer.
//!
//! Each client thread owns a [`Spans`] recorder, so recording needs no
//! lock. With recording off, `enter` is one branch and returns `None`.
//! At exit the threads' recorders are merged into a [`Trace`], which
//! dumps Chrome trace-event JSON and sums each layer's self time: a
//! span's duration minus the durations of its direct children (children
//! of one span never overlap, since one thread records them in order).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use atpm_serve::Json;

/// One recorded span.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Session the span belongs to (0 outside sessions).
    pub session: u64,
}

/// Per-thread span recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    tid: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, tid: u32, on: bool) -> Spans {
        Spans {
            on,
            epoch,
            tid,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for later spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(
        &mut self,
        layer: &'static str,
        name: &'static str,
        session: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        session: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.enter(layer, name, session);
        let out = f();
        self.exit(span);
        out
    }
}

/// Every thread's spans, merged at exit.
#[derive(Default)]
pub struct Trace {
    threads: Vec<(u32, Vec<Span>)>,
}

impl Trace {
    /// Takes over a recorder's spans.
    pub fn absorb(&mut self, spans: Spans) {
        debug_assert!(spans.open.is_empty(), "a span was left open");
        if !spans.spans.is_empty() {
            self.threads.push((spans.tid, spans.spans));
        }
    }

    /// Self seconds per layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (_, spans) in &self.threads {
            let mut self_ns: Vec<i128> = spans
                .iter()
                .map(|s| i128::from(s.end_ns - s.start_ns))
                .collect();
            for s in spans {
                if let Some(p) = s.parent {
                    self_ns[p] -= i128::from(s.end_ns - s.start_ns);
                }
            }
            for (s, ns) in spans.iter().zip(self_ns) {
                *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        out
    }

    /// Writes Chrome trace-event JSON (loads in Perfetto and
    /// `chrome://tracing`), at most `cap` events; `metadata` records how
    /// many were left out. Span names and layers are identifiers, so they
    /// need no escaping.
    pub fn write_chrome_json(
        &self,
        out: &mut impl Write,
        metadata: Vec<(&'static str, Json)>,
        cap: usize,
    ) -> io::Result<()> {
        let total: usize = self.threads.iter().map(|(_, spans)| spans.len()).sum();
        out.write_all(b"{\"traceEvents\":[")?;
        let events = self
            .threads
            .iter()
            .flat_map(|(tid, spans)| spans.iter().enumerate().map(move |(i, s)| (tid, i, s)));
        for (n, (tid, i, s)) in events.take(cap).enumerate() {
            if n > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"session\":{},\"span\":\"{tid}:{i}\"",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.session
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":\"{tid}:{p}\"")?;
            }
            out.write_all(b"}}")?;
        }
        let mut metadata = metadata;
        metadata.push((
            "spans_left_out",
            Json::UInt(total.saturating_sub(cap) as u64),
        ));
        write!(out, "],\"metadata\":{}}}", Json::obj(metadata).encode())
    }
}
