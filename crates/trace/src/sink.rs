//! Trace sinks: where emitted [`TraceEvent`]s go.
//!
//! The simulator holds a [`Tracer`] — a thin wrapper around
//! `Option<Box<dyn TraceSink>>` whose [`Tracer::emit_with`] takes a
//! closure, so when tracing is disabled the event is never even
//! constructed. That is what keeps the `NullSink`/disabled path within
//! the "≤ 5% overhead" budget.

use crate::event::TraceEvent;
use crate::jsonl::JsonlEncoder;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives trace events in emission order.
///
/// Implementations must not reorder events: the byte-identical-trace
/// guarantee is "same seed ⇒ same event sequence ⇒ same sink output".
pub trait TraceSink {
    /// Handles one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Flushes any buffered output. Default is a no-op.
    fn flush(&mut self) {}
}

/// A sink that discards every event.
///
/// Exists so call sites can hold a `Box<dyn TraceSink>` unconditionally;
/// the [`Tracer`] wrapper skips even event construction when disabled,
/// which is cheaper still.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _event: &TraceEvent) {}
}

/// Streams events as JSON Lines to any [`Write`] target.
///
/// Each event becomes exactly one `\n`-terminated line in the canonical
/// encoding from [`TraceEvent::to_jsonl`], written by one
/// [`JsonlEncoder`] for the whole stream. I/O errors are latched (first
/// error kept, later writes skipped) rather than panicking mid-run;
/// check [`JsonlSink::error`] after the run.
pub struct JsonlSink<W: Write> {
    writer: W,
    encoder: JsonlEncoder,
    line: String,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            encoder: JsonlEncoder::default(),
            line: String::with_capacity(128),
            error: None,
        }
    }

    /// The first I/O error encountered, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the inner writer (or the latched error).
    pub fn into_inner(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        self.encoder.encode(event, &mut self.line);
        self.line.push('\n');
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Keeps the last `capacity` events for post-mortem inspection.
///
/// The buffer is shared: clone a [`RingBufferHandle`] before handing the
/// sink to the simulator, then read the tail after (or during) the run.
pub struct RingBufferSink {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
    capacity: usize,
}

impl RingBufferSink {
    /// A ring buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// A handle for reading the buffer after the sink has been moved
    /// into the simulator.
    pub fn handle(&self) -> RingBufferHandle {
        RingBufferHandle {
            buf: Arc::clone(&self.buf),
        }
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, event: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring buffer poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Fans every event out to two sinks, in order.
///
/// Lets a post-mortem [`RingBufferSink`] ride alongside a user-provided
/// sink (e.g. a [`JsonlSink`] streaming the full trace to disk) without
/// either knowing about the other.
pub struct TeeSink {
    first: Box<dyn TraceSink>,
    second: Box<dyn TraceSink>,
}

impl TeeSink {
    /// A sink delivering each event to `first` then `second`.
    pub fn new(first: Box<dyn TraceSink>, second: Box<dyn TraceSink>) -> Self {
        Self { first, second }
    }
}

impl TraceSink for TeeSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.first.emit(event);
        self.second.emit(event);
    }

    fn flush(&mut self) {
        self.first.flush();
        self.second.flush();
    }
}

/// Read side of a [`RingBufferSink`].
#[derive(Clone)]
pub struct RingBufferHandle {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
}

impl RingBufferHandle {
    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("ring buffer poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The buffered events rendered as a JSONL document.
    pub fn to_jsonl(&self) -> String {
        let buf = self.buf.lock().expect("ring buffer poisoned");
        let mut out = String::with_capacity(buf.len() * 96);
        let mut encoder = JsonlEncoder::default();
        for e in buf.iter() {
            encoder.encode(e, &mut out);
            out.push('\n');
        }
        out
    }
}

/// An in-memory, clonable [`Write`] target for capturing JSONL traces in
/// tests: `JsonlSink::new(shared.clone())` writes, `shared.contents()`
/// reads back.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer contents as a UTF-8 string.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("shared buf poisoned").clone())
            .expect("trace output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("shared buf poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The simulator-side switchboard: holds an optional sink and skips
/// event construction entirely when no sink is installed.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
}

impl Tracer {
    /// A disabled tracer (the default): `emit_with` closures never run.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A tracer feeding `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether a sink is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `f`, constructing it only if a sink is
    /// installed. This is the one call sites should use on hot paths.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            let event = f();
            sink.emit(&event);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }

    /// Installs a sink, returning the previous one.
    pub fn set(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.sink.replace(sink)
    }

    /// Removes and returns the sink, disabling tracing.
    pub fn take(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(time: f64, node: u64) -> TraceEvent {
        TraceEvent::Hop {
            time,
            node,
            packet: 1,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        let mut built = false;
        t.emit_with(|| {
            built = true;
            hop(0.0, 0)
        });
        assert!(!built);
        assert!(!t.is_enabled());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuf::new();
        let mut t = Tracer::new(Box::new(JsonlSink::new(buf.clone())));
        assert!(t.is_enabled());
        t.emit_with(|| hop(1.0, 2));
        t.emit_with(|| hop(2.0, 3));
        t.flush();
        let text = buf.contents();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"t\":1.0,\"ev\":\"hop\""));
    }

    #[test]
    fn ring_buffer_keeps_last_n() {
        let sink = RingBufferSink::new(2);
        let handle = sink.handle();
        let mut t = Tracer::new(Box::new(sink));
        for i in 0..5 {
            t.emit_with(|| hop(i as f64, i));
        }
        let events = handle.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].time(), 3.0);
        assert_eq!(events[1].time(), 4.0);
        assert_eq!(handle.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn tee_sink_feeds_both_sinks() {
        let buf = SharedBuf::new();
        let ring = RingBufferSink::new(8);
        let handle = ring.handle();
        let mut t = Tracer::new(Box::new(TeeSink::new(
            Box::new(JsonlSink::new(buf.clone())),
            Box::new(ring),
        )));
        t.emit_with(|| hop(1.0, 2));
        t.flush();
        assert_eq!(buf.contents().lines().count(), 1);
        assert_eq!(handle.events().len(), 1);
    }

    #[test]
    fn take_and_set_swap_sinks() {
        let mut t = Tracer::new(Box::new(NullSink));
        assert!(t.take().is_some());
        assert!(!t.is_enabled());
        assert!(t.set(Box::new(NullSink)).is_none());
        assert!(t.is_enabled());
    }
}
