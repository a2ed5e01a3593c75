//! A transcript-recording transport decorator for determinism tests.

use crate::metering::Meter;
use crate::transport::{MeteredTransport, Transport};
use std::sync::{Arc, Mutex};

/// Wraps any [`Transport`] and records every frame this endpoint
/// **sends**, byte for byte, in send order. Two runs of a protocol are
/// wire-identical iff both endpoints' transcripts match — the
/// observability-neutrality suite runs each variant with tracing off
/// and on and asserts exactly that.
///
/// Recording copies each outgoing frame, so this is a test harness
/// decorator, not a production wrapper.
#[derive(Debug)]
pub struct RecordingTransport<T: Transport> {
    inner: T,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> RecordingTransport<T> {
    /// Wraps `inner`; the returned handle reads the transcript at any
    /// point (including after the transport moved into a session).
    pub fn new(inner: T) -> (Self, TranscriptHandle) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        (Self { inner, sent: Arc::clone(&sent) }, TranscriptHandle { sent })
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn send(&self, bytes: &[u8]) {
        self.sent.lock().expect("transcript mutex poisoned").push(bytes.to_vec());
        self.inner.send(bytes);
    }

    // Overridden too: the default would route through `send`, but a
    // wrapped transport must still hand the owned buffer to the inner
    // zero-copy path after recording.
    fn send_owned(&self, bytes: Vec<u8>) {
        self.sent.lock().expect("transcript mutex poisoned").push(bytes.clone());
        self.inner.send_owned(bytes);
    }

    fn buffer(&self, len: usize) -> Vec<u8> {
        self.inner.buffer(len)
    }

    fn recycle(&self, buf: Vec<u8>) {
        self.inner.recycle(buf);
    }

    fn recv(&self) -> Vec<u8> {
        self.inner.recv()
    }
}

impl<T: MeteredTransport> MeteredTransport for RecordingTransport<T> {
    fn meter(&self) -> &Arc<Meter> {
        self.inner.meter()
    }
}

/// Reads a [`RecordingTransport`]'s transcript.
#[derive(Debug, Clone)]
pub struct TranscriptHandle {
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl TranscriptHandle {
    /// Every frame sent so far, in order.
    pub fn frames(&self) -> Vec<Vec<u8>> {
        self.sent.lock().expect("transcript mutex poisoned").clone()
    }

    /// Frames sent so far.
    pub fn len(&self) -> usize {
        self.sent.lock().expect("transcript mutex poisoned").len()
    }

    /// Whether nothing has been sent yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemTransport;

    /// Buffers and recycling reach the wrapped transport's pool.
    #[test]
    fn buffers_and_recycling_pass_through() {
        let (c, s, _meter) = MemTransport::pair();
        let (rec_c, _) = RecordingTransport::new(c);
        let (rec_s, _) = RecordingTransport::new(s);
        let frame = Vec::<u8>::with_capacity(2 << 20);
        let ptr = frame.as_ptr();
        rec_s.recycle(frame);
        let reused = rec_c.buffer(2 << 20);
        assert_eq!(reused.as_ptr(), ptr);
    }

    #[test]
    fn both_send_paths_are_recorded_in_order() {
        let (c, s, _meter) = MemTransport::pair();
        let (rec, transcript) = RecordingTransport::new(c);
        rec.send(&[1, 2]);
        rec.send_owned(vec![3]);
        assert_eq!(s.recv(), vec![1, 2]);
        assert_eq!(s.recv(), vec![3]);
        s.send(&[9]);
        assert_eq!(rec.recv(), vec![9], "recv passes through unrecorded");
        assert_eq!(transcript.frames(), vec![vec![1, 2], vec![3]]);
        assert_eq!(transcript.len(), 2);
        assert!(!transcript.is_empty());
    }
}
