//! The blocking message transport used by every two-party protocol.

use crate::metering::Meter;
use std::sync::Arc;

/// Result of a non-blocking [`Transport::try_recv`] poll.
#[derive(Debug)]
pub enum PollRecv {
    /// A complete message was already queued; it has been dequeued (and
    /// metered) exactly as a blocking [`Transport::recv`] would have.
    Frame(Vec<u8>),
    /// Nothing is queued *right now* — the peer may still send later.
    Empty,
    /// The peer is gone and every queued message has been consumed.
    /// Unlike a blocking [`Transport::recv`] (which panics, treating a
    /// mid-protocol disconnect as a logic error), polls report this as
    /// data: an event loop waiting *between* protocol exchanges must
    /// treat a vanished peer as a session outcome, not a crash.
    Disconnected,
    /// This transport cannot poll without blocking. Callers needing
    /// event-driven receives must fall back to [`Transport::recv`].
    Unsupported,
}

/// A reliable, ordered, blocking message channel to the peer party.
///
/// Implementations meter all traffic; protocol time models convert the
/// metered bytes/messages into network time using [`crate::NetworkModel`].
pub trait Transport {
    /// Sends one message to the peer. The transport copies (or writes)
    /// the bytes before returning; the caller keeps ownership, so hot
    /// protocol paths can send borrowed buffers without a forced
    /// allocation per flight.
    fn send(&self, bytes: &[u8]);

    /// Sends one message the caller no longer needs. Channel-backed
    /// transports override this to move the buffer instead of copying
    /// it ([`crate::MemTransport`] does); stream-backed transports fall
    /// back to the borrowed path. Callers that just built an owned
    /// `Vec` should prefer this.
    fn send_owned(&self, bytes: Vec<u8>) {
        self.send(&bytes);
    }

    /// An empty buffer with room for a `len`-byte message, for a caller
    /// about to build one and hand it to [`Transport::send_owned`]. The
    /// default allocates; a transport that gets buffers back through
    /// [`Transport::recycle`] may return one of those instead, so a large
    /// frame is written into pages that are already mapped rather than
    /// faulted in fresh. The buffer is empty
    /// but its spare capacity holds stale bytes: the caller writes every
    /// byte it sends.
    fn buffer(&self, len: usize) -> Vec<u8> {
        Vec::with_capacity(len)
    }

    /// Hands back a received message the caller is done with, for a
    /// later [`Transport::buffer`]. The default drops it. A transport
    /// that keeps it must bound what it keeps.
    fn recycle(&self, buf: Vec<u8>) {
        drop(buf);
    }

    /// Receives the next message from the peer (blocking).
    ///
    /// # Panics
    ///
    /// Panics if the peer disconnected with messages outstanding — a
    /// protocol logic error, not a runtime condition to handle.
    fn recv(&self) -> Vec<u8>;

    /// Non-blocking receive: dequeues a message only if one is already
    /// complete. The default says the transport cannot poll; queue-backed
    /// transports override it. The suspend-capable serving loop uses
    /// this to watch the control channel between online queries without
    /// parking a thread per channel.
    fn try_recv(&self) -> PollRecv {
        PollRecv::Unsupported
    }

    /// How many complete messages are queued and receivable without
    /// blocking, or `None` when the transport cannot tell. Unlike
    /// [`Transport::try_recv`] this never consumes — use it to learn a
    /// peer has started a multi-message exchange whose first flight a
    /// blocking protocol routine must itself `recv`.
    fn pending(&self) -> Option<usize> {
        None
    }
}

/// A transport whose endpoint exposes a traffic [`Meter`].
///
/// The in-process [`crate::MemTransport`] shares one meter between both
/// endpoints; TCP endpoints each own a per-channel meter that records
/// their sends plus the peer's messages as they are consumed, so both
/// meters agree at every protocol synchronization point. The session
/// engine's per-phase traffic attribution only needs *a* meter whose
/// deltas bracket the phases it runs on this transport.
pub trait MeteredTransport: Transport {
    /// The endpoint's traffic meter.
    fn meter(&self) -> &Arc<Meter>;
}

/// Helpers for shipping `u64` matrices/vectors without a serde dependency.
pub mod wire {
    /// Encodes a u64 slice as little-endian bytes.
    pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + values.len() * 8);
        out.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes bytes produced by [`encode_u64s`].
    ///
    /// # Panics
    ///
    /// Panics on malformed input (protocol logic error).
    pub fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
        assert!(bytes.len() >= 8, "truncated u64 message");
        let len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        assert_eq!(bytes.len(), 8 + len * 8, "u64 message length mismatch");
        (0..len)
            .map(|i| {
                let s = 8 + i * 8;
                u64::from_le_bytes(bytes[s..s + 8].try_into().expect("8 bytes"))
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip() {
            let vals = vec![0u64, 1, u64::MAX, 42];
            assert_eq!(decode_u64s(&encode_u64s(&vals)), vals);
        }

        #[test]
        fn empty_roundtrip() {
            assert_eq!(decode_u64s(&encode_u64s(&[])), Vec::<u64>::new());
        }

        #[test]
        #[should_panic(expected = "length mismatch")]
        fn malformed_rejected() {
            let mut b = encode_u64s(&[1, 2]);
            b.pop();
            decode_u64s(&b);
        }
    }
}
