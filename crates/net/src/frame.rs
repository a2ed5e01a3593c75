//! The frame header of the TCP transports: every frame on a socket is
//!
//! ```text
//! [ channel: u8 ][ len: u32 LE ][ payload: len bytes ]
//! ```
//!
//! [`crate::tcp`]'s threaded reader and writer and [`crate::nonblock`]'s
//! event-loop driver all build and check the header here.

use crate::tcp::NUM_CHANNELS;

/// Bytes in a frame header.
pub(crate) const HEADER_LEN: usize = 5;

/// Upper bound on a single frame (1 GiB) — a corrupted length prefix
/// fails loudly instead of attempting an absurd allocation.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 30;

/// The header of a `len`-byte frame on `channel`.
///
/// # Panics
///
/// Panics if `len` exceeds [`MAX_FRAME_LEN`].
pub(crate) fn encode(channel: u8, len: usize) -> [u8; HEADER_LEN] {
    assert!(len as u64 <= u64::from(MAX_FRAME_LEN), "frame too large");
    let mut header = [0; HEADER_LEN];
    header[0] = channel;
    header[1..].copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// A header's `(channel, len)`, or `None` when the channel does not
/// exist or the length is above [`MAX_FRAME_LEN`] (corrupt framing).
pub(crate) fn parse(header: &[u8; HEADER_LEN]) -> Option<(u8, u32)> {
    let [channel, len @ ..] = *header;
    let len = u32::from_le_bytes(len);
    (usize::from(channel) < NUM_CHANNELS && len <= MAX_FRAME_LEN).then_some((channel, len))
}
