//! Non-blocking pre-admission connection driver.
//!
//! `primer_serve`'s event loop owns every connection that has not yet
//! been admitted to a worker slot: freshly accepted sockets waiting for
//! their hello, queued sessions waiting for a free slot, and one-shot
//! stats pollers. None of those may cost a thread (crates.io being
//! unreachable, there is no mio — this is a hand-rolled readiness loop
//! over `std::net` + `set_nonblocking`), so [`NbConn`] parses the same
//! `[channel: u8][len: u32 LE][payload]` framing as [`crate::tcp`]
//! incrementally out of a per-connection read buffer, and writes typed
//! replies (welcome, busy, stats) through a per-connection write buffer
//! drained as the socket accepts bytes.
//!
//! When a connection is admitted, [`NbConn::into_blocking`] switches the
//! socket back to blocking mode and returns any bytes read beyond the
//! consumed frames; [`crate::tcp::TcpConnection::from_stream_with_preface`]
//! replays them so the threaded reader starts exactly where the event
//! loop stopped.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use crate::frame::{self, HEADER_LEN};

/// Pre-admission frames are small (hello, stats request): a corrupt or
/// hostile length prefix above this fails the connection before any
/// allocation — an un-admitted peer never gets to stage a 1 GiB buffer.
const MAX_PREADMIT_FRAME: u32 = 1 << 20;

/// How much to read per readiness poll.
const READ_CHUNK: usize = 16 * 1024;

/// A non-blocking connection the event loop drives by polling.
#[derive(Debug)]
pub struct NbConn {
    stream: TcpStream,
    peer: SocketAddr,
    read_buf: Vec<u8>,
    write_buf: VecDeque<u8>,
    /// When this connection was accepted — the event loop's handshake
    /// deadline is measured from here.
    opened: Instant,
    eof: bool,
}

impl NbConn {
    /// Adopts an accepted stream into non-blocking mode.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from configure.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream,
            peer,
            read_buf: Vec::new(),
            write_buf: VecDeque::new(),
            opened: Instant::now(),
            eof: false,
        })
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// When the connection was accepted.
    pub fn opened(&self) -> Instant {
        self.opened
    }

    /// Reads whatever the socket has and parses at most one complete
    /// frame from the head of the read buffer.
    ///
    /// Returns `Ok(Some((channel, payload)))` when a frame completed,
    /// `Ok(None)` when more bytes are needed (including would-block).
    ///
    /// # Errors
    ///
    /// Socket errors, EOF before a complete frame, or corrupt framing
    /// (bad channel, oversized pre-admission length) — all of which
    /// mean the connection should be dropped.
    pub fn poll_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        self.fill_read_buf()?;
        let Some(header) = self.read_buf.first_chunk() else {
            if self.eof {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed before a complete frame",
                ));
            }
            return Ok(None);
        };
        let (channel, len) = frame::parse(header)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt framing"))?;
        if len > MAX_PREADMIT_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pre-admission frame too large",
            ));
        }
        let total = HEADER_LEN + len as usize;
        if self.read_buf.len() < total {
            if self.eof {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            return Ok(None);
        }
        let payload = self.read_buf[HEADER_LEN..total].to_vec();
        self.read_buf.drain(..total);
        Ok(Some((channel, payload)))
    }

    fn fill_read_buf(&mut self) -> io::Result<()> {
        if self.eof {
            return Ok(());
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Stages one frame on the write buffer (flushed by [`NbConn::flush`]).
    pub fn queue_frame(&mut self, channel: u8, payload: &[u8]) {
        self.write_buf.extend(frame::encode(channel, payload.len()));
        self.write_buf.extend(payload);
    }

    /// Writes as much buffered output as the socket accepts right now.
    ///
    /// Returns `true` once the write buffer is fully drained.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (the connection should be dropped).
    pub fn flush(&mut self) -> io::Result<bool> {
        while !self.write_buf.is_empty() {
            let (head, _) = self.write_buf.as_slices();
            match self.stream.write(head) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    self.write_buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether buffered output is still waiting on the socket.
    pub fn has_queued_output(&self) -> bool {
        !self.write_buf.is_empty()
    }

    /// Switches the socket back to blocking mode for admission, handing
    /// back any bytes read past the consumed frames so the threaded
    /// reader can replay them.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from configure.
    pub fn into_blocking(self) -> io::Result<(TcpStream, Vec<u8>)> {
        debug_assert!(
            self.write_buf.is_empty(),
            "admitting a connection with unflushed output would reorder frames"
        );
        self.stream.set_nonblocking(false)?;
        Ok((self.stream, self.read_buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpConnection;
    use crate::transport::Transport;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    fn send_frame(stream: &mut TcpStream, channel: u8, payload: &[u8]) {
        let mut buf = frame::encode(channel, payload.len()).to_vec();
        buf.extend_from_slice(payload);
        stream.write_all(&buf).expect("write frame");
    }

    #[test]
    fn parses_frames_incrementally() {
        let (mut client, server) = pair();
        let mut nb = NbConn::new(server).expect("nbconn");
        assert!(nb.poll_frame().expect("poll").is_none());
        send_frame(&mut client, 2, b"hello");
        // Poll until the kernel delivers the bytes.
        let frame = loop {
            if let Some(f) = nb.poll_frame().expect("poll") {
                break f;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(frame, (2, b"hello".to_vec()));
        assert!(nb.poll_frame().expect("poll").is_none());
    }

    #[test]
    fn leftover_bytes_replay_through_preface() {
        let (mut client, server) = pair();
        let mut nb = NbConn::new(server).expect("nbconn");
        // Two frames arrive back to back; the loop consumes only the
        // first before admitting the connection.
        send_frame(&mut client, 2, b"hello");
        send_frame(&mut client, 0, b"setup-flight");
        let first = loop {
            if let Some(f) = nb.poll_frame().expect("poll") {
                break f;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(first.0, 2);
        // Wait for the second frame's bytes to be buffered too, so the
        // preface (not the live socket) must carry them.
        loop {
            nb.fill_read_buf().expect("fill");
            if nb.read_buf.len() >= 5 + 12 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (stream, leftover) = nb.into_blocking().expect("into_blocking");
        assert!(!leftover.is_empty());
        let mut conn =
            TcpConnection::from_stream_with_preface(stream, false, leftover).expect("conn");
        let t0 = conn.take_channel(0);
        assert_eq!(t0.recv(), b"setup-flight".to_vec());
    }

    #[test]
    fn corrupt_framing_is_an_error() {
        let (mut client, server) = pair();
        let mut nb = NbConn::new(server).expect("nbconn");
        client.write_all(&[9u8, 1, 0, 0, 0, 42]).expect("write"); // channel 9 invalid
        let err = loop {
            match nb.poll_frame() {
                Ok(Some(_)) => panic!("corrupt frame parsed"),
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn queued_output_flushes() {
        let (client, server) = pair();
        let mut nb = NbConn::new(server).expect("nbconn");
        nb.queue_frame(2, b"busy");
        while !nb.flush().expect("flush") {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut conn = TcpConnection::from_stream(client, true).expect("conn");
        let t = conn.take_channel(2);
        assert_eq!(t.recv(), b"busy".to_vec());
    }
}
