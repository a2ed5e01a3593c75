//! Real TCP transport: length-framed, multiplexed and metered.
//!
//! One [`TcpConnection`] carries up to [`NUM_CHANNELS`] independent
//! logical channels over a single socket. Every frame on the wire is
//!
//! ```text
//! [ channel: u8 ][ len: u32 LE ][ payload: len bytes ]
//! ```
//!
//! Each channel endpoint is a [`TcpTransport`] implementing the blocking
//! [`Transport`] trait, so the whole protocol stack (HGS/FHGS/CHGS, OT,
//! garbled circuits, the session engine) runs over real sockets
//! unchanged. The serving stack uses channel 0 for the online phase and
//! channel 1 for the offline producer, so a session's offline bundle
//! production overlaps its in-flight online queries on one connection.
//!
//! A dedicated reader thread drains the socket continuously and routes
//! frames into per-channel queues. Two consequences:
//!
//! * **No protocol deadlock.** A party can pipeline arbitrarily many
//!   flights ahead (the offline producer does) without ever filling the
//!   peer's kernel buffer — the peer's reader keeps draining even while
//!   its protocol thread is busy.
//! * **Consumption-aligned metering.** Sent bytes are metered at
//!   [`Transport::send`]; received bytes are metered when the protocol
//!   *dequeues* them, not when the kernel delivers them. At every
//!   protocol synchronization point the two endpoints' per-channel
//!   meters therefore agree with each other — and with the single
//!   shared meter of the in-process [`crate::MemTransport`] path.

use crate::frame;
use crate::metering::Meter;
use crate::transport::{MeteredTransport, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// Logical channels multiplexed over one connection.
pub const NUM_CHANNELS: usize = 4;

struct ConnShared {
    /// All channels share one framed writer; a frame is written and
    /// flushed atomically under the lock.
    writer: Mutex<BufWriter<TcpStream>>,
    /// Per-channel traffic meters.
    meters: Vec<Arc<Meter>>,
    /// Client endpoints meter sends as c2s, servers as s2c.
    is_client: bool,
}

impl Drop for ConnShared {
    fn drop(&mut self) {
        // The reader thread holds a cloned FD, so dropping the writer
        // alone would leave the socket open (and the peer blocked).
        // Shut both directions down once the last endpoint is gone: our
        // reader unblocks and exits, the peer sees EOF.
        if let Ok(w) = self.writer.get_mut() {
            let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One endpoint of a multiplexed TCP connection.
///
/// Take channel endpoints with [`TcpConnection::take_channel`]; each can
/// be moved to its own thread. The connection closes when the last
/// endpoint (and the connection handle) is dropped.
pub struct TcpConnection {
    shared: Arc<ConnShared>,
    receivers: Vec<Option<Receiver<Vec<u8>>>>,
    peer: SocketAddr,
}

impl TcpConnection {
    /// Connects to a listening peer (the **client** endpoint).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from connect/configure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?, true)
    }

    /// Accepts one connection from a listener (the **server** endpoint).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from accept/configure.
    pub fn accept(listener: &TcpListener) -> io::Result<Self> {
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream, false)
    }

    /// Wraps an already-connected stream. `is_client` picks the metering
    /// direction for this endpoint's sends.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from configure/clone.
    pub fn from_stream(stream: TcpStream, is_client: bool) -> io::Result<Self> {
        Self::from_stream_with_preface(stream, is_client, Vec::new())
    }

    /// Like [`TcpConnection::from_stream`], but frames already consumed
    /// from the socket (by a non-blocking pre-admission loop — see
    /// [`crate::nonblock::NbConn`]) are replayed to the reader first, so
    /// no bytes are lost when a connection graduates from the event
    /// loop's hand-rolled parser to the threaded reader.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from configure/clone.
    pub fn from_stream_with_preface(
        stream: TcpStream,
        is_client: bool,
        preface: Vec<u8>,
    ) -> io::Result<Self> {
        // The protocols are lockstep and latency-sensitive; never batch
        // small frames behind Nagle.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let reader = io::Cursor::new(preface).chain(stream.try_clone()?);
        let meters: Vec<Arc<Meter>> = (0..NUM_CHANNELS).map(|_| Meter::new()).collect();
        let mut senders = Vec::with_capacity(NUM_CHANNELS);
        let mut receivers = Vec::with_capacity(NUM_CHANNELS);
        for _ in 0..NUM_CHANNELS {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        // Detached reader: exits (dropping the senders, which unblocks
        // every pending recv with a disconnect) when the peer closes or
        // the socket errors.
        std::thread::spawn(move || read_loop(reader, senders));
        Ok(Self {
            shared: Arc::new(ConnShared {
                writer: Mutex::new(BufWriter::new(stream)),
                meters,
                is_client,
            }),
            receivers,
            peer,
        })
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Sets (or clears) the socket read timeout. While set, a peer that
    /// goes silent longer than `timeout` fails the connection (the
    /// reader exits, receivers see the disconnect) — servers use this
    /// as a handshake deadline so an idle client cannot pin a worker
    /// slot forever, then clear it for the compute-heavy protocol
    /// phases.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.shared.writer.lock().expect("tcp writer mutex poisoned").get_ref().set_read_timeout(timeout)
    }

    /// Takes ownership of one channel endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= NUM_CHANNELS` or the channel was already
    /// taken (each endpoint exists exactly once).
    pub fn take_channel(&mut self, channel: usize) -> TcpTransport {
        assert!(channel < NUM_CHANNELS, "channel {channel} out of range");
        let rx = self.receivers[channel]
            .take()
            .unwrap_or_else(|| panic!("channel {channel} already taken"));
        TcpTransport {
            shared: Arc::clone(&self.shared),
            channel: channel as u8,
            rx,
            meter: Arc::clone(&self.shared.meters[channel]),
        }
    }

    /// Sum of all channel meters — the connection's total traffic.
    pub fn total_traffic(&self) -> crate::metering::TrafficSnapshot {
        let mut acc = crate::metering::TrafficSnapshot::default();
        for m in &self.shared.meters {
            acc = acc.plus(&crate::metering::TrafficSnapshot::capture(m));
        }
        acc
    }
}

fn read_loop<R: Read>(mut stream: R, senders: Vec<Sender<Vec<u8>>>) {
    loop {
        let mut header = [0u8; frame::HEADER_LEN];
        match stream.read_exact(&mut header) {
            Ok(()) => {}
            // Clean EOF between frames or any socket error: drop the
            // senders so blocked receivers see the disconnect.
            Err(_) => return,
        }
        let Some((channel, len)) = frame::parse(&header) else {
            return; // corrupted framing — fail the connection
        };
        let mut payload = vec![0u8; len as usize];
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        if senders[usize::from(channel)].send(payload).is_err() {
            // The channel endpoint was dropped; keep draining the other
            // channels (e.g. stats frames after the online channel died).
            continue;
        }
    }
}

/// One channel endpoint of a [`TcpConnection`], usable as a blocking
/// [`Transport`] from any thread.
pub struct TcpTransport {
    shared: Arc<ConnShared>,
    channel: u8,
    rx: Receiver<Vec<u8>>,
    meter: Arc<Meter>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").field("channel", &self.channel).finish()
    }
}

impl Transport for TcpTransport {
    fn send(&self, bytes: &[u8]) {
        let header = frame::encode(self.channel, bytes.len());
        if self.shared.is_client {
            self.meter.c2s.record(bytes.len());
        } else {
            self.meter.s2c.record(bytes.len());
        }
        let mut w = self.shared.writer.lock().expect("tcp writer mutex poisoned");
        w.write_all(&header).expect("peer endpoint dropped mid-protocol");
        w.write_all(bytes).expect("peer endpoint dropped mid-protocol");
        w.flush().expect("peer endpoint dropped mid-protocol");
    }

    fn recv(&self) -> Vec<u8> {
        let bytes = self.rx.recv().expect("peer endpoint dropped mid-protocol");
        // Metered at dequeue: the delta a phase sees is exactly what its
        // protocol steps consumed, even when the peer pipelined ahead.
        if self.shared.is_client {
            self.meter.s2c.record(bytes.len());
        } else {
            self.meter.c2s.record(bytes.len());
        }
        bytes
    }

    fn try_recv(&self) -> crate::transport::PollRecv {
        match self.rx.try_recv() {
            Ok(Some(bytes)) => {
                // Metered at dequeue, exactly like the blocking path.
                if self.shared.is_client {
                    self.meter.s2c.record(bytes.len());
                } else {
                    self.meter.c2s.record(bytes.len());
                }
                crate::transport::PollRecv::Frame(bytes)
            }
            Ok(None) => crate::transport::PollRecv::Empty,
            Err(_) => crate::transport::PollRecv::Disconnected,
        }
    }

    fn pending(&self) -> Option<usize> {
        Some(self.rx.len())
    }
}

impl MeteredTransport for TcpTransport {
    fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_pair() -> (TcpConnection, TcpConnection) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || TcpConnection::accept(&listener).expect("accept"));
        let client = TcpConnection::connect(addr).expect("connect");
        let server = h.join().expect("accept thread");
        (client, server)
    }

    #[test]
    fn ping_pong_over_loopback() {
        let (mut cc, mut sc) = loopback_pair();
        let ct = cc.take_channel(0);
        let st = sc.take_channel(0);
        let h = std::thread::spawn(move || {
            let vals = st.recv();
            st.send(&[vals.iter().sum::<u8>()]);
            st
        });
        ct.send(&[7, 35]);
        assert_eq!(ct.recv(), vec![42]);
        let st = h.join().expect("server thread");
        // Both endpoints metered the same traffic (send-side and
        // dequeue-side agree after the round trip).
        let c_snap = crate::metering::TrafficSnapshot::capture(ct.meter());
        let s_snap = crate::metering::TrafficSnapshot::capture(st.meter());
        assert_eq!(c_snap, s_snap);
        assert_eq!(c_snap.c2s_messages, 1);
        assert_eq!(c_snap.s2c_messages, 1);
        assert!(c_snap.total_bytes() > 0);
    }

    #[test]
    fn channels_are_independent_and_concurrent() {
        let (mut cc, mut sc) = loopback_pair();
        let c0 = cc.take_channel(0);
        let c1 = cc.take_channel(1);
        let s0 = sc.take_channel(0);
        let s1 = sc.take_channel(1);
        // Server: channel 1 echoes doubled, channel 0 echoes +1 — each on
        // its own thread, interleaving on one socket.
        let h0 = std::thread::spawn(move || {
            for _ in 0..16 {
                let v = s0.recv()[0];
                s0.send(&[v + 1]);
            }
            s0
        });
        let h1 = std::thread::spawn(move || {
            for _ in 0..16 {
                let v = s1.recv()[0];
                s1.send(&[v * 2]);
            }
            s1
        });
        let hc1 = std::thread::spawn(move || {
            for i in 0..16u8 {
                c1.send(&[i]);
                assert_eq!(c1.recv(), vec![i * 2]);
            }
            c1
        });
        for i in 0..16u8 {
            c0.send(&[i]);
            assert_eq!(c0.recv(), vec![i + 1]);
        }
        let c1 = hc1.join().expect("client ch1");
        let s0 = h0.join().expect("server ch0");
        let s1 = h1.join().expect("server ch1");
        // Per-channel meters stay separate and balanced.
        for (a, b) in [(&c0, &s0), (&c1, &s1)] {
            let ca = crate::metering::TrafficSnapshot::capture(a.meter());
            let cb = crate::metering::TrafficSnapshot::capture(b.meter());
            assert_eq!(ca, cb);
            assert_eq!(ca.c2s_messages, 16);
            assert_eq!(ca.s2c_messages, 16);
        }
    }

    #[test]
    fn large_frames_roundtrip() {
        let (mut cc, mut sc) = loopback_pair();
        let ct = cc.take_channel(0);
        let st = sc.take_channel(0);
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let big2 = big.clone();
        let h = std::thread::spawn(move || {
            let got = st.recv();
            st.send(&got);
        });
        ct.send(&big);
        assert_eq!(ct.recv(), big2);
        h.join().expect("echo thread");
    }

    #[test]
    #[should_panic(expected = "dropped mid-protocol")]
    fn recv_after_peer_disconnect_panics() {
        let (mut cc, sc) = loopback_pair();
        let ct = cc.take_channel(0);
        drop(sc); // server side goes away entirely
        let _ = ct.recv();
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn channel_cannot_be_taken_twice() {
        let (mut cc, _sc) = loopback_pair();
        let _a = cc.take_channel(2);
        let _b = cc.take_channel(2);
    }
}
