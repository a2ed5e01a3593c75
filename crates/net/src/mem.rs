//! In-process channel transport between two party threads.

use crate::metering::Meter;
use crate::transport::{MeteredTransport, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Smallest buffer the frame pool keeps: below it an allocation is cheap
/// and its pages few. Label and OT flights stay under it; garbled frames
/// of any size that matters are over it.
const RECYCLE_MIN: usize = 1 << 20;

/// Frames handed back by either endpoint of one in-memory link, for the
/// next [`Transport::buffer`] on either. It holds only buffers of at
/// least [`RECYCLE_MIN`] bytes, and never more than the link already had
/// in flight: a request takes the smallest buffer that fits, and a miss
/// frees the largest one that does not before allocating.
#[derive(Debug, Default)]
struct FramePool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl FramePool {
    fn take(&self, len: usize) -> Vec<u8> {
        if len < RECYCLE_MIN {
            return Vec::with_capacity(len);
        }
        let mut bufs = self.bufs.lock().expect("frame pool mutex poisoned");
        let best = (0..bufs.len())
            .filter(|&i| bufs[i].capacity() >= len)
            .min_by_key(|&i| bufs[i].capacity());
        if let Some(i) = best {
            let mut buf = bufs.swap_remove(i);
            buf.clear();
            return buf;
        }
        if let Some(i) = (0..bufs.len()).max_by_key(|&i| bufs[i].capacity()) {
            drop(bufs.swap_remove(i));
        }
        drop(bufs);
        Vec::with_capacity(len)
    }

    fn put(&self, buf: Vec<u8>) {
        if buf.capacity() >= RECYCLE_MIN {
            self.bufs.lock().expect("frame pool mutex poisoned").push(buf);
        }
    }
}

/// One endpoint of an in-memory duplex channel.
#[derive(Debug)]
pub struct MemTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    meter: Arc<Meter>,
    is_client: bool,
    /// Shared with the other endpoint: what the evaluator recycles, the
    /// garbler garbles into next.
    pool: Arc<FramePool>,
}

impl MemTransport {
    /// Creates a connected (client, server) endpoint pair sharing a meter
    /// and a pool of recycled frames.
    pub fn pair() -> (MemTransport, MemTransport, Arc<Meter>) {
        let meter = Meter::new();
        let pool = Arc::new(FramePool::default());
        let (tx_c2s, rx_c2s) = unbounded();
        let (tx_s2c, rx_s2c) = unbounded();
        let client = MemTransport {
            tx: tx_c2s,
            rx: rx_s2c,
            meter: Arc::clone(&meter),
            is_client: true,
            pool: Arc::clone(&pool),
        };
        let server = MemTransport {
            tx: tx_s2c,
            rx: rx_c2s,
            meter: Arc::clone(&meter),
            is_client: false,
            pool,
        };
        (client, server, meter)
    }

    /// The shared traffic meter.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }
}

impl Transport for MemTransport {
    fn send(&self, bytes: &[u8]) {
        self.send_owned(bytes.to_vec());
    }

    /// Owned sends move straight into the channel — the in-process hot
    /// path stays zero-copy.
    fn send_owned(&self, bytes: Vec<u8>) {
        if self.is_client {
            self.meter.c2s.record(bytes.len());
        } else {
            self.meter.s2c.record(bytes.len());
        }
        self.tx.send(bytes).expect("peer endpoint dropped mid-protocol");
    }

    fn buffer(&self, len: usize) -> Vec<u8> {
        self.pool.take(len)
    }

    fn recycle(&self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    fn recv(&self) -> Vec<u8> {
        self.rx.recv().expect("peer endpoint dropped mid-protocol")
    }

    fn try_recv(&self) -> crate::transport::PollRecv {
        match self.rx.try_recv() {
            Ok(Some(bytes)) => crate::transport::PollRecv::Frame(bytes),
            Ok(None) => crate::transport::PollRecv::Empty,
            Err(_) => crate::transport::PollRecv::Disconnected,
        }
    }

    fn pending(&self) -> Option<usize> {
        Some(self.rx.len())
    }
}

impl MeteredTransport for MemTransport {
    fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }
}

/// Runs a two-party protocol: `client` and `server` closures execute on
/// their own threads with connected transports; returns both results and
/// the shared meter.
///
/// # Panics
///
/// Propagates panics from either party (protocol bugs fail loudly).
pub fn run_two_party<C, S, RC, RS>(client: C, server: S) -> (RC, RS, Arc<Meter>)
where
    C: FnOnce(MemTransport) -> RC + Send + 'static,
    S: FnOnce(MemTransport) -> RS + Send + 'static,
    RC: Send + 'static,
    RS: Send + 'static,
{
    let (ct, st, meter) = MemTransport::pair();
    let server_handle = std::thread::spawn(move || server(st));
    let client_out = client(ct);
    let server_out = server_handle.join().expect("server thread panicked");
    (client_out, server_out, meter)
}

/// Runs a **persistent** two-party protocol: one client/server thread
/// pair stays connected over a single [`MemTransport`] pair across many
/// protocol rounds (the serving model of the session engine).
///
/// Each party first runs its `setup` closure exactly once (key exchange,
/// weight preparation, …) producing its long-lived session state, then
/// its `round` closure once per query: the client consumes one query per
/// round, the server is driven by the round index alone (it never sees
/// the queries). Both parties execute the same number of rounds, so the
/// message schedule stays in lockstep by construction.
///
/// # Panics
///
/// Propagates panics from either party (protocol bugs fail loudly).
#[allow(clippy::type_complexity)]
pub fn run_two_party_persistent<Q, CSetup, CState, CRound, RC, SSetup, SState, SRound, RS>(
    queries: Vec<Q>,
    client_setup: CSetup,
    client_round: CRound,
    server_setup: SSetup,
    server_round: SRound,
) -> (Vec<RC>, Vec<RS>, Arc<Meter>)
where
    Q: Send + 'static,
    CSetup: FnOnce(&MemTransport) -> CState + Send + 'static,
    CRound: FnMut(&mut CState, Q, &MemTransport) -> RC + Send + 'static,
    RC: Send + 'static,
    SSetup: FnOnce(&MemTransport) -> SState + Send + 'static,
    SRound: FnMut(&mut SState, usize, &MemTransport) -> RS + Send + 'static,
    RS: Send + 'static,
{
    let rounds = queries.len();
    let (ct, st, meter) = MemTransport::pair();
    let server_handle = std::thread::spawn(move || {
        let mut state = server_setup(&st);
        let mut round = server_round;
        (0..rounds).map(|i| round(&mut state, i, &st)).collect::<Vec<RS>>()
    });
    let mut state = client_setup(&ct);
    let mut round = client_round;
    let client_out: Vec<RC> =
        queries.into_iter().map(|q| round(&mut state, q, &ct)).collect();
    let server_out = server_handle.join().expect("server thread panicked");
    (client_out, server_out, meter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let (c, s, meter) = MemTransport::pair();
        let h = std::thread::spawn(move || {
            let msg = s.recv();
            s.send(&[msg.iter().sum::<u8>()]);
        });
        c.send(&[1, 2, 3]);
        let reply = c.recv();
        h.join().expect("server ok");
        assert_eq!(reply, vec![6]);
        assert_eq!(meter.c2s.messages(), 1);
        assert_eq!(meter.s2c.messages(), 1);
        assert!(meter.total_bytes() > 0);
    }

    #[test]
    fn persistent_parties_share_setup_state_across_rounds() {
        // Client sends a per-session base during setup; every round adds
        // a query to it on the server and returns the sum. The base is
        // exchanged exactly once, proving the transport pair persists.
        let (c_out, s_out, meter) = run_two_party_persistent(
            vec![10u8, 20, 30],
            |t: &MemTransport| {
                t.send(&[100]);
                0u64 // client state: rounds seen
            },
            |seen: &mut u64, q: u8, t: &MemTransport| {
                *seen += 1;
                t.send(&[q]);
                t.recv()[0]
            },
            |t: &MemTransport| t.recv()[0], // server state: base
            |base: &mut u8, round: usize, t: &MemTransport| {
                let q = t.recv()[0];
                t.send(&[*base + q]);
                round
            },
        );
        assert_eq!(c_out, vec![110, 120, 130]);
        assert_eq!(s_out, vec![0, 1, 2]);
        // 1 setup flight + 2 flights per round.
        assert_eq!(meter.total_messages(), 1 + 2 * 3);
    }

    #[test]
    fn persistent_parties_with_no_rounds_still_run_setup() {
        let (c_out, s_out, meter) = run_two_party_persistent(
            Vec::<u64>::new(),
            |t: &MemTransport| t.send(&[1, 2, 3]),
            |_: &mut (), q: u64, _: &MemTransport| q,
            |t: &MemTransport| t.recv().len(),
            |len: &mut usize, _: usize, _: &MemTransport| *len,
        );
        assert!(c_out.is_empty());
        assert!(s_out.is_empty());
        assert_eq!(meter.total_messages(), 1);
    }

    const MIB: usize = 1 << 20;

    /// Capacities of the pool's buffers, smallest first.
    fn pooled(t: &MemTransport) -> Vec<usize> {
        let mut caps: Vec<usize> =
            t.pool.bufs.lock().expect("pool").iter().map(Vec::capacity).collect();
        caps.sort_unstable();
        caps
    }

    #[test]
    fn buffers_under_a_mebibyte_are_not_kept() {
        let (c, _s, _) = MemTransport::pair();
        c.recycle(Vec::with_capacity(MIB - 1));
        c.recycle(Vec::new());
        assert!(pooled(&c).is_empty());
        c.recycle(Vec::with_capacity(MIB));
        assert_eq!(pooled(&c), [MIB]);
        // A small request never takes a pooled frame.
        assert!(c.buffer(MIB - 1).capacity() < MIB);
        assert_eq!(pooled(&c), [MIB]);
    }

    #[test]
    fn a_request_takes_the_best_fit() {
        let (c, _s, _) = MemTransport::pair();
        let bufs = [4 * MIB, 2 * MIB, 3 * MIB].map(Vec::<u8>::with_capacity);
        let ptrs = bufs.each_ref().map(|b| b.as_ptr());
        for b in bufs {
            c.recycle(b);
        }
        let got = c.buffer(2 * MIB + 1);
        assert_eq!(got.as_ptr(), ptrs[2], "the 3 MiB buffer is the best fit");
        assert!(got.is_empty());
        assert_eq!(pooled(&c), [2 * MIB, 4 * MIB]);
    }

    #[test]
    fn a_miss_frees_the_largest_buffer_that_does_not_fit() {
        let (c, _s, _) = MemTransport::pair();
        for cap in [MIB, 3 * MIB, 2 * MIB] {
            c.recycle(Vec::with_capacity(cap));
        }
        let got = c.buffer(5 * MIB);
        assert!(got.capacity() >= 5 * MIB);
        assert_eq!(pooled(&c), [MIB, 2 * MIB]);
    }

    /// What one endpoint hands back, the other garbles into; a recycled
    /// buffer keeps its stale bytes but comes back empty.
    #[test]
    fn both_endpoints_share_the_pool() {
        let (c, s, _) = MemTransport::pair();
        let frame = vec![0xAA_u8; 2 * MIB];
        let ptr = frame.as_ptr();
        c.send_owned(frame);
        let received = s.recv();
        assert_eq!(received.as_ptr(), ptr, "in-memory sends move the buffer");
        s.recycle(received);
        let reused = c.buffer(2 * MIB);
        assert_eq!(reused.as_ptr(), ptr);
        assert!(reused.is_empty() && reused.capacity() >= 2 * MIB);
        assert!(pooled(&s).is_empty());
    }

    #[test]
    fn run_two_party_returns_both_results() {
        let (c_out, s_out, meter) = run_two_party(
            |t| {
                t.send(&[9]);
                t.recv()[0]
            },
            |t| {
                let v = t.recv()[0];
                t.send(&[v + 1]);
                v
            },
        );
        assert_eq!(c_out, 10);
        assert_eq!(s_out, 9);
        assert_eq!(meter.total_messages(), 2);
    }
}
