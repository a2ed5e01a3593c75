//! Traffic shaping: turn the analytic [`NetworkModel`] into *measured*
//! wall-clock by delaying real sends.
//!
//! [`ShapedTransport`] decorates any [`Transport`]; each send is
//! charged `latency + bytes / bandwidth` against a [`LinkShaper`] — a
//! serialization clock modeling one half-duplex sender link, the same
//! assumption [`NetworkModel::time_for`] makes. Crucially the shaper
//! can be **shared across the logical channels of one connection**
//! (`ShapedTransport::with_shaper`): a pipelined session whose offline
//! producer and online worker send concurrently still pushes at most
//! one link's bandwidth in aggregate, not one link per channel.
//!
//! Each party shapes its own sends, so shaping both directions of a
//! connection means wrapping both endpoints (the server's `--wan` flag
//! shapes server→client, the client's shapes client→server).

use crate::metering::Meter;
use crate::model::NetworkModel;
use crate::transport::{MeteredTransport, Transport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The serialization clock of one modeled sender link: sends queue
/// behind each other no matter which channel they leave on.
#[derive(Debug)]
pub struct LinkShaper {
    model: NetworkModel,
    /// When the modeled link finishes transmitting everything queued so
    /// far (`None` until the first send).
    free_at: Mutex<Option<Instant>>,
}

impl LinkShaper {
    /// A fresh link enforcing `model`.
    pub fn new(model: NetworkModel) -> Arc<Self> {
        Arc::new(Self { model, free_at: Mutex::new(None) })
    }

    /// The enforced model.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Charges one `bytes`-sized flight to the link and sleeps until
    /// the link has transmitted it.
    fn charge(&self, bytes: usize) {
        let cost = self.model.time_for(1, bytes as u64);
        if cost == Duration::ZERO {
            return;
        }
        let now = Instant::now();
        let wake = {
            let mut free_at = self.free_at.lock().expect("shaper mutex poisoned");
            let start = free_at.map_or(now, |t| t.max(now));
            let wake = start + cost;
            *free_at = Some(wake);
            wake
        };
        std::thread::sleep(wake.saturating_duration_since(now));
    }
}

/// A [`Transport`] decorator enforcing a latency/bandwidth model on
/// every send.
#[derive(Debug)]
pub struct ShapedTransport<T: Transport> {
    inner: T,
    shaper: Arc<LinkShaper>,
}

impl<T: Transport> ShapedTransport<T> {
    /// Wraps `inner` with a private link enforcing `model`.
    pub fn new(inner: T, model: NetworkModel) -> Self {
        Self { inner, shaper: LinkShaper::new(model) }
    }

    /// Wraps `inner` charging sends to a **shared** link — use one
    /// shaper for every channel of a connection.
    pub fn with_shaper(inner: T, shaper: Arc<LinkShaper>) -> Self {
        Self { inner, shaper }
    }

    /// The enforced model.
    pub fn model(&self) -> &NetworkModel {
        self.shaper.model()
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for ShapedTransport<T> {
    fn send(&self, bytes: &[u8]) {
        self.shaper.charge(bytes.len());
        self.inner.send(bytes);
    }

    fn send_owned(&self, bytes: Vec<u8>) {
        self.shaper.charge(bytes.len());
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

    // Shaping charges sends only; polls pass straight through.
    fn try_recv(&self) -> crate::transport::PollRecv {
        self.inner.try_recv()
    }

    fn pending(&self) -> Option<usize> {
        self.inner.pending()
    }
}

impl<T: MeteredTransport> MeteredTransport for ShapedTransport<T> {
    fn meter(&self) -> &Arc<Meter> {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemTransport;
    use crate::metering::TrafficSnapshot;

    /// The satellite cross-check: replaying a synthetic transcript over a
    /// shaped transport must take the wall-clock the analytic model
    /// predicts for the metered traffic, within tolerance.
    #[test]
    fn measured_wall_clock_matches_network_model() {
        // 5 ms latency, 10 MB/s — big enough that scheduler noise is
        // small relative to the modeled time, small enough for a test.
        let model = NetworkModel {
            latency: Duration::from_millis(5),
            bandwidth_bps: 10.0e6,
        };
        let (ct, st, meter) = MemTransport::pair();
        let shaped_c = ShapedTransport::new(ct, model);
        let shaped_s = ShapedTransport::new(st, model);
        // Synthetic transcript: 4 rounds of (client 64 KiB request,
        // server 192 KiB response) = 8 flights, 1 MiB total.
        let echo = std::thread::spawn(move || {
            for _ in 0..4 {
                let _ = shaped_s.recv();
                shaped_s.send_owned(vec![7u8; 192 * 1024]);
            }
        });
        let start = Instant::now();
        for _ in 0..4 {
            shaped_c.send_owned(vec![3u8; 64 * 1024]);
            let resp = shaped_c.recv();
            assert_eq!(resp.len(), 192 * 1024);
        }
        let measured = start.elapsed();
        echo.join().expect("echo thread");

        let snap = TrafficSnapshot::capture(&meter);
        assert_eq!(snap.total_messages(), 8);
        let modeled = model.time_for_snapshot(&snap);
        // Sequential transcript: every flight is on the critical path,
        // so measured ≈ modeled. sleep() only overshoots, so allow 50%
        // + 50 ms headroom for scheduling and require ≥ modeled.
        assert!(
            measured >= modeled,
            "measured {measured:?} must not beat the model {modeled:?}"
        );
        let ceiling = modeled.mul_f64(1.5) + Duration::from_millis(50);
        assert!(
            measured <= ceiling,
            "measured {measured:?} far above modeled {modeled:?} (ceiling {ceiling:?})"
        );
    }

    /// Two channels charging one shared link serialize: the aggregate
    /// cannot exceed the single modeled bandwidth (the pipelined
    /// serving case — offline + online channels, one physical link).
    #[test]
    fn shared_link_serializes_concurrent_channels() {
        let model = NetworkModel {
            latency: Duration::ZERO,
            bandwidth_bps: 10.0e6, // 10 MB/s
        };
        let shaper = LinkShaper::new(model);
        let (c0, s0, _) = MemTransport::pair();
        let (c1, s1, _) = MemTransport::pair();
        let a = ShapedTransport::with_shaper(c0, Arc::clone(&shaper));
        let b = ShapedTransport::with_shaper(c1, Arc::clone(&shaper));
        // 2 × 500 KB concurrently over one 10 MB/s link = ≥ 100 ms.
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            b.send_owned(vec![1u8; 500_000]);
        });
        a.send_owned(vec![2u8; 500_000]);
        t.join().expect("sender thread");
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(100),
            "two channels beat the shared link: {elapsed:?}"
        );
        assert_eq!(s0.recv().len(), 500_000);
        assert_eq!(s1.recv().len(), 500_000);
    }

    /// A shaped endpoint recycles into, and takes buffers from, the
    /// pool of the transport it wraps.
    #[test]
    fn buffers_and_recycling_pass_through() {
        let (ct, st, _) = MemTransport::pair();
        let shaped_c = ShapedTransport::new(ct, NetworkModel::ideal());
        let shaped_s = ShapedTransport::new(st, NetworkModel::ideal());
        let frame = Vec::<u8>::with_capacity(2 << 20);
        let ptr = frame.as_ptr();
        shaped_s.recycle(frame);
        let reused = shaped_c.buffer(2 << 20);
        assert_eq!(reused.as_ptr(), ptr);
    }

    #[test]
    fn ideal_model_adds_nothing_and_meters_pass_through() {
        let (ct, st, meter) = MemTransport::pair();
        let shaped = ShapedTransport::new(ct, NetworkModel::ideal());
        let h = std::thread::spawn(move || {
            let got = st.recv();
            st.send(&[1, 2, 3]);
            got
        });
        shaped.send(&[9, 9]);
        assert_eq!(shaped.recv(), vec![1, 2, 3]);
        h.join().expect("peer");
        assert!(Arc::ptr_eq(shaped.meter(), &meter));
        assert_eq!(meter.total_messages(), 2);
    }
}
