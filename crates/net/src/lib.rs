//! Metered transports and network time models for two-party protocols.
//!
//! Three transports, one [`Transport`] trait:
//!
//! * [`MemTransport`] — in-process channel pair for tests and the
//!   single-process engine; client and server run as threads.
//! * [`tcp::TcpTransport`] — a real socket, length-framed and
//!   multiplexed into up to [`tcp::NUM_CHANNELS`] logical channels so a
//!   session's offline producer can overlap its online queries on one
//!   connection (see `primer_serve`).
//! * [`ShapedTransport`] — a decorator that *enforces* a
//!   [`NetworkModel`] (paper LAN: 2.3 ms / 100 MB/s; WAN: 40 ms /
//!   9 MB/s) by delaying sends, so LAN/WAN numbers are measured rather
//!   than modeled.
//!
//! Every byte and message is metered; [`NetworkModel`] converts metered
//! traffic (Table III's "Message GB") into analytic network time when a
//! run uses the unshaped transports.
//!
//! ```
//! use primer_net::{run_two_party, Transport};
//! let (doubled, _, meter) = run_two_party(
//!     |t| {
//!         t.send(&[21]);
//!         t.recv()[0]
//!     },
//!     |t| {
//!         let x = t.recv()[0];
//!         t.send(&[x * 2]);
//!     },
//! );
//! assert_eq!(doubled, 42);
//! assert_eq!(meter.total_messages(), 2);
//! ```

mod frame;
pub mod mem;
pub mod metering;
pub mod model;
pub mod nonblock;
pub mod recording;
pub mod shaped;
pub mod tcp;
pub mod transport;

pub use mem::{run_two_party, run_two_party_persistent, MemTransport};
pub use metering::{Meter, TrafficSnapshot};
pub use model::NetworkModel;
pub use nonblock::NbConn;
pub use recording::{RecordingTransport, TranscriptHandle};
pub use shaped::{LinkShaper, ShapedTransport};
pub use tcp::{TcpConnection, TcpTransport};
pub use transport::{MeteredTransport, PollRecv, Transport};
