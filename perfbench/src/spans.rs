//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, kept in memory and written as `trace-<workload>.jsonl` when
//! the workload ends. Nothing here reaches into the program — spans
//! inside it are a later change.
//!
//! The tree is `workload → session.{setup,refill,infer,serve_one} →
//! transport.{send,recv}`; the transport spans come from
//! [`TimedTransport`], a decorator each party's session calls through.
//! Spans of one query share its index.

use primer_net::{Meter, MeteredTransport, PollRecv, Transport};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// `query` of a span that belongs to no single query (set-up, a refill).
pub const NO_QUERY: u32 = u32::MAX;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub party: &'static str,
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What both parties' recorders share: one clock and one id space, so a
/// server span can name a client span as its parent.
#[derive(Debug, Clone)]
pub struct Clock {
    epoch: Instant,
    next_id: Arc<AtomicU32>,
}

impl Clock {
    pub fn start() -> Self {
        Self { epoch: Instant::now(), next_id: Arc::new(AtomicU32::new(0)) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One party's span recorder. Each party records from its own thread
/// (the lock is there so a reference can cross into that thread, and is
/// never contended); the finished spans are merged at the end.
#[derive(Debug)]
pub struct PartyTrace {
    clock: Clock,
    party: &'static str,
    state: Mutex<TraceState>,
}

#[derive(Debug)]
struct TraceState {
    /// The innermost open span: parent of whatever opens next.
    open: Option<u32>,
    query: u32,
    spans: Vec<Span>,
}

impl PartyTrace {
    /// A recorder whose top-level spans hang under `root`.
    pub fn new(clock: &Clock, party: &'static str, root: Option<u32>) -> Self {
        Self {
            clock: clock.clone(),
            party,
            state: Mutex::new(TraceState { open: root, query: NO_QUERY, spans: Vec::new() }),
        }
    }

    fn state(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().expect("no span is recorded while panicking")
    }

    /// Sets the query index the following spans belong to.
    pub fn set_query(&self, query: u32) {
        self.state().query = query;
    }

    /// Opens a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.clock.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.state().open.replace(id);
        SpanGuard { trace: self, id, parent, name, start_ns: self.clock.now_ns() }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.state.into_inner().expect("no span is recorded while panicking").spans
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    trace: &'a PartyTrace,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.trace.clock.now_ns();
        let mut state = self.trace.state();
        state.open = self.parent;
        let query = state.query;
        state.spans.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            party: self.trace.party,
            query,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Self time of `spans[idx]`: its duration minus the part of its interval
/// its direct children cover. Children may overlap each other and may
/// stick out of the parent; the union, clipped to the parent, is what
/// counts.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(me.id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, me.start_ns);
    for (start, end) in kids {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    me.duration_ns() - covered
}

/// Summed duration of one party's spans called `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str, party: &str) -> u64 {
    spans.iter().filter(|s| s.name == name && s.party == party).map(Span::duration_ns).sum()
}

/// Writes one JSON object per span, in start order.
///
/// # Errors
///
/// Propagates file errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in order {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let query = if s.query == NO_QUERY { "null".to_string() } else { s.query.to_string() };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"party\": \"{}\", \
             \"query_id\": {query}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.party, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A [`Transport`] decorator that times each call a party makes into its
/// transport and records it as a `transport.send` / `transport.recv`
/// span. A blocking `recv` is mostly waiting for the peer, which is what
/// `recv_wait` means.
pub struct TimedTransport<'a, T: MeteredTransport> {
    inner: &'a T,
    trace: &'a PartyTrace,
}

impl<'a, T: MeteredTransport> TimedTransport<'a, T> {
    pub fn new(inner: &'a T, trace: &'a PartyTrace) -> Self {
        Self { inner, trace }
    }
}

impl<T: MeteredTransport> Transport for TimedTransport<'_, T> {
    fn send(&self, bytes: &[u8]) {
        let _span = self.trace.enter("transport.send");
        self.inner.send(bytes);
    }

    fn send_owned(&self, bytes: Vec<u8>) {
        let _span = self.trace.enter("transport.send");
        self.inner.send_owned(bytes);
    }

    fn recv(&self) -> Vec<u8> {
        let _span = self.trace.enter("transport.recv");
        self.inner.recv()
    }

    fn try_recv(&self) -> PollRecv {
        self.inner.try_recv()
    }

    fn pending(&self) -> Option<usize> {
        self.inner.pending()
    }
}

impl<T: MeteredTransport> MeteredTransport for TimedTransport<'_, T> {
    fn meter(&self) -> &Arc<Meter> {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", party: "client", query: NO_QUERY, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(0, None, 100, 200),
            // Two overlapping children cover [110, 150) together.
            span(1, Some(0), 110, 140),
            span(2, Some(0), 130, 150),
            // A grandchild is its parent's business, not the root's.
            span(3, Some(1), 115, 120),
            // One child sticks out past the parent's end: clipped to [190, 200).
            span(4, Some(0), 190, 260),
            // A child wholly inside an earlier one adds nothing.
            span(5, Some(0), 120, 125),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 5);
        assert_eq!(self_time_ns(&spans, 3), 5);
        assert_eq!(total_ns(&spans, "s", "client"), 100 + 30 + 20 + 5 + 70 + 5);
        assert_eq!(total_ns(&spans, "s", "server"), 0);
    }

    #[test]
    fn guards_nest_and_share_the_query_index() {
        let clock = Clock::start();
        let client = PartyTrace::new(&clock, "client", None);
        let root = client.enter("workload");
        let server = PartyTrace::new(&clock, "server", Some(root.id()));
        client.set_query(3);
        {
            let _infer = client.enter("session.infer");
            let _send = client.enter("transport.send");
        }
        server.set_query(3);
        drop(server.enter("session.serve_one"));
        let root_id = root.id();
        drop(root);
        let mut spans = client.into_spans();
        spans.extend(server.into_spans());
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        assert_eq!(by_name("workload").parent, None);
        assert_eq!(by_name("session.infer").parent, Some(root_id));
        assert_eq!(by_name("transport.send").parent, Some(by_name("session.infer").id));
        assert_eq!(by_name("session.serve_one").parent, Some(root_id));
        assert_eq!(by_name("session.serve_one").party, "server");
        assert_eq!(by_name("transport.send").query, 3);
        assert_eq!(by_name("session.serve_one").query, 3);
        for s in &spans {
            assert!(s.start_ns <= s.end_ns);
        }
    }
}
