//! In-tree observability: per-worker metrics, span timing, event tracing.
//!
//! A run emits three kinds of telemetry, all zero-dependency and cheap
//! enough to stay on by default (DESIGN.md §11):
//!
//! * **Counters** — monotonic per-worker atomics ([`Counter`] catalogues
//!   them): move/eval work, drop/add split, aspiration hits, tabu
//!   rejections, message and byte traffic, restarts, dropped stale
//!   epochs, checkpoint volume. For a fault-free seeded run every counter
//!   is a deterministic function of `RunConfig::seed`, which is what lets
//!   the test suite assert on them and lets `--metrics` promise
//!   byte-identical JSON across repeats.
//! * **Spans** — RAII timing of labelled regions ([`SpanKind`]) over a
//!   pluggable [`Clock`]: the production [`MonoClock`] reads a monotonic
//!   timer, the deterministic [`TestClock`] is hand-advanced by tests.
//!   Per (worker, kind) the registry keeps count/total/max plus a
//!   decimating reservoir for p50/p95 — wall-clock figures, so they go to
//!   the `--trace` stream, never the deterministic metrics document.
//! * **Events** — a bounded per-worker ring ([`EventKind`]: re-tune,
//!   quarantine, resurrection, new incumbent, checkpoint) stamped with a
//!   global sequence number; [`Telemetry::snapshot`] merges the rings
//!   into one causally-ordered trace, keeping the newest events and
//!   counting what overflowed.
//!
//! Transport: the engine shares one [`Telemetry`] by `Arc` across the
//! master and slave closures — pvm-lite runs every task in one process,
//! so observability does not need to ride the message-passing discipline
//! (the PVM analogue is XPVM's out-of-band tracing). The wire protocol is
//! untouched.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Fixed-order catalogue of the per-worker counters. The declaration
/// order is the canonical order in the metrics JSON document, so adding
/// a counter is a (backwards-compatible) schema extension, not a
/// reshuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Tabu-search moves executed (drop/add exchanges applied).
    MovesExecuted,
    /// Candidate evaluations spent (the budget currency).
    CandidateEvals,
    /// Items dropped by executed moves.
    Drops,
    /// Items added by executed moves.
    Adds,
    /// Tabu candidates admitted by the aspiration criterion.
    AspirationHits,
    /// Candidates rejected because they were tabu (and not aspired).
    TabuRejections,
    /// Long-term History transplants applied from a SEED message.
    HistoryResets,
    /// Deepest infeasible excursion reached by strategic oscillation
    /// (a high-water gauge: merged by max, not sum).
    OscillationMaxDepth,
    /// Envelopes this task sent (pvm-lite transport count).
    MsgsSent,
    /// Envelopes delivered into this task's mailbox.
    MsgsReceived,
    /// Payload bytes this task encoded and sent.
    BytesSent,
    /// Payload bytes delivered into this task's mailbox.
    BytesReceived,
    /// ProblemMsg sends by the master (broadcast + resurrection resends).
    ProblemMsgsSent,
    /// SeedMsg (History transplant) sends by the master.
    SeedMsgsSent,
    /// AssignMsg sends by the master.
    AssignMsgsSent,
    /// Reports the master accepted (current-epoch, needed).
    ReportsReceived,
    /// Worker restart attempts consumed (resurrection machinery).
    Restarts,
    /// Reports dropped because their incarnation epoch was stale.
    EpochsDropped,
    /// Socket transport: connections accepted beyond a slot's first
    /// (remote slave rebirths).
    Reconnects,
    /// Socket transport: frames dropped because their connection
    /// generation was fenced off by a respawn.
    FencedDrops,
    /// Reports ignored as stale for non-epoch reasons (quarantined
    /// sender, already reported this round).
    StaleIgnored,
    /// Times a report improved the master's global best.
    IncumbentUpdates,
    /// Strategy regenerations (CTS2 re-tunes) triggered by reports.
    Retunes,
    /// Checkpoint snapshots written.
    CheckpointsWritten,
    /// Bytes of checkpoint snapshots written.
    CheckpointBytes,
    /// Events lost to ring-buffer overflow (filled at snapshot time).
    EventsDropped,
    /// Socket transport: frames that arrived damaged (checksum
    /// mismatch) and were dropped without desynchronising the stream.
    CorruptDrops,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 27;

impl Counter {
    /// Every counter, in canonical (declaration) order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::MovesExecuted,
        Counter::CandidateEvals,
        Counter::Drops,
        Counter::Adds,
        Counter::AspirationHits,
        Counter::TabuRejections,
        Counter::HistoryResets,
        Counter::OscillationMaxDepth,
        Counter::MsgsSent,
        Counter::MsgsReceived,
        Counter::BytesSent,
        Counter::BytesReceived,
        Counter::ProblemMsgsSent,
        Counter::SeedMsgsSent,
        Counter::AssignMsgsSent,
        Counter::ReportsReceived,
        Counter::Restarts,
        Counter::EpochsDropped,
        Counter::Reconnects,
        Counter::FencedDrops,
        Counter::StaleIgnored,
        Counter::IncumbentUpdates,
        Counter::Retunes,
        Counter::CheckpointsWritten,
        Counter::CheckpointBytes,
        Counter::EventsDropped,
        Counter::CorruptDrops,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MovesExecuted => "moves_executed",
            Counter::CandidateEvals => "candidate_evals",
            Counter::Drops => "drops",
            Counter::Adds => "adds",
            Counter::AspirationHits => "aspiration_hits",
            Counter::TabuRejections => "tabu_rejections",
            Counter::HistoryResets => "history_resets",
            Counter::OscillationMaxDepth => "oscillation_max_depth",
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsReceived => "msgs_received",
            Counter::BytesSent => "bytes_sent",
            Counter::BytesReceived => "bytes_received",
            Counter::ProblemMsgsSent => "problem_msgs_sent",
            Counter::SeedMsgsSent => "seed_msgs_sent",
            Counter::AssignMsgsSent => "assign_msgs_sent",
            Counter::ReportsReceived => "reports_received",
            Counter::Restarts => "restarts",
            Counter::EpochsDropped => "epochs_dropped",
            Counter::Reconnects => "reconnects",
            Counter::FencedDrops => "fenced_drops",
            Counter::StaleIgnored => "stale_ignored",
            Counter::IncumbentUpdates => "incumbent_updates",
            Counter::Retunes => "retunes",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::EventsDropped => "events_dropped",
            Counter::CorruptDrops => "corrupt_drops",
        }
    }

    /// Whether per-worker values merge into the totals row by max
    /// (high-water gauges) instead of sum.
    pub fn merges_by_max(self) -> bool {
        matches!(self, Counter::OscillationMaxDepth)
    }
}

/// Timed regions. Like counters, the declaration order is canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One master round (synchronous: per rendezvous; pipelined: the
    /// report-driven stretch between two cuts, the whole run unless it
    /// checkpoints or parks).
    Round,
    /// Master waiting on / draining worker reports.
    Gather,
    /// Master building and sending assignments.
    Assign,
    /// A slave's tabu-search inner loop (one assignment served).
    TsInner,
    /// Serializing and writing a checkpoint snapshot.
    SnapshotWrite,
}

/// Number of [`SpanKind`] variants.
pub const SPAN_KIND_COUNT: usize = 5;

impl SpanKind {
    /// Every span kind, in canonical order.
    pub const ALL: [SpanKind; SPAN_KIND_COUNT] = [
        SpanKind::Round,
        SpanKind::Gather,
        SpanKind::Assign,
        SpanKind::TsInner,
        SpanKind::SnapshotWrite,
    ];

    /// Stable snake_case name used in the trace stream.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Gather => "gather",
            SpanKind::Assign => "assign",
            SpanKind::TsInner => "ts_inner",
            SpanKind::SnapshotWrite => "snapshot_write",
        }
    }
}

/// Traced occurrences (the low-rate, high-signal moments of a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The master regenerated a slave's strategy (CTS2 dynamic tuning).
    Retune,
    /// A worker was permanently quarantined.
    Quarantine,
    /// A worker was successfully resurrected.
    Resurrection,
    /// The global best improved.
    NewIncumbent,
    /// A checkpoint snapshot hit the disk.
    Checkpoint,
}

impl EventKind {
    /// Stable snake_case name used in the trace stream.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Retune => "retune",
            EventKind::Quarantine => "quarantine",
            EventKind::Resurrection => "resurrection",
            EventKind::NewIncumbent => "new_incumbent",
            EventKind::Checkpoint => "checkpoint",
        }
    }
}

/// One traced occurrence. `seq` is a global (cross-worker) sequence
/// number: sorting by it reconstructs the causal order in which events
/// were recorded, regardless of which ring they sat in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global causal sequence number.
    pub seq: u64,
    /// Clock reading when the event was recorded.
    pub t_ns: u64,
    /// Recording task (0 = master).
    pub task: usize,
    /// What happened.
    pub kind: EventKind,
    /// Master round the event belongs to.
    pub round: usize,
    /// Kind-specific payload (objective for incumbents, worker for
    /// quarantine/resurrection, bytes for checkpoints, …).
    pub value: i64,
}

/// Time source for spans and event stamps. Implementations must be
/// monotonic per clock instance.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// Production clock: [`Instant`]-based monotonic time since construction.
#[derive(Debug)]
pub struct MonoClock {
    origin: Instant,
}

impl MonoClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        MonoClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock::new()
    }
}

impl Clock for MonoClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic test clock: time moves only when a test advances it.
#[derive(Debug, Default)]
pub struct TestClock {
    now: AtomicU64,
}

impl TestClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        TestClock::default()
    }

    /// Advance the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// Capacity of each span-duration reservoir. When full, the reservoir
/// decimates: every second retained sample is dropped and the keep
/// stride doubles, so an arbitrarily long run keeps a deterministic,
/// evenly-thinned subset.
const RESERVOIR_CAP: usize = 512;

/// Default per-worker event-ring capacity.
const EVENT_RING_CAP: usize = 256;

/// Per-(worker, kind) span aggregation.
#[derive(Debug, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    /// Every `stride`-th duration, in record order.
    reservoir: Vec<u64>,
    stride: u64,
}

impl SpanAgg {
    fn new() -> Self {
        SpanAgg {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            reservoir: Vec::new(),
            stride: 1,
        }
    }

    fn record(&mut self, ns: u64) {
        if self.count.is_multiple_of(self.stride) {
            if self.reservoir.len() == RESERVOIR_CAP {
                // Decimate deterministically: keep indices 0, 2, 4, …
                let mut keep = 0;
                for i in (0..self.reservoir.len()).step_by(2) {
                    self.reservoir[keep] = self.reservoir[i];
                    keep += 1;
                }
                self.reservoir.truncate(keep);
                self.stride *= 2;
            }
            if self.count.is_multiple_of(self.stride) {
                self.reservoir.push(ns);
            }
        }
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }
}

/// Bounded newest-wins event buffer.
#[derive(Debug)]
struct EventRing {
    buf: std::collections::VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    fn new(cap: usize) -> Self {
        EventRing {
            buf: std::collections::VecDeque::with_capacity(cap.min(64)),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Per-task telemetry slot.
struct WorkerSlot {
    counters: [AtomicU64; COUNTER_COUNT],
    spans: Mutex<[SpanAgg; SPAN_KIND_COUNT]>,
    events: Mutex<EventRing>,
}

impl WorkerSlot {
    fn new(event_cap: usize) -> Self {
        WorkerSlot {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(std::array::from_fn(|_| SpanAgg::new())),
            events: Mutex::new(EventRing::new(event_cap)),
        }
    }
}

/// The shared telemetry registry of one run: one slot per pool task
/// (index 0 is the master). Cloned by `Arc` into every task closure;
/// counter writes are `Relaxed` atomics — the pool join that ends the
/// run is the synchronization point before the master snapshots them.
pub struct Telemetry {
    enabled: bool,
    clock: Arc<dyn Clock>,
    slots: Vec<WorkerSlot>,
    seq: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("ntasks", &self.slots.len())
            .finish()
    }
}

impl Telemetry {
    fn build(ntasks: usize, clock: Arc<dyn Clock>, event_cap: usize, enabled: bool) -> Arc<Self> {
        Arc::new(Telemetry {
            enabled,
            clock,
            slots: (0..ntasks).map(|_| WorkerSlot::new(event_cap)).collect(),
            seq: AtomicU64::new(0),
        })
    }

    /// An enabled registry over the production [`MonoClock`].
    pub fn new(ntasks: usize) -> Arc<Self> {
        Telemetry::build(ntasks, Arc::new(MonoClock::new()), EVENT_RING_CAP, true)
    }

    /// An enabled registry over an explicit clock (tests).
    pub fn with_clock(ntasks: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        Telemetry::build(ntasks, clock, EVENT_RING_CAP, true)
    }

    /// An enabled registry with a custom event-ring capacity (overflow
    /// tests, or trimming memory on huge farms).
    pub fn with_event_capacity(ntasks: usize, event_cap: usize) -> Arc<Self> {
        assert!(event_cap >= 1, "an event ring needs at least one slot");
        Telemetry::build(ntasks, Arc::new(MonoClock::new()), event_cap, true)
    }

    /// A no-op registry: every record call returns immediately. The
    /// overhead-measurement baseline.
    pub fn disabled(ntasks: usize) -> Arc<Self> {
        Telemetry::build(ntasks, Arc::new(MonoClock::new()), 1, false)
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of task slots.
    pub fn ntasks(&self) -> usize {
        self.slots.len()
    }

    /// Add `delta` to `task`'s `counter`.
    pub fn add(&self, task: usize, counter: Counter, delta: u64) {
        if !self.enabled || delta == 0 {
            return;
        }
        self.slots[task].counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise `task`'s `counter` to at least `value` (high-water gauges).
    pub fn record_max(&self, task: usize, counter: Counter, value: u64) {
        if !self.enabled || value == 0 {
            return;
        }
        self.slots[task].counters[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of `task`'s `counter`.
    pub fn counter(&self, task: usize, counter: Counter) -> u64 {
        self.slots[task].counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Open an RAII span: the region between this call and the returned
    /// guard's drop is recorded under (`task`, `kind`).
    pub fn span(&self, task: usize, kind: SpanKind) -> Span<'_> {
        let start_ns = if self.enabled { self.clock.now_ns() } else { 0 };
        Span {
            tel: self,
            task,
            kind,
            start_ns,
        }
    }

    fn record_span(&self, task: usize, kind: SpanKind, ns: u64) {
        let mut spans = self.slots[task]
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        spans[kind as usize].record(ns);
    }

    /// Record an event into `task`'s ring (newest-wins on overflow).
    pub fn event(&self, task: usize, kind: EventKind, round: usize, value: i64) {
        if !self.enabled {
            return;
        }
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t_ns: self.clock.now_ns(),
            task,
            kind,
            round,
            value,
        };
        self.slots[task]
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// Freeze everything into a plain-data snapshot: counter matrix,
    /// span summaries, and the causally-merged event trace.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = Vec::with_capacity(self.slots.len());
        let mut spans = Vec::with_capacity(self.slots.len());
        let mut events = Vec::new();
        for slot in &self.slots {
            let mut row = [0u64; COUNTER_COUNT];
            for (i, cell) in slot.counters.iter().enumerate() {
                row[i] = cell.load(Ordering::Relaxed);
            }
            let ring = slot.events.lock().unwrap_or_else(PoisonError::into_inner);
            row[Counter::EventsDropped as usize] = ring.dropped;
            events.extend(ring.buf.iter().cloned());
            drop(ring);
            counters.push(row);

            let aggs = slot.spans.lock().unwrap_or_else(PoisonError::into_inner);
            let mut summaries = Vec::new();
            for kind in SpanKind::ALL {
                let agg = &aggs[kind as usize];
                if agg.count == 0 {
                    continue;
                }
                let mut sorted = agg.reservoir.clone();
                sorted.sort_unstable();
                summaries.push(SpanSummary {
                    kind,
                    count: agg.count,
                    total_ns: agg.total_ns,
                    max_ns: agg.max_ns,
                    p50_ns: percentile(&sorted, 50),
                    p95_ns: percentile(&sorted, 95),
                });
            }
            spans.push(summaries);
        }
        events.sort_by_key(|e| e.seq);
        TelemetrySnapshot {
            counters,
            spans,
            events,
        }
    }
}

/// Floor-rank percentile of an ascending-sorted sample (0 for empty):
/// the element at index `⌊p·(len−1)/100⌋`, so p50 of `1..=100` is 50.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = p * (sorted.len() as u64 - 1) / 100;
    sorted[rank as usize]
}

/// RAII span guard: records the elapsed region on drop.
pub struct Span<'a> {
    tel: &'a Telemetry,
    task: usize,
    kind: SpanKind,
    start_ns: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tel.enabled {
            return;
        }
        let ns = self.tel.clock.now_ns().saturating_sub(self.start_ns);
        self.tel.record_span(self.task, self.kind, ns);
    }
}

/// A span's frozen aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Which region.
    pub kind: SpanKind,
    /// Number of times the region ran.
    pub count: u64,
    /// Sum of all durations.
    pub total_ns: u64,
    /// Longest single duration.
    pub max_ns: u64,
    /// Median duration (over the decimated reservoir).
    pub p50_ns: u64,
    /// 95th-percentile duration (over the decimated reservoir).
    pub p95_ns: u64,
}

/// Everything a finished run observed, as plain data (part of
/// `ModeReport`). `counters` is deterministic for seeded fault-free
/// runs; spans and event timestamps carry wall-clock time and are not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter matrix: `counters[task][counter as usize]`.
    pub counters: Vec<[u64; COUNTER_COUNT]>,
    /// Span summaries per task (kinds with at least one record).
    pub spans: Vec<Vec<SpanSummary>>,
    /// Causally-ordered merged event trace.
    pub events: Vec<Event>,
}

/// Schema identifier of the metrics JSON document.
pub const METRICS_SCHEMA: &str = "mkp-telemetry/metrics/v1";

impl TelemetrySnapshot {
    /// Value of `task`'s `counter` (0 if the task is out of range).
    pub fn counter(&self, task: usize, counter: Counter) -> u64 {
        self.counters
            .get(task)
            .map_or(0, |row| row[counter as usize])
    }

    /// Counter merged across tasks (sum, or max for high-water gauges).
    pub fn total(&self, counter: Counter) -> u64 {
        let per_task = self.counters.iter().map(|row| row[counter as usize]);
        if counter.merges_by_max() {
            per_task.max().unwrap_or(0)
        } else {
            per_task.sum()
        }
    }

    /// `task`'s summary for `kind`, if that region ever ran.
    pub fn span(&self, task: usize, kind: SpanKind) -> Option<&SpanSummary> {
        self.spans.get(task)?.iter().find(|s| s.kind == kind)
    }

    /// The deterministic metrics document: counters only, fixed key
    /// order, so identical runs serialize to identical bytes.
    pub fn to_metrics_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
        out.push_str("  \"workers\": [\n");
        for (task, row) in self.counters.iter().enumerate() {
            let _ = write!(out, "    {{\"task\": {task}, \"counters\": {{");
            for (i, c) in Counter::ALL.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", c.name(), row[*c as usize]);
            }
            out.push_str("}}");
            out.push_str(if task + 1 < self.counters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"totals\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", c.name(), self.total(*c));
        }
        out.push_str("}\n}\n");
        out
    }

    /// The trace stream: one JSON object per line — span summaries first
    /// (per task, canonical kind order), then the causally-ordered
    /// events. Wall-clock figures live here, not in the metrics
    /// document.
    pub fn to_trace_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (task, summaries) in self.spans.iter().enumerate() {
            for s in summaries {
                let _ = writeln!(
                    out,
                    "{{\"type\": \"span\", \"task\": {task}, \"kind\": \"{}\", \
                     \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
                     \"max_ns\": {}}}",
                    s.kind.name(),
                    s.count,
                    s.total_ns,
                    s.p50_ns,
                    s.p95_ns,
                    s.max_ns,
                );
            }
        }
        for e in &self.events {
            let _ = writeln!(
                out,
                "{{\"type\": \"event\", \"seq\": {}, \"t_ns\": {}, \"task\": {}, \
                 \"kind\": \"{}\", \"round\": {}, \"value\": {}}}",
                e.seq,
                e.t_ns,
                e.task,
                e.kind.name(),
                e.round,
                e.value,
            );
        }
        out
    }
}

/// One worker's counters as read back from a metrics document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Task index (0 = master).
    pub task: usize,
    /// `(name, value)` pairs in document order. Unknown names are kept —
    /// a newer writer's extra counters must survive an older reader.
    pub counters: Vec<(String, u64)>,
}

impl WorkerCounters {
    /// Value of the counter called `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A metrics document read back from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsDoc {
    /// The document's schema string.
    pub schema: String,
    /// Per-worker counters, in document order.
    pub workers: Vec<WorkerCounters>,
}

/// Parse a metrics JSON document with the in-tree reader
/// ([`crate::json`]), tolerating unknown fields anywhere (forward
/// compatibility: newer writers may add fields and counters).
pub fn parse_metrics_json(text: &str) -> Result<MetricsDoc, String> {
    let root = Json::parse(text)?;
    let schema = match root.get("schema") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err("missing or non-string \"schema\"".into()),
    };
    let workers_json = match root.get("workers") {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing or non-array \"workers\"".into()),
    };
    let mut workers = Vec::with_capacity(workers_json.len());
    for (i, w) in workers_json.iter().enumerate() {
        let task = w
            .get("task")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("worker {i}: missing or non-integer \"task\""))?
            as usize;
        let counters_json = match w.get("counters") {
            Some(Json::Obj(fields)) => fields,
            _ => return Err(format!("worker {i}: missing or non-object \"counters\"")),
        };
        let mut counters = Vec::with_capacity(counters_json.len());
        for (name, value) in counters_json {
            let value = value.as_u64().ok_or_else(|| {
                format!("worker {i}: counter {name:?} is not a non-negative integer")
            })?;
            counters.push((name.clone(), value));
        }
        workers.push(WorkerCounters { task, counters });
    }
    Ok(MetricsDoc { schema, workers })
}

/// Validate a metrics document: parseable, right schema, at least one
/// worker, every catalogue counter present on every worker. Returns the
/// parsed document so callers can report on it.
pub fn validate_metrics_json(text: &str) -> Result<MetricsDoc, String> {
    let doc = parse_metrics_json(text)?;
    if doc.schema != METRICS_SCHEMA {
        return Err(format!("schema {:?} is not {METRICS_SCHEMA:?}", doc.schema));
    }
    if doc.workers.is_empty() {
        return Err("document has no workers".into());
    }
    for w in &doc.workers {
        for c in Counter::ALL {
            if w.get(c.name()).is_none() {
                return Err(format!(
                    "worker {} is missing counter {:?}",
                    w.task,
                    c.name()
                ));
            }
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_order_and_names_are_stable() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of order");
        }
        // Names are unique.
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }

    #[test]
    fn counters_accumulate_and_gauge_by_max() {
        let tel = Telemetry::new(2);
        tel.add(0, Counter::MovesExecuted, 3);
        tel.add(0, Counter::MovesExecuted, 4);
        tel.record_max(1, Counter::OscillationMaxDepth, 5);
        tel.record_max(1, Counter::OscillationMaxDepth, 2);
        assert_eq!(tel.counter(0, Counter::MovesExecuted), 7);
        assert_eq!(tel.counter(1, Counter::OscillationMaxDepth), 5);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(0, Counter::MovesExecuted), 7);
        assert_eq!(snap.total(Counter::MovesExecuted), 7);
        assert_eq!(snap.total(Counter::OscillationMaxDepth), 5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = Telemetry::disabled(1);
        tel.add(0, Counter::MovesExecuted, 9);
        tel.record_max(0, Counter::OscillationMaxDepth, 9);
        tel.event(0, EventKind::NewIncumbent, 0, 1);
        drop(tel.span(0, SpanKind::Round));
        let snap = tel.snapshot();
        assert_eq!(snap.counter(0, Counter::MovesExecuted), 0);
        assert!(snap.spans[0].is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn spans_aggregate_deterministically_under_test_clock() {
        let clock = Arc::new(TestClock::new());
        let tel = Telemetry::with_clock(1, clock.clone());
        // 100 spans of 1..=100 time units.
        for ns in 1..=100u64 {
            let span = tel.span(0, SpanKind::Gather);
            clock.advance(ns);
            drop(span);
        }
        let snap = tel.snapshot();
        let s = snap.span(0, SpanKind::Gather).expect("gather ran");
        assert_eq!(s.count, 100);
        assert_eq!(s.total_ns, (1..=100u64).sum::<u64>());
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
    }

    #[test]
    fn reservoir_decimates_but_keeps_max_and_count() {
        let clock = Arc::new(TestClock::new());
        let tel = Telemetry::with_clock(1, clock.clone());
        for ns in 1..=5_000u64 {
            let span = tel.span(0, SpanKind::TsInner);
            clock.advance(ns);
            drop(span);
        }
        let snap = tel.snapshot();
        let s = snap.span(0, SpanKind::TsInner).expect("spans ran");
        assert_eq!(s.count, 5_000);
        assert_eq!(s.max_ns, 5_000);
        // Percentiles come from a thinned sample but must stay in range
        // and ordered.
        assert!(s.p50_ns >= 1 && s.p50_ns <= 5_000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        // The decimated estimate stays close to the true quantile.
        assert!(
            (s.p50_ns as i64 - 2_500).unsigned_abs() < 250,
            "{}",
            s.p50_ns
        );
    }

    #[test]
    fn event_ring_overflow_keeps_newest_and_counts_dropped() {
        let tel = Telemetry::with_event_capacity(1, 4);
        for i in 0..10 {
            tel.event(0, EventKind::NewIncumbent, i, i as i64);
        }
        let snap = tel.snapshot();
        assert_eq!(snap.events.len(), 4);
        let rounds: Vec<usize> = snap.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9], "newest events were not kept");
        assert_eq!(snap.counter(0, Counter::EventsDropped), 6);
    }

    #[test]
    fn events_merge_causally_across_workers() {
        let tel = Telemetry::new(3);
        tel.event(2, EventKind::Resurrection, 1, 2);
        tel.event(0, EventKind::NewIncumbent, 1, 10);
        tel.event(1, EventKind::Quarantine, 2, 1);
        let snap = tel.snapshot();
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(snap.events[0].task, 2);
        assert_eq!(snap.events[1].task, 0);
        assert_eq!(snap.events[2].task, 1);
    }

    #[test]
    fn metrics_json_round_trips() {
        let tel = Telemetry::new(2);
        tel.add(0, Counter::ReportsReceived, 6);
        tel.add(1, Counter::MovesExecuted, 1234);
        tel.add(1, Counter::BytesSent, 98765);
        let snap = tel.snapshot();
        let json = snap.to_metrics_json();
        let doc = validate_metrics_json(&json).expect("own output validates");
        assert_eq!(doc.schema, METRICS_SCHEMA);
        assert_eq!(doc.workers.len(), 2);
        assert_eq!(doc.workers[0].get("reports_received"), Some(6));
        assert_eq!(doc.workers[1].get("moves_executed"), Some(1234));
        assert_eq!(doc.workers[1].get("bytes_sent"), Some(98765));
    }

    #[test]
    fn parser_tolerates_unknown_fields() {
        let json = format!(
            "{{\"schema\": \"{METRICS_SCHEMA}\", \"future_field\": [1, {{\"x\": null}}], \
             \"workers\": [{{\"task\": 0, \"hostname\": \"m1\", \
             \"counters\": {{\"moves_executed\": 3, \"counter_from_the_future\": 9}}}}]}}"
        );
        let doc = parse_metrics_json(&json).expect("unknown fields tolerated");
        assert_eq!(doc.workers[0].get("moves_executed"), Some(3));
        assert_eq!(doc.workers[0].get("counter_from_the_future"), Some(9));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_metrics_json("{").is_err());
        assert!(validate_metrics_json("{}").is_err());
        assert!(validate_metrics_json("{\"schema\": \"other/v9\", \"workers\": []}").is_err());
        // Right schema, but a worker missing catalogue counters.
        let json = format!(
            "{{\"schema\": \"{METRICS_SCHEMA}\", \
             \"workers\": [{{\"task\": 0, \"counters\": {{\"moves_executed\": 1}}}}]}}"
        );
        let err = validate_metrics_json(&json).unwrap_err();
        assert!(err.contains("missing counter"), "{err}");
        // Negative and fractional counter values are rejected.
        let json = format!(
            "{{\"schema\": \"{METRICS_SCHEMA}\", \
             \"workers\": [{{\"task\": 0, \"counters\": {{\"moves_executed\": -1}}}}]}}"
        );
        assert!(parse_metrics_json(&json).is_err());
    }

    #[test]
    fn a_million_open_brackets_fail_closed() {
        let err = parse_metrics_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn trace_jsonl_has_one_object_per_line() {
        let clock = Arc::new(TestClock::new());
        let tel = Telemetry::with_clock(1, clock.clone());
        {
            let _round = tel.span(0, SpanKind::Round);
            clock.advance(10);
        }
        tel.event(0, EventKind::Checkpoint, 2, 4096);
        let trace = tel.snapshot().to_trace_jsonl();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\": \"span\""));
        assert!(lines[0].contains("\"kind\": \"round\""));
        assert!(lines[1].contains("\"type\": \"event\""));
        assert!(lines[1].contains("\"kind\": \"checkpoint\""));
        for line in lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }
}
