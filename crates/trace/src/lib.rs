//! # ocelot-trace — structured tracing and the unified metrics registry
//!
//! The engine's evidence used to be scattered across eight ad-hoc stats
//! structs with no per-query or per-node view. This crate is the shared
//! substrate that fixes that: a structured span/event layer every subsystem
//! emits into ([`TraceSink`] / [`TraceHandle`]), a Chrome trace-event
//! timeline export ([`TraceSink::to_chrome_trace`]) and one named-metric
//! surface ([`MetricsRegistry`]) the existing stats structs project into
//! without giving up their typed accessors.
//!
//! The crate sits *below* `ocelot-kernel` in the dependency order (it knows
//! nothing about devices, buffers or plans), which is what lets the kernel
//! queue, the core memory manager and the engine's plan executor all emit
//! into the same sink.
//!
//! # Event-emission contract
//!
//! Every subsystem that owns a [`TraceHandle`] must emit the events below
//! when a sink is attached and recording. Op-site tags (the `site` column)
//! reuse the `fault_preflight` site taxonomy of the kernel crate
//! (`"kernel launch"`, `"transfer"`, `"allocation"`), so a timeline and a
//! fault schedule name the same places.
//!
//! | Emitter                  | Event kind        | When                                          | Site           |
//! |--------------------------|-------------------|-----------------------------------------------|----------------|
//! | `Queue::flush`           | [`Kernel`]        | each kernel the flush executes                | `kernel launch`|
//! | `Queue::flush`           | [`Transfer`]      | each host↔device transfer executed            | `transfer`     |
//! | `Queue::flush`           | [`Flush`]         | each **non-empty** flush (mirrors `flush_count`) | —           |
//! | `Device::alloc_capped`   | [`Alloc`]         | each successful device allocation             | `allocation`   |
//! | `PlanRun::step`          | [`Node`]          | node start / complete / restart / retry       | —              |
//! | `ColumnCache::bind`      | [`CacheBind`]     | each bind, tagged hit or miss (upload)        | —              |
//! | `ColumnCache` eviction   | [`CacheEvict`]    | each entry dropped under pressure             | —              |
//! | `MemoryManager` offload  | [`Spill`]         | each intermediate offloaded to host staging   | —              |
//! | `MemoryManager` restore  | [`Unspill`]       | each staged intermediate restored             | —              |
//! | `PlanCache::plan`        | [`PlanCache`]     | each lookup, tagged hit or miss               | —              |
//! | `Scheduler` / `ServeScheduler` | [`Sched`]   | submit / admit / reject / complete / quarantine | —            |
//!
//! [`Kernel`]: TraceEventKind::Kernel
//! [`Transfer`]: TraceEventKind::Transfer
//! [`Flush`]: TraceEventKind::Flush
//! [`Alloc`]: TraceEventKind::Alloc
//! [`Node`]: TraceEventKind::Node
//! [`CacheBind`]: TraceEventKind::CacheBind
//! [`CacheEvict`]: TraceEventKind::CacheEvict
//! [`Spill`]: TraceEventKind::Spill
//! [`Unspill`]: TraceEventKind::Unspill
//! [`PlanCache`]: TraceEventKind::PlanCache
//! [`Sched`]: TraceEventKind::Sched
//!
//! # Overhead bar
//!
//! Tracing must be cheap when off — the same bar the fault layer met for
//! arming:
//!
//! * **Disabled** (no sink attached): one relaxed atomic load per emission
//!   site. The event payload is behind a closure and never constructed.
//! * **Armed but silent** (sink attached, [`TraceSink::set_recording`]
//!   false): the atomic load plus one short mutex acquisition per site.
//! * Neither records anything or changes the launch sequence: the Q3/Q5/Q10
//!   stream under a silent sink is launch-for-launch and bit-for-bit the
//!   bare one (`ocelot-tests::observability`).
//!
//! Emission sites are per *operation* (a kernel, a flush, a plan node),
//! never per row, which is what keeps the armed path off the data plane.
//!
//! # Metrics registry
//!
//! [`MetricsRegistry`] is a snapshot surface: subsystems *project* their
//! existing stats structs into named counters/gauges/histograms (e.g.
//! `ocelot.spill.spilled_bytes`, `ocelot.memory.bytes_offloaded`), so
//! cross-subsystem identities like `spilled_bytes == bytes_offloaded`
//! become registry assertions while every typed accessor keeps working.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

/// Lifecycle stage of a plan-node event (see `PlanRun::step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// Node execution began.
    Start,
    /// Node execution finished successfully.
    Complete,
    /// The plan restarted from the top after the node hit device OOM.
    Restart,
    /// The node was retried in place after a transient fault.
    Retry,
}

impl NodeAction {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            NodeAction::Start => "start",
            NodeAction::Complete => "complete",
            NodeAction::Restart => "restart",
            NodeAction::Retry => "retry",
        }
    }
}

/// What a scheduler event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// A job arrived at the scheduler.
    Submit,
    /// The job was admitted in flight (`detail` = the plan's node count,
    /// its deficit-round-robin cost).
    Admit,
    /// The job was rejected by backpressure (`detail` = backlog length).
    Reject,
    /// The job ran to completion (`detail` = completion index).
    Complete,
    /// The job failed permanently and was quarantined.
    Quarantine,
}

impl SchedAction {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedAction::Submit => "submit",
            SchedAction::Admit => "admit",
            SchedAction::Reject => "reject",
            SchedAction::Complete => "complete",
            SchedAction::Quarantine => "quarantine",
        }
    }
}

/// The typed payload of a [`TraceEvent`] — one variant per row of the
/// emission contract table in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A kernel launch executed by a queue flush.
    Kernel {
        /// Kernel name.
        kernel: String,
        /// Wall-clock execution time on the host.
        host_ns: u64,
        /// Modeled device time (equals `host_ns` on real CPU devices).
        modeled_ns: u64,
        /// Work-groups launched.
        num_groups: u64,
        /// Logical problem size (rows) of the launch.
        n: u64,
    },
    /// A host↔device transfer executed by a queue flush.
    Transfer {
        /// `true` for host→device writes, `false` for device→host reads.
        to_device: bool,
        /// Bytes moved (0 on unified-memory devices).
        bytes: u64,
        /// Modeled transfer time.
        modeled_ns: u64,
    },
    /// A successful device-memory allocation.
    Alloc {
        /// Buffer label.
        label: String,
        /// Bytes reserved.
        bytes: u64,
    },
    /// A non-empty queue flush (1:1 with `Queue::flush_count`).
    Flush {
        /// Kernels executed by this flush.
        kernels: u64,
        /// Transfers executed by this flush.
        transfers: u64,
        /// Host wall-clock time of the flush.
        host_ns: u64,
    },
    /// A plan-node lifecycle event.
    Node {
        /// Node index in the plan.
        pc: u64,
        /// Operator label (as in `Plan::explain`).
        op: String,
        /// Lifecycle stage.
        action: NodeAction,
        /// Rows produced (complete events only; 0 otherwise).
        rows: u64,
        /// Host wall-clock time attributed to the stage.
        host_ns: u64,
    },
    /// A column-cache bind.
    CacheBind {
        /// Served from a resident entry (no upload).
        hit: bool,
        /// Bytes of the bound column.
        bytes: u64,
    },
    /// A column-cache eviction under memory pressure.
    CacheEvict {
        /// Bytes released.
        bytes: u64,
    },
    /// An intermediate offloaded to host staging (partition spill).
    Spill {
        /// Bytes offloaded.
        bytes: u64,
    },
    /// A staged intermediate restored to the device.
    Unspill {
        /// Bytes restored.
        bytes: u64,
    },
    /// A compiled-plan cache lookup.
    PlanCache {
        /// Whether the shape was served from cache.
        hit: bool,
    },
    /// A scheduler admission/queue/lane event.
    Sched {
        /// Tenant id (0 for the single-tenant scheduler).
        tenant: u64,
        /// Job index within the run.
        job: u64,
        /// Lane name (`"interactive"`, `"batch"`).
        lane: &'static str,
        /// What happened.
        action: SchedAction,
        /// Action-specific detail (see [`SchedAction`]).
        detail: u64,
    },
}

impl TraceEventKind {
    /// Stable event name (the Chrome trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Kernel { .. } => "kernel",
            TraceEventKind::Transfer { .. } => "transfer",
            TraceEventKind::Alloc { .. } => "alloc",
            TraceEventKind::Flush { .. } => "flush",
            TraceEventKind::Node { .. } => "node",
            TraceEventKind::CacheBind { .. } => "cache_bind",
            TraceEventKind::CacheEvict { .. } => "cache_evict",
            TraceEventKind::Spill { .. } => "spill",
            TraceEventKind::Unspill { .. } => "unspill",
            TraceEventKind::PlanCache { .. } => "plan_cache",
            TraceEventKind::Sched { .. } => "sched",
        }
    }

    /// The emitting subsystem (the Chrome trace `cat` field).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEventKind::Kernel { .. }
            | TraceEventKind::Transfer { .. }
            | TraceEventKind::Flush { .. } => "queue",
            TraceEventKind::Alloc { .. } => "device",
            TraceEventKind::Node { .. } => "plan",
            TraceEventKind::CacheBind { .. } | TraceEventKind::CacheEvict { .. } => "cache",
            TraceEventKind::Spill { .. } | TraceEventKind::Unspill { .. } => "memory",
            TraceEventKind::PlanCache { .. } => "serve",
            TraceEventKind::Sched { .. } => "sched",
        }
    }

    /// The op-site tag, for events that map onto the kernel fault-injection
    /// taxonomy (`FaultSite::name()` strings).
    pub fn site(&self) -> Option<&'static str> {
        match self {
            TraceEventKind::Kernel { .. } => Some("kernel launch"),
            TraceEventKind::Transfer { .. } => Some("transfer"),
            TraceEventKind::Alloc { .. } => Some("allocation"),
            _ => None,
        }
    }

    fn args_json(&self) -> String {
        match self {
            TraceEventKind::Kernel { kernel, host_ns, modeled_ns, num_groups, n } => format!(
                "{{\"kernel\":{},\"host_ns\":{host_ns},\"modeled_ns\":{modeled_ns},\"num_groups\":{num_groups},\"n\":{n}}}",
                json_string(kernel)
            ),
            TraceEventKind::Transfer { to_device, bytes, modeled_ns } => format!(
                "{{\"dir\":\"{}\",\"bytes\":{bytes},\"modeled_ns\":{modeled_ns}}}",
                if *to_device { "to_device" } else { "from_device" }
            ),
            TraceEventKind::Alloc { label, bytes } => {
                format!("{{\"label\":{},\"bytes\":{bytes}}}", json_string(label))
            }
            TraceEventKind::Flush { kernels, transfers, host_ns } => {
                format!("{{\"kernels\":{kernels},\"transfers\":{transfers},\"host_ns\":{host_ns}}}")
            }
            TraceEventKind::Node { pc, op, action, rows, host_ns } => format!(
                "{{\"pc\":{pc},\"op\":{},\"action\":\"{}\",\"rows\":{rows},\"host_ns\":{host_ns}}}",
                json_string(op),
                action.name()
            ),
            TraceEventKind::CacheBind { hit, bytes } => {
                format!("{{\"hit\":{hit},\"bytes\":{bytes}}}")
            }
            TraceEventKind::CacheEvict { bytes } => format!("{{\"bytes\":{bytes}}}"),
            TraceEventKind::Spill { bytes } => format!("{{\"bytes\":{bytes}}}"),
            TraceEventKind::Unspill { bytes } => format!("{{\"bytes\":{bytes}}}"),
            TraceEventKind::PlanCache { hit } => format!("{{\"hit\":{hit}}}"),
            TraceEventKind::Sched { tenant, job, lane, action, detail } => format!(
                "{{\"tenant\":{tenant},\"job\":{job},\"lane\":\"{lane}\",\"action\":\"{}\",\"detail\":{detail}}}",
                action.name()
            ),
        }
    }
}

/// One recorded event: a typed payload plus timeline coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the sink's epoch.
    pub ts_ns: u64,
    /// Span duration (0 for instant events).
    pub dur_ns: u64,
    /// Timeline process row (tenant id for serve runs, 0 otherwise).
    pub pid: u64,
    /// Timeline thread row (job id for scheduler runs, 0 otherwise).
    pub tid: u64,
    /// The typed payload.
    pub kind: TraceEventKind,
}

// ---------------------------------------------------------------------------
// Sink and handle
// ---------------------------------------------------------------------------

/// An in-memory event recorder with a monotonic epoch.
///
/// One sink is shared (via `Arc`) by every subsystem participating in a
/// traced run — queue, device, memory manager, cache, plan executor,
/// scheduler — so their events land on one timeline. The sink is
/// deliberately *per run/session object*, not process-global: parallel
/// tests and tenants each get their own timeline.
pub struct TraceSink {
    epoch: Instant,
    recording: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A fresh, recording sink whose epoch is now.
    pub fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            recording: AtomicBool::new(true),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since this sink's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Toggles recording. An attached sink with recording off is the
    /// "armed but silent" state the overhead bar is measured against:
    /// emission sites still take their fast-path check, but no event is
    /// constructed or stored.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently stored.
    pub fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Records an instant event stamped now on timeline row (0, 0).
    pub fn record(&self, kind: TraceEventKind) {
        self.record_event(TraceEvent { ts_ns: self.now_ns(), dur_ns: 0, pid: 0, tid: 0, kind });
    }

    /// Records a fully specified event (respects the recording gate).
    pub fn record_event(&self, event: TraceEvent) {
        if self.is_recording() {
            self.events.lock().push(event);
        }
    }

    /// Snapshot of every recorded event, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded events matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.lock().iter().filter(|e| pred(e)).count()
    }

    /// Drops every recorded event (the epoch is unchanged).
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Renders the timeline as a Chrome trace-event JSON array (load it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Spans become `"X"`
    /// (complete) events, instants become `"i"` events; timestamps are in
    /// microseconds as the format requires.
    pub fn to_chrome_trace(&self) -> String {
        let events = self.events.lock();
        let mut out = String::with_capacity(events.len() * 128 + 2);
        out.push('[');
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = if event.dur_ns > 0 { "X" } else { "i" };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{:.3}",
                event.kind.name(),
                event.kind.category(),
                event.ts_ns as f64 / 1_000.0
            ));
            if event.dur_ns > 0 {
                out.push_str(&format!(",\"dur\":{:.3}", event.dur_ns as f64 / 1_000.0));
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(
                ",\"pid\":{},\"tid\":{},\"args\":{}}}",
                event.pid,
                event.tid,
                event.kind.args_json()
            ));
        }
        out.push(']');
        out
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("events", &self.len())
            .field("recording", &self.is_recording())
            .finish()
    }
}

/// The attachment point a subsystem owns: a detachable reference to a
/// shared [`TraceSink`] with a relaxed-atomic armed flag in front.
///
/// The emission pattern is `handle.emit(|| TraceEventKind::...)`: when no
/// sink is attached the closure is never run, so a disabled handle costs
/// one relaxed atomic load — the same fast-path discipline the queue's
/// `profiling` flag established.
#[derive(Default)]
pub struct TraceHandle {
    armed: AtomicBool,
    sink: Mutex<Option<Arc<TraceSink>>>,
}

impl TraceHandle {
    /// A detached (disabled) handle.
    pub const fn new() -> TraceHandle {
        TraceHandle { armed: AtomicBool::new(false), sink: Mutex::new(None) }
    }

    /// Attaches a sink; subsequent emissions land in it.
    pub fn attach(&self, sink: Arc<TraceSink>) {
        *self.sink.lock() = Some(sink);
        self.armed.store(true, Ordering::Release);
    }

    /// Detaches the sink, returning the handle to the disabled state.
    pub fn detach(&self) {
        self.armed.store(false, Ordering::Release);
        *self.sink.lock() = None;
    }

    /// Whether a sink is attached (one relaxed load — the fast path).
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The attached sink, if any.
    pub fn sink(&self) -> Option<Arc<TraceSink>> {
        if !self.armed() {
            return None;
        }
        self.sink.lock().clone()
    }

    /// Emits an instant event on rows (0, 0). The payload closure only runs
    /// when a sink is attached *and* recording.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEventKind) {
        if !self.armed() {
            return;
        }
        self.emit_slow(make);
    }

    /// Emits a fully specified event (span coordinates under caller
    /// control). Same gating as [`TraceHandle::emit`].
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce(&TraceSink) -> TraceEvent) {
        if !self.armed() {
            return;
        }
        if let Some(sink) = self.sink.lock().clone() {
            if sink.is_recording() {
                let event = make(&sink);
                sink.record_event(event);
            }
        }
    }

    #[cold]
    fn emit_slow(&self, make: impl FnOnce() -> TraceEventKind) {
        if let Some(sink) = self.sink.lock().clone() {
            if sink.is_recording() {
                sink.record(make());
            }
        }
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").field("armed", &self.armed()).finish()
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Summary histogram: count/sum/min/max of observed values (enough for the
/// latency and size distributions the engine reports, with no bucket-bound
/// policy to get wrong).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSummary {
    /// Folds one observation in.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A named-metric snapshot: counters, gauges and summary histograms keyed
/// by dotted names (`"ocelot.spill.spilled_bytes"`).
///
/// The registry is a *projection* surface, not a live aggregator:
/// subsystems fill one from their existing stats structs on demand
/// (`Session::metrics`, `Backend::register_metrics`), so the typed
/// accessors stay the source of truth and the registry gives tests and
/// tools one uniform place to cross-check them.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets (overwrites) a counter — the projection primitive for
    /// monotonically increasing stats fields.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Adds to a counter (creating it at 0), for emitters that report in
    /// increments.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets a gauge — a point-in-time level (resident bytes, queue depth).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Folds one observation into a named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// The value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's summary, if registered.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms.get(name).copied()
    }

    /// Iterates registered counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(name, value)| (name.as_str(), *value))
    }

    /// Iterates registered gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(name, value)| (name.as_str(), *value))
    }

    /// Total number of registered metrics across all three kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders a plain-text table of every metric, one per line, in name
    /// order within each kind.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter   {name} = {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} = count {} sum {} min {} max {}\n",
                h.count, h.sum, h.min, h.max
            ));
        }
        out
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_never_runs_the_payload_closure() {
        let handle = TraceHandle::new();
        let mut ran = false;
        handle.emit(|| {
            ran = true;
            TraceEventKind::PlanCache { hit: true }
        });
        assert!(!ran);
        assert!(!handle.armed());
    }

    #[test]
    fn armed_but_silent_skips_recording() {
        let handle = TraceHandle::new();
        let sink = Arc::new(TraceSink::new());
        sink.set_recording(false);
        handle.attach(Arc::clone(&sink));
        assert!(handle.armed());
        handle.emit(|| TraceEventKind::PlanCache { hit: false });
        assert!(sink.is_empty());
        sink.set_recording(true);
        handle.emit(|| TraceEventKind::PlanCache { hit: false });
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn events_carry_taxonomy_and_sites() {
        let sink = TraceSink::new();
        sink.record(TraceEventKind::Kernel {
            kernel: "scan".into(),
            host_ns: 10,
            modeled_ns: 20,
            num_groups: 4,
            n: 1000,
        });
        sink.record(TraceEventKind::Alloc { label: "buf".into(), bytes: 4096 });
        sink.record(TraceEventKind::Spill { bytes: 64 });
        let events = sink.events();
        assert_eq!(events[0].kind.site(), Some("kernel launch"));
        assert_eq!(events[0].kind.category(), "queue");
        assert_eq!(events[1].kind.site(), Some("allocation"));
        assert_eq!(events[2].kind.site(), None);
        assert_eq!(events[2].kind.category(), "memory");
        assert_eq!(sink.count(|e| matches!(e.kind, TraceEventKind::Alloc { .. })), 1);
        let json = sink.to_chrome_trace();
        assert!(json.contains("\"modeled_ns\":20,\"num_groups\":4,\"n\":1000"), "{json}");
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let sink = TraceSink::new();
        sink.record_event(TraceEvent {
            ts_ns: 1_500,
            dur_ns: 2_000,
            pid: 1,
            tid: 7,
            kind: TraceEventKind::Node {
                pc: 3,
                op: "pkfk_join".into(),
                action: NodeAction::Complete,
                rows: 42,
                host_ns: 2_000,
            },
        });
        sink.record_event(TraceEvent {
            ts_ns: 4_000,
            dur_ns: 0,
            pid: 0,
            tid: 0,
            kind: TraceEventKind::PlanCache { hit: true },
        });
        let json = sink.to_chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""), "span event: {json}");
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"i\""), "instant event: {json}");
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("pkfk_join"));
        // Exactly two top-level objects.
        assert_eq!(json.matches("\"name\":").count(), 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        let escaped = json_string("a\"b\\c\nd");
        assert_eq!(escaped, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("ocelot.spill.spills", 3);
        reg.add_counter("ocelot.spill.spills", 2);
        reg.set_gauge("ocelot.cache.resident_bytes", 1024.0);
        reg.observe("ocelot.node.host_ns", 10);
        reg.observe("ocelot.node.host_ns", 30);
        assert_eq!(reg.counter("ocelot.spill.spills"), Some(5));
        assert_eq!(reg.gauge("ocelot.cache.resident_bytes"), Some(1024.0));
        let h = reg.histogram("ocelot.node.host_ns").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 40, 10, 30));
        assert_eq!(h.mean(), 20.0);
        assert_eq!(reg.len(), 3);
        let rendered = reg.render();
        assert!(rendered.contains("counter   ocelot.spill.spills = 5"));
        assert!(rendered.contains("histogram ocelot.node.host_ns"));
    }

    #[test]
    fn sink_clear_and_snapshot_isolation() {
        let sink = TraceSink::new();
        sink.record(TraceEventKind::CacheEvict { bytes: 1 });
        let snapshot = sink.events();
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(snapshot.len(), 1, "snapshots are decoupled from the sink");
    }
}
