//! Service counters, the deterministic trajectory digest, and the
//! per-decision trace ring.

use std::collections::VecDeque;
use std::fmt::{self, Write};

use choreo_profile::TenantId;
use choreo_topology::Nanos;

/// What the service decided at one point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Tenant admitted straight from its arrival.
    Admit,
    /// Tenant parked in the wait queue.
    Queue,
    /// Queued tenant admitted by a departure retry.
    QueueAdmit,
    /// Arrival rejected (queue full).
    Reject,
    /// Arrival ignored: the tenant id is already running or queued
    /// (at-least-once delivery hardening).
    Duplicate,
    /// Tenant departed.
    Depart,
    /// Running tenant changed its intensity.
    Intensity,
    /// Migration planner moved the tenant.
    Migrate,
    /// A cluster-wide migration pass ran (tenant is `u64::MAX`).
    MigrationPass,
    /// A link failed, degraded, drained or recovered (tenant is
    /// `u64::MAX`; value is the remaining capacity fraction on that
    /// link — 0 for failures, 1 for recoveries).
    NetworkEvent,
    /// The re-measurement pass found the tenant's epoch-over-epoch
    /// score moved more than the drift threshold (value is the
    /// relative error).
    DriftDetected,
    /// The tenant was moved by a pass it was *forced* into — drift or
    /// link failure routed it to the planner ahead of the cadence.
    ForcedMigration,
    /// Arrival rejected while the cluster had failed links: capacity
    /// was genuinely gone, not merely queued away.
    FailureReject,
}

impl DecisionKind {
    /// Stable snake_case name used by the JSONL trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Admit => "admit",
            DecisionKind::Queue => "queue",
            DecisionKind::QueueAdmit => "queue_admit",
            DecisionKind::Reject => "reject",
            DecisionKind::Duplicate => "duplicate",
            DecisionKind::Depart => "depart",
            DecisionKind::Intensity => "intensity",
            DecisionKind::Migrate => "migrate",
            DecisionKind::MigrationPass => "migration_pass",
            DecisionKind::NetworkEvent => "network_event",
            DecisionKind::DriftDetected => "drift_detected",
            DecisionKind::ForcedMigration => "forced_migration",
            DecisionKind::FailureReject => "failure_reject",
        }
    }
}

/// Why an arrival was turned away ([`Cause::Reject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The wait queue was at capacity.
    QueueFull,
    /// Links were down: the capacity was genuinely gone.
    LinksDown,
}

impl RejectReason {
    /// Stable snake_case name used by the JSONL trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::LinksDown => "links_down",
        }
    }
}

/// *Why* a decision fired — the threshold arithmetic behind it, carried
/// alongside the headline value so a trace reader can re-derive the
/// verdict. Purely trace metadata: causes live only in the
/// [`TraceRing`], never in the trajectory digest, so attaching them
/// cannot fork a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cause {
    /// Drift detection: the last-epoch relative error against the
    /// configured threshold it exceeded.
    Drift {
        /// Epoch-over-epoch relative error observed.
        error: f64,
        /// The drift threshold it was compared against.
        threshold: f64,
    },
    /// A migration cleared the hysteresis bar: the predicted gain
    /// against the minimum-improvement margin it had to beat.
    Hysteresis {
        /// Predicted-over-current score ratio of the executed move.
        gain: f64,
        /// The planner's `min_improvement` hysteresis margin.
        min_improvement: f64,
    },
    /// An arrival was rejected, and why.
    Reject(RejectReason),
}

impl Cause {
    fn write_json(self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = match self {
            Cause::Drift { error, threshold } => write!(
                out,
                "{{\"type\":\"drift\",\"error\":{},\"threshold\":{}}}",
                JsonF64(error),
                JsonF64(threshold)
            ),
            Cause::Hysteresis { gain, min_improvement } => write!(
                out,
                "{{\"type\":\"hysteresis\",\"gain\":{},\"min_improvement\":{}}}",
                JsonF64(gain),
                JsonF64(min_improvement)
            ),
            Cause::Reject(reason) => {
                write!(out, "{{\"type\":\"reject\",\"reason\":\"{}\"}}", reason.as_str())
            }
        };
    }
}

/// A float as a JSON number, formatted in place: finite values print as
/// `{}` does, non-finite ones as `null` (JSON has no Inf/NaN).
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// One entry of the decision trace: when, who, what, and the decision's
/// headline number (baseline score for placements, departure score for
/// departures, new intensity for load changes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Simulated (or service-clock) time of the decision.
    pub at: Nanos,
    /// Tenant the decision concerns (`u64::MAX` for cluster-wide ones).
    pub tenant: TenantId,
    /// What was decided.
    pub kind: DecisionKind,
    /// Decision-specific value (see the struct docs).
    pub value: f64,
    /// The threshold arithmetic behind the decision, where one exists
    /// (drift errors, hysteresis margins, rejection reasons).
    pub cause: Option<Cause>,
}

impl Decision {
    /// One-line JSON object: `at`, `tenant` (`null` for cluster-wide
    /// decisions), `kind`, `value` (`null` when non-finite) and `cause`
    /// (omitted when absent).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    /// Append [`Decision::to_json`]'s line (without a newline) to `out`,
    /// with no temporary allocation.
    pub fn write_json(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{{\"at\":{},\"tenant\":", self.at);
        if self.tenant == u64::MAX {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", self.tenant);
        }
        let _ =
            write!(out, ",\"kind\":\"{}\",\"value\":{}", self.kind.as_str(), JsonF64(self.value));
        if let Some(c) = self.cause {
            out.push_str(",\"cause\":");
            c.write_json(out);
        }
        out.push('}');
    }
}

/// A bounded ring of the most recent [`Decision`]s — the service's
/// flight recorder. Contents are a pure function of the decision stream
/// (no wall-clock anywhere), so two bit-identical runs carry identical
/// rings.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRing {
    buf: Vec<Decision>,
    capacity: usize,
    /// All-time decisions pushed (`buf` keeps the last `capacity`).
    total: u64,
}

impl TraceRing {
    /// Ring keeping the last `capacity` decisions (at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing { buf: Vec::new(), capacity: capacity.max(1), total: 0 }
    }

    fn push(&mut self, d: Decision) {
        if self.buf.len() < self.capacity {
            self.buf.push(d);
        } else {
            self.buf[(self.total % self.capacity as u64) as usize] = d;
        }
        self.total += 1;
    }

    /// All-time decisions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retained capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained decisions, oldest first.
    pub fn recent(&self) -> Vec<Decision> {
        self.tail(usize::MAX).copied().collect()
    }

    /// The newest `k` retained decisions (all of them when `k` exceeds
    /// the retained count), oldest first, read in place.
    pub(crate) fn tail(&self, k: usize) -> impl Iterator<Item = &Decision> {
        // `buf[split..]` holds the oldest entries, `buf[..split]` the
        // newest; before the first wrap `split` is `buf.len()`.
        let split = (self.total % self.capacity as u64) as usize;
        let (newer, older) = self.buf.split_at(split);
        let skip = self.buf.len().saturating_sub(k);
        let (older, newer) = if skip <= older.len() {
            (&older[skip..], newer)
        } else {
            (&older[..0], &newer[skip - older.len()..])
        };
        older.iter().chain(newer)
    }

    /// The most recent `n` retained decisions as JSON Lines, oldest
    /// first, one [`Decision::to_json`] object per line (trailing
    /// newline included; empty string for an empty ring). The `/trace`
    /// endpoint and the `GetTrace` wire op render exactly this.
    pub fn to_jsonl(&self, n: usize) -> String {
        let mut out = String::new();
        for d in self.tail(n) {
            d.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// A [`TraceRing::to_jsonl`]`(usize::MAX)` rendering kept current
/// incrementally: each [`JsonlMirror::sync`] appends the lines of the
/// decisions pushed since the last one and trims the lines of the ones
/// the ring evicted, so a sync costs O(new decisions), not O(capacity).
/// A mirror follows one ring and one output buffer, and nothing else
/// may write to that buffer.
#[derive(Debug, Clone, Default)]
pub struct JsonlMirror {
    /// The ring's [`TraceRing::total`] already rendered.
    seen: u64,
    /// Byte length of each rendered line (newline included), oldest
    /// first — one per retained decision.
    line_lens: VecDeque<usize>,
}

impl JsonlMirror {
    /// Bring `out` up to `ring.to_jsonl(usize::MAX)`. A fresh mirror
    /// renders every retained decision, replacing whatever `out` held.
    pub fn sync(&mut self, ring: &TraceRing, out: &mut String) {
        let new = ring.total - self.seen;
        if new == 0 {
            return;
        }
        let retained = ring.buf.len();
        let append = if new >= retained as u64 {
            out.clear();
            self.line_lens.clear();
            retained
        } else {
            let new = new as usize;
            let evicted = self.line_lens.len() + new - retained;
            let bytes: usize = self.line_lens.drain(..evicted).sum();
            out.drain(..bytes);
            new
        };
        for d in ring.tail(append) {
            let start = out.len();
            d.write_json(out);
            out.push('\n');
            self.line_lens.push_back(out.len() - start);
        }
        self.seen = ring.total;
    }
}

/// Counters of one service run plus a running FNV-1a digest of every
/// decision the service makes (admissions with their placements, queue
/// verdicts, migrations, departure rates). Two runs with equal digests
/// made bit-identical decisions — the property the determinism suite and
/// `bench_online` check across repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Tenant events consumed.
    pub events: u64,
    /// Arrival events.
    pub arrivals: u64,
    /// Tenants admitted straight from their arrival.
    pub admitted: u64,
    /// Tenants parked in the wait queue at arrival.
    pub queued: u64,
    /// Queued tenants later admitted by a departure retry.
    pub queue_admitted: u64,
    /// Arrivals rejected: the wait queue was full, either with every
    /// link up or while links were down
    /// ([`ServiceStats::failure_rejections`] counts that subset).
    pub rejected: u64,
    /// Departures that tore real state down (a running tenant's flows,
    /// or a queued tenant's wait-queue slot). A Depart for a tenant that
    /// was rejected at arrival is a digested no-op, not a departure.
    pub departures: u64,
    /// Intensity-change events applied to running tenants.
    pub intensity_changes: u64,
    /// Migration-planner passes executed.
    pub migration_passes: u64,
    /// Tenants actually moved by the planner.
    pub migrations: u64,
    /// Departed tenants with a recorded service rate.
    pub departed: u64,
    /// Arrivals ignored because the tenant id was already running or
    /// queued (duplicate delivery).
    pub duplicate_arrivals: u64,
    /// Network events consumed (failures, degradations, drains,
    /// recoveries).
    pub network_events: u64,
    /// Re-measurement passes executed.
    pub measurement_passes: u64,
    /// Drift detections: a tenant's epoch-over-epoch score moved more
    /// than the configured threshold.
    pub drift_detected: u64,
    /// Tenants moved by a forced (drift- or failure-triggered) pass.
    pub failure_migrations: u64,
    /// Arrivals rejected while links were down (capacity truly gone);
    /// a subset of [`ServiceStats::rejected`].
    pub failure_rejections: u64,
    rate_sum_bps: f64,
    hash: u64,
    trace: TraceRing,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats::with_trace_capacity(256)
    }
}

impl ServiceStats {
    /// Fresh stats with a decision ring keeping the last `capacity`
    /// decisions.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        ServiceStats {
            events: 0,
            arrivals: 0,
            admitted: 0,
            queued: 0,
            queue_admitted: 0,
            rejected: 0,
            departures: 0,
            intensity_changes: 0,
            migration_passes: 0,
            migrations: 0,
            departed: 0,
            duplicate_arrivals: 0,
            network_events: 0,
            measurement_passes: 0,
            drift_detected: 0,
            failure_migrations: 0,
            failure_rejections: 0,
            rate_sum_bps: 0.0,
            hash: FNV_OFFSET,
            trace: TraceRing::new(capacity),
        }
    }

    /// Push one decision into the trace ring. Only
    /// `OnlineScheduler::decide` calls this, after bumping the
    /// decision's counters, so the ring and the counters cannot disagree.
    pub(crate) fn record(&mut self, d: Decision) {
        self.trace.push(d);
    }

    /// The decision flight recorder (most recent decisions, bounded).
    pub fn decisions(&self) -> &TraceRing {
        &self.trace
    }

    /// Fold a word into the trajectory digest.
    pub(crate) fn note(&mut self, word: u64) {
        let mut h = self.hash;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }

    /// Fold a float (by bit pattern) into the trajectory digest.
    pub(crate) fn note_f64(&mut self, x: f64) {
        self.note(x.to_bits());
    }

    /// Record a departed tenant's mean service rate.
    pub(crate) fn record_departed_rate(&mut self, rate_bps: f64) {
        self.departed += 1;
        self.rate_sum_bps += rate_bps;
        self.note_f64(rate_bps);
    }

    /// Digest of every decision made so far. Equal digests ⇔ equal
    /// trajectories (placements, queue verdicts, migrations, rates).
    pub fn trace_hash(&self) -> u64 {
        self.hash
    }

    /// Mean service rate over departed tenants (`None` before the first
    /// departure) — the quality headline `bench_online` compares between
    /// the greedy and random policies.
    pub fn mean_departed_rate_bps(&self) -> Option<f64> {
        if self.departed == 0 {
            None
        } else {
            Some(self.rate_sum_bps / self.departed as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(at: Nanos, tenant: TenantId, kind: DecisionKind, value: f64) -> Decision {
        Decision { at, tenant, kind, value, cause: None }
    }

    #[test]
    fn digest_tracks_decision_stream() {
        let mut a = ServiceStats::default();
        let mut b = ServiceStats::default();
        assert_eq!(a.trace_hash(), b.trace_hash());
        a.note(1);
        a.note(2);
        b.note(1);
        assert_ne!(a.trace_hash(), b.trace_hash(), "prefixes differ");
        b.note(2);
        assert_eq!(a.trace_hash(), b.trace_hash(), "same stream, same digest");
        // Order matters.
        let mut c = ServiceStats::default();
        c.note(2);
        c.note(1);
        assert_ne!(a.trace_hash(), c.trace_hash());
    }

    #[test]
    fn trace_ring_keeps_the_most_recent_decisions() {
        let mut s = ServiceStats::with_trace_capacity(3);
        for i in 0..5u64 {
            s.record(decision(i, i, DecisionKind::Admit, i as f64));
        }
        let ring = s.decisions();
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.capacity(), 3);
        let recent = ring.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|d| d.at).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest first, last capacity kept"
        );
        let tail = |k| ring.tail(k).map(|d| d.at).collect::<Vec<_>>();
        assert_eq!(tail(2), vec![3, 4], "the newest k, oldest first");
        assert_eq!(tail(1), vec![4]);
        assert_eq!(tail(0), Vec::<u64>::new());
        assert_eq!(tail(usize::MAX), vec![2, 3, 4], "k past the retained count");
        // Before wrap-around the ring returns what it has.
        let mut t = ServiceStats::with_trace_capacity(8);
        t.record(decision(1, 0, DecisionKind::Queue, 0.0));
        assert_eq!(t.decisions().recent().len(), 1);
    }

    #[test]
    fn decisions_render_as_jsonl_with_causes() {
        let mut s = ServiceStats::with_trace_capacity(8);
        s.record(decision(5, 3, DecisionKind::Admit, 2.5));
        s.record(Decision {
            cause: Some(Cause::Reject(RejectReason::QueueFull)),
            ..decision(7, 4, DecisionKind::Reject, 0.0)
        });
        s.record(Decision {
            cause: Some(Cause::Drift { error: 0.125, threshold: 0.06 }),
            ..decision(9, 4, DecisionKind::DriftDetected, 0.125)
        });
        s.record(decision(11, u64::MAX, DecisionKind::MigrationPass, f64::INFINITY));
        let jsonl = s.decisions().to_jsonl(16);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"at\":5,\"tenant\":3,\"kind\":\"admit\",\"value\":2.5}");
        assert_eq!(
            lines[1],
            "{\"at\":7,\"tenant\":4,\"kind\":\"reject\",\"value\":0,\
             \"cause\":{\"type\":\"reject\",\"reason\":\"queue_full\"}}"
        );
        assert_eq!(
            lines[2],
            "{\"at\":9,\"tenant\":4,\"kind\":\"drift_detected\",\"value\":0.125,\
             \"cause\":{\"type\":\"drift\",\"error\":0.125,\"threshold\":0.06}}"
        );
        assert_eq!(
            lines[3], "{\"at\":11,\"tenant\":null,\"kind\":\"migration_pass\",\"value\":null}",
            "cluster-wide tenant and non-finite value render as null"
        );
        // `n` bounds the export to the most recent decisions.
        let tail = s.decisions().to_jsonl(1);
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("migration_pass"), "{tail}");
        assert_eq!(s.decisions().to_jsonl(0), "");
    }

    #[test]
    fn hysteresis_cause_round_trips_through_json() {
        let d = Decision {
            at: 1,
            tenant: 2,
            kind: DecisionKind::Migrate,
            value: 3.0,
            cause: Some(Cause::Hysteresis { gain: 1.5, min_improvement: 0.1 }),
        };
        assert_eq!(
            d.to_json(),
            "{\"at\":1,\"tenant\":2,\"kind\":\"migrate\",\"value\":3,\
             \"cause\":{\"type\":\"hysteresis\",\"gain\":1.5,\"min_improvement\":0.1}}"
        );
    }

    #[test]
    fn jsonl_mirror_equals_a_full_render_after_every_sync() {
        let causes = [
            None,
            Some(Cause::Reject(RejectReason::LinksDown)),
            Some(Cause::Drift { error: f64::NAN, threshold: 0.06 }),
            Some(Cause::Hysteresis { gain: f64::INFINITY, min_improvement: 0.1 }),
            None,
        ];
        let kinds = [DecisionKind::Admit, DecisionKind::Reject, DecisionKind::MigrationPass];
        for capacity in [1usize, 3, 8] {
            let mut s = ServiceStats::with_trace_capacity(capacity);
            let (mut mirror, mut out) = (JsonlMirror::default(), String::new());
            let mut all: Vec<Decision> = Vec::new();
            // Every burst size from 0 to 2× capacity, up then down, so
            // small bursts follow ones that wrapped the whole ring.
            let bursts = (0..=2 * capacity).chain((0..=2 * capacity).rev());
            for burst in bursts {
                for _ in 0..burst {
                    let i = all.len() as u64;
                    let tenant = if i % 4 == 3 { u64::MAX } else { i };
                    let value = match i % 3 {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        _ => i as f64 / 3.0,
                    };
                    let kind = kinds[i as usize % kinds.len()];
                    let cause = causes[i as usize % causes.len()];
                    let d = Decision { at: i, tenant, kind, value, cause };
                    s.record(d);
                    all.push(d);
                }
                mirror.sync(s.decisions(), &mut out);
                let retained = &all[all.len().saturating_sub(capacity)..];
                let reference: String = retained.iter().map(|d| d.to_json() + "\n").collect();
                let ctx = format!("capacity {capacity}, {} decisions", all.len());
                assert_eq!(out, reference, "{ctx}");
                assert_eq!(out, s.decisions().to_jsonl(usize::MAX), "{ctx}");
            }
        }
    }

    #[test]
    fn a_fresh_jsonl_mirror_replaces_the_buffer() {
        let mut s = ServiceStats::with_trace_capacity(4);
        for i in 0..6u64 {
            s.record(decision(i, i, DecisionKind::Depart, 1.0));
        }
        let mut out = "stale\n".to_string();
        JsonlMirror::default().sync(s.decisions(), &mut out);
        assert_eq!(out, s.decisions().to_jsonl(usize::MAX));
    }

    #[test]
    fn departed_rate_mean() {
        let mut s = ServiceStats::default();
        assert_eq!(s.mean_departed_rate_bps(), None);
        s.record_departed_rate(10.0);
        s.record_departed_rate(30.0);
        assert_eq!(s.mean_departed_rate_bps(), Some(20.0));
        assert_eq!(s.departed, 2);
    }
}
