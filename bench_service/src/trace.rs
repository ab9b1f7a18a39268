//! The traced run's layer attribution.
//!
//! A [`LayerRecorder`] installed as the process span recorder collects
//! the solver's existing `probe_batch` and `solve_*` spans. Each sample
//! is filed under the benchmark interval it fell in — the clock advance
//! before a request, its handling, or the export after its reply — which
//! the harness and the env mark with [`enter`]. The harness drains the
//! recorder after every request and splits each interval into disjoint
//! layer rows ([`Attribution`]), so the rows add up to the traced wall
//! time less an explicit `unattributed` remainder.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use choreo_metrics::span::SpanRecorder;

/// Where the loop currently is, for filing span samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// `advance_to` before the request is polled.
    Advance = 0,
    /// From the end of decode to the start of encode.
    Handle = 1,
    /// From the start of encode until the next interval begins.
    Export = 2,
}

static CURRENT: AtomicU8 = AtomicU8::new(Interval::Export as u8);

/// Mark the start of `interval`. A relaxed store: the loop is
/// single-threaded, and the value publishes no other data.
pub fn enter(interval: Interval) {
    CURRENT.store(interval as u8, Ordering::Relaxed);
}

/// Span seconds collected in one interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub probe: f64,
    pub solve: f64,
}

/// Collects `probe_batch` and `solve_*` spans per [`Interval`].
#[derive(Default)]
pub struct LayerRecorder {
    totals: Mutex<[SpanTotals; 3]>,
}

impl LayerRecorder {
    /// The totals since the last drain, by interval; resets them.
    pub fn drain(&self) -> [SpanTotals; 3] {
        std::mem::take(&mut *self.totals.lock().expect("layer recorder poisoned"))
    }
}

impl SpanRecorder for LayerRecorder {
    fn record(&self, phase: &'static str, seconds: f64) {
        let slot = CURRENT.load(Ordering::Relaxed) as usize;
        let mut totals = self.totals.lock().expect("layer recorder poisoned");
        match phase {
            "probe_batch" => totals[slot].probe += seconds,
            // `pool_wait` nests inside `solve_sharded`; counting it
            // again would double the time.
            "solve_warm" | "solve_cold" | "solve_sharded" => totals[slot].solve += seconds,
            _ => {}
        }
    }

    fn record_value(&self, _phase: &'static str, _value: f64) {}
}

/// One request's traced measurements.
pub struct RequestSample {
    /// The `advance_to` interval (zero for reads), and the measurement
    /// and migration passes that ran in it.
    pub advance: Duration,
    pub passes: (u64, u64),
    pub decode: Duration,
    pub handle: Duration,
    pub encode: Duration,
    pub reply_decode: Duration,
    pub export: Duration,
    /// Span totals by [`Interval`].
    pub spans: [SpanTotals; 3],
    /// `placement_latency` histogram sum added during the advance and
    /// the handle interval.
    pub try_place_advance: f64,
    pub try_place_handle: f64,
}

/// Disjoint per-layer seconds of a traced pass's measured segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    pub decode: f64,
    pub encode: f64,
    pub reply_decode: f64,
    pub export: f64,
    pub measure_pass: f64,
    pub migration_pass: f64,
    pub integrate: f64,
    pub try_place: f64,
    pub probe: f64,
    pub solve: f64,
    pub step_other: f64,
    /// Inclusive: all `advance_to` intervals.
    pub advance: f64,
    /// Inclusive: all handle intervals.
    pub handle: f64,
    /// Wall time of the measured segment.
    pub wall: f64,
    /// Spans that fell in an export interval (expected to be none).
    pub export_spans: f64,
}

impl Attribution {
    /// Split one request into rows. Probe and solve spans are exact;
    /// `try_place` is its histogram time less the probe and solve time
    /// of the same interval (clamped at zero: migration passes also
    /// probe outside `try_place`); the remainder of each interval is
    /// its own layer's self time. An advance that ran no pass is
    /// integration; one that ran passes is split between measurement
    /// and migration passes by their counts, since both kinds can fall
    /// due at the same tick.
    pub fn add(&mut self, s: &RequestSample) {
        let secs = |d: Duration| d.as_secs_f64();
        let adv = s.spans[Interval::Advance as usize];
        let hdl = s.spans[Interval::Handle as usize];
        let tp_adv = (s.try_place_advance - adv.probe - adv.solve).max(0.0);
        let tp_hdl = (s.try_place_handle - hdl.probe - hdl.solve).max(0.0);
        let adv_rest = secs(s.advance) - tp_adv - adv.probe - adv.solve;
        let (measures, migrations) = s.passes;
        if measures + migrations == 0 {
            self.integrate += adv_rest;
        } else {
            let per_pass = adv_rest / (measures + migrations) as f64;
            self.measure_pass += per_pass * measures as f64;
            self.migration_pass += per_pass * migrations as f64;
        }
        self.try_place += tp_adv + tp_hdl;
        self.probe += adv.probe + hdl.probe;
        self.solve += adv.solve + hdl.solve;
        self.step_other += secs(s.handle) - tp_hdl - hdl.probe - hdl.solve;
        self.decode += secs(s.decode);
        self.encode += secs(s.encode);
        self.reply_decode += secs(s.reply_decode);
        self.export += secs(s.export);
        self.advance += secs(s.advance);
        self.handle += secs(s.handle);
        let exp = s.spans[Interval::Export as usize];
        self.export_spans += exp.probe + exp.solve;
    }

    /// The disjoint rows, in table order: `(name, seconds)`.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let rows = vec![
            ("wire.decode_s", self.decode),
            ("wire.encode_s", self.encode),
            ("wire.reply_decode_s", self.reply_decode),
            ("service.export_s", self.export),
            ("online.step_other_s", self.step_other),
            ("online.try_place_s", self.try_place),
            ("online.measure_pass_s", self.measure_pass),
            ("online.migration_pass_s", self.migration_pass),
            ("flowsim.integrate_s", self.integrate),
            ("flowsim.probe_s", self.probe),
            ("flowsim.solve_s", self.solve),
        ];
        let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
        let mut rows = rows;
        rows.push(("unattributed_s", self.wall - attributed));
        rows
    }

    /// Sum of several passes.
    pub fn merge(&mut self, o: &Attribution) {
        self.decode += o.decode;
        self.encode += o.encode;
        self.reply_decode += o.reply_decode;
        self.export += o.export;
        self.measure_pass += o.measure_pass;
        self.migration_pass += o.migration_pass;
        self.integrate += o.integrate;
        self.try_place += o.try_place;
        self.probe += o.probe;
        self.solve += o.solve;
        self.step_other += o.step_other;
        self.advance += o.advance;
        self.handle += o.handle;
        self.wall += o.wall;
        self.export_spans += o.export_spans;
    }
}
