//! One pass: a fresh service replays every frame of a workload.
//!
//! The first `warmup` frames fill the cluster; the rest are the measured
//! segment. An untraced pass stamps each request's wire boundaries and
//! times the measured segment in chunks, with a host-speed probe
//! between chunks (`speed.rs`) that corrects its wall time and
//! latencies. A traced pass also advances the scheduler clock before
//! each clock-moving request, collects solver spans and reads the
//! `placement_latency` histogram around every interval.

use std::sync::Arc;
use std::time::{Duration, Instant};

use choreo_flowsim::SolveStats;
use choreo_metrics::span;
use choreo_online::{OnlineConfig, OnlineScheduler, SchedulerBuilder};
use choreo_profile::ServiceEvent;
use choreo_service::{PlacementService, ServiceConfig};
use choreo_topology::RouteTable;

use crate::env::{FrameEnv, Replies};
use crate::speed::{Speedometer, CHUNK};
use crate::trace::{self, Attribution, Interval, LayerRecorder, RequestSample};
use crate::workload::{bench_tree, Frame, Inputs};

/// Placement seed of every run (`ServiceConfig { seed: 42 }`).
pub const SERVICE_SEED: u64 = 42;

/// Set-up wall time of one pass, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub topology_s: f64,
    pub routes_s: f64,
    /// `PlacementService::new`, plus `trace_export` where attached.
    pub service_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.topology_s + self.routes_s + self.service_s
    }
}

/// Names of the deterministic work counts, as per-layer metrics.
pub const COUNT_NAMES: [&str; 17] = [
    "online.try_place_calls",
    "online.admitted",
    "online.queue_admitted",
    "online.migrations",
    "online.measurement_passes",
    "online.migration_passes",
    "online.drift_detected",
    "online.network_events",
    "flowsim.probe_batches",
    "flowsim.probes",
    "flowsim.probe_replay_rounds",
    "flowsim.warm_solves",
    "flowsim.cold_solves",
    "flowsim.sharded_solves",
    "flowsim.live_rounds",
    "flowsim.replayed_rounds",
    "flowsim.dirty_resources",
];

/// Work counts, in [`COUNT_NAMES`] order: `try_place` calls (the
/// `placement_latency` histogram's count), `ServiceStats` counters and
/// `FlowSim::solve_stats()`. They repeat exactly for given inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub [u64; 17]);

impl Counts {
    fn read(svc: &mut PlacementService<FrameEnv<'_>>) -> Counts {
        let try_place_calls = svc.scheduler().metrics().placement_latency.count();
        let st = svc.scheduler().stats();
        let online = [
            try_place_calls,
            st.admitted,
            st.queue_admitted,
            st.migrations,
            st.measurement_passes,
            st.migration_passes,
            st.drift_detected,
            st.network_events,
        ];
        let f: SolveStats = svc.scheduler_mut().sim_mut().solve_stats();
        let flowsim = [
            f.probe_batches,
            f.probes,
            f.probe_replay_rounds,
            f.warm_solves,
            f.cold_solves,
            f.sharded_solves,
            f.live_rounds,
            f.replayed_rounds,
            f.dirty_resources,
        ];
        let mut c = Counts::default();
        for (slot, v) in c.0.iter_mut().zip(online.into_iter().chain(flowsim)) {
            *slot = v;
        }
        c
    }

    /// `self - earlier`, count by count.
    fn since(mut self, earlier: &Counts) -> Counts {
        for (a, b) in self.0.iter_mut().zip(earlier.0) {
            *a -= b;
        }
        self
    }

    /// Add another segment's counts.
    pub fn add(&mut self, o: &Counts) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }

    /// The count named `name` in [`COUNT_NAMES`].
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNT_NAMES.iter().position(|n| *n == name).expect("a known count");
        self.0[i]
    }
}

/// What the traced pass adds.
pub struct Traced {
    pub attribution: Attribution,
    /// Request and reply frame bytes of the measured segment. A
    /// `Metrics` reply renders wall-clock histograms, so its length
    /// varies run to run.
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Bytes of the trace export handle, summed over the measured
    /// requests (0 when no export is attached).
    pub export_bytes: u64,
}

/// Everything one pass measured and checked.
pub struct Pass {
    pub setup: Setup,
    /// Set-up time corrected for the host's speed (see `speed.rs`).
    pub quiet_setup_s: f64,
    /// Measured-segment wall time and request count.
    pub wall_s: f64,
    pub measured: usize,
    /// `wall_s` corrected for the host's speed. A traced pass is not
    /// corrected: there it equals `wall_s`.
    pub quiet_wall_s: f64,
    /// Per-request latency (decode start → reply encoded) of the
    /// measured segment, corrected like `quiet_wall_s`: every request,
    /// `Admit`s answered `Admitted`, and `Admit`s answered `Queued`.
    pub latency_us: Vec<f64>,
    /// The same latencies, uncorrected.
    pub raw_latency_us: Vec<f64>,
    pub placed_us: Vec<f64>,
    pub queued_us: Vec<f64>,
    /// Work counts of the measured segment.
    pub counts: Counts,
    /// Requests sent and replies recorded, whole pass.
    pub sent: usize,
    pub replied: usize,
    pub replies: Replies,
    pub digest: u64,
    /// Departed tenants and their mean service rate.
    pub departed: u64,
    pub tenant_rate_bps: f64,
    pub traced: Option<Traced>,
    /// Peak resident set while the pass ran (NaN if unreadable), and
    /// whether it was reset at the pass's start; if not, it is the
    /// process's peak so far.
    pub peak_rss_mb: f64,
    pub rss_reset: bool,
}

impl Pass {
    /// Uncorrected throughput of the measured segment.
    pub fn requests_per_s(&self) -> f64 {
        self.measured as f64 / self.wall_s
    }

    /// Throughput corrected for the host's speed.
    pub fn quiet_requests_per_s(&self) -> f64 {
        self.measured as f64 / self.quiet_wall_s
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Reset the peak resident set to the current one, so that the next
/// [`peak_rss_mb`] reads the peak since now. False where the kernel
/// refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Build the service (the timed set-up) around a fresh env.
fn set_up<'a>(
    inputs: &'a Inputs,
    online: &OnlineConfig,
    export: bool,
) -> (PlacementService<FrameEnv<'a>>, Setup, Option<Arc<std::sync::Mutex<String>>>) {
    let t0 = Instant::now();
    let topo = Arc::new(bench_tree());
    let t1 = Instant::now();
    let routes = Arc::new(RouteTable::new(&topo));
    let t2 = Instant::now();
    let cfg =
        ServiceConfig { online: online.clone(), seed: SERVICE_SEED, ..ServiceConfig::default() };
    let mut svc = PlacementService::new(topo, routes, cfg, FrameEnv::new(&inputs.frames));
    let handle = export.then(|| svc.trace_export());
    let t3 = Instant::now();
    let setup =
        Setup { topology_s: secs(t1 - t0), routes_s: secs(t2 - t1), service_s: secs(t3 - t2) };
    (svc, setup, handle)
}

/// Replay every frame through a fresh service.
pub fn run(inputs: &Inputs, online: &OnlineConfig, export: bool, traced: bool) -> Pass {
    let rss_reset = reset_peak_rss();
    let mut meter = Speedometer::new();
    meter.factor();
    let (mut svc, setup, handle) = set_up(inputs, online, export);
    let quiet_setup_s = setup.total() * meter.factor();
    let warmup = inputs.warmup;
    // Correction factor of each measured request, one entry per chunk:
    // (replies recorded when the chunk ended, factor).
    let mut chunks: Vec<(usize, f64)> = Vec::new();
    let (wall_s, quiet_wall_s, counts, traced) = if traced {
        let (wall, counts, t) = traced_loop(&mut svc, &inputs.frames, warmup, handle.as_deref());
        (wall, wall, counts, Some(t))
    } else {
        for _ in 0..warmup {
            svc.poll();
        }
        let counts0 = Counts::read(&mut svc);
        let (mut wall, mut quiet) = (0.0, 0.0);
        meter.factor();
        loop {
            let t0 = Instant::now();
            let mut more = true;
            while more && t0.elapsed() < CHUNK {
                more = svc.poll();
            }
            let dt = secs(t0.elapsed());
            let f = meter.factor();
            wall += dt;
            quiet += dt * f;
            chunks.push((svc.env().marks.len(), f));
            if !more {
                break;
            }
        }
        (wall, quiet, Counts::read(&mut svc).since(&counts0), None)
    };
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    svc.scheduler().check_invariants();
    let digest = svc.trace_hash();
    let stats = svc.scheduler().stats();
    let (departed, tenant_rate_bps) =
        (stats.departed, stats.mean_departed_rate_bps().unwrap_or(0.0));
    let env = svc.into_env();
    let mut latency_us = Vec::with_capacity(env.marks.len().saturating_sub(warmup));
    let mut raw_latency_us = Vec::with_capacity(latency_us.capacity());
    let (mut placed_us, mut queued_us) = (Vec::new(), Vec::new());
    let mut chunk = chunks.iter().peekable();
    for (i, m) in env.marks.iter().enumerate().skip(warmup) {
        while chunk.next_if(|(end, _)| *end <= i).is_some() {}
        let f = chunk.peek().map_or(1.0, |(_, f)| *f);
        let raw = secs(m.encode_end - m.decode_start) * 1e6;
        raw_latency_us.push(raw);
        let us = raw * f;
        latency_us.push(us);
        if m.placed {
            placed_us.push(us);
        } else if m.queued {
            queued_us.push(us);
        }
    }
    Pass {
        setup,
        quiet_setup_s,
        wall_s,
        measured: inputs.frames.len() - warmup,
        quiet_wall_s,
        latency_us,
        raw_latency_us,
        placed_us,
        queued_us,
        counts,
        sent: inputs.frames.len(),
        replied: env.marks.len(),
        replies: env.replies,
        digest,
        departed,
        tenant_rate_bps,
        traced,
        peak_rss_mb,
        rss_reset,
    }
}

/// The traced loop: per request, `advance_to` its time (timed, and
/// classified by the pass counters), then poll, then split the request
/// into layer rows. Returns the measured-segment wall time.
fn traced_loop(
    svc: &mut PlacementService<FrameEnv<'_>>,
    frames: &[Frame],
    warmup: usize,
    export: Option<&std::sync::Mutex<String>>,
) -> (f64, Counts, Traced) {
    let recorder = Arc::new(LayerRecorder::default());
    span::install(recorder.clone());
    let hist = svc.scheduler().metrics().placement_latency.clone();
    let mut attribution = Attribution::default();
    let mut export_bytes = 0u64;
    let mut start = Instant::now();
    let mut counts0 = Counts::default();
    let mut bytes0 = (0, 0);
    for (i, frame) in frames.iter().enumerate() {
        if i == warmup {
            recorder.drain();
            counts0 = Counts::read(svc);
            bytes0 = (svc.env().bytes_in, svc.env().bytes_out);
            start = Instant::now();
        }
        let h0 = hist.sum();
        trace::enter(Interval::Advance);
        let (measures0, migrations0) = {
            let s = svc.scheduler().stats();
            (s.measurement_passes, s.migration_passes)
        };
        let a0 = Instant::now();
        if frame.kind.advances() {
            svc.scheduler_mut().advance_to(frame.at);
        }
        let advance = a0.elapsed();
        let passes = {
            let s = svc.scheduler().stats();
            (s.measurement_passes - measures0, s.migration_passes - migrations0)
        };
        let h1 = hist.sum();
        svc.poll();
        let poll_end = Instant::now();
        let h2 = hist.sum();
        let spans = recorder.drain();
        let marks = &svc.env().marks;
        if marks.len() != i + 1 {
            break; // no reply: the reply-count check reports it
        }
        if i < warmup {
            continue;
        }
        let m = marks[i];
        attribution.add(&RequestSample {
            advance,
            passes,
            decode: m.decode_end - m.decode_start,
            handle: m.encode_start - m.decode_end,
            encode: m.encode_end - m.encode_start,
            reply_decode: m.reply_decoded - m.encode_end,
            export: poll_end - m.reply_decoded,
            spans,
            try_place_advance: h1 - h0,
            try_place_handle: h2 - h1,
        });
        if let Some(e) = export {
            export_bytes += e.lock().expect("trace export poisoned").len() as u64;
        }
    }
    let end = Instant::now();
    span::uninstall();
    attribution.wall = secs(end - start);
    let counts = Counts::read(svc).since(&counts0);
    let (bytes_in, bytes_out) = (svc.env().bytes_in - bytes0.0, svc.env().bytes_out - bytes0.1);
    (attribution.wall, counts, Traced { attribution, bytes_in, bytes_out, export_bytes })
}

/// The same events driven straight into an [`OnlineScheduler`]: the
/// frame path must land on this digest.
pub fn direct_digest(events: &[ServiceEvent], online: &OnlineConfig) -> u64 {
    let topo = Arc::new(bench_tree());
    let routes = Arc::new(RouteTable::new(&topo));
    let mut sched: OnlineScheduler =
        SchedulerBuilder::new(topo, routes).config(online.clone()).seed(SERVICE_SEED).build();
    for ev in events {
        sched.service_step(ev);
    }
    sched.check_invariants();
    sched.stats().trace_hash()
}
