//! The host's speed, sampled between chunks of timed work.
//!
//! The benchmark runs on shared cores whose speed moves by itself: the
//! same fixed loop, timed back to back, swings up to 2× within a second
//! and drifts between slow and fast stretches that last seconds to
//! minutes. Thread CPU time moves with wall time and steal time stays
//! near zero, so the cause is contention for the core and its caches,
//! and no clock of the process can subtract it. Every timing the
//! end-to-end metrics use is therefore corrected for it.
//!
//! A [`Speedometer`] times a fixed probe between chunks of [`CHUNK`] of
//! timed work. The probe is independent of the code under test and
//! mixes the two kinds of work the benchmark spends its time on: a
//! hash-map tally over a private table (branchy and cache-bound, like
//! the scheduler and the solver) and JSON-like lines with floats
//! rendered into one growing string (like the trace export and the
//! wire replies). The work of a chunk is scaled by
//! `(REFERENCE_PROBE_NS / probe)^SENSITIVITY`, the probe taken as the
//! mean of the samples on either side of the chunk. A corrected time
//! reads as the time the work would take on a host where the probe
//! takes [`REFERENCE_PROBE_NS`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time in the usual state of the 2-core Xeon (2.1 GHz) the
/// benchmark was tuned on. Only the ratio to it matters when comparing
/// runs on one host.
pub const REFERENCE_PROBE_NS: f64 = 850_000.0;

/// How much more the program slows than the probe when the host does:
/// the slope of log uncorrected throughput and latency against log
/// probe speed, fitted over 62 runs of the three workloads whose host
/// speed ranged over 0.77–1.21 of the reference (slopes 0.94–1.47).
const SENSITIVITY: f64 = 1.25;

/// Timed work between two probes.
pub const CHUNK: Duration = Duration::from_millis(10);

/// Values tallied per probe, and the distinct keys they fall on.
const VALUES: usize = 16_384;
const KEYS: u64 = 4_096;

/// Lines rendered per probe.
const LINES: usize = 1_000;

/// A hasher with fixed keys, so every process probes the same layout.
type FixedHash = BuildHasherDefault<DefaultHasher>;

pub struct Speedometer {
    values: Vec<u64>,
    /// The last probe, in nanoseconds.
    last_ns: f64,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let values = (0..VALUES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut m = Speedometer { values, last_ns: 0.0 };
        m.last_ns = m.probe_ns();
        m
    }

    fn probe_ns(&self) -> f64 {
        let t0 = Instant::now();
        let mut tally: HashMap<u64, u64, FixedHash> = HashMap::default();
        for (k, x) in self.values.iter().enumerate() {
            *tally.entry(x % KEYS).or_insert(0) += k as u64;
        }
        black_box(&tally);
        let mut text = String::new();
        for (k, x) in self.values[..LINES].iter().enumerate() {
            let score = (x >> 11) as f64 / (1u64 << 53) as f64;
            let line = format!(
                "{{\"seq\":{k},\"kind\":\"admit\",\"score\":{score},\"gain\":{}}}",
                score * 0.5
            );
            text.push_str(&line);
            text.push('\n');
        }
        black_box(&text);
        t0.elapsed().as_nanos() as f64
    }

    /// Probe now; returns the factor that corrects the work timed since
    /// the previous probe.
    pub fn factor(&mut self) -> f64 {
        let now = self.probe_ns();
        let f = (2.0 * REFERENCE_PROBE_NS / (self.last_ns + now)).powf(SENSITIVITY);
        self.last_ns = now;
        f
    }
}
