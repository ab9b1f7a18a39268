//! `bench_service`: the placement service's request path, end to end
//! and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path bench_service/Cargo.toml -- \
//!     --workload churn --seed 7 --seconds 20 --trace 0
//! ```
//!
//! One closed-loop client replays a seeded workload as encoded
//! `ServiceRequest` frames through `PlacementService::poll` (see
//! `env.rs`), in repeated passes over fresh services until `--seconds`
//! have elapsed. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced passes and prints the per-layer
//! attribution. Both run every correctness check and exit non-zero when
//! one fails. The last stdout line is a JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. NOTES.md explains
//! the workloads and the layer → end-to-end map.

mod env;
mod pass;
mod speed;
mod trace;
mod workload;

use std::process::ExitCode;

use pass::Pass;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    events: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut workers, mut events) = (0usize, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--workers" => workers = num(&value)? as usize,
            "--events" => events = Some(num(&value)? as usize),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let args = Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        workers,
        events,
    };
    if args.events.is_some_and(|n| n < 12) {
        return Err("--events must be at least 12".into());
    }
    Ok(args)
}

/// Nearest-rank percentile of unsorted samples, `p` in (0, 1].
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Named metrics with units, printed and emitted in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Correctness checks; every failure is printed and makes the run fail.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// One stream's passes: untraced, and traced with `--trace 1`.
struct Stream {
    seed: u64,
    untraced: Pass,
    traced: Option<Pass>,
}

fn check_stream(i: usize, st: &Stream, checks: &mut Checks) {
    for p in std::iter::once(&st.untraced).chain(&st.traced) {
        checks.require(p.replied == p.sent && p.replies.bad == 0, || {
            format!(
                "stream {i}: {} replies to {} requests, {} undecodable or mismatched",
                p.replied, p.sent, p.replies.bad
            )
        });
        checks.require(p.replies.errors == 0, || {
            format!("stream {i}: {} Error replies to valid requests", p.replies.errors)
        });
    }
    if let Some(t) = &st.traced {
        checks.require(t.digest == st.untraced.digest, || {
            format!(
                "stream {i}: traced digest {:#018x} != untraced {:#018x}",
                t.digest, st.untraced.digest
            )
        });
        checks.require(t.counts == st.untraced.counts, || {
            format!("stream {i}: traced work counts differ from untraced")
        });
    }
}

/// Latency percentiles with the sample counts behind them.
fn print_latency(label: &str, samples: &[f64]) {
    let n = samples.len();
    if n == 0 {
        println!("{label:<15} no samples");
        return;
    }
    println!(
        "{label:<15} p50 {:>8.1} us  p99 {:>8.1} us  p99.9 {:>8.1} us  ({n} samples, {} beyond \
         p99, {} beyond p99.9)",
        percentile(samples, 0.50),
        percentile(samples, 0.99),
        percentile(samples, 0.999),
        beyond(n, 0.99),
        beyond(n, 0.999)
    );
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

fn end_to_end(streams: &[Stream], setups: &[f64], metrics: &mut Metrics) -> Result<(), String> {
    let passes: Vec<&Pass> = streams.iter().map(|s| &s.untraced).collect();
    let pooled = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let (lat, placed, queued) =
        (pooled(|p| &p.latency_us), pooled(|p| &p.placed_us), pooled(|p| &p.queued_us));
    if beyond(placed.len(), 0.90) < 10 {
        return Err(format!(
            "only {} placed-Admit samples: fewer than 10 beyond p90 (raise --seconds)",
            placed.len()
        ));
    }
    let requests: usize = passes.iter().map(|p| p.measured).sum();
    let wall: f64 = passes.iter().map(|p| p.quiet_wall_s).sum();
    let raw_wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let rps: Vec<f64> = passes.iter().map(|p| p.quiet_requests_per_s()).collect();
    let raw_lat = pooled(|p| &p.raw_latency_us);
    println!(
        "uncorrected     {:.0} req/s in {raw_wall:.3} s; request p50 {:.1} us, p99.9 {:.1} us; \
         mean correction x{:.3}",
        requests as f64 / raw_wall,
        percentile(&raw_lat, 0.50),
        percentile(&raw_lat, 0.999),
        wall / raw_wall
    );
    println!(
        "throughput      {:.0} req/s: {requests} requests in {wall:.3} quiet-host s over {} \
         streams (per stream min {:.0}, median {:.0}, max {:.0})",
        requests as f64 / wall,
        passes.len(),
        rps.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rps),
        rps.iter().copied().fold(0.0, f64::max)
    );
    print_latency("request", &lat);
    print_latency("admit placed", &placed);
    println!(
        "admit placed    p90 {:>8.1} us  ({} beyond p90)",
        percentile(&placed, 0.90),
        beyond(placed.len(), 0.90)
    );
    print_latency("admit queued", &queued);
    let mut r = env::Replies::default();
    for p in &passes {
        r.admitted += p.replies.admitted;
        r.queued += p.replies.queued;
        r.rejected += p.replies.rejected;
        r.done += p.replies.done;
        r.reads += p.replies.reads;
        r.errors += p.replies.errors;
    }
    println!(
        "replies         {} admitted, {} queued, {} rejected; {} done, {} reads, {} errors",
        r.admitted, r.queued, r.rejected, r.done, r.reads, r.errors
    );
    let departed: u64 = passes.iter().map(|p| p.departed).sum();
    let rate_sum: f64 = passes.iter().map(|p| p.tenant_rate_bps * p.departed as f64).sum();
    metrics.add("requests_per_s", requests as f64 / wall, "1/s");
    metrics.add("request_p50_us", percentile(&lat, 0.50), "us");
    metrics.add("request_p999_us", percentile(&lat, 0.999), "us");
    metrics.add("admit_placed_p90_us", percentile(&placed, 0.90), "us");
    metrics.add("tenant_rate_mbps", rate_sum / departed.max(1) as f64 / 1e6, "Mbit/s");
    metrics.add("setup_s", median(setups), "s");
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    if rss.iter().any(|v| !v.is_finite()) {
        return Err("could not read VmHWM from /proc/self/status".into());
    }
    println!(
        "peak rss        median {:.2} MB over {} passes ({}); process peak {:.2} MB",
        median(&rss),
        rss.len(),
        if passes.iter().all(|p| p.rss_reset) {
            "each pass's own peak"
        } else {
            "VmHWM reset refused: process peak at each pass's end"
        },
        pass::peak_rss_mb()?
    );
    metrics.add("peak_rss_mb", median(&rss), "MB");
    Ok(())
}

/// The traced passes' attribution table, per-layer metrics and design
/// checks.
fn per_layer(
    workload: Workload,
    streams: &[Stream],
    all: &[&Pass],
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let pairs: Vec<(&Pass, &Pass)> = streams
        .iter()
        .map(|s| (&s.untraced, s.traced.as_ref().expect("a traced run traces every stream")))
        .collect();
    let traced: Vec<&pass::Traced> =
        pairs.iter().map(|(_, t)| t.traced.as_ref().expect("traced pass")).collect();
    let mut total = trace::Attribution::default();
    let mut counts = pass::Counts::default();
    for (t, (_, p)) in traced.iter().zip(&pairs) {
        total.merge(&t.attribution);
        counts.add(&p.counts);
    }
    let rows = total.rows();
    println!("# attribution: traced wall {:.3} s over {} streams", total.wall, pairs.len());
    println!("{:<26}{:>10}{:>9}", "row", "s", "share");
    for (name, secs) in &rows {
        println!("{name:<26}{secs:>10.4}{:>8.1}%", 100.0 * secs / total.wall);
    }
    let attributed: f64 = rows.iter().filter(|(k, _)| *k != "unattributed_s").map(|r| r.1).sum();
    println!(
        "{:<26}{attributed:>10.4}{:>8.1}%   (inclusive: advance {:.4} s, handle {:.4} s)",
        "sum of attributed rows",
        100.0 * attributed / total.wall,
        total.advance,
        total.handle
    );
    checks.require((total.wall - attributed).abs() <= 0.05 * total.wall, || {
        format!(
            "attribution rows sum to {:.1}% of traced wall time (must be within 5%)",
            100.0 * attributed / total.wall
        )
    });
    checks.require(total.export_spans == 0.0, || {
        format!("{:.6} s of solver spans fell in export intervals", total.export_spans)
    });

    // Design checks: printed, not gated, since an optimisation may
    // rightly change which row is largest.
    let share =
        |name: &str| rows.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| v / total.wall);
    let largest = rows
        .iter()
        .filter(|(k, _)| *k != "unattributed_s")
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |(k, _)| *k);
    let (probe, export) = (share("flowsim.probe_s"), share("service.export_s"));
    let largest_is =
        |want: &str| (largest == want, format!("largest row is {largest} (want {want})"));
    let export_nil = (export < 0.01, format!("export share {:.2}% (want ~0)", 100.0 * export));
    let design = match workload {
        Workload::Churn => vec![largest_is("flowsim.probe_s"), export_nil],
        Workload::OpsMix => vec![
            largest_is("service.export_s"),
            (probe < 0.05, format!("probe share {:.2}% (want < 5%)", 100.0 * probe)),
        ],
        Workload::Faults => vec![export_nil],
    };
    for (ok, what) in &design {
        println!("design          {}: {what}", if *ok { "ok" } else { "MISMATCH" });
    }

    // Signed tracing cost: traced minus untraced requests/s, per stream.
    let overhead: Vec<f64> = pairs
        .iter()
        .map(|(u, t)| 100.0 * (t.requests_per_s() - u.requests_per_s()) / u.requests_per_s())
        .collect();
    let q1 = percentile(&overhead, 0.25);
    let q3 = percentile(&overhead, 0.75);
    println!(
        "trace_overhead  {:+.2}% median of {} streams, quartiles {q1:+.2}% .. {q3:+.2}% \
         (traced minus untraced requests/s; negative = tracing costs)",
        median(&overhead),
        overhead.len()
    );

    for (name, secs) in &rows {
        metrics.add(name, *secs, "s");
    }
    metrics.add("online.advance_s", total.advance, "s");
    metrics.add("service.handle_s", total.handle, "s");
    let bytes = |f: fn(&pass::Traced) -> u64| traced.iter().map(|t| f(t)).sum::<u64>() as f64;
    metrics.add("service.export_bytes", bytes(|t| t.export_bytes), "bytes");
    metrics.add("wire.bytes_in", bytes(|t| t.bytes_in), "bytes");
    metrics.add("wire.bytes_out", bytes(|t| t.bytes_out), "bytes");
    for (name, v) in pass::COUNT_NAMES.iter().zip(counts.0) {
        metrics.add(name, v as f64, "count");
    }
    let useful = ["online.admitted", "online.queue_admitted", "online.migrations"]
        .iter()
        .map(|n| counts.get(n))
        .sum::<u64>() as f64;
    let calls = counts.get("online.try_place_calls").max(1) as f64;
    metrics.add("online.place_useful_ratio", useful / calls, "ratio");
    let replies =
        |f: fn(&env::Replies) -> u64| pairs.iter().map(|(_, t)| f(&t.replies)).sum::<u64>() as f64;
    metrics.add("service.rejected_replies", replies(|r| r.rejected), "count");
    metrics.add("service.error_replies", replies(|r| r.errors), "count");
    let setup =
        |f: fn(&pass::Setup) -> f64| median(&all.iter().map(|p| f(&p.setup)).collect::<Vec<_>>());
    metrics.add("topology.build_s", setup(|s| s.topology_s), "s");
    metrics.add("topology.routes_s", setup(|s| s.routes_s), "s");
    metrics.add("service.new_s", setup(|s| s.service_s), "s");
    metrics.add("trace_overhead_pct", median(&overhead), "%");
    metrics.add("trace_overhead_iqr_pct", q3 - q1, "%");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_service: {e}");
            eprintln!(
                "usage: bench_service --workload churn|ops_mix|faults --seed N --seconds S \
                 --trace 0|1 [--workers N] [--events N]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let events = args.events.unwrap_or(workload::STREAM_REQUESTS);
    let n_streams = w.streams(args.seconds, args.trace);
    let online = w.online_config(args.workers);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# bench_service: workload {}, seed {}, {n_streams} streams of {events} requests \
         (first 1/6 of each is warm-up), nproc {nproc}, workers {}, closed loop with 1 client",
        w.name(),
        args.seed,
        args.workers
    );
    if args.workers != 0 {
        println!(
            "# --workers {} selects the sharded solver: not the benchmark's setting",
            args.workers
        );
    }

    // Each stream once on a fresh service (untraced, and traced with
    // the order alternating). Stream 0 also runs a check-only repeat
    // and the same events straight into the scheduler.
    let run =
        |inputs: &workload::Inputs, traced| pass::run(inputs, &online, w.exports_trace(), traced);
    let mut streams = Vec::with_capacity(n_streams);
    let mut extra = Vec::new();
    let mut checks = Checks::default();
    for k in 0..n_streams {
        let seed = workload::stream_seed(args.seed, k);
        let inputs = workload::build(w, seed, events);
        let (untraced, traced) = if args.trace && k % 2 == 1 {
            let t = run(&inputs, true);
            (run(&inputs, false), Some(t))
        } else {
            let u = run(&inputs, false);
            (u, args.trace.then(|| run(&inputs, true)))
        };
        if k == 0 {
            let repeat = run(&inputs, false);
            let direct = pass::direct_digest(&inputs.events, &online);
            println!(
                "digest          stream 0 (seed {seed}): {:#018x}; repeat {:#018x}; direct \
                 OnlineScheduler pass {direct:#018x}",
                untraced.digest, repeat.digest
            );
            checks.require(repeat.digest == untraced.digest, || {
                "stream 0: the repeat pass landed on another digest".into()
            });
            checks.require(direct == untraced.digest, || {
                "stream 0: the frame path and the direct scheduler pass disagree".into()
            });
            extra.push(repeat);
        }
        let st = Stream { seed, untraced, traced };
        check_stream(k, &st, &mut checks);
        streams.push(st);
    }
    for (k, st) in streams.iter().enumerate() {
        let p = &st.untraced;
        println!(
            "stream {k:<3}     seed {:<20} digest {:#018x}  {:>6.0} req/s untraced{}",
            st.seed,
            p.digest,
            p.requests_per_s(),
            st.traced
                .as_ref()
                .map_or(String::new(), |t| format!(", {:>6.0} traced", t.requests_per_s()))
        );
    }

    let all: Vec<&Pass> = streams
        .iter()
        .flat_map(|s| std::iter::once(&s.untraced).chain(&s.traced))
        .chain(&extra)
        .collect();
    let setups: Vec<f64> = all.iter().map(|p| p.quiet_setup_s).collect();
    let mut metrics = Metrics::default();
    if args.trace {
        per_layer(w, &streams, &all, &mut metrics, &mut checks);
    } else if let Err(e) = end_to_end(&streams, &setups, &mut metrics) {
        checks.0.push(e);
    }

    for c in &checks.0 {
        println!("CHECK FAILED: {c}");
    }
    println!("# metrics");
    for (name, v, unit) in &metrics.0 {
        println!("{name:<30}{v:>18.6} {unit}");
    }
    let attempted: usize = all.iter().map(|p| p.sent).sum();
    let failed: u64 = all
        .iter()
        .map(|p| p.replies.errors + p.replies.bad + (p.sent - p.replied.min(p.sent)) as u64)
        .sum();
    let correct = checks.0.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
