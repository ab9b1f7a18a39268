//! Online placement-service throughput, latency and quality.
//!
//! Drives the `choreo-online` service with a seeded multi-tenant
//! [`WorkloadStream`] on a 128-host / 8-pod multi-rooted tree and
//! measures, at steady state (after a warm-up prefix):
//!
//! * **throughput** — tenant events consumed per second of wall clock,
//!   serial (acceptance floor: ≥ 10k events/sec on quiet hardware; the
//!   CI gate applies a looser floor to absorb shared-runner noise);
//! * **placement latency** — wall-clock p50/p99 of the admission path
//!   (candidate-subset selection + batched live what-if probes + greedy
//!   walk), measured per arrival;
//! * **quality** — mean departed-tenant service rate under the greedy
//!   policy vs the seeded random-placement baseline on the *same* event
//!   stream (migration planner off for the baseline: it would repair
//!   random placements with greedy moves).
//!
//! Determinism is asserted, not assumed: the measured run's trajectory
//! digest must be bit-identical to a fresh repeat.
//!
//! # Observability overhead
//!
//! A fully instrumented twin of the measured run — labeled metric
//! families registered against a live registry, the solver-phase span
//! recorder installed, the decision trace exported as JSONL — must (a)
//! land on the same trajectory digest bit-for-bit (instrumentation is
//! observational-only) and (b) cost at most 5% throughput against the
//! recorder-less run. The two run in lockstep over the same stream, in
//! 50 interleaved bare/instrumented chunk pairs; `obs_overhead_pct` is
//! the median pair's throughput gap, signed (negative when the
//! instrumented side was faster) and unclamped, and
//! `obs_overhead_min_pct`/`obs_overhead_max_pct` give the spread across
//! the pairs.
//!
//! # Host-count sweep (the scale ladder)
//!
//! After the 128-host measurement, the bench climbs a 128 → 512 → 2048
//! host ladder under the **same** tenant stream (constant offered load,
//! growing cluster) and emits, per rung: best-of-3 ns/event, the flow
//! record table's final size and the peak concurrent flow count. Each
//! rung runs 3 repeats and asserts their trajectory digests are
//! bit-identical; every rung asserts the recycling memory
//! ceiling (`flow_records ≤ 2 × peak concurrent flows`), and the
//! 2048-host rung additionally asserts its per-event cost stays within
//! 1.2× of the 128-host rung — the scaling curve, not one point, is the
//! deliverable. `CHOREO_SWEEP_MAX_HOSTS` caps the ladder (CI runs
//! 128/512; the 2048 rung is exercised locally).
//!
//! # Failure/recovery and saturation
//!
//! Two robustness scenarios close the bench. The **failover** scenario
//! fails a quarter of the links at steady state, lets the drift
//! detector and forced migration passes respond, recovers the links,
//! and asserts the tenants end at ≥ half their pre-failure mean rate.
//! The **saturation sweep** replays the same tenant shape at 1–8× the
//! nominal arrival rate and locates the rejection knee (`sweep_load_*`
//! keys); nominal load must be rejection-free.
//!
//! # Adversarial workload shapes
//!
//! A final block replays the hostile generator shapes (`shape_*` keys):
//! heavy-tailed tenant sizes, a flash-crowd peak sweep locating its
//! rejection knee, correlated arrival batches and the cross-pod
//! pattern — each against the nominal baseline on the same cluster,
//! every run digest-asserted against a repeat — plus a correlated
//! whole-switch outage that must recover to ≥ 0.5× the pre-failure
//! mean networked rate with failure rejections accounted.
//!
//! Emits `BENCH_online.json`.

use std::sync::Arc;
use std::time::Instant;

use choreo_bench::{median, pctile, JsonReport};
use choreo_metrics::span::RegistrySpans;
use choreo_metrics::{parse, span, Registry};
use choreo_online::{
    DriftConfig, MigrationConfig, OnlineConfig, OnlineScheduler, PlacementPolicy, SchedulerBuilder,
};
use choreo_profile::{
    switch_link_groups, AppPattern, CorrelatedBatchConfig, FlashCrowdConfig, HeavyTailConfig,
    NetworkEvent, NetworkEventKind, TenantEvent, TenantEventKind, WorkloadGenConfig,
    WorkloadStream, WorkloadStreamConfig,
};
use choreo_topology::{MultiRootedTreeSpec, RouteTable, Topology, SECS};

/// The service cluster: 8 pods × 4 ToRs × 4 hosts = 128 hosts, two
/// cores — the same shape as the 128-host rung of the fair-share
/// bench's sweep.
fn bench_tree() -> Topology {
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 8,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    };
    let topo = spec.build();
    assert_eq!(topo.hosts().len(), 128);
    topo
}

/// The tenant stream: ~2 s mean inter-arrival against ~120 s median
/// lifetimes pushes ~30 tenants (plus a busy wait queue) onto the
/// cluster at steady state — enough cross-tenant path contention that
/// the migration planner fires for real — and the 12 s intensity clock
/// makes load changes the bulk of the event mix: the service shape, not
/// an arrival microbenchmark.
fn stream(seed: u64) -> WorkloadStream {
    let cfg = WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival: 2 * SECS,
            ..Default::default()
        },
        mean_intensity_change: 12 * SECS,
        max_intensity: 3,
        ..Default::default()
    };
    WorkloadStream::new(cfg, seed)
}

fn service_config(policy: PlacementPolicy) -> OnlineConfig {
    OnlineConfig {
        policy,
        migration: match policy {
            // The baseline must stay network-oblivious end to end.
            PlacementPolicy::Random(_) => MigrationConfig { cadence: None, ..Default::default() },
            PlacementPolicy::Greedy => MigrationConfig::default(),
        },
        // Drift re-measurement routes tenants into forced migration
        // passes, so the baseline must have it off too.
        drift: match policy {
            PlacementPolicy::Random(_) => DriftConfig { cadence: None, ..Default::default() },
            PlacementPolicy::Greedy => DriftConfig::default(),
        },
        ..Default::default()
    }
}

fn build(policy: PlacementPolicy) -> OnlineScheduler {
    let topo = Arc::new(bench_tree());
    let routes = Arc::new(RouteTable::new(&topo));
    SchedulerBuilder::new(topo, routes).config(service_config(policy)).seed(42).build()
}

struct Run {
    events_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    trace_hash: u64,
    mean_rate_bps: Option<f64>,
    active: usize,
    migrations: u64,
}

/// One rung of the host-count ladder. Pod width and uplink fan-out grow
/// with the rung; the tenant stream does not (constant offered load on a
/// growing cluster), so flat per-event cost across rungs means the
/// engine's per-event work is O(concurrent flows), not O(hosts).
struct RungSpec {
    hosts: usize,
    cores: usize,
    pods: usize,
    aggs_per_pod: usize,
    tors_per_pod: usize,
    hosts_per_tor: usize,
    /// ECMP paths retained per host pair — tightened on the big rungs to
    /// keep the all-pairs route table's memory in check.
    max_paths: usize,
}

const RUNGS: [RungSpec; 3] = [
    // The measurement tree above, verbatim.
    RungSpec {
        hosts: 128,
        cores: 2,
        pods: 8,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        max_paths: 16,
    },
    RungSpec {
        hosts: 512,
        cores: 4,
        pods: 8,
        aggs_per_pod: 4,
        tors_per_pod: 8,
        hosts_per_tor: 8,
        max_paths: 4,
    },
    RungSpec {
        hosts: 2048,
        cores: 4,
        pods: 32,
        aggs_per_pod: 4,
        tors_per_pod: 8,
        hosts_per_tor: 8,
        max_paths: 2,
    },
];

struct SweepRung {
    hosts: usize,
    ns_per_event: f64,
    flow_records: usize,
    peak_concurrent: usize,
}

/// One timed run on a prebuilt rung topology: total steady-state
/// wall-clock over the post-warmup events, no per-arrival sampling.
fn sweep_run(
    topo: &Arc<Topology>,
    routes: &Arc<RouteTable>,
    events: &[TenantEvent],
    warmup: usize,
) -> (f64, u64, usize, usize) {
    let mut svc = SchedulerBuilder::new(Arc::clone(topo), Arc::clone(routes))
        .config(service_config(PlacementPolicy::Greedy))
        .seed(42)
        .build();
    for ev in &events[..warmup] {
        svc.step(ev);
    }
    let t0 = Instant::now();
    for ev in &events[warmup..] {
        svc.step(ev);
    }
    let ns_per_event = t0.elapsed().as_nanos() as f64 / (events.len() - warmup) as f64;
    let trace = svc.stats().trace_hash();
    let sim = svc.sim_mut();
    (ns_per_event, trace, sim.flow_records(), sim.peak_active_flows())
}

/// Climb the ladder: per rung, 3 identical-trajectory repeats
/// (digest-asserted; best-of-3 timing) plus the recycling memory-ceiling
/// assert.
fn run_sweep(max_hosts: usize, warmup: usize, total: usize) -> Vec<SweepRung> {
    let events: Vec<TenantEvent> = stream(7).take(total).collect();
    let mut rungs = Vec::new();
    for spec in RUNGS.iter().filter(|r| r.hosts <= max_hosts) {
        let topo = Arc::new(
            MultiRootedTreeSpec {
                cores: spec.cores,
                pods: spec.pods,
                aggs_per_pod: spec.aggs_per_pod,
                tors_per_pod: spec.tors_per_pod,
                hosts_per_tor: spec.hosts_per_tor,
                ..Default::default()
            }
            .build(),
        );
        assert_eq!(topo.hosts().len(), spec.hosts);
        let routes = Arc::new(RouteTable::with_max_paths(&topo, spec.max_paths));
        let mut best = f64::INFINITY;
        let mut digest = None;
        let (mut records, mut concurrent) = (0, 0);
        for repeat in 0..3 {
            let (ns, trace, recs, conc) = sweep_run(&topo, &routes, &events, warmup);
            match digest {
                None => digest = Some(trace),
                Some(d) => assert_eq!(d, trace, "{} hosts: repeat {repeat} diverged", spec.hosts),
            }
            best = best.min(ns);
            (records, concurrent) = (recs, conc);
        }
        assert!(
            records <= 2 * concurrent.max(1),
            "{} hosts: {records} flow records for {concurrent} peak concurrent flows — \
             recycling ceiling breached",
            spec.hosts
        );
        println!(
            "sweep\t{} hosts\t{best:.0} ns/event\t{records} flow records\t\
             {concurrent} peak concurrent flows",
            spec.hosts
        );
        rungs.push(SweepRung {
            hosts: spec.hosts,
            ns_per_event: best,
            flow_records: records,
            peak_concurrent: concurrent,
        });
    }
    // The scale-ladder acceptance bar: constant offered load must cost
    // (nearly) the same per event on 16× the hosts.
    if let (Some(first), Some(last)) = (rungs.first(), rungs.iter().find(|r| r.hosts == 2048)) {
        let ratio = last.ns_per_event / first.ns_per_event;
        assert!(
            ratio <= 1.2,
            "2048-host rung costs {ratio:.2}x the 128-host rung per event (ceiling 1.2x)"
        );
    }
    rungs
}

struct Failover {
    prefail_bps: f64,
    degraded_bps: f64,
    recovered_bps: f64,
    drift_detected: u64,
    failure_migrations: u64,
}

/// The failure/recovery scenario: bring the 128-host service to steady
/// state, fail every fourth link, let the drift detector and the forced
/// migration passes fight back, recover the links, and let a few more
/// re-measurement epochs settle. The deliverable is the acceptance bar
/// that degraded tenants end up at ≥ half their pre-failure mean rate —
/// drift-triggered re-placement working end to end, not just counted.
fn run_failover() -> Failover {
    let topo = Arc::new(bench_tree());
    let routes = Arc::new(RouteTable::new(&topo));
    let mut cfg = service_config(PlacementPolicy::Greedy);
    cfg.drift = DriftConfig { cadence: Some(5 * SECS), ..Default::default() };
    let mut svc = SchedulerBuilder::new(Arc::clone(&topo), routes).config(cfg).seed(42).build();
    for ev in stream(7).take(2_500) {
        svc.step(&ev);
    }
    let t0 = svc.now();
    let prefail = svc.mean_networked_score().expect("networked tenants running");
    let failed: Vec<u32> = (0..topo.links().len() as u32).step_by(4).collect();
    for &link in &failed {
        svc.network_step(&NetworkEvent { at: t0 + SECS, link, kind: NetworkEventKind::LinkFail });
    }
    svc.advance_to(t0 + 16 * SECS); // three drift epochs under failure
    let degraded = svc.mean_networked_score().expect("tenants still running");
    for &link in &failed {
        svc.network_step(&NetworkEvent {
            at: t0 + 17 * SECS,
            link,
            kind: NetworkEventKind::LinkRecover,
        });
    }
    svc.advance_to(t0 + 60 * SECS); // epochs after recovery: drift fires again
    let recovered = svc.mean_networked_score().expect("tenants still running");
    let s = svc.stats();
    Failover {
        prefail_bps: prefail,
        degraded_bps: degraded,
        recovered_bps: recovered,
        drift_detected: s.drift_detected,
        failure_migrations: s.failure_migrations,
    }
}

struct SatPoint {
    mult: u64,
    rejected: u64,
    queued: u64,
    queue_depth: usize,
    slo_misses: u64,
}

/// The offered-load saturation sweep: the same tenant shape at 1×, 2×,
/// 4× and 8× the nominal arrival rate on a 32-host cluster with a short
/// wait queue. The knee — the first load with rejections — must sit
/// strictly above nominal: the service absorbs its design load without
/// turning anyone away, and the sweep shows where that stops.
fn run_saturation() -> (Vec<SatPoint>, u64) {
    let topo = Arc::new(
        MultiRootedTreeSpec {
            cores: 2,
            pods: 2,
            aggs_per_pod: 2,
            tors_per_pod: 4,
            hosts_per_tor: 4,
            ..Default::default()
        }
        .build(),
    );
    assert_eq!(topo.hosts().len(), 32);
    let routes = Arc::new(RouteTable::new(&topo));
    let mut points = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        let cfg = WorkloadStreamConfig {
            gen: WorkloadGenConfig {
                tasks_min: 4,
                tasks_max: 8,
                mean_interarrival: 30 * SECS / mult,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut svc = SchedulerBuilder::new(Arc::clone(&topo), Arc::clone(&routes))
            .config(OnlineConfig { queue_capacity: 8, ..service_config(PlacementPolicy::Greedy) })
            .seed(42)
            .build();
        for ev in WorkloadStream::new(cfg, 13).take(2_000) {
            svc.step(&ev);
        }
        let (met, total) = svc.slo_attainment(0.5);
        let s = svc.stats();
        points.push(SatPoint {
            mult,
            rejected: s.rejected,
            queued: s.queued,
            queue_depth: svc.queue_len(),
            slo_misses: total - met,
        });
    }
    let knee = points.iter().find(|p| p.rejected > 0).map_or(0, |p| p.mult);
    (points, knee)
}

// ------------------------------------------------ adversarial shapes

/// The cluster the workload-shape scenarios run on: the 32-host
/// saturation tree with a short wait queue, so shape-induced pressure
/// shows up in the queue/reject counters instead of disappearing into
/// slack.
fn shape_cluster() -> (Arc<Topology>, Arc<RouteTable>) {
    let topo = Arc::new(
        MultiRootedTreeSpec {
            cores: 2,
            pods: 2,
            aggs_per_pod: 2,
            tors_per_pod: 4,
            hosts_per_tor: 4,
            ..Default::default()
        }
        .build(),
    );
    let routes = Arc::new(RouteTable::new(&topo));
    (topo, routes)
}

/// The shape scenarios' base stream: the saturation shape at nominal
/// load. Each scenario switches exactly one adversarial generator knob
/// on top of this, so every delta traces back to the shape.
fn shape_stream_cfg() -> WorkloadStreamConfig {
    WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival: 30 * SECS,
            ..Default::default()
        },
        ..Default::default()
    }
}

struct ShapeOutcome {
    rejected: u64,
    queued: u64,
    mean_rate_bps: Option<f64>,
}

/// Drive one shaped event list through two fresh schedulers: the
/// trajectory digests must bit-match, the scheduler invariants must hold
/// at the end, and the (identical) pressure counters come back for the
/// report.
fn run_shaped(
    topo: &Arc<Topology>,
    routes: &Arc<RouteTable>,
    events: &[TenantEvent],
) -> ShapeOutcome {
    let mut digest = None;
    let mut out = None;
    for repeat in 0..2 {
        let mut svc = SchedulerBuilder::new(Arc::clone(topo), Arc::clone(routes))
            .config(OnlineConfig { queue_capacity: 8, ..service_config(PlacementPolicy::Greedy) })
            .seed(42)
            .build();
        for ev in events {
            svc.step(ev);
        }
        svc.check_invariants();
        match digest {
            None => digest = Some(svc.stats().trace_hash()),
            Some(d) => assert_eq!(
                d,
                svc.stats().trace_hash(),
                "shape trajectory diverged on repeat {repeat}"
            ),
        }
        let s = svc.stats();
        out = Some(ShapeOutcome {
            rejected: s.rejected,
            queued: s.queued,
            mean_rate_bps: s.mean_departed_rate_bps(),
        });
    }
    out.expect("ran")
}

struct Shapes {
    nominal: ShapeOutcome,
    heavy_tail: ShapeOutcome,
    flash: Vec<(u64, ShapeOutcome)>,
    flash_knee_peak: u64,
    correlated: ShapeOutcome,
    cross_pod: ShapeOutcome,
}

/// The workload-shape scenarios: heavy-tailed tenant sizes, flash-crowd
/// surges (a peak-multiplier sweep locating the rejection knee),
/// correlated arrival batches and the adversarial cross-pod pattern,
/// each against the nominal baseline on the same cluster and arrival
/// rate. Every scenario replays twice, digest-asserted.
fn run_shapes(events_per_run: usize) -> Shapes {
    let (topo, routes) = shape_cluster();
    let run_cfg = |cfg: WorkloadStreamConfig| -> ShapeOutcome {
        let events: Vec<TenantEvent> = WorkloadStream::new(cfg, 13).take(events_per_run).collect();
        run_shaped(&topo, &routes, &events)
    };

    let nominal = run_cfg(shape_stream_cfg());

    let mut ht = shape_stream_cfg();
    ht.gen.tasks_max = 16;
    ht.gen.heavy_tail = Some(HeavyTailConfig::default());
    let heavy_tail = run_cfg(ht);

    let mut flash = Vec::new();
    for peak in [2u64, 4, 8, 16] {
        let mut fc = shape_stream_cfg();
        fc.gen.flash_crowd = Some(FlashCrowdConfig {
            mean_time_between: 1200 * SECS,
            peak_multiplier: peak as f64,
            onset: 5 * SECS,
            decay: 180 * SECS,
        });
        flash.push((peak, run_cfg(fc)));
    }
    let flash_knee_peak = flash.iter().find(|(_, o)| o.rejected > 0).map_or(0, |(p, _)| *p);

    let mut cb = shape_stream_cfg();
    cb.gen.correlated_batches = Some(CorrelatedBatchConfig {
        mean_time_between: 600 * SECS,
        size_min: 8,
        size_max: 16,
        window: 5 * SECS,
    });
    let correlated = run_cfg(cb);

    let mut cp = shape_stream_cfg();
    cp.gen.patterns = vec![AppPattern::CrossPod];
    let cross_pod = run_cfg(cp);

    Shapes { nominal, heavy_tail, flash, flash_knee_peak, correlated, cross_pod }
}

struct SwitchFailover {
    prefail_bps: f64,
    degraded_bps: f64,
    recovered_bps: f64,
    failure_migrations: u64,
    failure_rejections: u64,
    links_out: usize,
}

/// The switch-level correlated-failure scenario: bring the 128-host
/// service to steady state, take out **every link of the widest core
/// switch in one instant**, keep tenant events landing while it is dark
/// (so failure rejections are really accounted, not just defined),
/// repair it wholesale, and require the drift detector plus forced
/// migration passes to carry the tenants back to at least half their
/// pre-failure mean networked rate. Replayed twice; the trajectories
/// must bit-match.
fn run_switch_failover() -> SwitchFailover {
    let topo = Arc::new(bench_tree());
    let routes = Arc::new(RouteTable::new(&topo));
    let group = switch_link_groups(&topo, 4)
        .into_iter()
        .max_by_key(Vec::len)
        .expect("the bench tree has core switches");
    let mut digest = None;
    let mut out = None;
    for repeat in 0..2 {
        let mut cfg = service_config(PlacementPolicy::Greedy);
        cfg.drift = DriftConfig { cadence: Some(5 * SECS), ..Default::default() };
        let mut svc = SchedulerBuilder::new(Arc::clone(&topo), Arc::clone(&routes))
            .config(cfg)
            .seed(42)
            .build();
        let mut events = stream(7);
        for ev in events.by_ref().take(2_500) {
            svc.step(&ev);
        }
        let t0 = svc.now();
        let prefail = svc.mean_networked_score().expect("networked tenants running");
        for &link in &group {
            svc.network_step(&NetworkEvent { at: t0, link, kind: NetworkEventKind::LinkFail });
        }
        for ev in events.by_ref().take_while(|ev| ev.at <= t0 + 16 * SECS) {
            svc.step(&ev);
        }
        svc.advance_to(t0 + 16 * SECS);
        let degraded = svc.mean_networked_score().expect("tenants still running");
        for &link in &group {
            svc.network_step(&NetworkEvent {
                at: t0 + 17 * SECS,
                link,
                kind: NetworkEventKind::LinkRecover,
            });
        }
        svc.advance_to(t0 + 60 * SECS);
        let recovered = svc.mean_networked_score().expect("tenants still running");
        svc.check_invariants();
        match digest {
            None => digest = Some(svc.stats().trace_hash()),
            Some(d) => assert_eq!(
                d,
                svc.stats().trace_hash(),
                "switch-failover trajectory diverged on repeat {repeat}"
            ),
        }
        let s = svc.stats();
        out = Some(SwitchFailover {
            prefail_bps: prefail,
            degraded_bps: degraded,
            recovered_bps: recovered,
            failure_migrations: s.failure_migrations,
            failure_rejections: s.failure_rejections,
            links_out: group.len(),
        });
    }
    out.expect("ran")
}

/// Run `total` events (the first `warmup` untimed), timing the steady
/// state and, for greedy runs, each arrival's placement latency.
fn run(policy: PlacementPolicy, warmup: usize, total: usize) -> Run {
    let svc = &mut build(policy);
    let events: Vec<TenantEvent> = stream(7).take(total).collect();
    let mut latencies_us: Vec<f64> = Vec::new();
    for ev in &events[..warmup] {
        svc.step(ev);
    }
    let t0 = Instant::now();
    for ev in &events[warmup..] {
        if matches!(ev.kind, TenantEventKind::Arrive { .. }) {
            // Advance first so the latency sample times the admission
            // path alone (candidate subset + probes + greedy walk), not
            // the inter-event sim integration or a due migration pass.
            svc.advance_to(ev.at);
            let t = Instant::now();
            svc.step(ev);
            latencies_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        } else {
            svc.step(ev);
        }
    }
    let steady = t0.elapsed().as_secs_f64();
    let measured = (total - warmup) as f64;
    Run {
        events_per_sec: measured / steady,
        p50_us: pctile(&latencies_us, 0.50),
        p99_us: pctile(&latencies_us, 0.99),
        trace_hash: svc.stats().trace_hash(),
        mean_rate_bps: svc.stats().mean_departed_rate_bps(),
        active: svc.active_tenants(),
        migrations: svc.stats().migrations,
    }
}

/// Chunk pairs behind `obs_overhead_pct`.
const OBS_PAIRS: usize = 50;

/// What [`measure_overhead`] found.
struct Overhead {
    /// Per chunk pair: the bare side's throughput over the instrumented
    /// side's, minus 1, in percent (negative when instrumented was
    /// faster).
    pair_pcts: Vec<f64>,
    /// Instrumented-side events per second over all its chunks.
    instr_events_per_sec: f64,
    /// Final trajectory digests, bare and instrumented.
    trace_hashes: (u64, u64),
    /// Lines of the instrumented side's exported decision trace.
    trace_lines: usize,
    /// Bytes of its (conformance-validated) metrics exposition.
    exposition_bytes: usize,
}

/// Observability overhead, measured in lockstep. A recorder-less greedy
/// scheduler and its fully instrumented twin — labeled metric families
/// registered against a live [`Registry`], the solver-phase span
/// recorder installed while the twin runs, the decision trace rendered
/// to JSONL at the end — step through the same stream in alternating
/// chunks, [`OBS_PAIRS`] chunk pairs over the measured events, with the
/// side that goes first alternating too. The two sides of a pair replay
/// identical events milliseconds apart, so host-speed swings hit both
/// alike instead of masquerading as instrumentation cost.
fn measure_overhead(warmup: usize, total: usize) -> Overhead {
    let events: Vec<TenantEvent> = stream(7).take(total).collect();
    let registry = Arc::new(Registry::new());
    let spans = RegistrySpans::new(Arc::clone(&registry));
    let topo = Arc::new(bench_tree());
    let routes = Arc::new(RouteTable::new(&topo));
    let mut instr = SchedulerBuilder::new(topo, routes)
        .config(service_config(PlacementPolicy::Greedy))
        .seed(42)
        .metrics_registry(&registry)
        .build();
    let mut bare = build(PlacementPolicy::Greedy);
    // Wall seconds to step `svc` through `evs`.
    let steps = |svc: &mut OnlineScheduler, evs: &[TenantEvent], instrumented: bool| {
        if instrumented {
            span::install(spans.clone());
        }
        let t = Instant::now();
        for ev in evs {
            svc.step(ev);
        }
        let dt = t.elapsed().as_secs_f64();
        if instrumented {
            span::uninstall();
        }
        dt
    };
    steps(&mut bare, &events[..warmup], false);
    steps(&mut instr, &events[..warmup], true);
    let mut pair_pcts = Vec::with_capacity(OBS_PAIRS);
    let mut instr_s = 0.0;
    let chunk = (total - warmup).div_ceil(OBS_PAIRS);
    for (i, evs) in events[warmup..].chunks(chunk).enumerate() {
        let (bare_s, chunk_instr_s) = if i % 2 == 0 {
            let b = steps(&mut bare, evs, false);
            (b, steps(&mut instr, evs, true))
        } else {
            let n = steps(&mut instr, evs, true);
            (steps(&mut bare, evs, false), n)
        };
        pair_pcts.push((chunk_instr_s / bare_s - 1.0) * 100.0);
        instr_s += chunk_instr_s;
    }
    let exposition = registry.render();
    parse::validate(&exposition).expect("instrumented exposition must be conformant");
    Overhead {
        pair_pcts,
        instr_events_per_sec: (total - warmup) as f64 / instr_s,
        trace_hashes: (bare.stats().trace_hash(), instr.stats().trace_hash()),
        trace_lines: instr.stats().decisions().to_jsonl(usize::MAX).lines().count(),
        exposition_bytes: exposition.len(),
    }
}

fn main() {
    let warmup = 2_000usize;
    let total = 12_000usize;

    // Determinism first: a repeat must land on the measured run's exact
    // trajectory.
    let greedy = run(PlacementPolicy::Greedy, warmup, total);
    let repeat = run(PlacementPolicy::Greedy, warmup, total);
    assert_eq!(greedy.trace_hash, repeat.trace_hash, "repeat run diverged");

    // Keep the best throughput of the two identical-trajectory runs —
    // same shielding from one-off scheduler noise as the other benches.
    let best = [&greedy, &repeat]
        .into_iter()
        .max_by(|a, b| a.events_per_sec.partial_cmp(&b.events_per_sec).expect("finite"))
        .expect("non-empty");

    // Observability overhead: the fully instrumented twin must land on
    // the measured run's trajectory bit-for-bit and stay within a few
    // percent of the recorder-less throughput. The median chunk pair's
    // signed gap is the overhead, with the pairs' spread beside it.
    let obs = measure_overhead(warmup, total);
    assert_eq!(greedy.trace_hash, obs.trace_hashes.0, "bare overhead run diverged");
    assert_eq!(greedy.trace_hash, obs.trace_hashes.1, "instrumentation changed the trajectory");
    assert!(obs.trace_lines > 0, "the instrumented run must export a non-empty decision trace");
    let obs_overhead_pct = median(&obs.pair_pcts);
    let obs_overhead_min_pct = obs.pair_pcts.iter().copied().fold(f64::INFINITY, f64::min);
    let obs_overhead_max_pct = obs.pair_pcts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (trace_lines, exposition_bytes) = (obs.trace_lines, obs.exposition_bytes);

    let random = run(PlacementPolicy::Random(9), warmup, total);
    let greedy_rate = greedy.mean_rate_bps.expect("departures happened");
    let random_rate = random.mean_rate_bps.expect("departures happened");
    let rate_gain = greedy_rate / random_rate;

    println!("# online service: 128 hosts, {total} events ({warmup} warm-up)");
    println!(
        "throughput\t{:.0} events/s\t({} tenants live at end, {} migrations)",
        best.events_per_sec, greedy.active, greedy.migrations
    );
    println!("placement\tp50 {:.0} us\tp99 {:.0} us", best.p50_us, best.p99_us);
    println!(
        "tenant rate\tgreedy {:.1} Mbit/s vs random {:.1} Mbit/s\t({rate_gain:.2}x)",
        greedy_rate / 1e6,
        random_rate / 1e6
    );
    println!("determinism\ttrace {:#018x} (repeat bit-identical)", greedy.trace_hash);
    println!(
        "observability\t{:.0} events/s instrumented\toverhead {obs_overhead_pct:.1}% \
         [{obs_overhead_min_pct:.1}..{obs_overhead_max_pct:.1}] over {OBS_PAIRS} pairs\t\
         ({trace_lines} trace lines, {exposition_bytes} exposition bytes, digest bit-identical)",
        obs.instr_events_per_sec
    );

    // The scale ladder. CI caps it (CHOREO_SWEEP_MAX_HOSTS=512); the
    // 2048-host rung — with its 1.2x per-event cost ceiling — runs on
    // developer machines and perf runners.
    let sweep_max_hosts: usize = std::env::var("CHOREO_SWEEP_MAX_HOSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let sweep_warmup = 1_000usize;
    let sweep_total = 6_000usize;
    println!(
        "# host-count sweep: {sweep_total} events ({sweep_warmup} warm-up) per run, \
         3 repeats per rung"
    );
    let sweep = run_sweep(sweep_max_hosts, sweep_warmup, sweep_total);

    // Failure and recovery: drift-triggered re-placement must carry the
    // tenants back to at least half their pre-failure mean rate.
    let fo = run_failover();
    let recovery_ratio = fo.recovered_bps / fo.prefail_bps;
    println!(
        "failover\tprefail {:.1} Mbit/s\tdegraded {:.1} Mbit/s\trecovered {:.1} Mbit/s \
         ({recovery_ratio:.2}x, {} drift detections, {} forced migrations)",
        fo.prefail_bps / 1e6,
        fo.degraded_bps / 1e6,
        fo.recovered_bps / 1e6,
        fo.drift_detected,
        fo.failure_migrations
    );
    assert!(
        recovery_ratio >= 0.5,
        "tenants recovered only {recovery_ratio:.2}x of their pre-failure rate (need >= 0.5x)"
    );

    // Offered-load saturation: nominal load must be rejection-free and
    // the knee must exist inside the sweep.
    let (sat, knee) = run_saturation();
    for p in &sat {
        println!(
            "saturation\t{}x load\t{} rejected\t{} queued\tqueue depth {}\t{} SLO misses",
            p.mult, p.rejected, p.queued, p.queue_depth, p.slo_misses
        );
    }
    println!("saturation\tknee at {knee}x nominal load");
    assert_eq!(sat[0].rejected, 0, "nominal load must be rejection-free");
    assert!(knee > 1, "the sweep must find a rejection knee above nominal load");

    // Adversarial workload shapes: each generator knob against the
    // nominal baseline, every run digest-asserted against a repeat.
    let shapes = run_shapes(2_000);
    println!(
        "shape\tnominal\t{} rejected\t{} queued",
        shapes.nominal.rejected, shapes.nominal.queued
    );
    println!(
        "shape\theavy-tail\t{} rejected\t{} queued",
        shapes.heavy_tail.rejected, shapes.heavy_tail.queued
    );
    for (peak, o) in &shapes.flash {
        println!("shape\tflash-crowd {peak}x peak\t{} rejected\t{} queued", o.rejected, o.queued);
    }
    println!("shape\tflash-crowd knee at {}x peak", shapes.flash_knee_peak);
    println!(
        "shape\tcorrelated batches\t{} rejected\t{} queued",
        shapes.correlated.rejected, shapes.correlated.queued
    );
    let cross_pod_ratio = match (shapes.cross_pod.mean_rate_bps, shapes.nominal.mean_rate_bps) {
        (Some(cp), Some(nom)) if nom > 0.0 => cp / nom,
        _ => f64::NAN,
    };
    println!(
        "shape\tcross-pod\t{} rejected\t{} queued\trate {cross_pod_ratio:.2}x nominal",
        shapes.cross_pod.rejected, shapes.cross_pod.queued
    );
    // Headroom: the nominal stream sails through untouched; the shapes
    // are what spend it.
    assert_eq!(shapes.nominal.rejected, 0, "nominal shape baseline must be rejection-free");
    assert!(shapes.flash_knee_peak > 0, "the peak sweep must locate a flash-crowd rejection knee");
    assert!(cross_pod_ratio.is_finite(), "both shape runs must see departures");

    // Correlated switch failure: the whole-switch outage must be
    // survivable — forced migrations carry the tenants back to at least
    // half their pre-failure mean networked rate.
    let sw = run_switch_failover();
    let switch_recovery_ratio = sw.recovered_bps / sw.prefail_bps;
    println!(
        "shape\tswitch failure ({} links)\tprefail {:.1} Mbit/s\tdegraded {:.1} Mbit/s\t\
         recovered {:.1} Mbit/s ({switch_recovery_ratio:.2}x, {} forced migrations, \
         {} failure rejections)",
        sw.links_out,
        sw.prefail_bps / 1e6,
        sw.degraded_bps / 1e6,
        sw.recovered_bps / 1e6,
        sw.failure_migrations,
        sw.failure_rejections
    );
    assert!(
        switch_recovery_ratio >= 0.5,
        "tenants recovered only {switch_recovery_ratio:.2}x of their pre-switch-failure rate \
         (need >= 0.5x)"
    );

    let mut report = JsonReport::new("online_service")
        .int("hosts", 128)
        .int("events", total as u64)
        .int("warmup_events", warmup as u64)
        .num("events_per_sec", best.events_per_sec, 1)
        .num("target_events_per_sec", 10_000.0, 1)
        .num("place_p50_us", best.p50_us, 1)
        .num("place_p99_us", best.p99_us, 1)
        .num("mean_rate_greedy_bps", greedy_rate, 1)
        .num("mean_rate_random_bps", random_rate, 1)
        .num("rate_gain", rate_gain, 3)
        .int("migrations", greedy.migrations)
        .bool("deterministic", true)
        .num("obs_overhead_pct", obs_overhead_pct, 2)
        .num("obs_overhead_min_pct", obs_overhead_min_pct, 2)
        .num("obs_overhead_max_pct", obs_overhead_max_pct, 2)
        .int("obs_trace_lines", trace_lines as u64)
        .int("obs_exposition_bytes", exposition_bytes as u64)
        .int("sweep_events", sweep_total as u64)
        .int("sweep_warmup_events", sweep_warmup as u64)
        .int("sweep_max_hosts", sweep.last().map_or(0, |r| r.hosts) as u64);
    for spec in &RUNGS {
        let r = sweep.iter().find(|r| r.hosts == spec.hosts);
        report = report
            .opt_num(&format!("sweep_{}_ns_per_event", spec.hosts), r.map(|r| r.ns_per_event), 1)
            .opt_num(
                &format!("sweep_{}_flow_records", spec.hosts),
                r.map(|r| r.flow_records as f64),
                0,
            )
            .opt_num(
                &format!("sweep_{}_peak_concurrent_flows", spec.hosts),
                r.map(|r| r.peak_concurrent as f64),
                0,
            );
    }
    report = report
        .num("failover_prefail_mbps", fo.prefail_bps / 1e6, 1)
        .num("failover_degraded_mbps", fo.degraded_bps / 1e6, 1)
        .num("failover_recovered_mbps", fo.recovered_bps / 1e6, 1)
        .num("failover_recovery_ratio", recovery_ratio, 3)
        .int("failover_drift_detected", fo.drift_detected)
        .int("failover_failure_migrations", fo.failure_migrations)
        .int("sweep_load_knee_multiplier", knee)
        .int("sweep_load_nominal_rejected", sat[0].rejected);
    for p in &sat {
        report = report
            .int(&format!("sweep_load_{}x_rejected", p.mult), p.rejected)
            .int(&format!("sweep_load_{}x_queued", p.mult), p.queued)
            .int(&format!("sweep_load_{}x_slo_misses", p.mult), p.slo_misses);
    }
    report = report
        .int("shape_nominal_rejected", shapes.nominal.rejected)
        .int("shape_nominal_queued", shapes.nominal.queued)
        .int("shape_heavy_tail_rejected", shapes.heavy_tail.rejected)
        .int("shape_heavy_tail_queued", shapes.heavy_tail.queued)
        .int("shape_flash_crowd_knee_peak", shapes.flash_knee_peak)
        .int("shape_correlated_rejected", shapes.correlated.rejected)
        .int("shape_correlated_queued", shapes.correlated.queued)
        .num("shape_cross_pod_rate_ratio", cross_pod_ratio, 3)
        .int("shape_switch_links_out", sw.links_out as u64)
        .num("shape_switch_prefail_mbps", sw.prefail_bps / 1e6, 1)
        .num("shape_switch_degraded_mbps", sw.degraded_bps / 1e6, 1)
        .num("shape_switch_recovered_mbps", sw.recovered_bps / 1e6, 1)
        .num("shape_switch_recovery_ratio", switch_recovery_ratio, 3)
        .int("shape_switch_forced_migrations", sw.failure_migrations)
        .int("shape_switch_failure_rejections", sw.failure_rejections);
    for (peak, o) in &shapes.flash {
        report = report
            .int(&format!("shape_flash_crowd_{peak}x_rejected"), o.rejected)
            .int(&format!("shape_flash_crowd_{peak}x_queued"), o.queued);
    }
    report
        .bool(
            "pass",
            best.events_per_sec >= 10_000.0
                && obs_overhead_pct <= 5.0
                && rate_gain >= 1.0
                && recovery_ratio >= 0.5
                && sat[0].rejected == 0
                && knee > 1
                && shapes.nominal.rejected == 0
                && shapes.flash_knee_peak > 0
                && cross_pod_ratio.is_finite()
                && switch_recovery_ratio >= 0.5,
        )
        .write("BENCH_online.json");
}
