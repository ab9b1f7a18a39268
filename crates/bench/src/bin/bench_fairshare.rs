//! Fair-share reallocation throughput: incremental arena vs from-scratch,
//! and warm-started delta solves vs the incremental solve.
//!
//! Drives the exact workload `FlowSim::reallocate_if_dirty` sees — a churn
//! of flow starts and stops, each dispatched as its own event and followed
//! by a full max-min re-solve, exactly the granularity of the engine's
//! event loop — on a multi-rooted tree with ≥64 hosts and ~250 concurrent
//! flows, and compares:
//!
//! * **baseline** — the pre-arena code path, kept here verbatim: rebuild
//!   the `Vec<Vec<u32>>` flow specs (one clone per active flow, as the old
//!   `reallocate_if_dirty` did) and run the original linear-scan
//!   progressive filling with its per-flow `contains(bottleneck)` test;
//! * **incremental** — the persistent [`FlowArena`] updated in `O(path)`
//!   per event plus the scratch-reusing [`MaxMinSolver`] (PR 1);
//! * **warm** — the incremental arena plus [`MaxMinSolver::solve_warm`]:
//!   every event replays the previous solve's freeze-round log and runs
//!   live rounds only for the perturbed cascade around the churned flow —
//!   bit-identical results, asserted per run and (vector-wide, per event)
//!   by `assert_warm_bitmatches_cold`.
//!
//! A final **host-count sweep** climbs the scale ladder with bulk-churn
//! epochs: a pod-local flow population (2000 flows, 87.5 % inside their
//! pod) on 128 → 512 → 2048 hosts, where each epoch replaces 500 flows
//! and then runs one warm solve. It reports per-rung ns/event plus the
//! arena's slot table size against the live flow population. Flat
//! ns/event across rungs is the point: with flow-record recycling the
//! solve cost tracks the *flow population*, not the cluster size, and
//! the slot ceiling (`slots ≤ 2 × live flows`) is asserted per rung.
//! Each rung times 3 warm repeats, whose checksums must bit-match each
//! other and a cold-solve pass over the same epochs.
//! `CHOREO_SWEEP_MAX_HOSTS` caps the ladder (CI runs it at 512).
//!
//! Emits `BENCH_fairshare.json` (in the working directory) so the speedups
//! are tracked in the perf trajectory. Acceptance floors on this workload:
//! incremental ≥3× over baseline, warm ≥2× over the incremental solve
//! (CI gates at 2× / 1.5× to absorb shared-runner noise).

use std::time::Instant;

use choreo_bench::JsonReport;
use choreo_flowsim::{FlowArena, MaxMinSolver};
use choreo_topology::route::splitmix64;
use choreo_topology::{MultiRootedTreeSpec, RouteTable, Topology};

/// The seed implementation of progressive filling, preserved as the
/// from-scratch baseline (allocates its state per call and scans all
/// resources per round, with an `O(path)` membership test per flow).
mod baseline {
    pub fn max_min_rates(capacities: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
        let nr = capacities.len();
        let nf = flows.len();
        let mut rate = vec![0.0f64; nf];
        let mut frozen = vec![false; nf];
        let mut slack: Vec<f64> = capacities.to_vec();
        let mut users = vec![0u32; nr];
        for f in flows {
            for &r in f {
                users[r as usize] += 1;
            }
        }
        let mut remaining = nf;
        while remaining > 0 {
            let mut best: Option<(usize, f64)> = None;
            for r in 0..nr {
                if users[r] > 0 {
                    let share = (slack[r] / users[r] as f64).max(0.0);
                    if best.is_none_or(|(_, s)| share < s) {
                        best = Some((r, share));
                    }
                }
            }
            let Some((bottleneck, level)) = best else { break };
            let mut froze_any = false;
            for (fi, f) in flows.iter().enumerate() {
                if frozen[fi] || !f.contains(&(bottleneck as u32)) {
                    continue;
                }
                frozen[fi] = true;
                froze_any = true;
                rate[fi] = level;
                remaining -= 1;
                for &r in f {
                    slack[r as usize] -= level;
                    users[r as usize] -= 1;
                }
            }
            if !froze_any {
                break;
            }
        }
        rate
    }
}

/// Deterministic flow path between two hosts, in engine resource ids.
fn flow_resources(topo: &Topology, routes: &RouteTable, flow_id: u64, hosts: &[u32]) -> Vec<u32> {
    let h = topo.hosts();
    let a = h[hosts[(splitmix64(flow_id) % hosts.len() as u64) as usize] as usize];
    let mut b = h[hosts[(splitmix64(flow_id ^ 0xDEAD) % hosts.len() as u64) as usize] as usize];
    if a == b {
        b = h[(h.iter().position(|&x| x == a).unwrap() + 1) % h.len()];
    }
    let path = routes.path_for_flow(a, b, splitmix64(flow_id.wrapping_mul(0x9E37)));
    path.hops.iter().map(choreo_flowsim::hop_resource).collect()
}

/// The churn event stream: `events` alternating stop/start events over a
/// base set of ~`flows` concurrent flows. Pair `i` stops the flow in
/// rotating slot `i % flows` (one event) and starts `churn[i]` in its
/// place (the next event) — one arena mutation per event and one re-solve
/// after each, matching how `FlowSim` dispatches starts and stops.
struct Workload {
    capacities: Vec<f64>,
    /// Resource lists of the initial concurrent flow set.
    initial: Vec<Vec<u32>>,
    /// Resource lists of the churn arrivals (one per stop/start pair).
    churn: Vec<Vec<u32>>,
}

/// The benchmark tree: 4 pods × 4 ToRs × 4 hosts = 64 hosts, two cores.
fn bench_tree() -> Topology {
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 4,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    };
    let topo = spec.build();
    assert!(topo.hosts().len() >= 64, "need ≥64 hosts");
    topo
}

fn build_workload(flows: usize, events: usize) -> (Workload, usize) {
    let topo = bench_tree();
    let routes = RouteTable::new(&topo);
    let capacities: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let all_hosts: Vec<u32> = (0..topo.hosts().len() as u32).collect();
    let initial: Vec<Vec<u32>> =
        (0..flows).map(|i| flow_resources(&topo, &routes, i as u64, &all_hosts)).collect();
    let churn: Vec<Vec<u32>> = (0..events.div_ceil(2))
        .map(|i| flow_resources(&topo, &routes, (flows + i) as u64, &all_hosts))
        .collect();
    let hosts = topo.hosts().len();
    (Workload { capacities, initial, churn }, hosts)
}

/// Pod-local flow generator: the source is uniform, and with probability
/// 7/8 the destination stays inside the source's pod (`per_pod`
/// contiguous hosts).
fn local_flow_resources(
    topo: &Topology,
    routes: &RouteTable,
    flow_id: u64,
    per_pod: usize,
) -> Vec<u32> {
    let h = topo.hosts();
    let a_idx = (splitmix64(flow_id) % h.len() as u64) as usize;
    let mut b_idx = if !splitmix64(flow_id ^ 0x10CA1).is_multiple_of(8) {
        let pod = a_idx / per_pod;
        pod * per_pod + (splitmix64(flow_id ^ 0xDEAD) % per_pod as u64) as usize
    } else {
        (splitmix64(flow_id ^ 0xDEAD) % h.len() as u64) as usize
    };
    if b_idx == a_idx {
        // Stay in the same pod (or host set) when the draw collides.
        b_idx = (a_idx / per_pod) * per_pod + (a_idx + 1) % per_pod;
    }
    let path = routes.path_for_flow(h[a_idx], h[b_idx], splitmix64(flow_id.wrapping_mul(0x9E37)));
    path.hops.iter().map(choreo_flowsim::hop_resource).collect()
}

/// The sweep workload: a pod-local flow population and bulk-churn
/// epochs (each epoch replaces `churn_per_epoch` flows, then re-solves
/// once).
struct EpochWorkload {
    capacities: Vec<f64>,
    initial: Vec<Vec<u32>>,
    /// Churn arrivals, consumed `churn_per_epoch` at a time.
    churn: Vec<Vec<u32>>,
    churn_per_epoch: usize,
    epochs: usize,
    hosts: usize,
}

fn build_epoch_workload(
    spec: &MultiRootedTreeSpec,
    max_paths: usize,
    flows: usize,
    epochs: usize,
    churn_per_epoch: usize,
) -> EpochWorkload {
    let topo = spec.build();
    let per_pod = spec.tors_per_pod * spec.hosts_per_tor;
    let routes = RouteTable::with_max_paths(&topo, max_paths);
    let capacities: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let initial: Vec<Vec<u32>> =
        (0..flows).map(|i| local_flow_resources(&topo, &routes, i as u64, per_pod)).collect();
    let churn: Vec<Vec<u32>> = (0..epochs * churn_per_epoch)
        .map(|i| local_flow_resources(&topo, &routes, (flows + i) as u64, per_pod))
        .collect();
    let hosts = topo.hosts().len();
    EpochWorkload { capacities, initial, churn, churn_per_epoch, epochs, hosts }
}

/// Baseline: per event, rebuild the spec list (cloning each active flow's
/// resources, as the old engine did) and solve from scratch.
fn run_baseline(w: &Workload) -> (f64, u128) {
    let mut live: Vec<Vec<u32>> = w.initial.clone();
    let mut checksum = 0.0f64;
    let start = Instant::now();
    for (i, arrival) in w.churn.iter().enumerate() {
        let k = i % w.initial.len();
        // Stop event: slot k's flow leaves (empty spec = tombstone).
        live[k] = Vec::new();
        let specs: Vec<Vec<u32>> = live.iter().filter(|f| !f.is_empty()).cloned().collect();
        let _ = baseline::max_min_rates(&w.capacities, &specs);
        // Start event: the arrival takes the slot.
        live[k] = arrival.clone();
        let specs: Vec<Vec<u32>> = live.iter().filter(|f| !f.is_empty()).cloned().collect();
        let rates = baseline::max_min_rates(&w.capacities, &specs);
        // With no tombstones left, the arrival sits at dense position k.
        checksum += rates[k];
    }
    (checksum, start.elapsed().as_nanos())
}

/// Incremental: the arena absorbs each event in O(path); the persistent
/// solver re-solves from scratch (with retained scratch) per event.
fn run_incremental(w: &Workload) -> (f64, u128) {
    let mut arena = FlowArena::new(w.capacities.len());
    let mut slots: Vec<_> = w.initial.iter().map(|f| arena.add(f)).collect();
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    // Warm the scratch buffers once; timing starts with the churn.
    solver.solve(&w.capacities, &arena, &mut rates);
    let mut checksum = 0.0f64;
    let start = Instant::now();
    for (i, arrival) in w.churn.iter().enumerate() {
        let k = i % slots.len();
        arena.remove(slots[k]);
        solver.solve(&w.capacities, &arena, &mut rates);
        slots[k] = arena.add(arrival);
        solver.solve(&w.capacities, &arena, &mut rates);
        checksum += rates[slots[k].0 as usize];
    }
    (checksum, start.elapsed().as_nanos())
}

/// Warm-started: each event chains [`MaxMinSolver::solve_warm`] off the
/// previous event's freeze-round log, re-running only the perturbed
/// rounds. Exact same event stream — and, asserted in `main`, the exact
/// same rates bit-for-bit — as the incremental side.
fn run_warm(w: &Workload) -> (f64, u128) {
    let mut arena = FlowArena::new(w.capacities.len());
    let mut slots: Vec<_> = w.initial.iter().map(|f| arena.add(f)).collect();
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    // Warm the scratch buffers and record the first log; timing starts
    // with the churn.
    solver.solve_warm(&w.capacities, &mut arena, &mut rates);
    let mut checksum = 0.0f64;
    let start = Instant::now();
    for (i, arrival) in w.churn.iter().enumerate() {
        let k = i % slots.len();
        arena.remove(slots[k]);
        solver.solve_warm(&w.capacities, &mut arena, &mut rates);
        slots[k] = arena.add(arrival);
        solver.solve_warm(&w.capacities, &mut arena, &mut rates);
        checksum += rates[slots[k].0 as usize];
    }
    (checksum, start.elapsed().as_nanos())
}

/// Bit-exactness check: replay the stream once, comparing every rate of
/// every event between the warm-chained solver and cold solves.
fn assert_warm_bitmatches_cold(w: &Workload) {
    let mut arena = FlowArena::new(w.capacities.len());
    let mut slots: Vec<_> = w.initial.iter().map(|f| arena.add(f)).collect();
    let mut warm = MaxMinSolver::new();
    let mut cold = MaxMinSolver::new();
    let (mut wr, mut cr) = (Vec::new(), Vec::new());
    warm.solve_warm(&w.capacities, &mut arena, &mut wr);
    let mut check = |arena: &mut FlowArena, ev: usize| {
        warm.solve_warm(&w.capacities, arena, &mut wr);
        cold.solve(&w.capacities, arena, &mut cr);
        assert_eq!(wr.len(), cr.len());
        for (slot, (a, b)) in wr.iter().zip(&cr).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "event {ev}, slot {slot}: warm {a} vs cold {b}");
        }
    };
    for (i, arrival) in w.churn.iter().enumerate() {
        let k = i % slots.len();
        arena.remove(slots[k]);
        check(&mut arena, 2 * i);
        slots[k] = arena.add(arrival);
        check(&mut arena, 2 * i + 1);
    }
}

/// Bulk-churn epochs: each epoch replaces `churn_per_epoch` flows and
/// then re-solves once — warm-started off the previous epoch's log, or
/// cold when `warm` is false (the bit-exactness reference).
fn run_epochs(w: &EpochWorkload, warm: bool) -> (f64, u128) {
    let mut arena = FlowArena::new(w.capacities.len());
    let mut slots: Vec<_> = w.initial.iter().map(|f| arena.add(f)).collect();
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    let mut solve = |arena: &mut FlowArena, rates: &mut Vec<f64>| {
        if warm {
            solver.solve_warm(&w.capacities, arena, rates);
        } else {
            solver.solve(&w.capacities, arena, rates);
        }
    };
    // Warm the buffers (and record the first log); timing starts with
    // the churn.
    solve(&mut arena, &mut rates);
    let mut checksum = 0.0f64;
    let start = Instant::now();
    for epoch in 0..w.epochs {
        for j in 0..w.churn_per_epoch {
            let i = epoch * w.churn_per_epoch + j;
            let k = i % slots.len();
            arena.remove(slots[k]);
            slots[k] = arena.add(&w.churn[i]);
        }
        solve(&mut arena, &mut rates);
        checksum += rates[slots[epoch % slots.len()].0 as usize];
    }
    (checksum, start.elapsed().as_nanos())
}

/// One rung of the bulk-churn scale ladder.
struct FsRung {
    hosts: usize,
    ns_per_event: f64,
    slot_bound: usize,
    live_flows: usize,
}

/// Host-count ladder (mirrors the `bench_online` ladder): the same
/// pod-local flow population and churn intensity on 128 → 512 → 2048
/// hosts, per-rung best of 3 warm repeats whose checksums bit-match each
/// other and a cold pass. Flat ns/event across rungs means the warm
/// solve's per-event work tracks the flow population, not the cluster
/// size.
fn run_host_sweep(max_hosts: usize) -> Vec<FsRung> {
    let rungs = [
        // 8 pods × 4 ToRs × 4 hosts, two cores.
        (
            128usize,
            MultiRootedTreeSpec {
                cores: 2,
                pods: 8,
                aggs_per_pod: 2,
                tors_per_pod: 4,
                hosts_per_tor: 4,
                ..Default::default()
            },
            16usize,
        ),
        (
            512,
            MultiRootedTreeSpec {
                cores: 4,
                pods: 8,
                aggs_per_pod: 4,
                tors_per_pod: 8,
                hosts_per_tor: 8,
                ..Default::default()
            },
            4,
        ),
        (
            2048,
            MultiRootedTreeSpec {
                cores: 4,
                pods: 32,
                aggs_per_pod: 4,
                tors_per_pod: 8,
                hosts_per_tor: 8,
                ..Default::default()
            },
            2,
        ),
    ];
    let mut out = Vec::new();
    for (hosts, spec, max_paths) in rungs {
        if hosts > max_hosts {
            continue;
        }
        let w = build_epoch_workload(&spec, max_paths, 2000, 10, 500);
        assert_eq!(w.hosts, hosts);
        let (cold, _) = run_epochs(&w, false);
        let mut best = u128::MAX;
        for repeat in 0..3 {
            let (c, n) = run_epochs(&w, true);
            assert_eq!(
                c.to_bits(),
                cold.to_bits(),
                "{hosts} hosts: warm repeat {repeat} diverged from cold solves"
            );
            best = best.min(n);
        }
        // Arena occupancy after the full churn: slot recycling must keep
        // the slot table at the concurrent flow population, independent
        // of how many flows have ever lived.
        let mut arena = FlowArena::new(w.capacities.len());
        let mut slots: Vec<_> = w.initial.iter().map(|f| arena.add(f)).collect();
        for (i, arrival) in w.churn.iter().enumerate() {
            let k = i % slots.len();
            arena.remove(slots[k]);
            slots[k] = arena.add(arrival);
        }
        assert!(
            arena.slot_bound() <= 2 * arena.n_flows(),
            "{hosts} hosts: {} slots for {} live flows — slot recycling ceiling breached",
            arena.slot_bound(),
            arena.n_flows()
        );
        let events = (w.epochs * w.churn_per_epoch) as f64;
        let ns_per_event = best as f64 / events;
        println!(
            "sweep\t{hosts} hosts\t{ns_per_event:.0} ns/event\t{} slots for {} live flows",
            arena.slot_bound(),
            arena.n_flows()
        );
        out.push(FsRung {
            hosts,
            ns_per_event,
            slot_bound: arena.slot_bound(),
            live_flows: arena.n_flows(),
        });
    }
    out
}

fn main() {
    let flows = 250usize;
    let events = 600usize;
    let (w, hosts) = build_workload(flows, events);
    assert_warm_bitmatches_cold(&w);
    // Interleave four rounds and keep the best of each side, shielding
    // the ratios from one-off scheduler noise.
    let mut base_best = u128::MAX;
    let mut inc_best = u128::MAX;
    let mut warm_best = u128::MAX;
    let mut base_sum = 0.0;
    let mut inc_sum = 0.0;
    for _ in 0..4 {
        let (bc, bn) = run_baseline(&w);
        let (ic, inn) = run_incremental(&w);
        let (wc, wn) = run_warm(&w);
        assert!(
            (bc - ic).abs() <= 1e-6 * bc.abs().max(1.0),
            "baseline and incremental disagree: {bc} vs {ic}"
        );
        assert!(wc.to_bits() == ic.to_bits(), "warm and incremental disagree: {wc} vs {ic}");
        base_best = base_best.min(bn);
        inc_best = inc_best.min(inn);
        warm_best = warm_best.min(wn);
        base_sum = bc;
        inc_sum = ic;
    }
    let speedup = base_best as f64 / inc_best as f64;
    let warm_speedup = inc_best as f64 / warm_best as f64;
    let base_ev = base_best as f64 / events as f64;
    let inc_ev = inc_best as f64 / events as f64;
    let warm_ev = warm_best as f64 / events as f64;
    println!("# fair-share reallocation: {flows} flows, {hosts} hosts, {events} events");
    println!("baseline\t{base_ev:.0} ns/event\t(checksum {base_sum:.3})");
    println!("incremental\t{inc_ev:.0} ns/event\t(checksum {inc_sum:.3})");
    println!("warm-started\t{warm_ev:.0} ns/event");
    println!("speedup\t{speedup:.2}x");
    println!("warm speedup\t{warm_speedup:.2}x over incremental");
    // Scale ladder: the same churn intensity on growing host counts.
    // `CHOREO_SWEEP_MAX_HOSTS` caps the ladder (CI stops at 512; the
    // 2048-host rung builds a much larger route table).
    let max_hosts = std::env::var("CHOREO_SWEEP_MAX_HOSTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    println!("# host-count sweep: 2000 flows, 10 epochs x 500 replacements per rung, warm solves");
    let sweep = run_host_sweep(max_hosts);
    // `pass` means every *target* holds (the CI gate applies looser
    // floors).
    let mut report = JsonReport::new("fairshare_reallocation")
        .int("hosts", hosts as u64)
        .int("flows", flows as u64)
        .int("events", events as u64)
        .num("baseline_ns_per_event", base_ev, 1)
        .num("incremental_ns_per_event", inc_ev, 1)
        .num("warm_ns_per_event", warm_ev, 1)
        .num("speedup", speedup, 3)
        .num("target_speedup", 3.0, 1)
        .num("warm_speedup", warm_speedup, 3)
        .num("warm_target_speedup", 2.0, 1)
        .int("sweep_max_hosts", max_hosts.min(2048) as u64);
    for hosts in [128usize, 512, 2048] {
        let rung = sweep.iter().find(|r| r.hosts == hosts);
        report = report
            .opt_num(&format!("sweep_{hosts}_ns_per_event"), rung.map(|r| r.ns_per_event), 1)
            .opt_num(&format!("sweep_{hosts}_flow_slots"), rung.map(|r| r.slot_bound as f64), 0)
            .opt_num(&format!("sweep_{hosts}_live_flows"), rung.map(|r| r.live_flows as f64), 0);
    }
    report.bool("pass", speedup >= 3.0 && warm_speedup >= 2.0).write("BENCH_fairshare.json");
}
