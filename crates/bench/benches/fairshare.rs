//! Fair-share core micro-benchmarks: the incremental arena + persistent
//! solver against the from-scratch path, at increasing flow counts on a
//! 64-host multi-rooted tree (the `bench_fairshare` binary emits the
//! tracked JSON summary; this bench gives per-size curves).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use choreo_flowsim::{max_min_rates, FlowArena, MaxMinSolver};
use choreo_topology::route::splitmix64;
use choreo_topology::{MultiRootedTreeSpec, RouteTable};

fn workload(flows: usize) -> (Vec<f64>, Vec<Vec<u32>>) {
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 4,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    };
    let topo = spec.build();
    let routes = RouteTable::new(&topo);
    let caps: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let h = topo.hosts();
    let paths = (0..flows as u64)
        .map(|id| {
            let a = h[(splitmix64(id) % h.len() as u64) as usize];
            let mut b = h[(splitmix64(id ^ 0xDEAD) % h.len() as u64) as usize];
            if a == b {
                b = h[(h.iter().position(|&x| x == a).unwrap() + 1) % h.len()];
            }
            routes
                .path_for_flow(a, b, splitmix64(id.wrapping_mul(0x9E37)))
                .hops
                .iter()
                .map(choreo_flowsim::hop_resource)
                .collect()
        })
        .collect();
    (caps, paths)
}

fn bench_fairshare_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairshare");
    for flows in [50usize, 200, 400] {
        let (caps, paths) = workload(flows);
        // From-scratch: rebuild the spec list and solve per call (the
        // pre-arena engine path).
        group.bench_with_input(BenchmarkId::new("from_scratch", flows), &(), |b, _| {
            b.iter(|| {
                let specs: Vec<Vec<u32>> = paths.clone();
                black_box(max_min_rates(&caps, &specs))
            })
        });
        // Incremental: persistent arena + solver; each iteration replaces
        // one flow and reallocates, the steady-state engine pattern.
        let mut arena = FlowArena::new(caps.len());
        let mut slots: Vec<_> = paths.iter().map(|p| arena.add(p)).collect();
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve(&caps, &arena, &mut rates);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("incremental", flows), &(), |b, _| {
            b.iter(|| {
                let k = next % slots.len();
                arena.remove(slots[k]);
                slots[k] = arena.add(&paths[(next * 7 + 1) % paths.len()]);
                next += 1;
                solver.solve(&caps, &arena, &mut rates);
                black_box(rates.len())
            })
        });
        // Warm-started: same churn, but every reallocation replays the
        // previous solve's freeze-round log and re-runs only the rounds
        // the churned flow perturbed (bit-identical to the cold solve).
        let mut warm_arena = FlowArena::new(caps.len());
        let mut warm_slots: Vec<_> = paths.iter().map(|p| warm_arena.add(p)).collect();
        let mut warm_solver = MaxMinSolver::new();
        let mut warm_rates = Vec::new();
        warm_solver.solve_warm(&caps, &mut warm_arena, &mut warm_rates);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("warm", flows), &(), |b, _| {
            b.iter(|| {
                let k = next % warm_slots.len();
                warm_arena.remove(warm_slots[k]);
                warm_slots[k] = warm_arena.add(&paths[(next * 7 + 1) % paths.len()]);
                next += 1;
                warm_solver.solve_warm(&caps, &mut warm_arena, &mut warm_rates);
                black_box(warm_rates.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fairshare_core);
criterion_main!(benches);
