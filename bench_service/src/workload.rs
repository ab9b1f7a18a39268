//! The three workloads: seeded tenant (and network) streams, turned into
//! the request frames a closed-loop client sends.
//!
//! Everything here runs during set-up and is not timed. The same
//! `(workload, seed, events)` always yields the same frames.

use choreo_online::{DriftConfig, OnlineConfig};
use choreo_profile::{
    merge_events, NetworkEventStream, NetworkEventStreamConfig, ServiceEvent, TenantEvent,
    TenantEventKind, WorkloadGenConfig, WorkloadStream, WorkloadStreamConfig,
};
use choreo_topology::{MultiRootedTreeSpec, Nanos, Topology, SECS};
use choreo_wire::ServiceRequest;

/// Requests in one stream unless `--events` says otherwise: on `churn`,
/// exactly `bench_online`'s measured stream.
pub const STREAM_REQUESTS: usize = 12_000;

/// Which traffic mix a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `bench_online` tenant stream: the admission path.
    Churn,
    /// Slow arrivals, fast intensity changes, every 4th request an
    /// operator read, trace export attached.
    OpsMix,
    /// The churn stream merged with link incidents every ~2 s.
    Faults,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "churn" => Ok(Workload::Churn),
            "ops_mix" => Ok(Workload::OpsMix),
            "faults" => Ok(Workload::Faults),
            other => Err(format!("unknown workload {other:?} (churn, ops_mix, faults)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::OpsMix => "ops_mix",
            Workload::Faults => "faults",
        }
    }

    /// Streams one run replays: as many as fill `seconds` at this
    /// workload's nominal pass time on a 2-core box (a traced run
    /// replays each stream twice, so half as many). The count depends
    /// only on the arguments, never on the speed of the machine, so two
    /// builds measured with the same arguments replay the same inputs.
    pub fn streams(self, seconds: u64, traced: bool) -> usize {
        let pass_s = match self {
            Workload::Churn | Workload::OpsMix => 1.5,
            Workload::Faults => 2.2,
        };
        let passes = if traced { 2.0 } else { 1.0 };
        ((seconds as f64 / (pass_s * passes)) as usize).max(2)
    }

    /// Scheduler settings: defaults (as `choreo-serve` runs), except the
    /// 5 s drift cadence on `faults`.
    pub fn online_config(self, workers: usize) -> OnlineConfig {
        let drift = match self {
            Workload::Faults => DriftConfig { cadence: Some(5 * SECS), ..DriftConfig::default() },
            _ => DriftConfig::default(),
        };
        OnlineConfig { workers, drift, ..OnlineConfig::default() }
    }

    /// Whether the service runs with the JSONL trace export attached.
    pub fn exports_trace(self) -> bool {
        self == Workload::OpsMix
    }
}

/// The cluster every workload runs on: `bench_online`'s 128-host,
/// 8-pod multi-rooted tree.
pub fn bench_tree() -> Topology {
    MultiRootedTreeSpec {
        cores: 2,
        pods: 8,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..MultiRootedTreeSpec::default()
    }
    .build()
}

/// What a request does to the scheduler, which decides how its reply is
/// checked and whether the traced run advances the clock before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Admit,
    /// `SetIntensity` or `Depart`.
    Tenant,
    /// `InjectNetworkEvent`.
    Network,
    /// `Stats`, `Metrics` or `GetTrace`: no clock advance.
    Read,
}

impl Kind {
    /// True when the service's handler first advances the scheduler to
    /// the frame's `at`.
    pub fn advances(self) -> bool {
        self != Kind::Read
    }
}

/// One request as the client sends it.
pub struct Frame {
    /// Service-clock time of the request.
    pub at: Nanos,
    pub kind: Kind,
    /// The length-prefixed encoding.
    pub bytes: Vec<u8>,
}

/// Seed of a run's `k`-th stream. Stream 0 uses the run's seed itself,
/// so `churn` at seed 7 replays `bench_online`'s stream; the others are
/// splitmix64-scrambled so neighbouring seeds share no stream.
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pass's inputs: the frames, the same events for the direct
/// scheduler pass, and the warm-up prefix length.
pub struct Inputs {
    pub frames: Vec<Frame>,
    pub events: Vec<ServiceEvent>,
    pub warmup: usize,
}

fn tenant_stream(
    mean_interarrival: Nanos,
    mean_intensity_change: Nanos,
    seed: u64,
) -> WorkloadStream {
    let cfg = WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival,
            ..WorkloadGenConfig::default()
        },
        mean_intensity_change,
        max_intensity: 3,
        ..WorkloadStreamConfig::default()
    };
    WorkloadStream::new(cfg, seed)
}

fn tenant_request(ev: &TenantEvent) -> (Kind, ServiceRequest) {
    let tenant = ev.tenant;
    match &ev.kind {
        TenantEventKind::Arrive { app } => {
            (Kind::Admit, ServiceRequest::Admit { tenant, app: (**app).clone() })
        }
        TenantEventKind::SetIntensity { intensity } => {
            (Kind::Tenant, ServiceRequest::SetIntensity { tenant, intensity: *intensity })
        }
        TenantEventKind::Depart => (Kind::Tenant, ServiceRequest::Depart { tenant }),
    }
}

fn frame(at: Nanos, kind: Kind, req: &ServiceRequest) -> Frame {
    Frame { at, kind, bytes: req.encode().to_vec() }
}

/// Build `events` requests of `workload` from `seed`.
pub fn build(workload: Workload, seed: u64, events: usize) -> Inputs {
    let mut frames = Vec::with_capacity(events);
    let service_events: Vec<ServiceEvent> = match workload {
        Workload::Churn => tenant_stream(2 * SECS, 12 * SECS, seed)
            .take(events)
            .map(ServiceEvent::Tenant)
            .collect(),
        Workload::OpsMix => {
            let tenant_events = events - events / 4;
            tenant_stream(8 * SECS, 2 * SECS, seed)
                .take(tenant_events)
                .map(ServiceEvent::Tenant)
                .collect()
        }
        Workload::Faults => {
            let tenants: Vec<TenantEvent> =
                tenant_stream(2 * SECS, 12 * SECS, seed).take(events).collect();
            let end = tenants.last().map_or(0, |e| e.at);
            let cfg = NetworkEventStreamConfig {
                n_links: bench_tree().links().len() as u32,
                mean_time_between_incidents: 2 * SECS,
                ..NetworkEventStreamConfig::default()
            };
            let network = NetworkEventStream::new(cfg, seed).take_while(|e| e.at <= end).collect();
            merge_events(tenants, network)
        }
    };
    let reads =
        [ServiceRequest::Stats, ServiceRequest::Metrics, ServiceRequest::GetTrace { n: 64 }];
    for (i, ev) in service_events.iter().enumerate() {
        match ev {
            ServiceEvent::Tenant(t) => {
                let (kind, req) = tenant_request(t);
                frames.push(frame(t.at, kind, &req));
            }
            ServiceEvent::Network(n) => {
                let req =
                    ServiceRequest::InjectNetworkEvent { at: n.at, link: n.link, kind: n.kind };
                frames.push(frame(n.at, Kind::Network, &req));
            }
        }
        // ops_mix: after every third tenant request, one operator read
        // at the same service-clock instant.
        if workload == Workload::OpsMix && i % 3 == 2 {
            frames.push(frame(ev.at(), Kind::Read, &reads[(i / 3) % reads.len()]));
        }
    }
    let warmup = frames.len() / 6;
    Inputs { frames, events: service_events, warmup }
}
