//! The placement service's request protocol.
//!
//! `choreo-service` serves tenants over the same length-prefixed framing
//! the measurement control plane uses ([`crate::format::ControlMsg`]):
//! every frame is a big-endian `u32` body length followed by a one-byte
//! tag and the tag's fields. Frames are capped at 16 MiB in both
//! directions (see [`crate::frame`]): a receiver rejects an oversized
//! length before allocating, and a sender's `write_to`/`try_encode`
//! refuses to emit a frame the peer would drop — an [`AppProfile`] of
//! ~1450 tasks or more (its n² matrix dominates) is a loud sender-side
//! error, not an opaque connection close.
//!
//! The codec is transport-agnostic on purpose: the same
//! [`ServiceRequest::read_from`] / [`ServiceResponse::write_to`] bytes
//! flow over real TCP sockets (`NetEnv`) and through the in-memory
//! simulated transport (`SimEnv`), which is what lets the service loop
//! be tested bit-for-bit deterministically and deployed unchanged.
//!
//! Request → response pairing is strict: every request frame gets
//! exactly one response frame on the same connection, in order. There is
//! no pipelining requirement — a client may write several requests ahead
//! — but responses never reorder.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use choreo_profile::{AppProfile, NetworkEventKind, TenantId, TrafficMatrix};

use crate::frame::{read_frame, write_frame};

/// What a tenant (or operator) can ask the placement service to do.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Admit a tenant with its profiled application.
    Admit {
        /// Caller-chosen tenant identifier (duplicate ids are refused).
        tenant: TenantId,
        /// The profiled application to place.
        app: AppProfile,
    },
    /// Change a running tenant's per-transfer connection count.
    SetIntensity {
        /// Target tenant.
        tenant: TenantId,
        /// New connections per modeled transfer (≥ 1).
        intensity: u32,
    },
    /// Tear a tenant down (running, queued or rejected — all legal).
    Depart {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Fetch the service counters and trajectory digest.
    Stats,
    /// Fetch the prometheus text exposition of every metric.
    Metrics,
    /// Advance the service clock to `at` and run a migration pass.
    ForceMigration {
        /// Simulated (service-clock) nanoseconds to advance to.
        at: u64,
    },
    /// Operator injection of a network event (link failure, fractional
    /// degradation, maintenance drain, recovery) at service-clock time
    /// `at` — the wire face of the scheduler's runtime-capacity path.
    InjectNetworkEvent {
        /// Simulated (service-clock) nanoseconds the event happens at.
        at: u64,
        /// Topology link the event concerns.
        link: u32,
        /// What happens to the link.
        kind: NetworkEventKind,
    },
    /// Fetch the last `n` decision-trace entries as JSON lines (oldest
    /// first). Read-only: the service clock does not advance and the
    /// trajectory digest is untouched.
    GetTrace {
        /// Maximum entries to return (the trace ring's capacity bounds
        /// what can come back).
        n: u32,
    },
    /// Stop serving after responding.
    Shutdown,
}

/// One service decision's worth of reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// The tenant was admitted; task → global host index.
    Admitted {
        /// Placement: `hosts[task]` is the task's host.
        hosts: Vec<u32>,
    },
    /// No capacity right now; parked in the FIFO wait queue.
    Queued,
    /// Not admitted and not queued.
    Rejected {
        /// Why (queue full, duplicate id, …).
        reason: String,
    },
    /// The request was applied (departures, intensity, migration,
    /// shutdown).
    Done,
    /// Service counters snapshot.
    Stats(ServiceStatsReply),
    /// Prometheus text exposition.
    MetricsText(String),
    /// Decision-trace entries as JSON lines, oldest first.
    Trace(String),
    /// The request failed.
    Error(String),
}

/// Counter snapshot shipped by [`ServiceResponse::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatsReply {
    /// Tenant events consumed.
    pub events: u64,
    /// Tenants admitted straight from arrival.
    pub admitted: u64,
    /// Tenants parked in the wait queue.
    pub queued: u64,
    /// Queued tenants admitted by a departure retry.
    pub queue_admitted: u64,
    /// Arrivals rejected with the wait queue full, with every link up or
    /// while links were down (the scheduler's `failure_rejections`
    /// counter holds the links-down subset).
    pub rejected: u64,
    /// Duplicate arrivals refused.
    pub duplicates: u64,
    /// Departure events.
    pub departures: u64,
    /// Tenants moved by the migration planner.
    pub migrations: u64,
    /// Tenants admitted and running right now.
    pub active: u64,
    /// Tenants waiting for capacity right now.
    pub queue_len: u64,
    /// All-time decisions recorded in the trace ring.
    pub decisions_total: u64,
    /// The deterministic trajectory digest.
    pub trace_hash: u64,
}

fn put_string(body: &mut BytesMut, s: &str) {
    body.put_u32(s.len() as u32);
    body.put_slice(s.as_bytes());
}

fn get_string(data: &mut &[u8]) -> Result<String, String> {
    if data.len() < 4 {
        return Err("truncated string length".into());
    }
    let n = data.get_u32() as usize;
    if data.len() < n {
        return Err("truncated string body".into());
    }
    let s = String::from_utf8_lossy(&data[..n]).into_owned();
    *data = &data[n..];
    Ok(s)
}

fn put_app(body: &mut BytesMut, app: &AppProfile) {
    put_string(body, &app.name);
    body.put_u32(app.n_tasks() as u32);
    for &c in &app.cpu {
        body.put_u64(c.to_bits());
    }
    let n = app.matrix.n_tasks();
    for i in 0..n {
        for j in 0..n {
            body.put_u64(app.matrix.bytes(i, j));
        }
    }
    body.put_u64(app.start_time);
}

fn get_app(data: &mut &[u8]) -> Result<AppProfile, String> {
    let name = get_string(data)?;
    if data.len() < 4 {
        return Err("truncated task count".into());
    }
    let n = data.get_u32() as usize;
    // n floats + n² matrix entries + start time, 8 bytes each.
    let need = n
        .checked_mul(n)
        .and_then(|nn| nn.checked_add(n + 1))
        .and_then(|w| w.checked_mul(8))
        .ok_or("task count overflows")?;
    if data.len() < need {
        return Err(format!("truncated profile: {n} tasks need {need} more bytes"));
    }
    let cpu: Vec<f64> = (0..n).map(|_| f64::from_bits(data.get_u64())).collect();
    if !cpu.iter().all(|&c| c > 0.0 && c.is_finite()) {
        return Err("profile CPU demands must be positive and finite".into());
    }
    let bytes: Vec<u64> = (0..n * n).map(|_| data.get_u64()).collect();
    let start_time = data.get_u64();
    Ok(AppProfile::new(name, cpu, TrafficMatrix::from_rows(n, bytes), start_time))
}

impl ServiceRequest {
    /// Encode with the u32 length prefix. Panics when the encoded body
    /// exceeds the 16 MiB frame cap (an [`AppProfile`] of roughly 1450
    /// tasks or more — its n² matrix dominates); use
    /// [`ServiceRequest::try_encode`] to handle that as an error.
    pub fn encode(&self) -> Bytes {
        self.try_encode().expect("request frame over the protocol cap")
    }

    /// Encode with the u32 length prefix, erroring on a body over the
    /// 16 MiB frame cap — the failure happens loudly on the sending
    /// side instead of the peer dropping the connection as oversized.
    pub fn try_encode(&self) -> Result<Bytes, String> {
        let mut body = BytesMut::new();
        match self {
            ServiceRequest::Admit { tenant, app } => {
                body.put_u8(0x10);
                body.put_u64(*tenant);
                put_app(&mut body, app);
            }
            ServiceRequest::SetIntensity { tenant, intensity } => {
                body.put_u8(0x11);
                body.put_u64(*tenant);
                body.put_u32(*intensity);
            }
            ServiceRequest::Depart { tenant } => {
                body.put_u8(0x12);
                body.put_u64(*tenant);
            }
            ServiceRequest::Stats => body.put_u8(0x13),
            ServiceRequest::Metrics => body.put_u8(0x14),
            ServiceRequest::ForceMigration { at } => {
                body.put_u8(0x15);
                body.put_u64(*at);
            }
            ServiceRequest::Shutdown => body.put_u8(0x16),
            ServiceRequest::InjectNetworkEvent { at, link, kind } => {
                body.put_u8(0x17);
                body.put_u64(*at);
                body.put_u32(*link);
                let (code, fraction) = match kind {
                    NetworkEventKind::LinkDegrade { fraction } => (1u8, *fraction),
                    NetworkEventKind::LinkFail => (2, 0.0),
                    NetworkEventKind::LinkRecover => (3, 1.0),
                    NetworkEventKind::DrainStart { fraction } => (4, *fraction),
                    NetworkEventKind::DrainEnd => (5, 1.0),
                };
                body.put_u8(code);
                body.put_u64(fraction.to_bits());
            }
            ServiceRequest::GetTrace { n } => {
                body.put_u8(0x18);
                body.put_u32(*n);
            }
        }
        write_frame(body)
    }

    /// Decode one request body (length prefix already stripped).
    pub fn decode(mut data: &[u8]) -> Result<ServiceRequest, String> {
        if data.is_empty() {
            return Err("empty request frame".into());
        }
        let tag = data.get_u8();
        let need = |data: &[u8], n: usize| {
            if data.len() < n {
                Err(format!("truncated request: tag {tag:#x}"))
            } else {
                Ok(())
            }
        };
        match tag {
            0x10 => {
                need(data, 8)?;
                let tenant = data.get_u64();
                let app = get_app(&mut data)?;
                Ok(ServiceRequest::Admit { tenant, app })
            }
            0x11 => {
                need(data, 12)?;
                let tenant = data.get_u64();
                let intensity = data.get_u32();
                if intensity == 0 {
                    return Err("intensity must be at least 1".into());
                }
                Ok(ServiceRequest::SetIntensity { tenant, intensity })
            }
            0x12 => {
                need(data, 8)?;
                Ok(ServiceRequest::Depart { tenant: data.get_u64() })
            }
            0x13 => Ok(ServiceRequest::Stats),
            0x14 => Ok(ServiceRequest::Metrics),
            0x15 => {
                need(data, 8)?;
                Ok(ServiceRequest::ForceMigration { at: data.get_u64() })
            }
            0x16 => Ok(ServiceRequest::Shutdown),
            0x17 => {
                need(data, 8 + 4 + 1 + 8)?;
                let at = data.get_u64();
                let link = data.get_u32();
                let code = data.get_u8();
                let fraction = f64::from_bits(data.get_u64());
                let fraction_ok = fraction > 0.0 && fraction < 1.0;
                let kind = match code {
                    1 if fraction_ok => NetworkEventKind::LinkDegrade { fraction },
                    2 => NetworkEventKind::LinkFail,
                    3 => NetworkEventKind::LinkRecover,
                    4 if fraction_ok => NetworkEventKind::DrainStart { fraction },
                    5 => NetworkEventKind::DrainEnd,
                    1 | 4 => {
                        return Err(format!(
                            "network-event fraction must be in (0, 1), got {fraction}"
                        ))
                    }
                    other => return Err(format!("unknown network-event kind {other}")),
                };
                Ok(ServiceRequest::InjectNetworkEvent { at, link, kind })
            }
            0x18 => {
                need(data, 4)?;
                Ok(ServiceRequest::GetTrace { n: data.get_u32() })
            }
            other => Err(format!("unknown request tag {other:#x}")),
        }
    }

    /// Write one framed request to a stream; an oversized request is a
    /// sender-side [`std::io::ErrorKind::InvalidData`] error.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let framed = self
            .try_encode()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(&framed)?;
        w.flush()
    }

    /// Read one framed request from a stream. Idle read timeouts (no
    /// bytes consumed) are retryable; a timeout mid-frame is fatal —
    /// see [`crate::frame`].
    pub fn read_from<R: std::io::Read>(r: &mut R) -> std::io::Result<ServiceRequest> {
        let body = read_frame(r, "request")?;
        ServiceRequest::decode(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl ServiceResponse {
    /// Encode with the u32 length prefix. Panics when the encoded body
    /// exceeds the 16 MiB frame cap; use [`ServiceResponse::try_encode`]
    /// to handle that as an error.
    pub fn encode(&self) -> Bytes {
        self.try_encode().expect("response frame over the protocol cap")
    }

    /// Encode with the u32 length prefix, erroring on a body over the
    /// 16 MiB frame cap.
    pub fn try_encode(&self) -> Result<Bytes, String> {
        let mut body = BytesMut::new();
        match self {
            ServiceResponse::Admitted { hosts } => {
                body.put_u8(0x90);
                body.put_u32(hosts.len() as u32);
                for &h in hosts {
                    body.put_u32(h);
                }
            }
            ServiceResponse::Queued => body.put_u8(0x91),
            ServiceResponse::Rejected { reason } => {
                body.put_u8(0x92);
                put_string(&mut body, reason);
            }
            ServiceResponse::Done => body.put_u8(0x93),
            ServiceResponse::Stats(s) => {
                body.put_u8(0x94);
                for v in [
                    s.events,
                    s.admitted,
                    s.queued,
                    s.queue_admitted,
                    s.rejected,
                    s.duplicates,
                    s.departures,
                    s.migrations,
                    s.active,
                    s.queue_len,
                    s.decisions_total,
                    s.trace_hash,
                ] {
                    body.put_u64(v);
                }
            }
            ServiceResponse::MetricsText(text) => {
                body.put_u8(0x95);
                put_string(&mut body, text);
            }
            ServiceResponse::Trace(jsonl) => {
                body.put_u8(0x96);
                put_string(&mut body, jsonl);
            }
            ServiceResponse::Error(e) => {
                body.put_u8(0xFF);
                put_string(&mut body, e);
            }
        }
        write_frame(body)
    }

    /// Decode one response body (length prefix already stripped).
    pub fn decode(mut data: &[u8]) -> Result<ServiceResponse, String> {
        if data.is_empty() {
            return Err("empty response frame".into());
        }
        let tag = data.get_u8();
        let need = |data: &[u8], n: usize| {
            if data.len() < n {
                Err(format!("truncated response: tag {tag:#x}"))
            } else {
                Ok(())
            }
        };
        match tag {
            0x90 => {
                need(data, 4)?;
                let n = data.get_u32() as usize;
                need(data, n * 4)?;
                Ok(ServiceResponse::Admitted { hosts: (0..n).map(|_| data.get_u32()).collect() })
            }
            0x91 => Ok(ServiceResponse::Queued),
            0x92 => Ok(ServiceResponse::Rejected { reason: get_string(&mut data)? }),
            0x93 => Ok(ServiceResponse::Done),
            0x94 => {
                need(data, 12 * 8)?;
                Ok(ServiceResponse::Stats(ServiceStatsReply {
                    events: data.get_u64(),
                    admitted: data.get_u64(),
                    queued: data.get_u64(),
                    queue_admitted: data.get_u64(),
                    rejected: data.get_u64(),
                    duplicates: data.get_u64(),
                    departures: data.get_u64(),
                    migrations: data.get_u64(),
                    active: data.get_u64(),
                    queue_len: data.get_u64(),
                    decisions_total: data.get_u64(),
                    trace_hash: data.get_u64(),
                }))
            }
            0x95 => Ok(ServiceResponse::MetricsText(get_string(&mut data)?)),
            0x96 => Ok(ServiceResponse::Trace(get_string(&mut data)?)),
            0xFF => Ok(ServiceResponse::Error(get_string(&mut data)?)),
            other => Err(format!("unknown response tag {other:#x}")),
        }
    }

    /// Write one framed response to a stream; an oversized response is
    /// a sender-side [`std::io::ErrorKind::InvalidData`] error.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let framed = self
            .try_encode()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(&framed)?;
        w.flush()
    }

    /// Read one framed response from a stream. Idle read timeouts (no
    /// bytes consumed) are retryable; a timeout mid-frame is fatal —
    /// see [`crate::frame`].
    pub fn read_from<R: std::io::Read>(r: &mut R) -> std::io::Result<ServiceResponse> {
        let body = read_frame(r, "response")?;
        ServiceResponse::decode(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppProfile {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 1_000_000_000);
        m.set(1, 2, 250);
        AppProfile::new("wordcount", vec![1.0, 2.5, 0.5], m, 42)
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            ServiceRequest::Admit { tenant: 7, app: app() },
            ServiceRequest::SetIntensity { tenant: 7, intensity: 3 },
            ServiceRequest::Depart { tenant: 7 },
            ServiceRequest::Stats,
            ServiceRequest::Metrics,
            ServiceRequest::ForceMigration { at: 123_456_789 },
            ServiceRequest::InjectNetworkEvent {
                at: 5,
                link: 3,
                kind: NetworkEventKind::LinkDegrade { fraction: 0.25 },
            },
            ServiceRequest::InjectNetworkEvent { at: 6, link: 3, kind: NetworkEventKind::LinkFail },
            ServiceRequest::InjectNetworkEvent {
                at: 7,
                link: 3,
                kind: NetworkEventKind::LinkRecover,
            },
            ServiceRequest::InjectNetworkEvent {
                at: 8,
                link: 0,
                kind: NetworkEventKind::DrainStart { fraction: 0.5 },
            },
            ServiceRequest::InjectNetworkEvent { at: 9, link: 0, kind: NetworkEventKind::DrainEnd },
            ServiceRequest::GetTrace { n: 64 },
            ServiceRequest::Shutdown,
        ];
        for r in reqs {
            let framed = r.encode();
            assert_eq!(ServiceRequest::decode(&framed[4..]), Ok(r.clone()), "{r:?}");
            let mut cursor = std::io::Cursor::new(framed.to_vec());
            assert_eq!(ServiceRequest::read_from(&mut cursor).unwrap(), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            ServiceResponse::Admitted { hosts: vec![3, 1, 4] },
            ServiceResponse::Queued,
            ServiceResponse::Rejected { reason: "queue full".into() },
            ServiceResponse::Done,
            ServiceResponse::Stats(ServiceStatsReply {
                events: 1,
                admitted: 2,
                queued: 3,
                queue_admitted: 4,
                rejected: 5,
                duplicates: 6,
                departures: 7,
                migrations: 8,
                active: 9,
                queue_len: 10,
                decisions_total: 11,
                trace_hash: 0xdeadbeef,
            }),
            ServiceResponse::MetricsText("# HELP x y\nx 1\n".into()),
            ServiceResponse::Trace(
                "{\"at\":1,\"tenant\":2,\"kind\":\"admit\",\"value\":3}\n".into(),
            ),
            ServiceResponse::Error("boom".into()),
        ];
        for r in resps {
            let framed = r.encode();
            assert_eq!(ServiceResponse::decode(&framed[4..]), Ok(r.clone()), "{r:?}");
            let mut cursor = std::io::Cursor::new(framed.to_vec());
            assert_eq!(ServiceResponse::read_from(&mut cursor).unwrap(), r);
        }
    }

    #[test]
    fn malformed_frames_are_errors() {
        assert!(ServiceRequest::decode(&[]).is_err());
        assert!(ServiceRequest::decode(&[0x42]).is_err(), "unknown tag");
        let framed = ServiceRequest::Admit { tenant: 1, app: app() }.encode();
        assert!(ServiceRequest::decode(&framed[4..framed.len() - 3]).is_err(), "truncated app");
        // Zero intensity is a protocol error, not a service panic.
        let mut body = BytesMut::new();
        body.put_u8(0x11);
        body.put_u64(1);
        body.put_u32(0);
        assert!(ServiceRequest::decode(&body).is_err());
        assert!(ServiceResponse::decode(&[0x90, 0, 0]).is_err(), "truncated host count");
        // A degrade with a fraction outside (0, 1) is a protocol error.
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let mut body = BytesMut::new();
            body.put_u8(0x17);
            body.put_u64(1);
            body.put_u32(0);
            body.put_u8(1);
            body.put_u64(bad.to_bits());
            assert!(ServiceRequest::decode(&body).is_err(), "fraction {bad}");
        }
        // Unknown network-event kind likewise.
        let mut body = BytesMut::new();
        body.put_u8(0x17);
        body.put_u64(1);
        body.put_u32(0);
        body.put_u8(9);
        body.put_u64(0.5f64.to_bits());
        assert!(ServiceRequest::decode(&body).is_err());
    }

    #[test]
    fn oversized_profiles_fail_on_the_sending_side() {
        // ~1500 tasks: the n² traffic matrix alone is ~18 MB, over the
        // 16 MiB frame cap the receiver enforces.
        let n = 1500;
        let req = ServiceRequest::Admit {
            tenant: 1,
            app: AppProfile::new("huge", vec![1.0; n], TrafficMatrix::zeros(n), 0),
        };
        assert!(req.try_encode().unwrap_err().contains("protocol cap"));
        let mut sink = Vec::new();
        let err = req.write_to(&mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing hit the wire");
    }
}
