//! The benchmark's [`ServiceEnv`]: a closed-loop client with one
//! connection.
//!
//! `next_event` decodes the next pre-encoded request frame; `send`
//! encodes the reply and decodes it back, as the client would. Each
//! request's decode and encode boundaries are stamped on the monotonic
//! clock, so the harness can split a request into wire, handler and
//! export time without any span inside the program.

use std::time::Instant;

use choreo_service::{ConnId, NetEvent, ServiceEnv};
use choreo_topology::Nanos;
use choreo_wire::{ServiceRequest, ServiceResponse};

use crate::trace::{self, Interval};
use crate::workload::{Frame, Kind};

/// The only connection.
const CONN: ConnId = 1;

/// Clock stamps of one served request.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    pub decode_start: Instant,
    pub decode_end: Instant,
    pub encode_start: Instant,
    pub encode_end: Instant,
    /// The client has decoded the reply (and checked it against the
    /// service's own value).
    pub reply_decoded: Instant,
    /// The reply was `Admitted` or `Queued`.
    pub placed: bool,
    pub queued: bool,
}

/// Replies by kind, plus the ones that broke the protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replies {
    pub admitted: u64,
    pub queued: u64,
    pub rejected: u64,
    pub done: u64,
    pub reads: u64,
    pub errors: u64,
    /// Replies that did not decode back to what the service sent, did
    /// not fit their request's kind, or were a second reply to one
    /// request.
    pub bad: u64,
}

pub struct FrameEnv<'a> {
    frames: &'a [Frame],
    /// Index of the next frame to deliver.
    next: usize,
    now: Nanos,
    /// Decode stamps of the request awaiting its reply.
    pending: Option<(Instant, Instant)>,
    /// One entry per replied request, in frame order.
    pub marks: Vec<Marks>,
    pub replies: Replies,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl<'a> FrameEnv<'a> {
    pub fn new(frames: &'a [Frame]) -> FrameEnv<'a> {
        FrameEnv {
            frames,
            next: 0,
            now: 0,
            pending: None,
            marks: Vec::with_capacity(frames.len()),
            replies: Replies::default(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn tally(&mut self, kind: Kind, resp: &ServiceResponse) {
        let r = &mut self.replies;
        match (kind, resp) {
            (_, ServiceResponse::Error(_)) => r.errors += 1,
            (Kind::Admit, ServiceResponse::Admitted { .. }) => r.admitted += 1,
            (Kind::Admit, ServiceResponse::Queued) => r.queued += 1,
            (Kind::Admit, ServiceResponse::Rejected { .. }) => r.rejected += 1,
            (Kind::Tenant | Kind::Network, ServiceResponse::Done) => r.done += 1,
            (
                Kind::Read,
                ServiceResponse::Stats(_)
                | ServiceResponse::MetricsText(_)
                | ServiceResponse::Trace(_),
            ) => r.reads += 1,
            _ => r.bad += 1,
        }
    }
}

impl ServiceEnv for FrameEnv<'_> {
    fn now(&self) -> Nanos {
        self.now
    }

    fn next_event(&mut self) -> Option<(Nanos, ConnId, NetEvent)> {
        let frame = self.frames.get(self.next)?;
        let decode_start = Instant::now();
        let req = ServiceRequest::decode(&frame.bytes[4..]).expect("pre-encoded frames decode");
        let decode_end = Instant::now();
        trace::enter(Interval::Handle);
        self.bytes_in += frame.bytes.len() as u64;
        self.next += 1;
        self.now = frame.at;
        self.pending = Some((decode_start, decode_end));
        Some((frame.at, CONN, NetEvent::Request(req)))
    }

    fn send(&mut self, _conn: ConnId, resp: &ServiceResponse) {
        let encode_start = Instant::now();
        let Some((decode_start, decode_end)) = self.pending.take() else {
            self.replies.bad += 1;
            return;
        };
        let bytes = resp.encode();
        let encode_end = Instant::now();
        trace::enter(Interval::Export);
        let prefix = u32::from_be_bytes(bytes[..4].try_into().expect("4-byte length prefix"));
        let decoded_ok = prefix as usize == bytes.len() - 4
            && ServiceResponse::decode(&bytes[4..]).is_ok_and(|back| back == *resp);
        let reply_decoded = Instant::now();
        self.bytes_out += bytes.len() as u64;
        let kind = self.frames[self.next - 1].kind;
        if decoded_ok {
            self.tally(kind, resp);
        } else {
            self.replies.bad += 1;
        }
        self.marks.push(Marks {
            decode_start,
            decode_end,
            encode_start,
            encode_end,
            reply_decoded,
            placed: matches!(resp, ServiceResponse::Admitted { .. }),
            queued: matches!(resp, ServiceResponse::Queued),
        });
    }
}
