//! A tiny `GET /metrics` + `GET /trace` HTTP endpoint over the service
//! registry.
//!
//! Just enough HTTP/1.0 for a prometheus scraper or `curl`: read the
//! request line, answer `GET /metrics` with the registry's text
//! exposition (and, when a trace snapshot was wired in via
//! [`MetricsServer::start_with_trace`], `GET /trace?n=K` with the last
//! `K` decision-trace JSON lines), answer everything else with 404,
//! close the connection. No keep-alive, no chunking, no dependencies.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use choreo_metrics::Registry;

/// A running metrics endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Serve `registry` at `http://addr/metrics` on a background
    /// thread. Port 0 binds an ephemeral port; see
    /// [`MetricsServer::local_addr`].
    pub fn start<A: ToSocketAddrs>(addr: A, registry: Arc<Registry>) -> std::io::Result<Self> {
        Self::start_inner(addr, registry, None)
    }

    /// Like [`MetricsServer::start`], but also serve `GET /trace?n=K`
    /// from `trace` — a decision-trace JSONL snapshot the service loop
    /// keeps current incrementally, at O(new decisions) per request
    /// ([`crate::PlacementService::trace_export`]).
    pub fn start_with_trace<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<Registry>,
        trace: Arc<Mutex<String>>,
    ) -> std::io::Result<Self> {
        Self::start_inner(addr, registry, Some(trace))
    }

    fn start_inner<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<Registry>,
        trace: Option<Arc<Mutex<String>>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = Self::serve_one(stream, &registry, trace.as_deref());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn serve_one(
        stream: TcpStream,
        registry: &Registry,
        trace: Option<&Mutex<String>>,
    ) -> std::io::Result<()> {
        stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
        let mut reader = BufReader::new(stream);
        let mut request_line = String::new();
        reader.read_line(&mut request_line)?;
        // Drain headers until the blank line so the client isn't left
        // with an unread request body buffer on close.
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
                break;
            }
        }
        let mut stream = reader.into_inner();
        let path = request_line.split_whitespace().nth(1).unwrap_or("");
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let is_get = request_line.starts_with("GET");
        let (status, body) = if is_get && route == "/metrics" {
            ("200 OK", registry.render())
        } else if is_get && route == "/trace" {
            match trace {
                Some(t) => {
                    let snapshot = t.lock().expect("trace export poisoned");
                    ("200 OK", last_lines(&snapshot, trace_limit(query)).to_string())
                }
                None => ("404 Not Found", "no trace source wired in\n".to_string()),
            }
        } else {
            ("404 Not Found", "only GET /metrics and GET /trace live here\n".to_string())
        };
        write!(
            stream,
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        stream.flush()
    }

    /// Stop serving (idempotent; also runs on drop).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `n` from a `/trace` query string (`n=K`, `&`-separated); everything
/// when absent or malformed.
fn trace_limit(query: &str) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// The last `n` lines of newline-terminated `text`, with their
/// newlines: all of it when `n` reaches the line count, empty for
/// `n = 0`. Scans newlines back from the end, so the cost follows the
/// tail, not the whole snapshot.
fn last_lines(text: &str, n: usize) -> &str {
    let Some(n) = n.checked_sub(1) else {
        return "";
    };
    let body = text.strip_suffix('\n').unwrap_or(text);
    body.rmatch_indices('\n').nth(n).map_or(text, |(i, _)| &text[i + 1..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        write!(c, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrapes_the_registry_text() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("demo_total", "a demo counter");
        c.inc_by(3);
        let server = MetricsServer::start(("127.0.0.1", 0), registry).unwrap();
        let body = get(server.local_addr(), "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("# TYPE demo_total counter"), "{body}");
        assert!(body.contains("demo_total 3"), "{body}");
    }

    #[test]
    fn other_paths_are_404() {
        let server = MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new())).unwrap();
        let body = get(server.local_addr(), "/");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }

    #[test]
    fn trace_route_serves_the_snapshot_with_a_limit() {
        let trace = Arc::new(Mutex::new(
            "{\"at\":1,\"kind\":\"admit\"}\n{\"at\":2,\"kind\":\"depart\"}\n".to_string(),
        ));
        let server =
            MetricsServer::start_with_trace(("127.0.0.1", 0), Arc::new(Registry::new()), trace)
                .unwrap();
        let body = get(server.local_addr(), "/trace");
        assert!(body.starts_with("HTTP/1.0 200"), "{body}");
        assert!(body.contains("\"at\":1") && body.contains("\"at\":2"), "{body}");
        let tail = get(server.local_addr(), "/trace?n=1");
        assert!(!tail.contains("\"at\":1") && tail.contains("\"at\":2"), "{tail}");
    }

    #[test]
    fn last_lines_of_nothing_is_empty() {
        assert_eq!(last_lines("a\nb\n", 0), "");
        assert_eq!(last_lines("", 0), "");
        assert_eq!(last_lines("", 3), "");
    }

    #[test]
    fn last_lines_past_the_line_count_is_everything() {
        for n in [2, 3, usize::MAX] {
            assert_eq!(last_lines("a\nb\n", n), "a\nb\n", "n = {n}");
        }
        assert_eq!(last_lines("only\n", 1), "only\n");
    }

    #[test]
    fn last_lines_keeps_the_trailing_newline() {
        let text = "{\"at\":1}\n{\"at\":2}\n{\"at\":3}\n";
        assert_eq!(last_lines(text, 1), "{\"at\":3}\n");
        assert_eq!(last_lines(text, 2), "{\"at\":2}\n{\"at\":3}\n");
    }

    #[test]
    fn trace_route_without_a_source_is_404() {
        let server = MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new())).unwrap();
        let body = get(server.local_addr(), "/trace");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }
}
