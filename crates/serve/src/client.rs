//! Protocol clients: in-process (no sockets) and HTTP-over-TCP.
//!
//! [`LocalClient`] calls the same [`route`](crate::server::route) dispatcher
//! the HTTP workers use, so embedding the service in a binary (tests, the
//! `serve_campaign` example) exercises exactly the deployed protocol minus
//! the wire. [`HttpClient`] is the blocking socket counterpart used by the
//! load generator and the end-to-end tests; it keeps its connection alive
//! across requests, mirroring a real client SDK.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use atpm_graph::Node;
use atpm_ris::CoverageScratch;

use crate::http;
use crate::json::Json;
use crate::protocol::{
    ApiError, CreateSessionReq, Ledger, NextBatchReq, ObserveBatchReq, ObserveReq, SnapshotReq,
};
use crate::server::{route, AppState};
use std::sync::Arc;

/// Outcome of a protocol call made through a client.
pub type ApiResult = Result<Json, ApiError>;

/// A transport-agnostic protocol client: both clients implement the same
/// typed calls, so test and benchmark drivers are generic over transport.
pub trait ProtocolClient {
    /// Raw call: method + path + JSON body.
    fn call(&mut self, method: &str, path: &str, body: &Json) -> ApiResult;

    /// Loads a snapshot.
    fn create_snapshot(&mut self, req: &SnapshotReq) -> ApiResult {
        self.call("POST", "/snapshots", &req.to_json())
    }

    /// Opens a session; returns its token.
    fn create_session(&mut self, req: &CreateSessionReq) -> Result<String, ApiError> {
        let resp = self.call("POST", "/sessions", &req.to_json())?;
        resp.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ApiError::new(500, "response missing 'session'"))
    }

    /// Asks for the next seed batch; `None` when the policy is done.
    fn next(&mut self, token: &str) -> Result<Option<Vec<Node>>, ApiError> {
        let resp = self.call("POST", &format!("/sessions/{token}/next"), &Json::obj([]))?;
        if resp.get("done").and_then(Json::as_bool).unwrap_or(false) {
            return Ok(None);
        }
        let seeds = resp
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::new(500, "response missing 'seeds'"))?
            .iter()
            .filter_map(|x| x.as_u64().map(|v| v as Node))
            .collect();
        Ok(Some(seeds))
    }

    /// Asks for the next batch of up to `k` seeds in one low-adaptivity
    /// round; `None` when the policy is done. The pending batch must be
    /// observed via [`observe_batch`](Self::observe_batch) before the next
    /// round.
    fn next_batch(&mut self, token: &str, k: usize) -> Result<Option<Vec<Node>>, ApiError> {
        let resp = self.call(
            "POST",
            &format!("/sessions/{token}/next_batch"),
            &NextBatchReq { k }.to_json(),
        )?;
        if resp.get("done").and_then(Json::as_bool).unwrap_or(false) {
            return Ok(None);
        }
        let seeds = resp
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::new(500, "response missing 'seeds'"))?
            .iter()
            .filter_map(|x| x.as_u64().map(|v| v as Node))
            .collect();
        Ok(Some(seeds))
    }

    /// Reports (or asks the server to simulate) an observation.
    fn observe(&mut self, token: &str, req: &ObserveReq) -> ApiResult {
        self.call(
            "POST",
            &format!("/sessions/{token}/observe"),
            &req.to_json(),
        )
    }

    /// Reports (or asks the server to simulate) a whole round's observation.
    fn observe_batch(&mut self, token: &str, req: &ObserveBatchReq) -> ApiResult {
        self.call(
            "POST",
            &format!("/sessions/{token}/observe_batch"),
            &req.to_json(),
        )
    }

    /// Reads the session ledger.
    fn ledger(&mut self, token: &str) -> Result<Ledger, ApiError> {
        let resp = self.call("GET", &format!("/sessions/{token}/ledger"), &Json::obj([]))?;
        Ledger::from_json(&resp)
    }

    /// Closes a session.
    fn delete_session(&mut self, token: &str) -> ApiResult {
        self.call("DELETE", &format!("/sessions/{token}"), &Json::obj([]))
    }

    /// Drives one full adaptive run with server-side simulation: create →
    /// (next → observe)* → ledger. Returns the final ledger.
    fn run_session(&mut self, req: &CreateSessionReq) -> Result<Ledger, ApiError> {
        let token = self.create_session(req)?;
        while let Some(seeds) = self.next(&token)? {
            for seed in seeds {
                self.observe(&token, &ObserveReq::Simulate { seed })?;
            }
        }
        let ledger = self.ledger(&token)?;
        self.delete_session(&token)?;
        Ok(ledger)
    }

    /// Drives one full adaptive run in batched rounds of up to `k` seeds
    /// with server-side simulation: create → (next_batch → observe_batch)* →
    /// ledger. At `k = 1` the resulting ledger is byte-identical to
    /// [`run_session`](Self::run_session)'s.
    fn run_session_batched(
        &mut self,
        req: &CreateSessionReq,
        k: usize,
    ) -> Result<Ledger, ApiError> {
        let token = self.create_session(req)?;
        while let Some(seeds) = self.next_batch(&token, k)? {
            self.observe_batch(&token, &ObserveBatchReq::Simulate { seeds })?;
        }
        let ledger = self.ledger(&token)?;
        self.delete_session(&token)?;
        Ok(ledger)
    }
}

/// In-process client: protocol semantics without sockets.
pub struct LocalClient {
    state: Arc<AppState>,
    scratch: CoverageScratch,
}

impl LocalClient {
    /// A client over shared state.
    pub fn new(state: Arc<AppState>) -> Self {
        LocalClient {
            state,
            scratch: CoverageScratch::new(),
        }
    }

    /// The shared state (e.g. to start a socket server over the same store).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }
}

impl ProtocolClient for LocalClient {
    fn call(&mut self, method: &str, path: &str, body: &Json) -> ApiResult {
        route(&self.state, method, path, body, &mut self.scratch).map(|(_, json)| json)
    }
}

/// Blocking HTTP/1.1 client over one keep-alive connection.
pub struct HttpClient {
    stream: BufReader<TcpStream>,
    /// Request bytes, reused across calls: head and body are encoded here
    /// and leave in one write, so a request is one segment on the wire.
    out: Vec<u8>,
    /// Response head line, reused across lines and calls.
    line: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(HttpClient {
            stream: BufReader::new(stream),
            out: Vec::new(),
            line: Vec::new(),
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: atpm\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        self.stream.get_ref().write_all(&self.out)?;

        // Status line, then headers up to the blank line, all within the
        // server's own head budget.
        let mut budget = http::MAX_HEAD;
        self.read_head_line(&mut budget)?;
        let status: u16 = std::str::from_utf8(&self.line)
            .ok()
            .and_then(|line| line.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut content_length = 0usize;
        loop {
            self.read_head_line(&mut budget)?;
            if self.line.is_empty() {
                break;
            }
            let Some(colon) = self.line.iter().position(|&b| b == b':') else {
                continue;
            };
            if self.line[..colon]
                .trim_ascii()
                .eq_ignore_ascii_case(b"content-length")
            {
                content_length = std::str::from_utf8(&self.line[colon + 1..])
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .filter(|&len| len <= http::MAX_BODY)
                    .ok_or_else(|| invalid("bad content-length"))?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// Reads one response head line into `self.line`, charging it to
    /// `budget`. EOF mid-head is an error.
    fn read_head_line(&mut self, budget: &mut usize) -> io::Result<()> {
        self.line.clear();
        let n = http::read_line_crlf(&mut self.stream, &mut self.line, *budget)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        *budget = budget
            .checked_sub(n)
            .ok_or_else(|| invalid("response head too large"))?;
        Ok(())
    }

    /// GETs `path` and returns `(status, body)` as text — the non-JSON
    /// escape hatch `/metrics` scrapes use (the exposition is Prometheus
    /// text, not a protocol object).
    pub fn get_text(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, bytes) = self.exchange("GET", path, b"")?;
        let text = String::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 response body"))?;
        Ok((status, text))
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl ProtocolClient for HttpClient {
    fn call(&mut self, method: &str, path: &str, body: &Json) -> ApiResult {
        let (status, bytes) = self
            .exchange(method, path, body.encode().as_bytes())
            .map_err(|e| ApiError::new(500, format!("transport: {e}")))?;
        let text =
            String::from_utf8(bytes).map_err(|_| ApiError::new(500, "non-UTF-8 response body"))?;
        let json = Json::parse(&text).map_err(|e| ApiError::new(500, format!("bad body: {e}")))?;
        if (200..300).contains(&status) {
            Ok(json)
        } else {
            let message = json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string();
            Err(ApiError::new(status, message))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PolicySpec, SnapshotSource};

    fn snapshot_req() -> SnapshotReq {
        SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 4,
            rr_theta: 4_000,
            seed: 1,
            threads: 1,
        }
    }

    fn session_req(world: u64) -> CreateSessionReq {
        CreateSessionReq {
            snapshot: "g".into(),
            policy: PolicySpec::DeployAll,
            world_seed: world,
        }
    }

    #[test]
    fn local_client_runs_a_full_session() {
        let mut client = LocalClient::new(AppState::new());
        client.create_snapshot(&snapshot_req()).unwrap();
        let ledger = client.run_session(&session_req(5)).unwrap();
        assert!(ledger.done);
        assert!(!ledger.selected.is_empty());
        assert_eq!(ledger.algorithm, "DeployAll");
        // Session was deleted by run_session.
        assert!(client.state().manager.is_empty());
    }

    #[test]
    fn batched_run_at_k1_matches_single_seed_run() {
        let mut client = LocalClient::new(AppState::new());
        client.create_snapshot(&snapshot_req()).unwrap();
        let single = client.run_session(&session_req(5)).unwrap();
        let batched = client.run_session_batched(&session_req(5), 1).unwrap();
        assert_eq!(batched, single);
        assert_eq!(batched.profit.to_bits(), single.profit.to_bits());
        assert_eq!(batched.rounds, single.rounds);
    }

    #[test]
    fn batched_run_over_http_matches_local() {
        use crate::server::{ServeConfig, Server};
        let state = AppState::new();
        let mut local = LocalClient::new(state.clone());
        local.create_snapshot(&snapshot_req()).unwrap();
        let mut server = Server::start(state, &ServeConfig::default()).unwrap();

        let req = CreateSessionReq {
            snapshot: "g".into(),
            policy: PolicySpec::ThresholdBatch {
                theta: 2_000,
                eps: 0.1,
                batch: 4,
                seed: 7,
                threads: 1,
            },
            world_seed: 5,
        };
        let mut http = HttpClient::connect(server.addr()).unwrap();
        let from_http = http.run_session_batched(&req, 4).unwrap();
        let from_local = local.run_session_batched(&req, 4).unwrap();
        assert_eq!(from_http, from_local);
        assert_eq!(from_http.profit.to_bits(), from_local.profit.to_bits());
        assert!(from_http.rounds >= 1);
        server.shutdown();
    }

    #[test]
    fn http_client_request_bytes_are_pinned() {
        use std::net::TcpListener;
        const POST: &[u8] = b"POST /sessions/s1/observe HTTP/1.1\r\nhost: atpm\r\n\
            content-type: application/json\r\ncontent-length: 10\r\n\r\n{\"seed\":3}";
        const GET: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: atpm\r\n\
            content-type: application/json\r\ncontent-length: 0\r\n\r\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            for (len, reply) in [
                (
                    POST.len(),
                    &b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nx-other: 1\r\n\r\n{\"ok\":true}"[..],
                ),
                (GET.len(), &b"HTTP/1.1 200 OK\ncontent-length:3\n\nok\n"[..]),
            ] {
                let mut request = vec![0u8; len];
                conn.read_exact(&mut request).unwrap();
                got.push(request);
                conn.write_all(reply).unwrap();
            }
            // Nothing follows the two requests.
            let mut rest = Vec::new();
            conn.read_to_end(&mut rest).unwrap();
            (got, rest)
        });

        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client
            .call(
                "POST",
                "/sessions/s1/observe",
                &Json::obj([("seed", Json::UInt(3))]),
            )
            .unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(client.get_text("/metrics").unwrap(), (200, "ok\n".into()));
        drop(client);

        let (got, rest) = peer.join().unwrap();
        assert_eq!(got[0], POST, "{}", String::from_utf8_lossy(&got[0]));
        assert_eq!(got[1], GET, "{}", String::from_utf8_lossy(&got[1]));
        assert!(rest.is_empty(), "stray bytes: {rest:?}");
    }

    #[test]
    fn http_client_caps_the_response_head() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = [0u8; 64];
            let _ = conn.read(&mut request);
            // A header line that never ends, well past the head cap.
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nx-pad: ");
            let _ = conn.write_all(&vec![b'a'; 2 * http::MAX_HEAD]);
            // Then EOF, so an uncapped reader fails on EOF instead of hanging.
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut rest = Vec::new();
            let _ = conn.read_to_end(&mut rest);
        });
        let mut client = HttpClient::connect(addr).unwrap();
        let err = client.get_text("/healthz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn local_client_surfaces_api_errors() {
        let mut client = LocalClient::new(AppState::new());
        let err = client.create_session(&session_req(1)).unwrap_err();
        assert_eq!(err.status, 404);
    }

    #[test]
    fn http_client_matches_local_client() {
        use crate::server::{ServeConfig, Server};
        let state = AppState::new();
        let mut local = LocalClient::new(state.clone());
        local.create_snapshot(&snapshot_req()).unwrap();
        let mut server = Server::start(state, &ServeConfig::default()).unwrap();

        let mut http = HttpClient::connect(server.addr()).unwrap();
        let from_http = http.run_session(&session_req(5)).unwrap();
        let from_local = local.run_session(&session_req(5)).unwrap();
        assert_eq!(from_http, from_local);
        assert_eq!(from_http.profit.to_bits(), from_local.profit.to_bits());

        // Error statuses travel the wire too.
        let err = http.next("missing").unwrap_err();
        assert_eq!(err.status, 404);
        server.shutdown();
    }
}
