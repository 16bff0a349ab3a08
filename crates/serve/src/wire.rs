//! Line-delimited JSON protocol over TCP (`std::net`, hand-rolled codec
//! like the rest of the workspace — no serde).
//!
//! One request per line, one response per line, answered in request
//! order per connection; responses echo the request `id` so callers can
//! correlate. The codec ([`encode_request`], [`parse_request`],
//! [`encode_response`], [`parse_response`]) is public so clients, tests,
//! and the example share one implementation.
//!
//! ```text
//! → {"id":1,"class":"URLLC","deadline_us":5000,"users":3,"rbs":6,"seed":42,"solver":"greedy"}
//! ← {"id":1,"class":"URLLC","outcome":"solved","owners":[0,2,1,0,2,1],
//!    "total_rate_bps":12345678.9,"spectral_efficiency":11.4,"qos_satisfied":true,
//!    "queue_us":12,"solve_us":345,"batch_size":1}
//! → {"op":"metrics"}
//! ← {"outcome":"metrics", ...per-class counters and latency summaries...}
//! ```
//!
//! Floats are emitted with Rust's shortest-round-trip formatting, so a
//! rate crossing the wire parses back to the identical `f64` bits —
//! which is what lets the loopback integration test assert bit-equal
//! solver outputs through the protocol.

use crate::json::{self, JsonValue};
use crate::request::{
    DeadlineMissed, ExpiryPhase, Outcome, Payload, RejectReason, ScenarioSpec, SolveRequest,
    SolveResponse, Solved, SolverKind,
};
use crate::service::Client;
use crate::MetricsSnapshot;
use rcr_qos::QosClass;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Encodes a request as one JSON line (no trailing newline).
///
/// Only [`Payload::Scenario`] requests are wire-encodable; a
/// [`Payload::Problem`] carries a full channel matrix and stays
/// in-process.
pub fn encode_request(request: &SolveRequest) -> Result<String, String> {
    let Payload::Scenario(spec) = &request.payload else {
        return Err("only scenario payloads are wire-encodable".into());
    };
    Ok(format!(
        "{{\"id\":{},\"class\":{},\"deadline_us\":{},\"users\":{},\"rbs\":{},\"seed\":{},\"solver\":{}}}",
        request.id,
        json::encode_str(request.class.name()),
        request.deadline.as_micros(),
        spec.users,
        spec.resource_blocks,
        spec.seed,
        json::encode_str(request.solver.name()),
    ))
}

/// What one parsed inbound line asks for.
#[derive(Debug)]
pub enum WireCommand {
    /// Solve a request.
    Solve(SolveRequest),
    /// Return a metrics snapshot.
    Metrics,
}

/// Parses one inbound line into a [`WireCommand`].
///
/// # Errors
/// A human-readable message describing the malformed field.
pub fn parse_request(line: &str) -> Result<WireCommand, String> {
    let value = json::parse(line)?;
    let obj = value.as_object().ok_or("request is not a JSON object")?;
    if let Some(op) = obj.get("op").and_then(JsonValue::as_str) {
        return match op {
            "metrics" => Ok(WireCommand::Metrics),
            other => Err(format!("unknown op {other:?}")),
        };
    }
    let id = obj.get_u64("id").ok_or("missing or non-integer \"id\"")?;
    let class_name = obj
        .get("class")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"class\"")?;
    let class =
        QosClass::from_name(class_name).ok_or_else(|| format!("unknown class {class_name:?}"))?;
    let deadline_us = obj
        .get_u64("deadline_us")
        .ok_or("missing or non-integer \"deadline_us\"")?;
    let solver = match obj.get("solver").and_then(JsonValue::as_str) {
        None => SolverKind::Greedy,
        Some(name) => {
            SolverKind::from_name(name).ok_or_else(|| format!("unknown solver {name:?}"))?
        }
    };
    let dim = |key: &str, default: usize| match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| format!("{key:?} is not an exact integer")),
    };
    let users = dim("users", 3)?;
    let resource_blocks = dim("rbs", 6)?;
    let seed = match obj.get("seed") {
        None => id,
        Some(seed) => seed.as_u64().ok_or("\"seed\" is not an exact u64")?,
    };
    Ok(WireCommand::Solve(SolveRequest {
        id,
        class,
        deadline: Duration::from_micros(deadline_us),
        solver,
        payload: Payload::Scenario(ScenarioSpec {
            users,
            resource_blocks,
            seed,
        }),
    }))
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(response: &SolveResponse) -> String {
    let mut out = format!(
        "{{\"id\":{},\"class\":{},\"outcome\":{}",
        response.id,
        json::encode_str(response.class.name()),
        json::encode_str(response.outcome.tag()),
    );
    match &response.outcome {
        Outcome::Solved(s) => {
            out.push_str(",\"owners\":[");
            for (i, o) in s.solution.owners.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&o.to_string());
            }
            out.push_str(&format!(
                "],\"total_rate_bps\":{},\"spectral_efficiency\":{},\"qos_satisfied\":{},\"batch_size\":{}",
                json::encode_f64(s.solution.total_rate_bps),
                json::encode_f64(s.solution.spectral_efficiency),
                s.solution.qos_satisfied,
                s.batch_size,
            ));
        }
        Outcome::Rejected(RejectReason::QueueFull { depth, capacity }) => {
            out.push_str(&format!(
                ",\"reason\":\"queue_full\",\"depth\":{depth},\"capacity\":{capacity}"
            ));
        }
        Outcome::Rejected(RejectReason::ShuttingDown) => {
            out.push_str(",\"reason\":\"shutting_down\"");
        }
        Outcome::Expired(missed) => {
            let phase = match missed.phase {
                ExpiryPhase::AtEnqueue => "enqueue",
                ExpiryPhase::InQueue => "queue",
                ExpiryPhase::AfterSolve => "solve",
            };
            out.push_str(&format!(
                ",\"reason\":\"deadline_missed\",\"phase\":{},\"late_by_us\":{}",
                json::encode_str(phase),
                missed.late_by.as_micros(),
            ));
        }
        Outcome::Failed(message) => {
            out.push_str(&format!(",\"error\":{}", json::encode_str(message)));
        }
    }
    out.push_str(&format!(
        ",\"queue_us\":{},\"solve_us\":{}}}",
        response.queue_time.as_micros(),
        response.solve_time.as_micros(),
    ));
    out
}

/// Parses one response line back into a [`SolveResponse`].
///
/// The solved variant reconstructs owners, rates, and flags exactly
/// (floats round-trip bit-identically); the `power` breakdown is not
/// carried on the wire, so the embedded [`rcr_qos::rra::RraSolution`] has
/// an empty power allocation.
///
/// # Errors
/// A human-readable message describing the malformed field.
pub fn parse_response(line: &str) -> Result<SolveResponse, String> {
    let value = json::parse(line)?;
    let obj = value.as_object().ok_or("response is not a JSON object")?;
    let id = obj.get_u64("id").ok_or("missing \"id\"")?;
    let class_name = obj
        .get("class")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"class\"")?;
    let class =
        QosClass::from_name(class_name).ok_or_else(|| format!("unknown class {class_name:?}"))?;
    let tag = obj
        .get("outcome")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"outcome\"")?;
    let queue_time = Duration::from_micros(obj.get_u64("queue_us").unwrap_or(0));
    let solve_time = Duration::from_micros(obj.get_u64("solve_us").unwrap_or(0));
    let outcome = match tag {
        "solved" => {
            let owners = obj
                .get("owners")
                .and_then(JsonValue::as_array)
                .ok_or("solved response missing \"owners\"")?
                .iter()
                .map(|v| v.as_u64().and_then(|n| usize::try_from(n).ok()))
                .collect::<Option<Vec<usize>>>()
                .ok_or("owner is not an exact non-negative integer")?;
            let total_rate_bps = obj
                .get("total_rate_bps")
                .and_then(JsonValue::as_f64)
                .ok_or("missing \"total_rate_bps\"")?;
            let spectral_efficiency = obj
                .get("spectral_efficiency")
                .and_then(JsonValue::as_f64)
                .ok_or("missing \"spectral_efficiency\"")?;
            let qos_satisfied = obj
                .get("qos_satisfied")
                .and_then(JsonValue::as_bool)
                .ok_or("missing \"qos_satisfied\"")?;
            let batch_size = obj.get_u64("batch_size").unwrap_or(1) as usize;
            Outcome::Solved(Solved {
                solution: rcr_qos::rra::RraSolution {
                    owners,
                    power: rcr_qos::power::PowerSolution::empty(),
                    total_rate_bps,
                    spectral_efficiency,
                    qos_satisfied,
                },
                batch_size,
            })
        }
        "rejected" => match obj.get("reason").and_then(JsonValue::as_str) {
            Some("queue_full") => Outcome::Rejected(RejectReason::QueueFull {
                depth: obj.get_u64("depth").unwrap_or(0) as usize,
                capacity: obj.get_u64("capacity").unwrap_or(0) as usize,
            }),
            Some("shutting_down") => Outcome::Rejected(RejectReason::ShuttingDown),
            other => return Err(format!("unknown reject reason {other:?}")),
        },
        "expired" => {
            let phase = match obj.get("phase").and_then(JsonValue::as_str) {
                Some("enqueue") => ExpiryPhase::AtEnqueue,
                Some("queue") => ExpiryPhase::InQueue,
                Some("solve") => ExpiryPhase::AfterSolve,
                other => return Err(format!("unknown expiry phase {other:?}")),
            };
            Outcome::Expired(DeadlineMissed {
                phase,
                late_by: Duration::from_micros(obj.get_u64("late_by_us").unwrap_or(0)),
            })
        }
        "failed" => Outcome::Failed(
            obj.get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown error")
                .to_string(),
        ),
        other => return Err(format!("unknown outcome {other:?}")),
    };
    Ok(SolveResponse {
        id,
        class,
        outcome,
        queue_time,
        solve_time,
    })
}

/// Encodes a metrics snapshot as one JSON line.
pub fn encode_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"outcome\":\"metrics\"");
    for class in QosClass::ALL {
        let c = snapshot.class(class);
        let lat = snapshot.class_response_latency(class);
        out.push_str(&format!(
            ",{}:{{\"admitted\":{},\"rejected\":{},\"expired\":{},\"solved\":{},\"failed\":{},\
             \"lane_depth_high_water\":{},\"response_latency\":{{\"count\":{},\"p50_us\":{},\
             \"p99_us\":{},\"max_us\":{}}}}}",
            json::encode_str(class.name()),
            c.admitted,
            c.rejected,
            c.expired,
            c.solved,
            c.failed,
            snapshot.lane_high_water(class),
            lat.count,
            lat.p50.as_micros(),
            lat.p99.as_micros(),
            lat.max.as_micros(),
        ));
    }
    let lat = |name: &str, s: &crate::metrics::LatencySummary| {
        format!(
            ",{}:{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            json::encode_str(name),
            s.count,
            s.p50.as_micros(),
            s.p99.as_micros(),
            s.max.as_micros()
        )
    };
    out.push_str(&lat("queue_latency", &snapshot.queue_latency));
    out.push_str(&lat("solve_latency", &snapshot.solve_latency));
    out.push_str(&lat("response_latency", &snapshot.response_latency));
    out.push_str(&format!(
        ",\"reuse\":{{\"hits\":{},\"admission_hits\":{},\"misses\":{},\"evictions\":{}}}",
        snapshot.reuse.hits,
        snapshot.reuse.admission_hits,
        snapshot.reuse.misses,
        snapshot.reuse.evictions
    ));
    out.push_str(&format!(
        ",\"queue_depth_high_water\":{},\"batches\":{}}}",
        snapshot.queue_depth_high_water, snapshot.batches
    ));
    out
}

/// The TCP frontend: accepts connections and bridges lines to a
/// [`Client`]. Dropping the frontend stops the accept loop; established
/// connections close when their peer disconnects.
#[derive(Debug)]
pub struct TcpFrontend {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl TcpFrontend {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting.
    ///
    /// # Errors
    /// [`std::io::Error`] from bind/configuration.
    pub fn bind(addr: impl ToSocketAddrs, client: Client) -> std::io::Result<TcpFrontend> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("rcr-serve-accept".into())
                .spawn(move || accept_loop(&listener, &client, &stop))
                // rcr-lint: allow(no-unwrap-in-lib, reason = "spawn fails only on OS resource exhaustion at frontend startup; failing fast beats serving without an acceptor")
                .expect("serve: failed to spawn accept thread")
        };
        Ok(TcpFrontend {
            local_addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for TcpFrontend {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, client: &Client, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let client = client.clone();
                let _ = std::thread::Builder::new()
                    .name("rcr-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &client);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Longest request line the frontend accepts, newline excluded; real
/// request lines are under 200 bytes. Longer lines are answered with an
/// error reply and skipped in chunks of at most this size, so one peer
/// cannot grow the reader's memory without bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// One line read by [`read_request_line`].
#[derive(Debug)]
enum LineRead {
    /// End of stream.
    Eof,
    /// A line (newline stripped) is in the buffer.
    Line,
    /// The line exceeded [`MAX_REQUEST_LINE`] and was skipped.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf` (a trailing `\r\n` or `\n`
/// stripped; a final unterminated line counts), holding at most
/// [`MAX_REQUEST_LINE`] + 1 bytes of it.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<LineRead> {
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(LineRead::Line);
    }
    if buf.len() <= MAX_REQUEST_LINE {
        return Ok(LineRead::Line);
    }
    // Over-long: discard the rest of the line, one bounded chunk at a time.
    while buf.last() != Some(&b'\n') {
        buf.clear();
        if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
            break;
        }
    }
    buf.clear();
    Ok(LineRead::TooLong)
}

/// The reply to a line that could not be parsed.
fn error_line(message: &str) -> String {
    format!(
        "{{\"outcome\":\"error\",\"error\":{}}}",
        json::encode_str(message)
    )
}

/// Reads request lines, submits them without waiting (so batches can
/// form across a pipelined connection), and writes responses back in
/// request order from a dedicated writer thread. Each reply goes out as
/// one write of `line + "\n"` on a `TCP_NODELAY` socket, so it is not
/// held back by Nagle's algorithm waiting on the peer's delayed ACK.
fn handle_connection(stream: TcpStream, client: &Client) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (ticket_tx, ticket_rx) = mpsc::channel::<WireReply>();
    let writer_handle = {
        let mut stream = stream;
        std::thread::Builder::new()
            .name("rcr-serve-write".into())
            .spawn(move || -> std::io::Result<()> {
                for reply in ticket_rx {
                    let mut line = match reply {
                        WireReply::Pending(rx) => match rx.recv() {
                            Ok(response) => encode_response(&response),
                            Err(_) => break, // service gone
                        },
                        WireReply::Immediate(line) => line,
                    };
                    line.push('\n');
                    stream.write_all(line.as_bytes())?;
                }
                Ok(())
            })
            // rcr-lint: allow(no-unwrap-in-lib, reason = "spawn fails only on OS resource exhaustion; a connection without its writer half is unusable anyway")
            .expect("serve: failed to spawn writer thread")
    };

    let mut buf = Vec::new();
    loop {
        let reply = match read_request_line(&mut reader, &mut buf)? {
            LineRead::Eof => break,
            LineRead::TooLong => WireReply::Immediate(error_line(&format!(
                "request line exceeds {MAX_REQUEST_LINE} bytes"
            ))),
            LineRead::Line => match std::str::from_utf8(&buf) {
                Err(_) => WireReply::Immediate(error_line("request line is not UTF-8")),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => match parse_request(line) {
                    Ok(WireCommand::Solve(request)) => {
                        let (tx, rx) = mpsc::channel();
                        client.submit_with(request, tx);
                        WireReply::Pending(rx)
                    }
                    Ok(WireCommand::Metrics) => {
                        WireReply::Immediate(encode_metrics(&client.metrics()))
                    }
                    Err(message) => WireReply::Immediate(error_line(&message)),
                },
            },
        };
        if ticket_tx.send(reply).is_err() {
            break;
        }
    }
    drop(ticket_tx); // writer drains outstanding replies, then exits
    let _ = writer_handle.join();
    Ok(())
}

enum WireReply {
    Pending(mpsc::Receiver<SolveResponse>),
    Immediate(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> SolveRequest {
        SolveRequest {
            id,
            class: QosClass::Urllc,
            deadline: Duration::from_micros(5000),
            solver: SolverKind::Greedy,
            payload: Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: 42,
            }),
        }
    }

    #[test]
    fn request_round_trips() {
        let line = encode_request(&request(7)).unwrap();
        match parse_request(&line).unwrap() {
            WireCommand::Solve(parsed) => {
                assert_eq!(parsed.id, 7);
                assert_eq!(parsed.class, QosClass::Urllc);
                assert_eq!(parsed.deadline, Duration::from_micros(5000));
                assert_eq!(parsed.solver, SolverKind::Greedy);
                match parsed.payload {
                    Payload::Scenario(spec) => {
                        assert_eq!(
                            spec,
                            ScenarioSpec {
                                users: 3,
                                resource_blocks: 6,
                                seed: 42
                            }
                        );
                    }
                    other => panic!("unexpected payload {other:?}"),
                }
            }
            WireCommand::Metrics => panic!("parsed as metrics"),
        }
    }

    #[test]
    fn request_defaults_apply() {
        match parse_request(r#"{"id":3,"class":"embb","deadline_us":100}"#).unwrap() {
            WireCommand::Solve(parsed) => {
                assert_eq!(parsed.solver, SolverKind::Greedy);
                match parsed.payload {
                    Payload::Scenario(spec) => {
                        assert_eq!(spec.users, 3);
                        assert_eq!(spec.resource_blocks, 6);
                        assert_eq!(spec.seed, 3, "seed defaults to the id");
                    }
                    other => panic!("unexpected payload {other:?}"),
                }
            }
            WireCommand::Metrics => panic!("parsed as metrics"),
        }
    }

    #[test]
    fn seeds_round_trip_exactly_up_to_u64_max() {
        for seed in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let mut req = request(9);
            req.payload = Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed,
            });
            match parse_request(&encode_request(&req).unwrap()).unwrap() {
                WireCommand::Solve(SolveRequest {
                    payload: Payload::Scenario(spec),
                    ..
                }) => assert_eq!(spec.seed, seed),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_present_seed_that_is_not_an_exact_u64_is_an_error() {
        for seed in ["-1", "1.5", "1e17", "18446744073709551616", "\"7\"", "null"] {
            let line = format!(r#"{{"id":3,"class":"embb","deadline_us":100,"seed":{seed}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains("seed"), "{seed}: {err}");
        }
    }

    #[test]
    fn present_users_or_rbs_that_are_not_exact_integers_are_errors() {
        for key in ["users", "rbs"] {
            for value in ["-1", "1.5", "1e17", "18446744073709551616", "\"7\"", "null"] {
                let line =
                    format!(r#"{{"id":3,"class":"embb","deadline_us":100,"{key}":{value}}}"#);
                let err = parse_request(&line).unwrap_err();
                assert!(err.contains(key), "{key}={value}: {err}");
            }
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"class":"embb","deadline_us":1}"#)
            .unwrap_err()
            .contains("id"));
        assert!(parse_request(r#"{"id":1,"class":"gold","deadline_us":1}"#)
            .unwrap_err()
            .contains("gold"));
        assert!(parse_request(r#"{"id":1,"class":"embb"}"#)
            .unwrap_err()
            .contains("deadline_us"));
        assert!(parse_request(r#"{"op":"reboot"}"#).is_err());
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            WireCommand::Metrics
        ));
    }

    #[test]
    fn solved_response_round_trips_bit_identically() {
        let solution = rcr_qos::rra::RraSolution {
            owners: vec![0, 2, 1],
            power: rcr_qos::power::PowerSolution::empty(),
            total_rate_bps: 12_345_678.901_234_5,
            spectral_efficiency: 0.1 + 0.2, // deliberately non-terminating
            qos_satisfied: true,
        };
        let response = SolveResponse {
            id: 11,
            class: QosClass::Embb,
            outcome: Outcome::Solved(Solved {
                solution: solution.clone(),
                batch_size: 4,
            }),
            queue_time: Duration::from_micros(12),
            solve_time: Duration::from_micros(345),
        };
        let parsed = parse_response(&encode_response(&response)).unwrap();
        assert_eq!(parsed.id, 11);
        assert_eq!(parsed.class, QosClass::Embb);
        assert_eq!(parsed.queue_time, Duration::from_micros(12));
        assert_eq!(parsed.solve_time, Duration::from_micros(345));
        match parsed.outcome {
            Outcome::Solved(s) => {
                assert_eq!(s.batch_size, 4);
                assert_eq!(s.solution.owners, solution.owners);
                assert_eq!(
                    s.solution.total_rate_bps.to_bits(),
                    solution.total_rate_bps.to_bits()
                );
                assert_eq!(
                    s.solution.spectral_efficiency.to_bits(),
                    solution.spectral_efficiency.to_bits()
                );
                assert!(s.solution.qos_satisfied);
            }
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn owners_that_are_not_exact_non_negative_integers_are_rejected() {
        for owners in ["[0,-1]", "[1.5]", "[1e300]", "[\"0\"]"] {
            let line = format!(
                r#"{{"id":1,"class":"embb","outcome":"solved","owners":{owners},"total_rate_bps":1.0,"spectral_efficiency":1.0,"qos_satisfied":true}}"#
            );
            let err = parse_response(&line).unwrap_err();
            assert!(err.contains("owner"), "{owners}: {err}");
        }
        let line = r#"{"id":1,"class":"embb","outcome":"solved","owners":[0,2,1],"total_rate_bps":1.0,"spectral_efficiency":1.0,"qos_satisfied":true}"#;
        match parse_response(line).unwrap().outcome {
            Outcome::Solved(s) => assert_eq!(s.solution.owners, vec![0, 2, 1]),
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn terminal_outcomes_round_trip() {
        let cases = vec![
            Outcome::Rejected(RejectReason::QueueFull {
                depth: 9,
                capacity: 9,
            }),
            Outcome::Rejected(RejectReason::ShuttingDown),
            Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::InQueue,
                late_by: Duration::from_micros(77),
            }),
            Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::AfterSolve,
                late_by: Duration::ZERO,
            }),
            Outcome::Failed("water-filling diverged \"badly\"\n".into()),
        ];
        for outcome in cases {
            let response = SolveResponse {
                id: 1,
                class: QosClass::Mmtc,
                outcome,
                queue_time: Duration::ZERO,
                solve_time: Duration::ZERO,
            };
            let line = encode_response(&response);
            let parsed = parse_response(&line).unwrap();
            match (&response.outcome, &parsed.outcome) {
                (Outcome::Rejected(a), Outcome::Rejected(b)) => assert_eq!(a, b),
                (Outcome::Expired(a), Outcome::Expired(b)) => assert_eq!(a, b),
                (Outcome::Failed(a), Outcome::Failed(b)) => assert_eq!(a, b),
                (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn metrics_encode_is_valid_json() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.per_class[0].solved = 5;
        snapshot.lane_depth_high_water = [3, 0, 7];
        snapshot.reuse.hits = 9;
        snapshot.reuse.admission_hits = 6;
        snapshot.per_class_response_latency[0] = crate::metrics::LatencySummary {
            count: 5,
            p50: Duration::from_micros(64),
            p99: Duration::from_micros(256),
            max: Duration::from_micros(300),
        };
        let line = encode_metrics(&snapshot);
        let value = json::parse(&line).unwrap();
        let obj = value.as_object().unwrap();
        assert_eq!(
            obj.get("outcome").and_then(JsonValue::as_str),
            Some("metrics")
        );
        assert_eq!(obj.get_u64("batches"), Some(0));
        let urllc = obj
            .get("URLLC")
            .and_then(JsonValue::as_object)
            .expect("URLLC block");
        assert_eq!(urllc.get_u64("solved"), Some(5));
        assert_eq!(urllc.get_u64("lane_depth_high_water"), Some(3));
        let lat = urllc
            .get("response_latency")
            .and_then(JsonValue::as_object)
            .expect("per-class latency block");
        assert_eq!(lat.get_u64("count"), Some(5));
        assert_eq!(lat.get_u64("p50_us"), Some(64));
        assert_eq!(lat.get_u64("p99_us"), Some(256));
        assert_eq!(lat.get_u64("max_us"), Some(300));
        let mmtc = obj
            .get("mMTC")
            .and_then(JsonValue::as_object)
            .expect("mMTC block");
        assert_eq!(mmtc.get_u64("lane_depth_high_water"), Some(7));
        let reuse = obj
            .get("reuse")
            .and_then(JsonValue::as_object)
            .expect("reuse block");
        assert_eq!(reuse.get_u64("hits"), Some(9));
        assert_eq!(reuse.get_u64("admission_hits"), Some(6));
        assert_eq!(reuse.get_u64("misses"), Some(0));
    }

    #[test]
    fn request_lines_are_bounded() {
        let long = "x".repeat(3 * MAX_REQUEST_LINE + 10);
        let exact = "y".repeat(MAX_REQUEST_LINE);
        let input = format!("a\r\n{long}\nb\n{exact}\nlast");
        let mut reader = BufReader::with_capacity(4096, input.as_bytes());
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            match read_request_line(&mut reader, &mut buf).unwrap() {
                LineRead::Eof => break,
                LineRead::TooLong => got.push("<too long>".to_string()),
                LineRead::Line => got.push(String::from_utf8(buf.clone()).unwrap()),
            }
        }
        assert_eq!(got, ["a", "<too long>", "b", exact.as_str(), "last"]);
    }

    #[test]
    fn a_line_of_brackets_is_answered_and_the_connection_keeps_serving() {
        let service = crate::Service::spawn(crate::ServiceConfig::default()).unwrap();
        let frontend = TcpFrontend::bind("127.0.0.1:0", service.client()).unwrap();
        let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        // The longest line the frontend reads, nested far past what a
        // recursive parser survives on a default thread stack.
        let mut batch = vec![b'['; MAX_REQUEST_LINE];
        batch.push(b'\n');
        let req = SolveRequest {
            deadline: Duration::from_secs(30),
            ..request(1)
        };
        batch.extend_from_slice(encode_request(&req).unwrap().as_bytes());
        batch.push(b'\n');
        stream.write_all(&batch).unwrap();

        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let value = json::parse(line.trim_end()).unwrap();
        assert_eq!(
            value.get("outcome").and_then(JsonValue::as_str),
            Some("error")
        );
        assert!(
            value
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap()
                .contains("nesting"),
            "{line}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim_end()).unwrap();
        assert_eq!(resp.id, 1);
        assert!(matches!(resp.outcome, Outcome::Solved(_)), "{line}");
        drop(reader);
        drop(frontend);
        service.shutdown();
    }

    #[test]
    fn pipelined_connection_gets_one_line_per_request_in_order() {
        let service = crate::Service::spawn(crate::ServiceConfig {
            workers: 2,
            ..crate::ServiceConfig::default()
        })
        .unwrap();
        let frontend = TcpFrontend::bind("127.0.0.1:0", service.client()).unwrap();
        let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();

        // Mixed classes so replies finish out of order on the service
        // side; over-long, non-UTF-8 and malformed lines ride in the middle.
        let n = 24u64;
        let mut batch = Vec::new();
        let mut expected: Vec<Option<u64>> = Vec::new();
        for id in 0..n {
            let bad: &[u8] = match id {
                5 => b"\xff\xfe{}",
                10 => &[b'z'; MAX_REQUEST_LINE + 1],
                17 => b"not json",
                _ => b"",
            };
            if !bad.is_empty() {
                batch.extend_from_slice(bad);
                batch.push(b'\n');
                expected.push(None);
            }
            let req = SolveRequest {
                class: QosClass::ALL[(id % 3) as usize],
                deadline: Duration::from_secs(30),
                ..request(id)
            };
            batch.extend_from_slice(encode_request(&req).unwrap().as_bytes());
            batch.push(b'\n');
            expected.push(Some(id));
        }
        stream.write_all(&batch).unwrap();

        let mut reader = BufReader::new(stream);
        for (k, want) in expected.iter().enumerate() {
            let mut line = Vec::new();
            reader.read_until(b'\n', &mut line).unwrap();
            assert_eq!(
                line.last(),
                Some(&b'\n'),
                "reply {k} is not newline-terminated"
            );
            let text = std::str::from_utf8(&line[..line.len() - 1]).unwrap();
            assert!(
                !text.contains('\n') && !text.is_empty(),
                "reply {k}: {text:?}"
            );
            match want {
                Some(id) => {
                    let resp = parse_response(text).unwrap();
                    assert_eq!(resp.id, *id, "reply {k} out of order");
                    assert!(matches!(resp.outcome, Outcome::Solved(_)), "{text}");
                }
                None => {
                    let value = json::parse(text).unwrap();
                    let obj = value.as_object().unwrap();
                    assert_eq!(
                        obj.get("outcome").and_then(JsonValue::as_str),
                        Some("error")
                    );
                }
            }
        }
        drop(reader);
        drop(frontend);
        let snap = service.shutdown();
        assert_eq!(snap.total_responses(), n);
    }
}
