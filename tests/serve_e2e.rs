//! End-to-end tests for the `sns-serve` HTTP daemon: a real trained
//! model behind a real TCP listener, exercised by real sockets.
//!
//! One tiny model is trained once and shared by every test (training
//! dominates runtime); each test boots its own server on an ephemeral
//! port, so the tests are safe under the default parallel test harness.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sns::circuitformer::{CircuitformerConfig, TrainConfig};
use sns::core::dataset::AugmentConfig;
use sns::core::{
    load_from_zoo, save_to_zoo, train_sns, SessionStore, SnsModel, SnsTrainConfig,
    ZooCheckpointMeta,
};
use sns::designs::{dsp, nonlinear, sort, vector, Design};
use sns::rt::json::{parse as parse_json, Json};
use sns::sampler::SampleConfig;
use sns::serve::{ServeConfig, Server};
use sns::vsynth::TechNode;

fn tiny_config() -> SnsTrainConfig {
    let mut c = SnsTrainConfig::fast();
    c.circuitformer =
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
    c.cf_train = TrainConfig { epochs: 8, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    c.mlp_train =
        sns::core::aggmlp::MlpTrainConfig { epochs: 400, ..sns::core::aggmlp::MlpTrainConfig::fast() };
    c.augment = AugmentConfig::none();
    c.sample = SampleConfig::paper_default().with_max_paths(250);
    c
}

/// The model every test serves — trained once, shared by `Arc`. Tests
/// must not reconfigure its cache capacity divergently (they all use
/// `cache_cap: None`), because the cache is shared too.
fn model() -> Arc<SnsModel> {
    static MODEL: OnceLock<Arc<SnsModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let train = vec![
            vector::simd_alu(2, 8),
            vector::simd_alu(8, 16),
            nonlinear::piecewise(4, 8),
            dsp::fir(4, 8),
            sort::radix_sort_stage(4, 8),
            nonlinear::lut(32, 8),
        ];
        Arc::new(train_sns(&train, &tiny_config()).0)
    }))
}

/// Designs the tests predict (distinct from the training set).
fn serve_designs() -> Vec<Design> {
    vec![
        vector::simd_alu(4, 8),
        nonlinear::lut(16, 8),
        dsp::fir(8, 8),
        nonlinear::piecewise(2, 8),
        dsp::conv2d(2, 8),
        sort::radix_sort_stage(2, 8),
    ]
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_cap: None, // shared cache: keep capacity settings idempotent
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------- client --

/// Sends raw bytes, returns (status, headers, body-text).
fn http_raw(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a header block");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, _, body) = http_raw(addr, raw.as_bytes());
    (status, parse_json(&body).expect("response body is JSON"))
}

fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    let raw = format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    let (status, _, body) = http_raw(addr, raw.as_bytes());
    (status, parse_json(&body).expect("response body is JSON"))
}

/// The inference ledger of a single-replica server whose model's cache
/// started cold and never evicts: every body kind primes through one
/// hook, so the sequences the hook computed are exactly the cache's
/// misses, globally and on the replica, and a round computed at least
/// one sequence.
fn assert_inference_ledger(m: &Json) {
    let count = |v: &Json, path: &[&str]| {
        path.iter().fold(v, |v, key| v.get(key).unwrap()).as_u64().unwrap()
    };
    let replicas = m.get("replicas").unwrap().as_arr().unwrap();
    assert_eq!(replicas.len(), 1);
    for (scope, v) in [("global", m), ("replica 0", &replicas[0])] {
        let seqs = count(v, &["batcher", "batched_seqs"]);
        let rounds = count(v, &["batcher", "rounds"]);
        assert_eq!(seqs, count(v, &["cache", "misses"]), "{scope}: computed seqs == cache misses");
        assert_eq!(count(v, &["cache", "evictions"]), 0, "{scope}: the test cache never evicts");
        assert!(rounds >= 1 && rounds <= seqs, "{scope}: {rounds} rounds for {seqs} seqs");
    }
}

fn predict_body(d: &Design) -> String {
    Json::obj(vec![
        ("verilog", Json::Str(d.verilog.clone())),
        ("top", Json::Str(d.top.clone())),
    ])
    .print()
}

// ----------------------------------------------------------------- tests --

#[test]
fn concurrent_responses_are_bit_identical_to_direct_predictions() {
    // A fork of the shared model: same weights, a private cold cache, so
    // the inference ledger below counts this test's misses only.
    let model = Arc::new(model().fork_replica());
    let server = Server::start_shared(Arc::clone(&model), test_config()).unwrap();
    let addr = server.addr();
    let designs = serve_designs();

    // 8 clients × 3 requests each, round-robin over the design pool, all
    // in flight together so workers prime the one cache concurrently and
    // race on the same missing sequences.
    let mut handles = Vec::new();
    for client in 0..8 {
        let designs = designs.clone();
        handles.push(std::thread::spawn(move || {
            (0..3)
                .map(|i| {
                    let d = &designs[(client + i * 3) % designs.len()];
                    let (status, body) = post_json(addr, "/predict", &predict_body(d));
                    assert_eq!(status, 200, "{}: {}", d.name, body.print());
                    (d.name.clone(), body)
                })
                .collect::<Vec<_>>()
        }));
    }
    let responses: Vec<(String, Json)> =
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
    assert_eq!(responses.len(), 24);

    // Direct predictions through the very same model — the HTTP path must
    // reproduce every f64 bit-for-bit (the JSON printer is shortest
    // round-trip, so parsing the response recovers the exact bits).
    for d in &designs {
        let direct = model.predict_verilog(&d.verilog, &d.top).unwrap();
        for (name, body) in responses.iter().filter(|(n, _)| n == &d.name) {
            let timing = body.get("timing_ps").unwrap().as_f64().unwrap();
            let area = body.get("area_um2").unwrap().as_f64().unwrap();
            let power = body.get("power_mw").unwrap().as_f64().unwrap();
            assert_eq!(timing.to_bits(), direct.timing_ps.to_bits(), "{name} timing");
            assert_eq!(area.to_bits(), direct.area_um2.to_bits(), "{name} area");
            assert_eq!(power.to_bits(), direct.power_mw.to_bits(), "{name} power");
            assert_eq!(
                body.get("path_count").unwrap().as_u64().unwrap(),
                direct.path_count as u64,
                "{name} path_count"
            );
            let critical: Vec<String> = body
                .get("critical_path")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect();
            assert_eq!(critical, direct.critical_path, "{name} critical path");
        }
    }

    // The /metrics document reconciles with what we sent: 24 predictions
    // plus the metrics request itself.
    let (status, m) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(m.get("requests_total").unwrap().as_u64().unwrap(), 25);
    assert_eq!(m.get("predict_requests").unwrap().as_u64().unwrap(), 24);
    assert_eq!(m.get("predict_ok").unwrap().as_u64().unwrap(), 24);
    assert_eq!(m.get("responses").unwrap().get("2xx").unwrap().as_u64().unwrap(), 24);
    assert_eq!(m.get("responses").unwrap().get("4xx").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("responses").unwrap().get("5xx").unwrap().as_u64().unwrap(), 0);
    assert_inference_ledger(&m);
    // Every prediction either ran each pipeline stage once or was an
    // exact repeat answered by the design memo, which runs none; the
    // whole-request histogram saw all of them.
    let memo_hits = m.get("design_memo").unwrap().get("hits").unwrap().as_u64().unwrap();
    let stages = m.get("stages_us").unwrap();
    for stage in ["parse", "sample", "infer", "aggregate"] {
        assert_eq!(
            stages.get(stage).unwrap().get("count").unwrap().as_u64().unwrap() + memo_hits,
            24,
            "stage {stage} sample count + design-memo hits"
        );
    }
    assert_eq!(
        stages.get("total").unwrap().get("count").unwrap().as_u64().unwrap(),
        24,
        "stage total sample count"
    );
    server.join();
}

#[test]
fn malformed_requests_get_structured_errors_not_hangups() {
    // Big enough for a real design's Verilog, small enough to overflow.
    let server = Server::start_shared(model(), ServeConfig { max_body: 1 << 16, ..test_config() })
        .unwrap();
    let addr = server.addr();

    // Garbage instead of HTTP.
    let (status, _, body) = http_raw(addr, b"this is not http\r\n\r\n");
    assert_eq!(status, 400);
    assert_eq!(parse_json(&body).unwrap().get("kind").unwrap().as_str().unwrap(), "http");

    // A Content-Length that is not 1*DIGIT, and two that disagree, are
    // invalid framing (RFC 9112 §6.3), refused before any body is read.
    for raw in [
        &b"GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: +0\r\n\r\n"[..],
        b"POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\ncontent-length: 9\r\n\r\n{}",
    ] {
        let (status, _, body) = http_raw(addr, raw);
        assert_eq!(status, 400, "{body}");
        assert_eq!(parse_json(&body).unwrap().get("kind").unwrap().as_str().unwrap(), "http");
        assert!(body.contains("Content-Length"), "{body}");
    }

    // Valid HTTP, body is not JSON.
    let (status, body) = post_json(addr, "/predict", "{not json");
    assert_eq!(status, 400);
    assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "json");

    // A raw control character inside a string is not JSON (RFC 8259 §7).
    let (status, body) =
        post_json(addr, "/predict", "{\"verilog\": \"module m;\u{1} endmodule\", \"top\": \"m\"}");
    assert_eq!(status, 400);
    assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "json");

    // Valid JSON, missing the required fields.
    let (status, body) = post_json(addr, "/predict", r#"{"verilog": "module m; endmodule"}"#);
    assert_eq!(status, 400);
    assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "json");

    // A clock_ps that is not a positive number.
    let (status, body) = post_json(
        addr,
        "/predict",
        r#"{"verilog": "module m; endmodule", "top": "m", "clock_ps": -5}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "json");

    // Activity maps: a coefficient outside [0, 1] is refused, and so is
    // any map on a session or patch body, which takes none (the patch is
    // refused before its base is looked up).
    for bad in [
        r#"{"verilog": "module m; endmodule", "top": "m", "activity": {"r": 1.5}}"#,
        r#"{"verilog": "module m; endmodule", "top": "m", "activity": {"r": -0.25}}"#,
        r#"{"verilog": "module m; endmodule", "top": "m", "session": true, "activity": {"r": 0.5}}"#,
        r#"{"base": "d0", "patch": "module m; endmodule", "activity": {"r": 0.5}}"#,
    ] {
        let (status, body) = post_json(addr, "/predict", bad);
        assert_eq!(status, 400, "{bad}: {}", body.print());
        assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "json", "{bad}");
    }

    // Well-formed JSON, Verilog that does not elaborate.
    let (status, body) = post_json(
        addr,
        "/predict",
        r#"{"verilog": "module broken (input a; endmodule", "top": "broken"}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "verilog");

    // Wrong method / unknown path.
    let (status, _) = get(addr, "/predict");
    assert_eq!(status, 405);
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    // Oversized body → 413 before any parsing happens.
    let big = format!(r#"{{"verilog": "{}", "top": "m"}}"#, "x".repeat(100_000));
    let (status, body) = post_json(addr, "/predict", &big);
    assert_eq!(status, 413, "{}", body.print());

    // And after all that abuse, a good request still works.
    let d = &serve_designs()[0];
    let (status, body) = post_json(addr, "/predict", &predict_body(d));
    assert_eq!(status, 200, "{}", body.print());
    assert!(body.get("timing_ps").unwrap().as_f64().unwrap() > 0.0);
    server.join();
}

#[test]
fn clock_target_adds_slack_and_meets_clock() {
    let model = model();
    let server = Server::start_shared(Arc::clone(&model), test_config()).unwrap();
    let d = &serve_designs()[1];
    let direct = model.predict_verilog(&d.verilog, &d.top).unwrap();

    let body = Json::obj(vec![
        ("verilog", Json::Str(d.verilog.clone())),
        ("top", Json::Str(d.top.clone())),
        ("clock_ps", Json::Num(1e9)), // absurdly slow clock: always met
    ])
    .print();
    let (status, resp) = post_json(server.addr(), "/predict", &body);
    assert_eq!(status, 200, "{}", resp.print());
    assert!(resp.get("meets_clock").unwrap().as_bool().unwrap());
    let slack = resp.get("slack_ps").unwrap().as_f64().unwrap();
    assert_eq!(slack.to_bits(), (1e9 - direct.timing_ps).to_bits());
    server.join();
}

#[test]
fn zero_deadline_aborts_with_504_before_inference() {
    let server = Server::start_shared(
        model(),
        ServeConfig { deadline: Some(Duration::ZERO), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    let d = &serve_designs()[2];
    let (status, body) = post_json(addr, "/predict", &predict_body(d));
    assert_eq!(status, 504, "{}", body.print());
    assert_eq!(body.get("kind").unwrap().as_str().unwrap(), "deadline");
    // The server is still healthy afterwards.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body.get("status").unwrap().as_str().unwrap(), "ok");
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("deadline_504").unwrap().as_u64().unwrap(), 1);
    server.join();
}

#[test]
fn zero_deadline_stops_session_and_patch_requests_without_registering() {
    let model = model();
    let server = Server::start_shared(
        Arc::clone(&model),
        ServeConfig { deadline: Some(Duration::ZERO), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    // An ECO base registered directly on the server's store (a zero
    // deadline lets no HTTP request register one).
    let d = &serve_designs()[3];
    let base = model.predict_session(server.sessions(), &d.verilog, &d.top).unwrap();
    let session = Json::obj(vec![
        ("verilog", Json::Str(serve_designs()[4].verilog.clone())),
        ("top", Json::Str(serve_designs()[4].top.clone())),
        ("session", Json::Bool(true)),
    ]);
    let patch = Json::obj(vec![
        ("base", Json::Str(base.token.clone())),
        ("patch", Json::Str(d.verilog.clone())),
    ]);
    for body in [session, patch] {
        let (status, resp) = post_json(addr, "/predict", &body.print());
        assert_eq!(status, 504, "{}", resp.print());
        assert_eq!(resp.get("kind").unwrap().as_str().unwrap(), "deadline");
    }
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("deadline_504").unwrap().as_u64().unwrap(), 2);
    assert_eq!(m.get("session_predicts").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("sessions").unwrap().as_u64().unwrap(), 1, "only the direct base");
    assert_eq!(server.sessions().session_count(), 1);
    server.join();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker, queue depth one: hold the worker with a deliberately
    // slow request (debug sleep hook), fill the queue slot, and every
    // further request must be rejected immediately — deterministically,
    // not timing-luck. Under the reactor a *stalled* request can no
    // longer occupy anything (framing costs no worker), so occupancy is
    // created where it now lives: inside a handler.
    let server = Server::start_shared(
        model(),
        ServeConfig { workers: 1, queue_cap: 1, debug_hooks: true, ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    let d = &serve_designs()[0];

    // Connection A: the lone worker dequeues it and sleeps in-handler.
    let body = predict_body(d);
    let raw = format!(
        "POST /predict HTTP/1.1\r\nhost: t\r\nx-sns-sleep-ms: 1500\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut a = TcpStream::connect(addr).unwrap();
    a.write_all(raw.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(400)); // worker has dequeued A

    // Connection B takes the single queue slot.
    let mut b = TcpStream::connect(addr).unwrap();
    b.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(300)); // reactor has queued B

    // C and D find the queue full → shed by the reactor, immediately —
    // the sleeping worker never touches them.
    for _ in 0..2 {
        let raw = b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
        let t = Instant::now();
        let (status, headers, body) = http_raw(addr, raw);
        assert_eq!(status, 503, "{body}");
        assert!(t.elapsed() < Duration::from_millis(700), "shed was not immediate");
        assert_eq!(parse_json(&body).unwrap().get("kind").unwrap().as_str().unwrap(), "overload");
        let retry = headers.iter().find(|(k, _)| k == "retry-after");
        assert_eq!(retry.map(|(_, v)| v.as_str()), Some("1"));
    }

    // A's sleep ends → its prediction completes; the worker moves on to B.
    let mut response = String::new();
    a.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let mut response = String::new();
    b.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("rejected_503").unwrap().as_u64().unwrap(), 2);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn slow_loris_headers_get_408_without_stalling_the_reactor() {
    let server = Server::start_shared(
        model(),
        ServeConfig { read_timeout: Duration::from_millis(500), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();

    // A peer trickling one header byte at a time. The framing deadline
    // is fixed at accept — diligent trickling must not extend it.
    let mut loris = TcpStream::connect(addr).unwrap();
    let mut writer = loris.try_clone().unwrap();
    let trickler = std::thread::spawn(move || {
        for byte in b"GET /healthz HTTP/1.1\r\nhost: tttttttttttttttttttttttttttt" {
            if writer.write_all(&[*byte]).is_err() {
                break; // the server gave up on us, as it should
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    // While the loris trickles, an honest request on another connection
    // answers immediately: framing costs no worker under the reactor.
    let t = Instant::now();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{}", body.print());
    assert!(t.elapsed() < Duration::from_secs(2), "reactor stalled by a slow-loris peer");

    // The loris itself gets a structured 408 once the deadline passes,
    // well before its trickle would have completed the request.
    let t = Instant::now();
    let mut response = String::new();
    loris.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(t.elapsed() < Duration::from_secs(3), "408 did not arrive at the deadline");
    let payload = response.split_once("\r\n\r\n").unwrap().1;
    assert_eq!(parse_json(payload).unwrap().get("kind").unwrap().as_str().unwrap(), "timeout");
    trickler.join().unwrap();

    let (_, m) = get(addr, "/metrics");
    assert!(m.get("read_timeouts").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn half_closed_connections_are_answered_or_dropped_cleanly() {
    let server = Server::start_shared(model(), test_config()).unwrap();
    let addr = server.addr();

    // Half-close after a complete request: the response still arrives.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    // Half-close mid-headers: a structured 400, not a hang.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nho").unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("mid-headers"), "{response}");

    // Half-close mid-body (headers promised more than was sent).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: 50\r\n\r\nshort").unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("mid-body"), "{response}");

    // A connection that half-closes without sending a byte disappears
    // silently: no response, and no error counted.
    let mut s = TcpStream::connect(addr).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut sink = Vec::new();
    assert_eq!(s.read_to_end(&mut sink).unwrap(), 0, "idle probe gets a silent close");

    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("conn_errors").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn oversized_and_pipelined_requests_are_rejected_at_the_framing_layer() {
    let server =
        Server::start_shared(model(), ServeConfig { max_body: 1 << 16, ..test_config() }).unwrap();
    let addr = server.addr();

    // A declared body beyond the limit draws 413 from the headers alone —
    // the body itself is never read, let alone buffered.
    let raw = format!("POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n", 1 << 20);
    let (status, _, body) = http_raw(addr, raw.as_bytes());
    assert_eq!(status, 413, "{body}");
    assert_eq!(parse_json(&body).unwrap().get("kind").unwrap().as_str().unwrap(), "http");

    // A request head that never ends: 400 once it crosses the head cap,
    // long before the framing deadline would fire.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("x-filler: {}\r\n", "y".repeat(1024));
    for _ in 0..17 {
        if s.write_all(filler.as_bytes()).is_err() {
            break;
        }
    }
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // Pipelining a second request behind the first is rejected: this
    // server is strictly one-request-per-connection.
    let one: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n";
    let (status, _, body) = http_raw(addr, &[one, one].concat());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("longer than Content-Length"), "{body}");

    // The daemon is unfazed by all of it.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn partial_writes_backpressure_without_blocking_other_connections() {
    let server =
        Server::start_shared(model(), ServeConfig { debug_hooks: true, ..test_config() }).unwrap();
    let addr = server.addr();

    // An 8 MiB response cannot fit any socket buffer: the reactor must
    // drain it across many POLLOUT rounds while this client reads
    // nothing at all for a while.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"GET /debug/blob?kb=8192 HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200)); // response is stuck mid-write

    // Meanwhile an honest request is served immediately: a stuffed
    // connection costs a table entry, never the reactor loop.
    let t = Instant::now();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{}", body.print());
    assert!(t.elapsed() < Duration::from_secs(2), "reactor blocked on a partial write");

    // Dribble-read the blob — deliberately tiny reads first, then the
    // rest. Every byte must arrive intact.
    let mut response = Vec::new();
    let mut tiny = [0u8; 1024];
    for _ in 0..16 {
        let n = slow.read(&mut tiny).unwrap();
        if n == 0 {
            break;
        }
        response.extend_from_slice(&tiny[..n]);
        std::thread::sleep(Duration::from_millis(10));
    }
    slow.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    assert!(text.starts_with("HTTP/1.1 200"), "{}", &text[..text.len().min(64)]);
    let payload = text.split_once("\r\n\r\n").unwrap().1;
    let blob = parse_json(payload).unwrap();
    assert_eq!(blob.get("blob").unwrap().as_str().unwrap().len(), 8192 * 1024);

    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("conn_errors").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn killed_replica_fails_over_and_rejoins_with_reconciled_metrics() {
    let model = model();
    let server = Server::start_shared(
        Arc::clone(&model),
        ServeConfig { replicas: 4, debug_hooks: true, ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    assert_eq!(server.replica_count(), 4);

    let d = serve_designs()[0].clone();
    let home = server.replica_for(&d.verilog, &d.top);
    let direct = model.predict_verilog(&d.verilog, &d.top).unwrap();

    // A request held in-flight on its home replica (debug sleep hook)…
    let body = predict_body(&d);
    let raw = format!(
        "POST /predict HTTP/1.1\r\nhost: t\r\nx-sns-sleep-ms: 1000\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight.write_all(raw.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // handler is sleeping on `home`

    // …ends as a complete, parseable 503 when the replica dies under it —
    // never a truncated or wrong-valued body.
    assert!(server.kill_replica(home));
    let mut response = String::new();
    inflight.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.to_ascii_lowercase().contains("retry-after: 1"), "{response}");
    let payload = response.split_once("\r\n\r\n").unwrap().1;
    assert_eq!(parse_json(payload).unwrap().get("kind").unwrap().as_str().unwrap(), "replica");

    // New requests for the same design fail over along the ring and
    // still answer bit-identically (the replicas are exact model clones).
    let (status, resp) = post_json(addr, "/predict", &predict_body(&d));
    assert_eq!(status, 200, "{}", resp.print());
    assert_eq!(
        resp.get("timing_ps").unwrap().as_f64().unwrap().to_bits(),
        direct.timing_ps.to_bits()
    );

    // The revived replica resumes its old key range and keeps answering.
    assert!(server.revive_replica(home));
    let (status, resp) = post_json(addr, "/predict", &predict_body(&d));
    assert_eq!(status, 200, "{}", resp.print());
    assert_eq!(
        resp.get("area_um2").unwrap().as_f64().unwrap().to_bits(),
        direct.area_um2.to_bits()
    );

    // /metrics reconciles after the chaos: per-replica routed ==
    // completed + shed, exactly one shed and one failover in total,
    // everyone alive again, nothing left in flight, no panics.
    let (_, m) = get(addr, "/metrics");
    let replicas = m.get("replicas").unwrap().as_arr().unwrap();
    assert_eq!(replicas.len(), 4);
    let (mut routed, mut completed, mut shed) = (0, 0, 0);
    for r in replicas {
        let rr = r.get("routed").unwrap().as_u64().unwrap();
        let rc = r.get("completed").unwrap().as_u64().unwrap();
        let rs = r.get("shed").unwrap().as_u64().unwrap();
        assert_eq!(rr, rc + rs, "replica ledger: routed == completed + shed");
        assert_eq!(r.get("in_flight").unwrap().as_u64().unwrap(), 0);
        assert!(r.get("alive").unwrap().as_bool().unwrap());
        routed += rr;
        completed += rc;
        shed += rs;
    }
    assert_eq!((routed, completed, shed), (3, 2, 1));
    assert_eq!(m.get("router").unwrap().get("failovers").unwrap().as_u64().unwrap(), 1);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn shard_mode_is_bit_identical_with_reconciled_replica_metrics() {
    let model = model();
    let config = ServeConfig { replicas: 4, ..test_config() };
    let server = Server::start_shared(Arc::clone(&model), config.clone()).unwrap();
    let addr = server.addr();
    let designs = serve_designs();

    // Placement is pure content hashing: an independently started server
    // (fresh ring, fresh process state) homes every design identically.
    let twin = Server::start_shared(Arc::clone(&model), config).unwrap();
    for d in &designs {
        assert_eq!(
            server.replica_for(&d.verilog, &d.top),
            twin.replica_for(&d.verilog, &d.top),
            "routing must be deterministic across restarts ({})",
            d.name
        );
    }
    twin.join();

    // The same 8-way concurrent mix as the single-replica test — shard
    // mode must not change a single bit of any answer.
    let mut handles = Vec::new();
    for client in 0..8 {
        let designs = designs.clone();
        handles.push(std::thread::spawn(move || {
            (0..3)
                .map(|i| {
                    let d = &designs[(client + i * 3) % designs.len()];
                    let (status, body) = post_json(addr, "/predict", &predict_body(d));
                    assert_eq!(status, 200, "{}: {}", d.name, body.print());
                    (d.name.clone(), body)
                })
                .collect::<Vec<_>>()
        }));
    }
    let responses: Vec<(String, Json)> =
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
    assert_eq!(responses.len(), 24);
    for d in &designs {
        let direct = model.predict_verilog(&d.verilog, &d.top).unwrap();
        for (name, body) in responses.iter().filter(|(n, _)| n == &d.name) {
            for (field, want) in [
                ("timing_ps", direct.timing_ps),
                ("area_um2", direct.area_um2),
                ("power_mw", direct.power_mw),
            ] {
                let got = body.get(field).unwrap().as_f64().unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{name} {field}");
            }
        }
    }

    // The request ledger reconciles in shard mode exactly as it does
    // single-replica, plus the per-replica ledger sums to the total.
    let (status, m) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(m.get("requests_total").unwrap().as_u64().unwrap(), 25);
    assert_eq!(m.get("predict_requests").unwrap().as_u64().unwrap(), 24);
    assert_eq!(m.get("predict_ok").unwrap().as_u64().unwrap(), 24);
    assert_eq!(m.get("router").unwrap().get("replicas").unwrap().as_u64().unwrap(), 4);
    let replicas = m.get("replicas").unwrap().as_arr().unwrap();
    assert_eq!(replicas.len(), 4);
    let (mut routed, mut completed) = (0, 0);
    for r in replicas {
        assert!(r.get("alive").unwrap().as_bool().unwrap());
        assert_eq!(r.get("shed").unwrap().as_u64().unwrap(), 0);
        assert_eq!(r.get("in_flight").unwrap().as_u64().unwrap(), 0);
        routed += r.get("routed").unwrap().as_u64().unwrap();
        completed += r.get("completed").unwrap().as_u64().unwrap();
    }
    assert_eq!(routed, 24);
    assert_eq!(completed, 24);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    server.join();
}

#[test]
fn adversarial_batch_leaves_the_daemon_alive_and_bit_identical() {
    let model = model();
    let server = Server::start_shared(Arc::clone(&model), test_config()).unwrap();
    let addr = server.addr();
    let d = &serve_designs()[4];
    let direct = model.predict_verilog(&d.verilog, &d.top).unwrap();

    // A batch of hostile requests: each must produce a structured error
    // response — never a hangup, never a dead worker.

    // Deep nesting: the pre-fix reproducer stack-overflowed and aborted
    // the whole daemon. Now it is a 400 mentioning the depth bound.
    let deep = format!(
        "module m (input a, output y); assign y = {}a{}; endmodule",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let body =
        Json::obj(vec![("verilog", Json::Str(deep)), ("top", Json::Str("m".into()))]).print();
    let (status, resp) = post_json(addr, "/predict", &body);
    assert_eq!(status, 400, "{}", resp.print());
    assert_eq!(resp.get("kind").unwrap().as_str().unwrap(), "verilog");
    assert!(resp.get("error").unwrap().as_str().unwrap().contains("depth"));

    // Resource amplification: legal Verilog that exceeds the deployment's
    // elaboration budgets → 422, kind "budget".
    for verilog in [
        "module m (input x, output [7:0] y); assign y = {100000000{x}}; endmodule",
        "module m (input x, output y); wire [100000000:0] w; assign y = x; endmodule",
    ] {
        let body = Json::obj(vec![
            ("verilog", Json::Str(verilog.into())),
            ("top", Json::Str("m".into())),
        ])
        .print();
        let (status, resp) = post_json(addr, "/predict", &body);
        assert_eq!(status, 422, "{}", resp.print());
        assert_eq!(resp.get("kind").unwrap().as_str().unwrap(), "budget");
    }

    // Truncations and token soup of the design we are about to predict.
    for cut in [d.verilog.len() / 3, d.verilog.len() / 2, 2 * d.verilog.len() / 3] {
        let mut prefix = &d.verilog[..cut];
        while !d.verilog.is_char_boundary(prefix.len()) {
            prefix = &prefix[..prefix.len() - 1];
        }
        let body = Json::obj(vec![
            ("verilog", Json::Str(prefix.to_string())),
            ("top", Json::Str(d.top.clone())),
        ])
        .print();
        let (status, resp) = post_json(addr, "/predict", &body);
        assert_eq!(status, 400, "{}", resp.print());
        assert_eq!(resp.get("kind").unwrap().as_str().unwrap(), "verilog");
    }

    // Immediately after absorbing the corpus, a valid request answers
    // bit-identically to the direct model call on the same process.
    let (status, resp) = post_json(addr, "/predict", &predict_body(d));
    assert_eq!(status, 200, "{}", resp.print());
    let timing = resp.get("timing_ps").unwrap().as_f64().unwrap();
    let area = resp.get("area_um2").unwrap().as_f64().unwrap();
    let power = resp.get("power_mw").unwrap().as_f64().unwrap();
    assert_eq!(timing.to_bits(), direct.timing_ps.to_bits());
    assert_eq!(area.to_bits(), direct.area_um2.to_bits());
    assert_eq!(power.to_bits(), direct.power_mw.to_bits());

    // Nothing panicked behind the catch_unwind net, and the status
    // classes reconcile: 4 × 400, 2 × 422, 1 × 200.
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("responses").unwrap().get("4xx").unwrap().as_u64().unwrap(), 6);
    assert_eq!(m.get("responses").unwrap().get("5xx").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("predict_ok").unwrap().as_u64().unwrap(), 1);
    server.join();
}

#[test]
fn eco_session_and_patch_are_bit_identical_and_metered() {
    // A private cold cache, as in the concurrent test, for the ledger.
    let model = Arc::new(model().fork_replica());
    let server = Server::start_shared(Arc::clone(&model), test_config()).unwrap();
    let addr = server.addr();

    // A small hierarchy: one shared leaf instantiated twice by the top.
    let leaf = "module leaf #(parameter W = 8) (input [W-1:0] a, input [W-1:0] b, \
                output [W-1:0] y);\n    assign y = (a & b) + 8'd3;\nendmodule\n";
    let top = "module top (input [7:0] a, input [7:0] b, output [7:0] y);\n    \
               wire [7:0] t0;\n    wire [7:0] t1;\n    \
               leaf #(.W(8)) u0 (.a(a), .b(b), .y(t0));\n    \
               leaf #(.W(8)) u1 (.a(t0), .b(a), .y(t1));\n    \
               assign y = t0 ^ t1;\nendmodule\n";
    let base_src = format!("{leaf}{top}");

    // Register the base design as an ECO session.
    let body = Json::obj(vec![
        ("verilog", Json::Str(base_src.clone())),
        ("top", Json::Str("top".into())),
        ("session", Json::Bool(true)),
    ])
    .print();
    let (status, resp) = post_json(addr, "/predict", &body);
    assert_eq!(status, 200, "{}", resp.print());
    let token = resp.get("base").unwrap().as_str().unwrap().to_string();
    let reelab: Vec<String> = resp
        .get("reelaborated")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert!(reelab.iter().any(|m| m == "leaf"), "first session elaborates leaf: {reelab:?}");
    assert!(reelab.iter().any(|m| m == "top"), "first session elaborates top: {reelab:?}");

    // Patch the shared leaf: the top is transitively invalidated too.
    let leaf2 = leaf.replace("8'd3", "8'd7");
    let body = Json::obj(vec![
        ("base", Json::Str(token.clone())),
        ("patch", Json::Str(leaf2.clone())),
    ])
    .print();
    let (status, patched) = post_json(addr, "/predict", &body);
    assert_eq!(status, 200, "{}", patched.print());
    let reelab: Vec<String> = patched
        .get("reelaborated")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert!(reelab.iter().any(|m| m == "leaf"), "patched leaf re-elaborates: {reelab:?}");
    assert!(reelab.iter().any(|m| m == "top"), "transitive invalidation hits top: {reelab:?}");

    // The HTTP patch answer is bit-identical to a from-scratch session
    // prediction of the merged source on the very same model.
    let merged = format!("{leaf2}{top}");
    let direct = model.predict_session(&SessionStore::default(), &merged, "top").unwrap();
    assert_eq!(patched.get("base").unwrap().as_str().unwrap(), direct.token, "patched token");
    for (field, want) in [
        ("timing_ps", direct.prediction.timing_ps),
        ("area_um2", direct.prediction.area_um2),
        ("power_mw", direct.prediction.power_mw),
    ] {
        let got = patched.get(field).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{field}");
    }
    assert_eq!(
        patched.get("path_count").unwrap().as_u64().unwrap(),
        direct.prediction.path_count as u64
    );

    // A forgotten/garbage base token is a structured 404, not a hangup.
    let body = Json::obj(vec![
        ("base", Json::Str("not-a-token".into())),
        ("patch", Json::Str(leaf.to_string())),
    ])
    .print();
    let (status, resp) = post_json(addr, "/predict", &body);
    assert_eq!(status, 404, "{}", resp.print());
    assert_eq!(resp.get("kind").unwrap().as_str().unwrap(), "session");

    // Metrics reconcile: two successful session-pipeline predictions, two
    // ECO attempts (one 404), two live sessions (base + patched), and an
    // elaboration cache whose entry count equals misses minus evictions
    // with at least one invalidation from the leaf patch.
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m.get("session_predicts").unwrap().as_u64().unwrap(), 2);
    assert_eq!(m.get("eco_requests").unwrap().as_u64().unwrap(), 2);
    assert_eq!(m.get("sessions").unwrap().as_u64().unwrap(), 2);
    // Session and patch requests run the same staged pipeline as flat
    // ones: both successful predictions show up in every stage histogram
    // (the 404 never reached a stage).
    let stages = m.get("stages_us").unwrap();
    for stage in ["parse", "sample", "infer", "aggregate", "total"] {
        assert_eq!(
            stages.get(stage).unwrap().get("count").unwrap().as_u64().unwrap(),
            2,
            "stage {stage} sample count"
        );
    }
    // Session and patch fills are counted like flat ones.
    assert_inference_ledger(&m);
    let elab = m.get("elab_cache").unwrap();
    let entries = elab.get("entries").unwrap().as_u64().unwrap();
    let misses = elab.get("misses").unwrap().as_u64().unwrap();
    let evictions = elab.get("evictions").unwrap().as_u64().unwrap();
    assert_eq!(entries, misses - evictions, "elab cache entry/miss reconciliation");
    assert!(elab.get("hits").unwrap().as_u64().unwrap() >= 1, "shared leaf unit hits");
    assert!(elab.get("invalidations").unwrap().as_u64().unwrap() >= 1, "leaf patch invalidates");

    // The daemon serves from prepacked kernels: the kernels section
    // reports exactly the model's resident panel bytes.
    let kernels = m.get("kernels").unwrap();
    assert!(model.prepack_bytes() > 0, "trained model must be prepacked");
    assert_eq!(
        kernels.get("prepack_bytes").unwrap().as_u64().unwrap(),
        model.prepack_bytes() as u64,
        "kernels.prepack_bytes reconciles with the model"
    );

    // Warm repeat: the same patch against the same base — elaboration
    // cache hot, every GEMM on prepacked panels — answers bit-identically
    // to the cold patch above.
    let body = Json::obj(vec![
        ("base", Json::Str(token.clone())),
        ("patch", Json::Str(leaf2.clone())),
    ])
    .print();
    let (status, warm) = post_json(addr, "/predict", &body);
    assert_eq!(status, 200, "{}", warm.print());
    for field in ["timing_ps", "area_um2", "power_mw"] {
        let cold = patched.get(field).unwrap().as_f64().unwrap();
        let hot = warm.get(field).unwrap().as_f64().unwrap();
        assert_eq!(hot.to_bits(), cold.to_bits(), "warm ECO patch {field}");
    }
    server.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = Server::start_shared(model(), test_config()).unwrap();
    let addr = server.addr();
    let d = &serve_designs()[3];

    // Get a request in flight, then immediately request shutdown.
    let body = predict_body(d);
    let raw = format!(
        "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // request accepted
    server.request_shutdown();

    // The in-flight request still completes with a full answer.
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let payload = response.split_once("\r\n\r\n").unwrap().1;
    assert!(parse_json(payload).unwrap().get("timing_ps").unwrap().as_f64().unwrap() > 0.0);

    // join() returns (all threads drained)...
    server.join();
    // ...and the listener is gone: new connections are refused.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

// ----------------------------------------------------------- hot swap --

/// A second model with different weights (smaller training set), so a
/// hot-swap between the two changes every prediction — trained once and
/// shared, like [`model`].
fn alt_model() -> Arc<SnsModel> {
    static ALT: OnceLock<Arc<SnsModel>> = OnceLock::new();
    Arc::clone(ALT.get_or_init(|| {
        let train = vec![
            vector::simd_alu(2, 8),
            nonlinear::piecewise(4, 8),
            dsp::fir(4, 8),
            sort::radix_sort_stage(4, 8),
        ];
        Arc::new(train_sns(&train, &tiny_config()).0)
    }))
}

/// Writes a two-checkpoint zoo (`gen-a` = [`model`], `gen-b` =
/// [`alt_model`]) under a unique temp dir.
fn two_model_zoo(tag: &str) -> std::path::PathBuf {
    let zoo = std::env::temp_dir().join(format!("sns-e2e-zoo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&zoo);
    for (id, m) in [("gen-a", model()), ("gen-b", alt_model())] {
        save_to_zoo(
            &m,
            &zoo,
            &ZooCheckpointMeta {
                id: id.to_string(),
                tech: TechNode::N15,
                train_steps: 0,
                labeled_designs: 0,
                seed: 7,
            },
        )
        .expect("zoo checkpoint");
    }
    zoo
}

/// POST returning status, headers, and parsed JSON body.
fn post_json_full(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, Json) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, headers, body) = http_raw(addr, raw.as_bytes());
    (status, headers, parse_json(&body).expect("response body is JSON"))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// The hot-swap race: clients hammer `/predict` while the main thread
/// swaps the model back and forth through `/admin/reload`. Every
/// response must be a 200 whose numbers are bit-identical to a direct
/// call on the model generation its `x-sns-model-id` header names —
/// never an error, never a cross-generation mix, never a panic.
fn run_hot_swap_race(replicas: usize, tag: &str) {
    let zoo = two_model_zoo(tag);
    let direct: std::collections::HashMap<(String, String), sns::core::DesignPrediction> = {
        let mut map = std::collections::HashMap::new();
        for d in serve_designs() {
            for (id, m) in [("gen-a", model()), ("gen-b", alt_model())] {
                map.insert(
                    (id.to_string(), d.name.clone()),
                    m.predict_verilog(&d.verilog, &d.top).unwrap(),
                );
            }
        }
        map
    };

    let server = Server::start_named(
        model(),
        "gen-a",
        ServeConfig { replicas, zoo_dir: Some(zoo.clone()), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    let designs = serve_designs();

    // 8 clients × 12 requests, in flight across the swap loop below.
    let mut handles = Vec::new();
    for client in 0..8 {
        let designs = designs.clone();
        handles.push(std::thread::spawn(move || {
            (0..12)
                .map(|i| {
                    let d = &designs[(client + i) % designs.len()];
                    let (status, headers, body) =
                        post_json_full(addr, "/predict", &predict_body(d));
                    let model_id =
                        header(&headers, "x-sns-model-id").expect("model id header").to_string();
                    (d.name.clone(), status, model_id, body)
                })
                .collect::<Vec<_>>()
        }));
    }

    // Swap loop: 6 alternating hot-swaps while the clients run.
    let mut swaps = 0;
    for target in ["gen-b", "gen-a", "gen-b", "gen-a", "gen-b", "gen-b"] {
        let body = Json::obj(vec![("model", Json::Str(target.to_string()))]).print();
        let (status, headers, reply) = post_json_full(addr, "/admin/reload", &body);
        assert_eq!(status, 200, "{}", reply.print());
        assert_eq!(header(&headers, "x-sns-model-id"), Some(target));
        assert_eq!(reply.get("model_id").unwrap().as_str().unwrap(), target);
        if reply.get("swapped").unwrap().as_bool().unwrap() {
            swaps += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(swaps, 5, "the double gen-b reload at the end must be the only no-op");

    let responses: Vec<(String, u16, String, Json)> =
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
    assert_eq!(responses.len(), 96);

    // A request issued after the last swap must serve gen-b.
    let d = &designs[0];
    let (status, headers, _) = post_json_full(addr, "/predict", &predict_body(d));
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-sns-model-id"), Some("gen-b"));

    for (name, status, model_id, body) in &responses {
        assert_eq!(*status, 200, "{name} via {model_id}: {}", body.print());
        let expect = &direct[&(model_id.clone(), name.clone())];
        for (field, want) in [
            ("timing_ps", expect.timing_ps),
            ("area_um2", expect.area_um2),
            ("power_mw", expect.power_mw),
        ] {
            let got = body.get(field).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{name} {field} via {model_id}");
        }
    }

    // No panic was caught anywhere, every swap is accounted for, and the
    // per-model ledger covers every request.
    let (status, m) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(m.get("panics_total").unwrap().as_u64().unwrap(), 0);
    assert_eq!(m.get("model_swaps").unwrap().as_u64().unwrap(), 5);
    assert_eq!(m.get("reload_errors").unwrap().as_u64().unwrap(), 0);
    let models = m.get("models").unwrap().as_arr().unwrap();
    assert_eq!(models.len(), 2);
    let mut tallied = 0;
    for info in models {
        let id = info.get("id").unwrap().as_str().unwrap();
        assert!(id == "gen-a" || id == "gen-b", "{id}");
        let requests = info.get("requests").unwrap().as_u64().unwrap();
        assert_eq!(info.get("ok").unwrap().as_u64().unwrap(), requests, "{id} all-200");
        tallied += requests;
    }
    assert_eq!(tallied, 97, "every /predict tallied against exactly one model");
    server.join();

    let _ = std::fs::remove_dir_all(&zoo);
}

#[test]
fn hot_swap_race_single_replica_is_atomic_and_bit_identical() {
    run_hot_swap_race(1, "single");
}

#[test]
fn hot_swap_race_in_shard_mode_is_atomic_and_bit_identical() {
    run_hot_swap_race(3, "shard");
}

#[test]
fn admin_reload_guards_cover_missing_zoo_and_unknown_models() {
    // No zoo configured: reload is a structured 409, not a panic.
    let server = Server::start_shared(model(), test_config()).unwrap();
    let (status, _, reply) = post_json_full(server.addr(), "/admin/reload", "");
    assert_eq!(status, 409, "{}", reply.print());
    assert_eq!(reply.get("kind").unwrap().as_str().unwrap(), "reload");
    server.join();

    // Zoo configured: unknown ids 404, bad bodies 400, wrong method 405,
    // and the state they leave behind is still the boot model.
    let zoo = two_model_zoo("guards");
    let server = Server::start_named(
        model(),
        "gen-a",
        ServeConfig { zoo_dir: Some(zoo.clone()), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    let (status, _, reply) =
        post_json_full(addr, "/admin/reload", r#"{"model": "gen-z"}"#);
    assert_eq!(status, 404, "{}", reply.print());
    assert_eq!(reply.get("kind").unwrap().as_str().unwrap(), "zoo");
    let (status, _, reply) = post_json_full(addr, "/admin/reload", r#"{"model": 7}"#);
    assert_eq!(status, 400, "{}", reply.print());
    let (status, _) = get(addr, "/admin/reload");
    assert_eq!(status, 405);
    assert_eq!(server.current_model().0, "gen-a");

    // Reloading the already-serving weights is an explicit no-op.
    let (status, _, reply) =
        post_json_full(addr, "/admin/reload", r#"{"model": "gen-a"}"#);
    assert_eq!(status, 200, "{}", reply.print());
    assert!(!reply.get("swapped").unwrap().as_bool().unwrap());
    server.join();
    let _ = std::fs::remove_dir_all(&zoo);
}

/// A server booted on a zoo checkpoint reports the manifest's weight
/// hash: the hash `Server::start_named` computes from the in-memory model
/// equals the hash of the bytes on disk, so reloading the same id is a
/// no-op.
#[test]
fn served_weight_hash_equals_the_zoo_manifest_hash() {
    let zoo = two_model_zoo("hash");
    let (loaded, entry) = load_from_zoo(&zoo, Some("gen-b")).expect("zoo checkpoint loads");
    let server = Server::start_named(
        Arc::new(loaded),
        &entry.id,
        ServeConfig { zoo_dir: Some(zoo.clone()), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    let (status, headers, reply) =
        post_json_full(addr, "/predict", &predict_body(&serve_designs()[0]));
    assert_eq!(status, 200, "{}", reply.print());
    assert_eq!(header(&headers, "x-sns-weight-hash"), Some(entry.weight_hash.as_str()));

    let (status, headers, reply) =
        post_json_full(addr, "/admin/reload", r#"{"model": "gen-b"}"#);
    assert_eq!(status, 200, "{}", reply.print());
    assert!(!reply.get("swapped").unwrap().as_bool().unwrap(), "{}", reply.print());
    assert_eq!(reply.get("weight_hash").unwrap().as_str().unwrap(), entry.weight_hash);
    assert_eq!(header(&headers, "x-sns-weight-hash"), Some(entry.weight_hash.as_str()));
    server.join();
    let _ = std::fs::remove_dir_all(&zoo);
}

// -------------------------------------------------------- design memo --

/// The `/metrics` `design_memo` counter `field`.
fn memo_count(addr: SocketAddr, field: &str) -> u64 {
    let (status, m) = get(addr, "/metrics");
    assert_eq!(status, 200);
    m.get("design_memo").unwrap().get(field).unwrap().as_u64().unwrap()
}

/// Asserts a `/predict` reply carries `want`'s numbers bit for bit.
fn assert_reply_is(body: &Json, want: &sns::core::DesignPrediction, ctx: &str) {
    for (field, want) in
        [("timing_ps", want.timing_ps), ("area_um2", want.area_um2), ("power_mw", want.power_mw)]
    {
        let got = body.get(field).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {field}");
    }
    assert_eq!(body.get("path_count").unwrap().as_u64().unwrap(), want.path_count as u64, "{ctx}");
    let critical: Vec<&str> = body
        .get("critical_path")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(critical, want.critical_path, "{ctx}: critical path");
}

#[test]
fn design_memo_is_scoped_to_one_model_generation() {
    let zoo = two_model_zoo("memo");
    let server = Server::start_named(
        model(),
        "gen-a",
        ServeConfig { zoo_dir: Some(zoo.clone()), ..test_config() },
    )
    .unwrap();
    let addr = server.addr();
    let d = &serve_designs()[1];
    let on_a = model().predict_verilog(&d.verilog, &d.top).unwrap();
    let on_b = alt_model().predict_verilog(&d.verilog, &d.top).unwrap();
    assert_ne!(on_a.area_um2.to_bits(), on_b.area_um2.to_bits(), "the generations must differ");
    let counts = || (memo_count(addr, "hits"), memo_count(addr, "misses"));
    let predict = |generation: &str, want: &sns::core::DesignPrediction, ctx: &str| {
        let (status, headers, body) = post_json_full(addr, "/predict", &predict_body(d));
        assert_eq!(status, 200, "{ctx}: {}", body.print());
        assert_eq!(header(&headers, "x-sns-model-id"), Some(generation), "{ctx}");
        assert_reply_is(&body, want, ctx);
    };
    let reload = |target: &str| {
        let body = Json::obj(vec![("model", Json::Str(target.to_string()))]).print();
        let (status, _, reply) = post_json_full(addr, "/admin/reload", &body);
        assert_eq!(status, 200, "{}", reply.print());
        reply.get("swapped").unwrap().as_bool().unwrap()
    };

    // gen-a: the first request runs the pipeline, the repeat is a hit.
    predict("gen-a", &on_a, "gen-a first");
    assert_eq!(counts(), (0, 1));
    predict("gen-a", &on_a, "gen-a repeat");
    assert_eq!(counts(), (1, 1));

    // A hot-swap installs a generation with an empty memo: the same
    // design runs gen-b's pipeline and answers with gen-b's bits.
    assert!(reload("gen-b"));
    predict("gen-b", &on_b, "gen-b first");
    assert_eq!(counts(), (0, 1));

    // Reloading the serving weights swaps nothing, so the memo stays.
    assert!(!reload("gen-b"));
    predict("gen-b", &on_b, "gen-b after a no-op reload");
    assert_eq!(counts(), (1, 1));
    server.join();
    let _ = std::fs::remove_dir_all(&zoo);
}

#[test]
fn design_memo_keys_are_exact_and_its_ledger_reconciles() {
    let model = model();
    let server = Server::start_shared(Arc::clone(&model), test_config()).unwrap();
    let addr = server.addr();
    let flat = |verilog: &str, top: &str| {
        Json::obj(vec![("verilog", Json::Str(verilog.into())), ("top", Json::Str(top.into()))])
    };
    let send = |body: &Json| post_json(addr, "/predict", &body.print());
    let counts = || (memo_count(addr, "hits"), memo_count(addr, "misses"));
    // Flat bodies without an activity map that reached the memo.
    let mut lookups = 0;

    // A hierarchy whose source elaborates under either module as top.
    let leaf = "module leaf #(parameter W = 8) (input [W-1:0] a, input [W-1:0] b, \
                output [W-1:0] y);\n    assign y = (a & b) + 8'd3;\nendmodule\n";
    let top = "module top (input [7:0] a, input [7:0] b, output [7:0] y);\n    \
               wire [7:0] t0;\n    wire [7:0] t1;\n    \
               leaf #(.W(8)) u0 (.a(a), .b(b), .y(t0));\n    \
               leaf #(.W(8)) u1 (.a(t0), .b(a), .y(t1));\n    \
               assign y = t0 ^ t1;\nendmodule\n";
    let src = format!("{leaf}{top}");
    // The same source with one byte changed (`8'd3` → `8'd7`).
    let edited = src.replacen("8'd3", "8'd7", 1);
    assert_eq!(edited.len(), src.len());

    // Each (source, top) pair is its own key: a first request misses, a
    // repeat hits, and both answer with that pair's own bits.
    for (verilog, top_name) in [(&src, "top"), (&src, "leaf"), (&edited, "top")] {
        let direct = model.predict_verilog(verilog, top_name).unwrap();
        let before = counts();
        for (round, want) in [(0, (before.0, before.1 + 1)), (1, (before.0 + 1, before.1 + 1))] {
            let (status, body) = send(&flat(verilog, top_name));
            assert_eq!(status, 200, "{}", body.print());
            assert_reply_is(&body, &direct, &format!("top {top_name}, round {round}"));
            assert_eq!(counts(), want, "top {top_name}, round {round}");
            lookups += 1;
        }
    }

    // The clock target is not part of the key: a hit computes slack and
    // meets_clock from this request's own clock_ps.
    let direct = model.predict_verilog(&src, "top").unwrap();
    for clock_ps in [1e9, direct.timing_ps / 2.0] {
        let (hits, misses) = counts();
        let mut body = flat(&src, "top");
        if let Json::Obj(fields) = &mut body {
            fields.push(("clock_ps".into(), Json::Num(clock_ps)));
        }
        let (status, reply) = send(&body);
        assert_eq!(status, 200, "{}", reply.print());
        assert_eq!(counts(), (hits + 1, misses), "clock_ps {clock_ps} is a hit");
        lookups += 1;
        assert_reply_is(&reply, &direct, "clocked hit");
        let slack = reply.get("slack_ps").unwrap().as_f64().unwrap();
        assert_eq!(slack.to_bits(), (clock_ps - direct.timing_ps).to_bits());
        assert_eq!(
            reply.get("meets_clock").unwrap().as_bool().unwrap(),
            direct.timing_ps <= clock_ps
        );
    }

    // A body with an activity map bypasses the memo both times and
    // answers the activity-scaled prediction.
    let activity: std::collections::HashMap<String, f32> = [("nope".to_string(), 0.25)].into();
    let netlist = sns::netlist::parse_and_elaborate(&src, "top").unwrap();
    let with_activity = model.predict_netlist(&netlist, Some(&activity));
    let mut body = flat(&src, "top");
    if let Json::Obj(fields) = &mut body {
        fields.push(("activity".into(), Json::obj(vec![("nope", Json::Num(0.25))])));
    }
    let inserts = memo_count(addr, "inserts");
    for _ in 0..2 {
        let before = counts();
        let (status, reply) = send(&body);
        assert_eq!(status, 200, "{}", reply.print());
        assert_reply_is(&reply, &with_activity, "activity body");
        assert_eq!(counts(), before, "an activity body never reaches the memo");
    }
    assert_eq!(memo_count(addr, "inserts"), inserts);

    // Rejected bodies reach the memo as misses and are never stored:
    // sending one again gives the same error, not a stored answer.
    for (verilog, want_status, want_kind) in [
        ("module broken (input a; endmodule", 400, "verilog"),
        ("module m (input x, output [7:0] y); assign y = {100000000{x}}; endmodule", 422, "budget"),
    ] {
        let top_name = if want_status == 400 { "broken" } else { "m" };
        let mut errors = Vec::new();
        for _ in 0..2 {
            let (hits, misses) = counts();
            let (status, reply) = send(&flat(verilog, top_name));
            assert_eq!(status, want_status, "{}", reply.print());
            assert_eq!(reply.get("kind").unwrap().as_str().unwrap(), want_kind);
            assert_eq!(counts(), (hits, misses + 1), "{want_kind} body misses every time");
            lookups += 1;
            errors.push(reply.get("error").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(errors[0], errors[1], "the error repeats");
        assert_eq!(memo_count(addr, "inserts"), inserts, "{want_kind} body is not stored");
    }

    // Sources near the body limit push the memo past its byte budget:
    // it evicts oldest first and never holds more than the budget.
    let budget = memo_count(addr, "budget_bytes");
    let big = |i: usize| {
        let pad = "x".repeat(900_000);
        format!("module big{i} (input a, output y); assign y = ~a; endmodule\n// {pad}\n")
    };
    let per_entry = big(0).len() as u64;
    let n = (budget / per_entry + 2) as usize;
    for i in 0..n {
        let (status, reply) = send(&flat(&big(i), &format!("big{i}")));
        assert_eq!(status, 200, "{}", reply.print());
        lookups += 1;
    }
    assert!(memo_count(addr, "evictions") >= 1, "{n} sources of {per_entry} B overflow {budget} B");
    // The newest big source is still a hit; the first one, evicted, runs
    // the pipeline again and answers with the same bits.
    for i in [n - 1, 0] {
        let direct = model.predict_verilog(&big(i), &format!("big{i}")).unwrap();
        let (hits, misses) = counts();
        let (status, reply) = send(&flat(&big(i), &format!("big{i}")));
        assert_eq!(status, 200, "{}", reply.print());
        assert_reply_is(&reply, &direct, &format!("big{i}"));
        let want = if i == 0 { (hits, misses + 1) } else { (hits + 1, misses) };
        assert_eq!(counts(), want, "big{i}: the newest hits, the oldest was evicted");
        lookups += 1;
    }

    // The ledger reconciles from /metrics alone.
    let (_, m) = get(addr, "/metrics");
    let memo = m.get("design_memo").unwrap();
    let field = |f: &str| memo.get(f).unwrap().as_u64().unwrap();
    assert_eq!(field("entries"), field("inserts") - field("evictions"), "entries ledger");
    assert!(field("bytes") <= field("budget_bytes"), "bytes within budget");
    assert_eq!(field("hits") + field("misses"), lookups, "every flat body looked up once");
    // Three keys, the first big source twice (evicted, then stored
    // again), and every other big source once.
    assert_eq!(field("inserts"), 3 + n as u64 + 1);
    // Hits run no stage; every other success ran the pipeline once.
    let count = |v: &Json, path: &[&str]| {
        path.iter().fold(v, |v, key| v.get(key).unwrap()).as_u64().unwrap()
    };
    let ok = count(&m, &["predict_ok"]);
    assert_eq!(count(&m, &["stages_us", "total", "count"]), ok);
    assert_eq!(count(&m, &["stages_us", "aggregate", "count"]) + field("hits"), ok);
    let replicas = m.get("replicas").unwrap().as_arr().unwrap();
    assert_eq!(count(&replicas[0], &["routed"]), count(&replicas[0], &["completed"]));
    server.join();
}
