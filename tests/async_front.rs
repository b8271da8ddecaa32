//! Tests for the readiness-driven connection front: slow senders and
//! idle connections must never occupy a worker — connection count is
//! decoupled from worker count by the epoll event loop, which owns every
//! connection until a complete request has been parsed — and overload
//! and shutdown are answered, never dropped: a full queue sheds `429`, a
//! shutdown drains what was queued.
//!
//! Answers that need no solver are answered by the event loop itself, so
//! they are never stuck behind a solve, and a panicking handler costs
//! only its request a `500`, on the loop or on a worker.
//!
//! Every daemon runs on `127.0.0.1:0` with the fast `random` scheduler,
//! except where a slow `cosa` solve is the point. The shedding and drain
//! tests need requests that take a known time, so they run the bare front
//! around a `SleepingHandler` fake instead.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cosa_repro::prelude::*;
use cosa_serve::front::{self, FrontConfig, FrontHandle, FrontView, Handler, Routed};
use cosa_serve::http::{self, Request};
use cosa_serve::{ServeConfig, Server};

/// A stand-in for an engine whose solves are slow: every request except
/// `GET /v1/stats` sleeps `delay` on its worker and answers 200;
/// `/v1/stats` answers the front's shed count as a bare number.
struct SleepingHandler {
    delay: Duration,
}

impl Handler for SleepingHandler {
    fn handle(&self, request: &Request, front: FrontView<'_>) -> Routed {
        if request.path == "/v1/stats" {
            return Routed::new(200, front.rejected().to_string());
        }
        std::thread::sleep(self.delay);
        Routed::new(200, "{}".to_string())
    }
}

/// The bare front with `workers` workers and `queue_capacity` queue slots
/// around a [`SleepingHandler`].
fn sleeping_front(workers: usize, queue_capacity: usize, delay: Duration) -> FrontHandle {
    let config = FrontConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        max_connections: 1024,
        log_requests: false,
    };
    front::start(config, Arc::new(SleepingHandler { delay })).expect("start front")
}

/// A serialized `/v1/schedule` request for one tiny layer.
fn layer_body() -> String {
    serde_json::to_string(
        &ScheduleRequest::for_layer(Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1))
            .with_scheduler("random"),
    )
    .expect("request serializes")
}

/// The raw wire bytes of a well-formed `POST /v1/schedule`.
fn raw_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/schedule HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read the whole response off a raw stream (the daemon closes after one
/// response) and return the status code from the status line.
fn read_status(stream: &mut TcpStream) -> u16 {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let text = String::from_utf8_lossy(&bytes);
    let status = text
        .split_whitespace()
        .nth(1)
        .expect("status line has a code");
    status.parse().expect("numeric status")
}

#[test]
fn slow_sender_does_not_occupy_the_only_worker() {
    // One worker. A slowloris-style client trickles its request a few
    // bytes at a time; with the old blocking accept loop that connection
    // would pin the worker and starve everyone else. The epoll front
    // keeps parsing it off-thread, so concurrent full requests must be
    // answered promptly the whole time.
    let handle = Server::start(ServeConfig::builder().workers(1).build()).expect("start daemon");
    let addr = handle.addr();

    let wire = raw_request(&layer_body());
    let mut slow = TcpStream::connect(addr).expect("connect slow client");
    slow.write_all(&wire[..16]).expect("first trickle");

    // While the slow request is incomplete, the single worker serves a
    // burst of normal requests. 5 s is far under the front's 10 s
    // request deadline and far over any healthy serving latency.
    let started = Instant::now();
    for i in 0..4 {
        let resp =
            http::request(addr, "POST", "/v1/schedule", &layer_body()).expect("full request");
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "full requests starved behind a slow sender: {:?}",
        started.elapsed()
    );

    // The trickled request itself still completes once its bytes arrive.
    for chunk in wire[16..].chunks(64) {
        slow.write_all(chunk).expect("trickle chunk");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(read_status(&mut slow), 200, "slow request completes");

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn idle_connections_do_not_block_serving() {
    // Far more open connections than workers: 64 idle sockets sit in the
    // event loop while two workers keep serving real traffic.
    let handle = Server::start(ServeConfig::builder().workers(2).build()).expect("start daemon");
    let addr = handle.addr();

    let idle: Vec<TcpStream> = (0..64)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connection {i}: {e}")))
        .collect();
    assert_eq!(idle.len(), 64);

    let body = layer_body();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let body = body.as_str();
                scope.spawn(move || {
                    http::request(addr, "POST", "/v1/schedule", body)
                        .expect("request alongside idle connections")
                        .status
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert!(
        statuses.iter().all(|s| *s == 200),
        "all requests served despite 64 idle connections: {statuses:?}"
    );

    drop(idle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn half_request_then_silence_gets_a_408() {
    // A connection that starts a request and goes quiet is timed out by
    // the event loop with 408, not left to hold resources forever. The
    // front's request deadline is 10 s — this test rides just past it.
    let handle = Server::start(ServeConfig::builder().workers(1).build()).expect("start daemon");
    let addr = handle.addr();

    let mut quiet = TcpStream::connect(addr).expect("connect");
    quiet
        .write_all(b"POST /v1/schedule HTTP/1.1\r\n")
        .expect("partial head");
    quiet
        .set_read_timeout(Some(Duration::from_secs(
            cosa_serve::front::REQUEST_DEADLINE.as_secs() + 5,
        )))
        .expect("read timeout");
    assert_eq!(read_status(&mut quiet), 408, "stalled request is expired");

    // The daemon is unharmed.
    let resp = http::request(addr, "GET", "/v1/healthz", "").expect("healthz");
    assert_eq!(resp.status, 200);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn bounded_queue_sheds_load_with_429() {
    // One slow worker and a single queue slot: of several concurrent
    // requests at most two can be in the system, the rest must be shed.
    let handle = sleeping_front(1, 1, Duration::from_millis(300));
    let addr = handle.addr();

    let body = layer_body();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let body = body.as_str();
                scope.spawn(move || {
                    http::request(addr, "POST", "/v1/schedule", body)
                        .unwrap()
                        .status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = statuses.iter().filter(|s| **s == 200).count();
    let shed = statuses.iter().filter(|s| **s == 429).count();
    assert_eq!(ok + shed, 6, "every request is answered, never dropped");
    assert!(ok >= 1, "the worker serves what it can: {statuses:?}");
    assert!(shed >= 1, "overload must shed with 429: {statuses:?}");
    let stats = http::request(addr, "GET", "/v1/stats", "").expect("GET /v1/stats");
    assert_eq!(stats.body.parse::<usize>(), Ok(shed), "{}", stats.body);

    handle.begin_shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    // One slow worker: the first request is in-flight and two more are
    // queued when shutdown begins — all three must still be answered 200.
    let handle = sleeping_front(1, 64, Duration::from_millis(200));
    let addr = handle.addr();

    let body = layer_body();
    std::thread::scope(|scope| {
        let requests: Vec<_> = (0..3)
            .map(|_| {
                let body = body.as_str();
                scope.spawn(move || http::request(addr, "POST", "/v1/schedule", body).unwrap())
            })
            .collect();
        // Let the requests get accepted/queued, then shut down mid-flight.
        std::thread::sleep(Duration::from_millis(100));
        handle.begin_shutdown();
        // Everything accepted before the shutdown drains to a 200; a
        // client thread scheduled late on a loaded CI box may instead
        // arrive after the flag and correctly get the 503 — what must
        // never happen is a dropped connection or an unanswered request.
        let statuses: Vec<u16> = requests
            .into_iter()
            .map(|request| {
                let resp = request.join().unwrap();
                assert!(
                    resp.status == 200 || resp.status == 503,
                    "request answered {}: {}",
                    resp.status,
                    resp.body
                );
                resp.status
            })
            .collect();
        assert!(
            statuses.contains(&200) || statuses.iter().all(|s| *s == 503),
            "pre-shutdown requests must drain to 200: {statuses:?}"
        );
        handle.join().expect("clean shutdown");
    });

    // The front is gone: new connections are refused.
    assert!(
        http::request(addr, "GET", "/v1/healthz", "").is_err(),
        "port must be closed after shutdown"
    );
}

/// A handler whose requests panic where told to: `/panic` in
/// [`Handler::handle`] on the worker, `/panic-now` in
/// [`Handler::answer_now`] on the event loop. `/now` is answered on the
/// loop, anything else on the worker, and `/v1/stats` answers the front's
/// error count as a bare number.
struct PanickingHandler;

impl Handler for PanickingHandler {
    fn handle(&self, request: &Request, front: FrontView<'_>) -> Routed {
        match request.path.as_str() {
            "/panic" => panic!("handler panic on the worker"),
            "/v1/stats" => Routed::new(200, front.errors().to_string()),
            _ => Routed::new(200, "\"worker\"".to_string()),
        }
    }

    fn answer_now(&self, request: &Request, _front: FrontView<'_>) -> Option<Routed> {
        match request.path.as_str() {
            "/panic-now" => panic!("handler panic on the event loop"),
            "/now" => Some(Routed::new(200, "\"loop\"".to_string())),
            _ => None,
        }
    }
}

#[test]
fn a_panic_costs_a_500_and_the_front_keeps_serving() {
    // One worker: the request after its panic can only be served by the
    // same thread, so a 200 there shows the panic cost no pool thread.
    let config = FrontConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 8,
        max_connections: 64,
        log_requests: false,
    };
    let handle = front::start(config, Arc::new(PanickingHandler)).expect("start front");
    let addr = handle.addr();
    for (path, status, body) in [
        ("/panic", 500, None),
        ("/work", 200, Some("\"worker\"")),
        ("/panic-now", 500, None),
        ("/now", 200, Some("\"loop\"")),
        ("/work", 200, Some("\"worker\"")),
        ("/panic-now", 500, None),
        ("/panic", 500, None),
        ("/now", 200, Some("\"loop\"")),
    ] {
        let resp = http::request(addr, "POST", path, "").expect(path);
        assert_eq!(resp.status, status, "{path}: {}", resp.body);
        if let Some(body) = body {
            assert_eq!(resp.body, body, "{path}");
        }
    }
    let errors = http::request(addr, "GET", "/v1/stats", "").expect("stats");
    assert_eq!(errors.body, "4", "every 500 is counted once");
    handle.begin_shutdown();
    handle.join().expect("no front thread died");
}

#[test]
fn hits_and_health_are_not_stuck_behind_a_solve() {
    // One worker, one queue slot. While the worker runs a cold `cosa`
    // solve, a warm layer hit and `/v1/healthz` are answered by the event
    // loop, before the solve's reply; with a second cold request filling
    // the queue, `/v1/stats` and `/v1/healthz` still answer 200 (a front
    // that queued them would shed them 429 or keep them behind the solve).
    let handle = Server::start(ServeConfig::builder().workers(1).queue_capacity(1).build())
        .expect("start daemon");
    let addr = handle.addr();

    let warm = layer_body();
    let resp = http::request(addr, "POST", "/v1/schedule", &warm).expect("warm-up");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // ResNet-50's 20-odd distinct shapes through the serving MILP: seconds
    // of solving, so everything below happens mid-solve.
    let cold =
        serde_json::to_string(&ScheduleRequest::for_suite(Suite::ResNet50).with_scheduler("cosa"))
            .expect("request serializes");

    let replies = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let send = |method: &'static str, path: &'static str, body: &str| {
            let (body, replies) = (body.to_string(), &replies);
            scope.spawn(move || {
                let resp = http::request(addr, method, path, &body).expect(path);
                (resp.status, replies.fetch_add(1, Ordering::SeqCst))
            })
        };
        let stats = || {
            let resp = http::request(addr, "GET", "/v1/stats", "").expect("stats");
            assert_eq!(resp.status, 200, "stats mid-solve: {}", resp.body);
            serde_json::from_str::<StatsResponse>(&resp.body).expect("stats parse")
        };
        let wait_for = |what: &str, done: &dyn Fn(&StatsResponse) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done(&stats()) {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let solve = send("POST", "/v1/schedule", &cold);
        wait_for("the worker never started the solve", &|s| {
            s.cache.in_flight_peak >= 1
        });
        let hit = send("POST", "/v1/schedule", &warm);
        let health = send("GET", "/v1/healthz", "");
        let (hit_status, hit_at) = hit.join().expect("hit client");
        let (health_status, health_at) = health.join().expect("health client");
        assert_eq!((hit_status, health_status), (200, 200));

        // The same cold suite again: not resident yet, so it waits for the
        // busy worker in the one queue slot.
        let queued = send("POST", "/v1/schedule", &cold);
        wait_for("the second cold request never queued", &|s| {
            s.queue_depth == 1
        });
        let resp = http::request(addr, "GET", "/v1/healthz", "").expect("healthz");
        assert_eq!(
            resp.status, 200,
            "healthz behind a full queue: {}",
            resp.body
        );

        let (solve_status, solve_at) = solve.join().expect("solve client");
        assert_eq!(solve_status, 200);
        assert!(
            hit_at < solve_at && health_at < solve_at,
            "reply order: hit {hit_at}, healthz {health_at}, cold solve {solve_at}"
        );
        let (queued_status, _) = queued.join().expect("queued client");
        assert_eq!(
            queued_status, 200,
            "the queued request is served from the cache"
        );
    });
    handle.shutdown().expect("clean shutdown");
}
