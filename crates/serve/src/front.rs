//! The readiness-driven serving front: one epoll event loop owning every
//! connection and answering what needs no solver, a fixed worker pool
//! owning every *complete* request that does.
//!
//! ```text
//!            event-loop thread (epoll)              worker pool (N threads)
//!  accept ──► nonblocking read ──► RequestParser
//!                  │  (per-conn state machine)
//!                  │ Handler::answer_now ── Some ──► answered on the loop
//!                  │        │ None
//!                  │        ▼
//!                  │ queue full? 429 ──► bounded dispatch queue
//!                  │                               │ pop
//!                  │                               ▼
//!                  ◄── completion queue + eventfd ◄── Handler::handle
//!                  │
//!                  └──► nonblocking write ──► close (Connection: close)
//! ```
//!
//! The old front dedicated a worker thread to a connection from `accept`
//! to `close`, so connection count was bounded by worker count and one
//! byte-trickling client pinned a worker for its whole request. Here a
//! connection costs a registered fd plus a parse buffer until its request
//! is **complete**. The loop then offers it to [`Handler::answer_now`]:
//! an answer that needs no solver (a warm cache hit, a 4xx, `/v1/stats`)
//! is written straight back, with no thread hand-off. Only a request the
//! handler declines enters the bounded dispatch queue and occupies a
//! worker. The loop's contract: it never solves, builds an engine, writes
//! to disk or waits on the store's segment mutex or a lock file, so one
//! slow request cannot stall the others. Consequences the tests pin down:
//!
//! * a slowloris-style client (byte-at-a-time request) never occupies a
//!   worker — concurrent well-behaved requests are served meanwhile;
//! * idle connections scale far beyond the worker count;
//! * answers that need no solver are never stuck behind solves: with every
//!   worker busy, warm hits, `/v1/stats` and `/v1/healthz` still answer;
//! * overload sheds crisply: a complete request that needs a worker and
//!   arrives at a full queue is answered `429` by the event loop itself;
//! * a panicking handler costs that request a `500`, on the loop or a
//!   worker, and the front keeps serving;
//! * graceful drain carries over: on shutdown the loop stops dispatching,
//!   answers new arrivals `503`, flushes every in-flight response, then
//!   exits.
//!
//! The front is protocol-generic over [`Handler`]: the `cosa-serve`
//! daemon plugs in its engine-backed handler, and tests plug in fakes
//! (a sleeping handler makes shedding and drain deterministic) that
//! inherit the same queue, shedding, drain, latency-ring and counter
//! machinery. Both paths share one piece of bookkeeping (latency ring,
//! counters, request log, panic → 500, shutdown), so a request counts the
//! same wherever it was answered.

use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cosa_repro::serve::{LatencyRecorder, ScheduleResponse};

use crate::http::{response_bytes, Request, RequestParser};
use crate::poll::{Event, Interest, Poller, Waker};

/// How long a connection may take to deliver one complete request head +
/// body, measured from `accept`. Trickling slower than this earns a `408`;
/// a connection that never sends anything is closed at the same deadline.
/// Dispatched requests (a worker is computing) have **no** deadline — a
/// cold MILP solve legitimately takes tens of seconds.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// How long a response write may stall on a non-draining socket.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// What one request routes to: status, JSON body, and whether this
/// response triggers graceful shutdown after it is sent.
#[derive(Debug, Clone)]
pub struct Routed {
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: String,
    /// Begin graceful shutdown once this response is written.
    pub shutdown: bool,
}

impl Routed {
    /// A plain response.
    pub fn new(status: u16, body: String) -> Routed {
        Routed {
            status,
            body,
            shutdown: false,
        }
    }
}

/// A live view of the front's own counters, handed to [`Handler::handle`]
/// and [`Handler::answer_now`] so a `/stats`-style route can report queue
/// depth, shed count and latency percentiles without the handler owning
/// that machinery.
pub struct FrontView<'a> {
    shared: &'a Shared,
}

impl FrontView<'_> {
    /// Requests currently parsed and waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").len()
    }

    /// Bound on [`FrontView::queue_depth`] beyond which requests that need
    /// a worker shed 429.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Worker threads handling requests.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Schedule requests answered 200.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Requests answered 4xx/5xx (excluding queue rejections).
    pub fn errors(&self) -> u64 {
        self.shared.errors.load(Ordering::Relaxed)
    }

    /// Requests shed 429 by the bounded queue.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// `(p50, p99, max)` service latency over the recent window, in µs.
    pub fn latency_micros(&self) -> (u64, u64, u64) {
        let latency = self.shared.latency.lock().expect("latency lock");
        (
            latency.percentile(0.50),
            latency.percentile(0.99),
            latency.max(),
        )
    }
}

/// The pluggable application half of the front: the engine-backed daemon
/// implements it, and so do the test fakes.
///
/// Every complete request is first offered to [`Handler::answer_now`] on
/// the event loop; only when that declines does it queue for
/// [`Handler::handle`] on a worker.
pub trait Handler: Send + Sync + 'static {
    /// Answer one complete, parsed request. Runs on a worker thread;
    /// blocking here (a solve) is the design.
    fn handle(&self, request: &Request, front: FrontView<'_>) -> Routed;

    /// Answer `request` on the event loop, or return `None` to send it to
    /// a worker. Every connection waits while this runs, so an answer
    /// here must need no solver: it must not solve, build an engine,
    /// write to disk, or wait on a lock another thread may hold across
    /// I/O (the store's segment mutex, a lock file). A panic costs the
    /// request a `500`, as on a worker.
    ///
    /// The default declines everything, so a handler that only
    /// implements [`Handler::handle`] dispatches every request.
    fn answer_now(&self, request: &Request, front: FrontView<'_>) -> Option<Routed> {
        let _ = (request, front);
        None
    }
}

/// Front configuration — the transport-level subset of the daemon config.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling complete requests.
    pub workers: usize,
    /// Bound on parsed requests awaiting a worker; beyond it the event
    /// loop answers a request that needs a worker `429` itself.
    pub queue_capacity: usize,
    /// Bound on simultaneously open connections; beyond it new accepts
    /// are dropped outright (the honest signal under a connection flood).
    pub max_connections: usize,
    /// Log one line per request to stdout.
    pub log_requests: bool,
}

/// A parsed request waiting for (or being served by) a worker.
struct Dispatched {
    token: u64,
    request: Request,
    received: Instant,
}

/// A worker's finished response, travelling back to the event loop.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
}

/// Everything the event loop, the workers and [`FrontView`] share.
struct Shared {
    workers: usize,
    queue_capacity: usize,
    log_requests: bool,
    queue: Mutex<std::collections::VecDeque<Dispatched>>,
    queue_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    shutdown: AtomicBool,
    served: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    latency: Mutex<LatencyRecorder>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // Already shutting down.
        }
        self.queue_ready.notify_all();
        self.waker.wake();
    }
}

/// A running front: bound address plus shutdown/join control.
pub struct FrontHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_thread: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl FrontHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal graceful shutdown without waiting. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the front exits (a `/v1/shutdown` request or a prior
    /// [`FrontHandle::begin_shutdown`]). In-flight and queued requests
    /// finish first.
    ///
    /// # Errors
    ///
    /// Returns an error when a front thread panicked.
    pub fn join(self) -> io::Result<()> {
        let panicked = |_| io::Error::other("front thread panicked");
        self.event_thread.join().map_err(panicked)?;
        for worker in self.workers {
            worker.join().map_err(panicked)?;
        }
        Ok(())
    }
}

/// Start the front: bind, spawn the event loop and the worker pool.
///
/// # Errors
///
/// Returns the I/O error when the address cannot be bound or the epoll
/// instance cannot be created.
pub fn start(config: FrontConfig, handler: Arc<dyn Handler>) -> io::Result<FrontHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let poller = Poller::new()?;
    poller.add(&listener, TOKEN_LISTENER, Interest::READ)?;
    let waker = Waker::new(&poller, TOKEN_WAKER)?;

    let shared = Arc::new(Shared {
        workers: config.workers.max(1),
        queue_capacity: config.queue_capacity,
        log_requests: config.log_requests,
        queue: Mutex::new(std::collections::VecDeque::new()),
        queue_ready: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker,
        shutdown: AtomicBool::new(false),
        served: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        latency: Mutex::new(LatencyRecorder::new()),
    });

    let mut workers = Vec::with_capacity(shared.workers);
    for i in 0..shared.workers {
        let shared = shared.clone();
        let handler = handler.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("cosa-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, handler.as_ref()))?,
        );
    }
    let event_thread = {
        let shared = shared.clone();
        let max_connections = config.max_connections.max(1);
        std::thread::Builder::new()
            .name("cosa-serve-events".to_string())
            .spawn(move || {
                event_loop(listener, poller, &shared, handler.as_ref(), max_connections)
            })?
    };
    Ok(FrontHandle {
        addr,
        shared,
        event_thread,
        workers,
    })
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Per-connection state machine phase.
enum Phase {
    /// Accumulating request bytes through the parser.
    Reading,
    /// A complete request is queued or being handled by a worker.
    Dispatched,
    /// A response is draining into the socket; close when done.
    Writing,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    phase: Phase,
    write_buf: Vec<u8>,
    written: usize,
    opened: Instant,
    write_started: Instant,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            parser: RequestParser::new(),
            phase: Phase::Reading,
            write_buf: Vec::new(),
            written: 0,
            opened: now,
            write_started: now,
            interest: Interest::READ,
        }
    }
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ScheduleResponse::from_error(message)).expect("error serializes")
}

/// The epoll event loop: owns the listener, the waker and every live
/// connection; never blocks on a socket.
fn event_loop(
    listener: TcpListener,
    poller: Poller,
    shared: &Shared,
    handler: &dyn Handler,
    max_connections: usize,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    let mut draining = false;

    loop {
        events.clear();
        if poller.wait(&mut events, Some(100)).is_err() {
            // epoll itself failing is unrecoverable; drain and exit.
            shared.begin_shutdown();
        }

        for event in events.drain(..) {
            match event.token {
                TOKEN_LISTENER => {
                    accept_ready(
                        &listener,
                        &poller,
                        shared,
                        &mut conns,
                        &mut next_token,
                        max_connections,
                    );
                }
                TOKEN_WAKER => shared.waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // Closed while the event was in flight.
                    };
                    if event.error {
                        close_conn(&poller, &mut conns, token);
                        continue;
                    }
                    if event.readable && matches!(conn.phase, Phase::Reading) {
                        drive_read(&poller, shared, handler, &mut conns, token);
                    } else if event.writable && matches!(conn.phase, Phase::Writing) {
                        drive_write(&poller, &mut conns, token);
                    }
                }
            }
        }

        // Completions can arrive with or without a waker event (the waker
        // coalesces); drain unconditionally.
        let completions: Vec<Completion> = shared
            .completions
            .lock()
            .expect("completions lock")
            .drain(..)
            .collect();
        for completion in completions {
            if conns.contains_key(&completion.token) {
                start_write(&poller, &mut conns, completion.token, completion.bytes);
            }
        }

        let now = Instant::now();
        sweep_deadlines(&poller, shared, &mut conns, now);

        if shared.shutdown.load(Ordering::SeqCst) {
            if !draining {
                draining = true;
                // Connections still mid-request at shutdown are answered
                // 503 (they could never be dispatched); everything already
                // dispatched or writing drains normally.
                let reading: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| matches!(c.phase, Phase::Reading))
                    .map(|(t, _)| *t)
                    .collect();
                for token in reading {
                    respond(&poller, &mut conns, token, 503, "daemon is shutting down");
                }
            }
            // Drained: every response written, nothing queued, no worker
            // mid-request (Dispatched conns cover both).
            let busy = conns.values().any(|c| !matches!(c.phase, Phase::Reading));
            if !busy {
                // Late Reading stragglers (accepted during this tick) get
                // the same 503 on the next iteration; exit once quiet.
                if conns.is_empty() {
                    break;
                }
            }
        }
    }
    // Exiting drops the listener: subsequent connects are refused.
    shared.queue_ready.notify_all();
}

/// Accept every pending connection (level-triggered, so loop to EAGAIN).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Shared,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    max_connections: usize,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // Transient (ECONNABORTED etc.): retry on the next event.
        };
        if conns.len() >= max_connections {
            // Over the connection budget: drop outright. Under a flood
            // that is the honest signal, and it bounds loop memory.
            drop(stream);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if poller.add(&stream, token, Interest::READ).is_err() {
            continue;
        }
        let conn = Conn::new(stream);
        conns.insert(token, conn);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Accepted during drain: answer 503 instead of serving.
            respond(poller, conns, token, 503, "daemon is shutting down");
        }
    }
}

/// Read until `WouldBlock`, feeding the parser; dispatch on completion.
fn drive_read(
    poller: &Poller,
    shared: &Shared,
    handler: &dyn Handler,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
) {
    let mut chunk = [0u8; 8192];
    loop {
        let conn = conns.get_mut(&token).expect("conn exists");
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF before a complete request: nothing to answer.
                close_conn(poller, conns, token);
                return;
            }
            Ok(n) => match conn.parser.feed(&chunk[..n]) {
                Ok(Some(request)) => {
                    dispatch(poller, shared, handler, conns, token, request);
                    return;
                }
                Ok(None) => continue,
                Err(e) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    if shared.log_requests {
                        println!("[serve] 400 bad request: {e}");
                    }
                    respond(poller, conns, token, 400, &format!("bad request: {e}"));
                    return;
                }
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(poller, conns, token);
                return;
            }
        }
    }
}

/// Answer a complete request on the loop when the handler can, else hand
/// it to the worker pool — or shed it right here.
fn dispatch(
    poller: &Poller,
    shared: &Shared,
    handler: &dyn Handler,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    request: Request,
) {
    if shared.shutdown.load(Ordering::SeqCst) {
        respond(poller, conns, token, 503, "daemon is shutting down");
        return;
    }
    let received = Instant::now();
    if let Some(bytes) = run_handler(shared, &request, received, |view| {
        handler.answer_now(&request, view)
    }) {
        start_write(poller, conns, token, bytes);
        return;
    }
    let mut queue = shared.queue.lock().expect("queue lock");
    if queue.len() >= shared.queue_capacity {
        drop(queue);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        if shared.log_requests {
            println!("[serve] 429 queue full");
        }
        respond(poller, conns, token, 429, "request queue full, retry later");
        return;
    }
    queue.push_back(Dispatched {
        token,
        request,
        received,
    });
    drop(queue);
    shared.queue_ready.notify_one();
    let conn = conns.get_mut(&token).expect("conn exists");
    conn.phase = Phase::Dispatched;
    // Stop watching for reads (one request per connection); stay
    // registered so errors/hangups are still delivered.
    if poller.modify(&conn.stream, token, Interest::NONE).is_ok() {
        conn.interest = Interest::NONE;
    }
}

/// Queue an error-shaped response on a connection (event-loop-side paths:
/// 400/429/503, deadline 408s).
fn respond(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    status: u16,
    message: &str,
) {
    let bytes = response_bytes(status, &error_body(message), &[]);
    start_write(poller, conns, token, bytes);
}

/// Begin draining `bytes` into the connection; fast path writes inline.
fn start_write(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64, bytes: Vec<u8>) {
    let conn = conns.get_mut(&token).expect("conn exists");
    conn.phase = Phase::Writing;
    conn.write_buf = bytes;
    conn.written = 0;
    conn.write_started = Instant::now();
    drive_write(poller, conns, token);
}

/// Write until done or `WouldBlock`; close on completion (one-request
/// protocol), register write interest on a full socket buffer.
fn drive_write(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    loop {
        let conn = conns.get_mut(&token).expect("conn exists");
        if conn.written >= conn.write_buf.len() {
            let _ = conn.stream.flush();
            close_conn(poller, conns, token);
            return;
        }
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => {
                close_conn(poller, conns, token);
                return;
            }
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.interest != Interest::WRITE
                    && poller.modify(&conn.stream, token, Interest::WRITE).is_ok()
                {
                    conn.interest = Interest::WRITE;
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(poller, conns, token);
                return;
            }
        }
    }
}

fn close_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        poller.delete(&conn.stream);
        // Dropping the stream sends FIN; the request was fully read on
        // every answered path, so the peer sees the response, not a reset.
    }
}

/// Enforce the read/write deadlines (cheap O(conns) sweep per tick).
fn sweep_deadlines(poller: &Poller, shared: &Shared, conns: &mut HashMap<u64, Conn>, now: Instant) {
    let expired: Vec<(u64, bool)> = conns
        .iter()
        .filter_map(|(token, conn)| match conn.phase {
            Phase::Reading if now.duration_since(conn.opened) > REQUEST_DEADLINE => {
                Some((*token, conn.parser.started()))
            }
            Phase::Writing if now.duration_since(conn.write_started) > WRITE_DEADLINE => {
                Some((*token, false))
            }
            _ => None,
        })
        .collect();
    for (token, mid_request) in expired {
        if mid_request {
            // A started-but-stalled request gets an answer; a silent idle
            // connection is just closed.
            shared.errors.fetch_add(1, Ordering::Relaxed);
            respond(poller, conns, token, 408, "request timed out");
        } else {
            close_conn(poller, conns, token);
        }
    }
}

/// The path whose responses feed the latency ring and the `served`
/// counter.
fn is_schedule_path(path: &str) -> bool {
    path == "/v1/schedule"
}

/// Run one handler call under the bookkeeping every answered request gets,
/// on the loop or on a worker: a panic becomes a `500` (it must cost the
/// request, not the thread), then the latency ring, the served/errors
/// counters, the request log and a requested shutdown. Returns the
/// response bytes, or `None` when `call` declined to answer.
fn run_handler(
    shared: &Shared,
    request: &Request,
    received: Instant,
    call: impl FnOnce(FrontView<'_>) -> Option<Routed>,
) -> Option<Vec<u8>> {
    let view = FrontView { shared };
    let routed = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(view))) {
        Ok(routed) => routed?,
        Err(_) => {
            eprintln!("[serve] caught a request panic (500 returned)");
            Routed::new(500, error_body("internal error handling request"))
        }
    };

    let micros = received.elapsed().as_micros() as u64;
    if is_schedule_path(&request.path) {
        shared.latency.lock().expect("latency lock").record(micros);
        if routed.status == 200 {
            shared.served.fetch_add(1, Ordering::Relaxed);
        }
    }
    if routed.status != 200 {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    if shared.log_requests {
        println!(
            "[serve] {} {} {} {micros}µs",
            request.method, request.path, routed.status,
        );
    }
    if routed.shutdown {
        shared.begin_shutdown();
    }
    Some(response_bytes(routed.status, &routed.body, &[]))
}

/// Pop complete requests and run the handler until shutdown + drained.
fn worker_loop(shared: &Shared, handler: &dyn Handler) {
    loop {
        let dispatched = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(d) = queue.pop_front() {
                    break Some(d);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_ready
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = q;
            }
        };
        let Some(Dispatched {
            token,
            request,
            received,
        }) = dispatched
        else {
            // Shutdown observed with an empty queue: every dispatched
            // request has been handled.
            return;
        };

        let bytes = run_handler(shared, &request, received, |view| {
            Some(handler.handle(&request, view))
        })
        .expect("a worker answers every request");
        shared
            .completions
            .lock()
            .expect("completions lock")
            .push(Completion { token, bytes });
        shared.waker.wake();
    }
}
