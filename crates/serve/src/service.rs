//! The worker runtime: scoped worker threads over the work-stealing
//! queue, an optional TCP acceptor with one reader per connection, and
//! graceful drain.
//!
//! This module is the crate's only thread nursery (the static-analysis
//! thread-discipline rule names it alongside `rtr_eval::par`): workers,
//! the acceptor when TCP is enabled, and a blocking reader for each
//! accepted connection are born inside one `std::thread::scope` in
//! [`serve`] and are all joined before it returns — no detached
//! threads, ever. A reader decodes and queues each request as soon as
//! its bytes arrive; workers write replies through the connection's
//! separate write half. Each worker owns a
//! [`SessionPool`] (single-threaded by design) and pulls [`Job`]s from
//! the shared [`RunQueue`], so session/Dijkstra/SPT buffers are reused
//! across requests without crossing threads.
//!
//! Shutdown is a drain, not an abort: the shutdown flag stops the
//! acceptor, the connection readers and the driving closure; once every
//! reader has stopped, [`RunQueue::close`] stops new pushes, workers
//! finish every queued job, and only then does [`serve`] return — its
//! [`ServiceReport`] records whether the drain left the queue empty
//! along with per-worker job/steal/latency counters.

use crate::clock::Stamp;
use crate::fleet::Fleet;
use crate::proto::{
    self, DestResult, Outcome, RecoverRequest, RecoverResponse, Response, ServeError,
};
use crate::queue::RunQueue;
use rtr_baselines::RouteOutcome;
use rtr_core::{DeliveryOutcome, SessionPool};
use rtr_eval::par;
use rtr_obs::Histogram;
use rtr_topology::{GraphView, LinkId, NodeId};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// How often the acceptor looks for new connections and
/// [`ServiceHandle::wait_shutdown`] for the shutdown flag.
const POLL_TICK: Duration = Duration::from_micros(500);

/// How long a connection reader blocks in `read` before it rechecks the
/// shutdown flag; bounds how long an idle client can hold up the drain.
const READ_TIMEOUT: Duration = Duration::from_millis(5);

/// How long a reply write may block on a client that has stopped
/// reading. A write that times out abandons the connection, so such a
/// client holds a worker (and the drain) for at most this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Worker threads (`0` = auto: `RTR_THREADS`, else the host's
    /// parallelism — resolved through [`par::resolve_threads`]).
    pub workers: usize,
    /// TCP listen address (e.g. `"127.0.0.1:0"`); `None` serves the
    /// in-process transport only.
    pub bind: Option<String>,
}

/// Where a job's answer goes.
#[derive(Debug)]
pub enum Reply {
    /// In-process transport: the response value is sent on a channel.
    InProc(mpsc::Sender<Response>),
    /// TCP transport: the encoded response frame is written to the
    /// connection's write half (shared by the workers answering it). A
    /// failed or timed-out write shuts the socket down both ways: its
    /// reader stops, and later replies to it fail at once.
    Tcp(Arc<Mutex<TcpStream>>),
}

impl Reply {
    fn send(self, response: &Response) {
        match self {
            // A gone receiver means the client stopped listening; the
            // work is already done either way.
            Reply::InProc(tx) => {
                let _ = tx.send(response.clone());
            }
            // `write_all` gives up on the `WouldBlock`/`TimedOut` that a
            // `WRITE_TIMEOUT` expiry returns, where `proto::write_frame`
            // would retry it forever.
            Reply::Tcp(stream) => {
                let frame = proto::frame(&proto::encode_response(response));
                let mut guard = stream.lock().unwrap_or_else(PoisonError::into_inner);
                if guard.write_all(&frame).is_err() {
                    let _ = guard.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

/// One unit of work: a decoded request plus its reply route.
#[derive(Debug)]
pub struct Job {
    /// The decoded recovery request.
    pub request: RecoverRequest,
    /// When the job entered the queue (sojourn accounting).
    pub enqueued: Stamp,
    /// Where to send the answer.
    pub reply: Reply,
}

/// Per-worker counters, reported after the drain.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index (also its home shard).
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Jobs stolen from other workers' shards.
    pub steals: u64,
    /// Per-job service time in microseconds.
    pub service_micros: Histogram,
    /// Queue wait (enqueue to pop) in microseconds.
    pub queue_wait_micros: Histogram,
    /// Total queued backlog sampled at each pop.
    pub queue_depth: Histogram,
}

/// What [`serve`] reports once every worker has drained and joined.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Per-worker counters, in worker order.
    pub workers: Vec<WorkerStats>,
    /// True when the queue was empty after the drain (always the case
    /// unless a worker died early).
    pub drained_clean: bool,
}

impl ServiceReport {
    /// Jobs completed across all workers.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Steals across all workers.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "service drained {} ({} jobs, {} steals, {} workers)",
            if self.drained_clean { "clean" } else { "DIRTY" },
            self.jobs_completed(),
            self.steals(),
            self.workers.len()
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "  worker {}: {} jobs, {} steals, service p50/p99 {}/{} us, \
                 depth p99 {}",
                w.worker,
                w.jobs,
                w.steals,
                w.service_micros.quantile(0.50).unwrap_or(0),
                w.service_micros.quantile(0.99).unwrap_or(0),
                w.queue_depth.quantile(0.99).unwrap_or(0),
            )?;
        }
        Ok(())
    }
}

/// The caller's view of a running service, passed to the driving
/// closure of [`serve`].
#[derive(Debug)]
pub struct ServiceHandle {
    queue: Arc<RunQueue<Job>>,
    shutdown: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl ServiceHandle {
    /// Submits a request on the in-process transport; the response
    /// arrives on `reply`. Returns `false` when the service is
    /// draining (the request was not queued).
    pub fn submit(&self, request: RecoverRequest, reply: mpsc::Sender<Response>) -> bool {
        self.queue.push(Job {
            request,
            enqueued: Stamp::now(),
            reply: Reply::InProc(reply),
        })
    }

    /// Starts the drain: the acceptor and connection readers stop, the
    /// driving closure's [`wait_shutdown`](Self::wait_shutdown) returns,
    /// and [`serve`] finishes queued work then joins everyone.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// True once a shutdown was requested (by this handle or by a
    /// [`proto::Request::Shutdown`] frame over TCP).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until a shutdown is requested. The daemon's driving
    /// closure is exactly this call.
    pub fn wait_shutdown(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL_TICK);
        }
    }

    /// The bound TCP address, when the service listens.
    #[must_use]
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Queued jobs right now (racy snapshot; for backpressure probes).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queue.pending()
    }
}

/// Answers one request against the fleet using the worker's pool.
/// `service_micros` is left at 0 — the worker stamps it afterwards so
/// the figure covers the full handling time.
///
/// The request's `scheme` byte selects the backend: 0 routes through the
/// native RTR session path (byte-for-byte the v1 behavior); any other
/// known code dispatches to the entry's cached
/// [`RecoveryScheme`](rtr_baselines::RecoveryScheme) comparator; unknown
/// codes — and known codes whose per-topology precomputation failed —
/// come back as [`ServeError::UnknownScheme`].
#[must_use]
pub fn answer(fleet: &Fleet, pool: &SessionPool, req: &RecoverRequest) -> Response {
    let reject = |error: ServeError| Response::Error { id: req.id, error };
    let Some(entry) = fleet.get(req.topo) else {
        return reject(ServeError::UnknownTopology);
    };
    let Some(scenario) = entry.scenario(&req.region) else {
        return reject(ServeError::BadRegion);
    };
    let base = entry.baseline();
    let topo = base.topo();
    let ids_ok = (req.initiator as usize) < topo.node_count()
        && (req.failed_link as usize) < topo.link_count()
        && req.dests.iter().all(|&d| (d as usize) < topo.node_count());
    if !ids_ok {
        return reject(ServeError::BadId);
    }
    if req.scheme != 0 {
        let Some(scheme) = entry.comparator(req.scheme) else {
            return reject(ServeError::UnknownScheme);
        };
        // Same precondition phase 1 enforces on the native path: the
        // failed link is incident to the initiator and actually down.
        let (a, b) = topo.link(LinkId(req.failed_link)).endpoints();
        let incident = a == NodeId(req.initiator) || b == NodeId(req.initiator);
        if !incident || scenario.is_link_usable(topo, LinkId(req.failed_link)) {
            return reject(ServeError::Phase1Rejected);
        }
        let ctx = base.scheme_ctx();
        let mut scratch = pool.scheme_scratch();
        let mut results = Vec::with_capacity(req.dests.len());
        for &dest in &req.dests {
            let attempt = scheme.route_in(
                ctx,
                scenario.as_ref(),
                NodeId(req.initiator),
                LinkId(req.failed_link),
                NodeId(dest),
                &mut scratch,
            );
            let outcome = match attempt.outcome {
                RouteOutcome::Delivered => Outcome::Delivered,
                RouteOutcome::Dropped { at_link } => Outcome::HitFailure { at_link: at_link.0 },
                RouteOutcome::NoRoute => Outcome::NoPath,
            };
            results.push(DestResult {
                dest,
                outcome,
                cost: attempt.cost_traversed,
                route: attempt.trace.nodes().map(|n| n.0).collect(),
            });
        }
        return Response::Recover(RecoverResponse {
            id: req.id,
            results,
            service_micros: 0,
        });
    }
    let session = pool.start_session(
        topo,
        base.crosslinks(),
        scenario.as_ref(),
        base.table().tree(NodeId(req.initiator)),
        NodeId(req.initiator),
        LinkId(req.failed_link),
    );
    let Ok(mut session) = session else {
        return reject(ServeError::Phase1Rejected);
    };
    let mut results = Vec::with_capacity(req.dests.len());
    for &dest in &req.dests {
        let attempt = session.recover(NodeId(dest));
        let outcome = match attempt.outcome {
            DeliveryOutcome::Delivered => Outcome::Delivered,
            DeliveryOutcome::HitFailure { at_link } => Outcome::HitFailure { at_link: at_link.0 },
            DeliveryOutcome::NoPath => Outcome::NoPath,
        };
        let (cost, route) = attempt
            .path
            .as_ref()
            .map(|p| (p.cost(), p.nodes().iter().map(|n| n.0).collect()))
            .unwrap_or((0, Vec::new()));
        results.push(DestResult {
            dest,
            outcome,
            cost,
            route,
        });
    }
    Response::Recover(RecoverResponse {
        id: req.id,
        results,
        service_micros: 0,
    })
}

fn worker_loop(fleet: &Fleet, queue: &RunQueue<Job>, idx: usize) -> WorkerStats {
    let pool = SessionPool::new();
    let mut stats = WorkerStats {
        worker: idx,
        ..WorkerStats::default()
    };
    while let Some(popped) = queue.pop(idx) {
        stats.queue_depth.record(popped.depth as u64);
        if popped.stolen {
            stats.steals += 1;
        }
        let job = popped.item;
        let t0 = Stamp::now();
        let mut response = answer(fleet, &pool, &job.request);
        let micros = t0.elapsed_micros();
        if let Response::Recover(r) = &mut response {
            r.service_micros = micros;
        }
        stats.service_micros.record(micros);
        stats
            .queue_wait_micros
            .record(t0.micros_since(job.enqueued));
        stats.jobs += 1;
        job.reply.send(&response);
    }
    stats
}

/// One TCP connection, owned by its reader thread.
struct Conn {
    /// Blocking read half; its [`READ_TIMEOUT`] only brings the reader
    /// back to the shutdown check.
    reader: TcpStream,
    /// Write half (a `try_clone` of the same socket), shared with the
    /// workers answering this connection, with a [`WRITE_TIMEOUT`]. A
    /// blocked read never holds it.
    writer: Arc<Mutex<TcpStream>>,
    frames: proto::FrameBuf,
    dead: bool,
}

impl Conn {
    /// Prepares an accepted socket: blocking, `TCP_NODELAY` (every frame
    /// goes out in one `write`, so Nagle would only add delay), the read
    /// and write timeouts, and a cloned write half.
    fn open(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        writer.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Conn {
            reader: stream,
            writer: Arc::new(Mutex::new(writer)),
            frames: proto::FrameBuf::new(),
            dead: false,
        })
    }

    /// Reads frames as they arrive and routes each one, until the peer
    /// closes, the stream breaks or turns malformed, or a shutdown is
    /// requested. Dropping `self` then closes the read half; the socket
    /// closes once the last queued reply has been written.
    fn run(mut self, queue: &RunQueue<Job>, shutdown: &AtomicBool) {
        let mut scratch = [0u8; 4096];
        while !self.dead && !shutdown.load(Ordering::Acquire) {
            match self.reader.read(&mut scratch) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.frames.extend(scratch.get(..n).unwrap_or(&[]));
                    self.route_frames(queue, shutdown);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => self.dead = true,
            }
        }
    }

    /// Routes every complete frame buffered so far.
    fn route_frames(&mut self, queue: &RunQueue<Job>, shutdown: &AtomicBool) {
        while !self.dead {
            match self.frames.next_frame() {
                Ok(None) => return,
                Ok(Some(body)) => self.route(&body, queue, shutdown),
                Err(_) => {
                    self.respond(&Response::Error {
                        id: 0,
                        error: ServeError::Malformed,
                    });
                    self.dead = true;
                }
            }
        }
    }

    /// Routes one frame body: recoveries to the queue, shutdown to the
    /// flag.
    fn route(&mut self, body: &[u8], queue: &RunQueue<Job>, shutdown: &AtomicBool) {
        match proto::decode_request(body) {
            Ok(proto::Request::Recover(request)) => {
                let id = request.id;
                let queued = queue.push(Job {
                    request,
                    enqueued: Stamp::now(),
                    reply: Reply::Tcp(Arc::clone(&self.writer)),
                });
                if !queued {
                    self.respond(&Response::Error {
                        id,
                        error: ServeError::Draining,
                    });
                }
            }
            Ok(proto::Request::Shutdown) => {
                self.respond(&Response::ShuttingDown);
                shutdown.store(true, Ordering::Release);
            }
            Err(_) => {
                self.respond(&Response::Error {
                    id: 0,
                    error: ServeError::Malformed,
                });
                self.dead = true;
            }
        }
    }

    fn respond(&self, response: &Response) {
        Reply::Tcp(Arc::clone(&self.writer)).send(response);
    }
}

/// Accepts connections until shutdown and gives each one a reader
/// thread in `s`. The [`POLL_TICK`] sleep paces only new connections:
/// requests on open ones are read by their blocking readers. Returns
/// only after every reader has stopped, so no push can race the
/// queue's close.
fn acceptor_loop<'scope, 'env>(
    s: &'scope Scope<'scope, 'env>,
    listener: &TcpListener,
    queue: &'env RunQueue<Job>,
    shutdown: &'env AtomicBool,
) {
    let _ = listener.set_nonblocking(true);
    let mut readers: Vec<ScopedJoinHandle<'scope, ()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            // A socket that refuses its options is dropped, which closes
            // it; the client sees the connection end.
            Ok((stream, _)) => {
                if let Ok(conn) = Conn::open(stream) {
                    readers.retain(|r| !r.is_finished());
                    readers.push(s.spawn(move || conn.run(queue, shutdown)));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
            Err(_) => break,
        }
    }
    // Readers see the flag within READ_TIMEOUT.
    for reader in readers {
        let _ = reader.join();
    }
}

/// Runs the service: spawns `cfg.workers` workers (and, when `cfg.bind`
/// is set, a TCP acceptor that starts a reader per connection), calls
/// `f` with the [`ServiceHandle`], then drains — stopping intake,
/// closing the queue, finishing every queued job, joining all threads —
/// and reports.
///
/// The daemon passes `|h| h.wait_shutdown()` as `f`; benchmarks pass
/// their load loop. Everything `f` submitted before returning is
/// answered before [`serve`] returns.
///
/// # Errors
///
/// Binding the TCP listener is the only fallible setup step.
pub fn serve<R>(
    fleet: &Fleet,
    cfg: &ServeConfig,
    f: impl FnOnce(&ServiceHandle) -> R,
) -> Result<(R, ServiceReport), String> {
    let workers = par::resolve_threads(cfg.workers).max(1);
    let listener = match &cfg.bind {
        Some(addr) => Some(TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?),
        None => None,
    };
    let addr = listener.as_ref().and_then(|l| l.local_addr().ok());
    let queue = Arc::new(RunQueue::new(workers));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = ServiceHandle {
        queue: Arc::clone(&queue),
        shutdown: Arc::clone(&shutdown),
        addr,
    };
    let mut report = ServiceReport::default();
    let out = std::thread::scope(|s| {
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queue = Arc::clone(&queue);
            worker_handles.push(s.spawn(move || worker_loop(fleet, &queue, w)));
        }
        let acceptor = listener.as_ref().map(|l| {
            let (queue, shutdown) = (&*queue, &*shutdown);
            s.spawn(move || acceptor_loop(s, l, queue, shutdown))
        });
        let out = f(&handle);
        // Drain: stop intake (the acceptor returns once its readers
        // have), close the queue, finish the backlog, join the workers.
        shutdown.store(true, Ordering::Release);
        if let Some(a) = acceptor {
            let _ = a.join();
        }
        queue.close();
        report.workers = worker_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        out
    });
    report.drained_clean = queue.pending() == 0;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RegionSpec;
    use rtr_eval::baseline::Baseline;
    use rtr_topology::generate;

    fn grid_fleet() -> Fleet {
        let topo = generate::grid(5, 5, 100.0);
        Fleet::from_baselines(vec![("grid5".into(), Arc::new(Baseline::new(topo)))])
    }

    /// A request whose region kills the grid's center node: initiator 11
    /// (left of center) loses its link toward 12.
    fn center_failure_request(fleet: &Fleet, id: u64) -> RecoverRequest {
        let entry = fleet.get(0).unwrap();
        let topo = entry.baseline().topo();
        let failed = topo.link_between(NodeId(11), NodeId(12)).unwrap();
        RecoverRequest {
            id,
            topo: 0,
            region: RegionSpec {
                cx: 200.0,
                cy: 200.0,
                radius: 50.0,
            },
            initiator: 11,
            failed_link: failed.0,
            scheme: 0,
            dests: vec![13, 7, 17],
        }
    }

    #[test]
    fn answer_rejects_bad_requests_without_panicking() {
        let fleet = grid_fleet();
        let pool = SessionPool::new();
        let good = center_failure_request(&fleet, 1);

        let mut bad_topo = good.clone();
        bad_topo.topo = 7;
        assert!(matches!(
            answer(&fleet, &pool, &bad_topo),
            Response::Error {
                error: ServeError::UnknownTopology,
                ..
            }
        ));

        let mut bad_region = good.clone();
        bad_region.region.radius = f64::NAN;
        assert!(matches!(
            answer(&fleet, &pool, &bad_region),
            Response::Error {
                error: ServeError::BadRegion,
                ..
            }
        ));

        let mut bad_id = good.clone();
        bad_id.dests.push(10_000);
        assert!(matches!(
            answer(&fleet, &pool, &bad_id),
            Response::Error {
                error: ServeError::BadId,
                ..
            }
        ));

        // A live link is not a valid failed default link: phase 1 refuses.
        let mut live_link = good.clone();
        let topo = fleet.get(0).unwrap().baseline().topo();
        live_link.failed_link = topo.link_between(NodeId(0), NodeId(1)).unwrap().0;
        assert!(matches!(
            answer(&fleet, &pool, &live_link),
            Response::Error {
                error: ServeError::Phase1Rejected,
                ..
            }
        ));
    }

    #[test]
    fn scheme_byte_selects_comparator_backends() {
        let fleet = grid_fleet();
        let pool = SessionPool::new();
        let base = center_failure_request(&fleet, 1);

        // Every comparator code answers; FCP always delivers.
        for code in 1u8..=4 {
            let mut req = base.clone();
            req.scheme = code;
            match answer(&fleet, &pool, &req) {
                Response::Recover(r) => {
                    assert_eq!(r.results.len(), 3, "scheme {code}");
                    assert!(
                        r.results.iter().all(|d| d.route.first() == Some(&11)),
                        "scheme {code}"
                    );
                    if code == 1 {
                        assert!(r.results.iter().all(|d| d.outcome == Outcome::Delivered));
                    }
                }
                other => panic!("scheme {code}: unexpected {other:?}"),
            }
        }

        // Unknown codes are a typed error, not a crash or a fallback.
        let mut unknown = base.clone();
        unknown.scheme = 99;
        assert!(matches!(
            answer(&fleet, &pool, &unknown),
            Response::Error {
                error: ServeError::UnknownScheme,
                ..
            }
        ));

        // Comparators enforce the same phase-1 precondition as RTR: a
        // live failed link is rejected, not routed around.
        let mut live = base.clone();
        live.scheme = 1;
        let topo = fleet.get(0).unwrap().baseline().topo();
        live.failed_link = topo.link_between(NodeId(0), NodeId(1)).unwrap().0;
        assert!(matches!(
            answer(&fleet, &pool, &live),
            Response::Error {
                error: ServeError::Phase1Rejected,
                ..
            }
        ));
    }

    #[test]
    fn serve_answers_inproc_and_drains_clean() {
        let fleet = grid_fleet();
        let cfg = ServeConfig {
            workers: 2,
            bind: None,
        };
        let n = 20u64;
        let ((), report) = serve(&fleet, &cfg, |h| {
            let (tx, rx) = mpsc::channel();
            for id in 0..n {
                assert!(h.submit(center_failure_request(&fleet, id), tx.clone()));
            }
            drop(tx);
            let mut seen = 0;
            while seen < n {
                match rx.recv().unwrap() {
                    Response::Recover(r) => {
                        assert_eq!(r.results.len(), 3);
                        assert!(r.results.iter().all(|d| d.outcome == Outcome::Delivered));
                        assert!(r.results.iter().all(|d| d.route.first() == Some(&11)));
                        seen += 1;
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
        })
        .unwrap();
        assert!(report.drained_clean);
        assert_eq!(report.jobs_completed(), n);
        assert_eq!(report.workers.len(), 2);
    }

    #[test]
    fn pending_jobs_are_answered_after_shutdown() {
        // Submit, request shutdown immediately, and return: the drain
        // must still answer everything.
        let fleet = grid_fleet();
        let cfg = ServeConfig {
            workers: 1,
            bind: None,
        };
        let (rx, report) = serve(&fleet, &cfg, |h| {
            let (tx, rx) = mpsc::channel();
            for id in 0..10 {
                assert!(h.submit(center_failure_request(&fleet, id), tx.clone()));
            }
            h.shutdown();
            rx
        })
        .unwrap();
        assert!(report.drained_clean);
        let answered = rx.try_iter().count();
        assert_eq!(answered, 10, "drain answered every queued job");
    }

    #[test]
    fn submissions_after_drain_are_rejected() {
        let fleet = grid_fleet();
        let cfg = ServeConfig {
            workers: 1,
            bind: None,
        };
        let handle_out = serve(&fleet, &cfg, |_h| ()).unwrap();
        // serve returned: its queue is closed; a retained handle would
        // refuse. (We can't retain the handle past serve — lifetime —
        // so assert the report instead.)
        assert!(handle_out.1.drained_clean);
    }
}
