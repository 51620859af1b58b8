//! The open-loop load generator.
//!
//! Arrivals follow a Poisson process at a target QPS — inter-arrival
//! gaps are drawn from a seeded exponential, so the schedule never
//! waits for responses (*open* loop: latency cannot throttle offered
//! load, which is what makes tail latency honest). A second mode,
//! [`LoadMode::Saturate`], keeps a fixed number of requests in flight
//! to measure sustained recoveries/sec at the service's capacity.
//!
//! The request mix is deterministic: [`build_mix`] derives it from the
//! same seeded workload generator the `rtr-eval` driver uses and emits
//! one request per recovery session of
//! [`rtr_eval::testcase::sessions`] — the driver's own layout. That
//! shared layout is what lets `tests/serve_matches_driver.rs` demand
//! byte-identical results.
//!
//! The generator itself is single-threaded: it submits on schedule and
//! drains completions with non-blocking polls, so all service threads
//! stay confined to [`crate::service`].

use crate::clock::Stamp;
use crate::proto::{self, FrameBuf, Outcome, RecoverRequest, RegionSpec, Request, Response};
use crate::service::ServiceHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_eval::baseline::Baseline;
use rtr_eval::config::ExperimentConfig;
use rtr_eval::testcase::{generate_workload_shared, sessions, TestCase};
use rtr_obs::Histogram;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// How the generator paces submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Poisson arrivals at this rate (requests per second), regardless
    /// of how fast the service answers.
    OpenLoop {
        /// Target arrival rate in requests per second (> 0).
        target_qps: f64,
    },
    /// Keep this many requests in flight (closed loop) — the
    /// saturation-throughput probe.
    Saturate {
        /// In-flight target (> 0).
        inflight: usize,
    },
}

/// Load-run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Pacing mode.
    pub mode: LoadMode,
    /// Submission window in microseconds.
    pub duration_micros: u64,
    /// Extra time after the window to wait for in-flight responses
    /// before giving up (`drained_clean` turns false).
    pub drain_timeout_micros: u64,
    /// Seed of the arrival-schedule RNG.
    pub seed: u64,
}

impl LoadConfig {
    /// An open-loop run at `target_qps` for `duration_secs`.
    #[must_use]
    pub fn open_loop(target_qps: f64, duration_secs: f64, seed: u64) -> Self {
        LoadConfig {
            mode: LoadMode::OpenLoop { target_qps },
            duration_micros: (duration_secs * 1e6) as u64,
            drain_timeout_micros: 30_000_000,
            seed,
        }
    }

    /// A saturation run keeping `inflight` requests outstanding.
    #[must_use]
    pub fn saturate(inflight: usize, duration_secs: f64, seed: u64) -> Self {
        LoadConfig {
            mode: LoadMode::Saturate { inflight },
            duration_micros: (duration_secs * 1e6) as u64,
            drain_timeout_micros: 30_000_000,
            seed,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests submitted.
    pub offered: u64,
    /// Recover responses received.
    pub completed: u64,
    /// Error responses received.
    pub errors: u64,
    /// Submissions the service rejected (draining).
    pub rejected: u64,
    /// Destination recoveries answered (sum of per-request results).
    pub recoveries: u64,
    /// Recoveries whose packet reached its destination.
    pub delivered: u64,
    /// End-to-end time from submission to response, microseconds.
    pub sojourn_micros: Histogram,
    /// Worker-side handling time, microseconds.
    pub service_micros: Histogram,
    /// Wall time of the whole run including the drain, microseconds.
    pub elapsed_micros: u64,
    /// False when the drain timed out with requests still in flight.
    pub drained_clean: bool,
}

impl LoadReport {
    /// Destination recoveries per second of wall time.
    #[must_use]
    pub fn recoveries_per_sec(&self) -> f64 {
        if self.elapsed_micros == 0 {
            0.0
        } else {
            self.recoveries as f64 / (self.elapsed_micros as f64 / 1e6)
        }
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "load: {} offered, {} completed, {} recoveries ({:.0}/s), \
             {} delivered, {} errors, drain {}",
            self.offered,
            self.completed,
            self.recoveries,
            self.recoveries_per_sec(),
            self.delivered,
            self.errors,
            if self.drained_clean {
                "clean"
            } else {
                "TIMED OUT"
            },
        )?;
        writeln!(
            f,
            "  sojourn p50/p99/p999: {}/{}/{} us",
            self.sojourn_micros.quantile(0.50).unwrap_or(0),
            self.sojourn_micros.quantile(0.99).unwrap_or(0),
            self.sojourn_micros.quantile(0.999).unwrap_or(0),
        )?;
        write!(
            f,
            "  service p50/p99/p999: {}/{}/{} us",
            self.service_micros.quantile(0.50).unwrap_or(0),
            self.service_micros.quantile(0.99).unwrap_or(0),
            self.service_micros.quantile(0.999).unwrap_or(0),
        )
    }
}

/// Emits one request per recovery session of one case class, in the
/// driver's layout ([`sessions`]: one
/// [`RtrSession`](rtr_core::RtrSession) per initiator per class, started
/// on the initiator's first failed link).
fn requests_for_class(
    out: &mut Vec<RecoverRequest>,
    topo_index: u16,
    spec: RegionSpec,
    cases: &[TestCase],
) {
    for (initiator, failed_link, group) in sessions(cases) {
        out.push(RecoverRequest {
            id: out.len() as u64 + 1,
            topo: topo_index,
            region: spec,
            initiator: initiator.0,
            failed_link: failed_link.0,
            scheme: 0,
            dests: group.iter().map(|c| c.dest.0).collect(),
        });
    }
}

/// Builds the deterministic request mix for one topology: a seeded
/// workload of `cases_per_class` recoverable and irrecoverable cases,
/// regrouped into per-session requests. Two calls with the same
/// arguments produce identical mixes.
#[must_use]
pub fn build_mix(
    topo_index: u16,
    name: &str,
    baseline: &Arc<Baseline>,
    cases_per_class: usize,
    seed: u64,
) -> Vec<RecoverRequest> {
    let cfg = ExperimentConfig::quick()
        .with_cases(cases_per_class)
        .with_threads(1);
    let workload = generate_workload_shared(name, Arc::clone(baseline), &cfg, seed);
    let mut out = Vec::new();
    for sc in &workload.scenarios {
        let Some(spec) = RegionSpec::from_region(&sc.region) else {
            continue;
        };
        requests_for_class(&mut out, topo_index, spec, &sc.recoverable);
        requests_for_class(&mut out, topo_index, spec, &sc.irrecoverable);
    }
    out
}

/// A transport the load loop can drive: submit a request, poll for
/// whatever responses have arrived.
pub trait Transport {
    /// Submits one request. `Ok(false)` means the service refused it
    /// (draining).
    ///
    /// # Errors
    ///
    /// Transport failure (e.g. a dropped TCP connection).
    fn submit(&mut self, req: RecoverRequest) -> Result<bool, String>;

    /// Appends every response that has arrived since the last poll.
    ///
    /// # Errors
    ///
    /// Transport failure.
    fn poll(&mut self, out: &mut Vec<Response>) -> Result<(), String>;
}

/// The zero-syscall in-process transport over a [`ServiceHandle`].
#[derive(Debug)]
pub struct InProc<'h> {
    handle: &'h ServiceHandle,
    tx: mpsc::Sender<Response>,
    rx: mpsc::Receiver<Response>,
}

impl<'h> InProc<'h> {
    /// A transport submitting into `handle`'s queue.
    #[must_use]
    pub fn new(handle: &'h ServiceHandle) -> Self {
        let (tx, rx) = mpsc::channel();
        InProc { handle, tx, rx }
    }
}

impl Transport for InProc<'_> {
    fn submit(&mut self, req: RecoverRequest) -> Result<bool, String> {
        Ok(self.handle.submit(req, self.tx.clone()))
    }

    fn poll(&mut self, out: &mut Vec<Response>) -> Result<(), String> {
        out.extend(self.rx.try_iter());
        Ok(())
    }
}

/// A framed TCP client: `TCP_NODELAY`, non-blocking reads so
/// [`Transport::poll`] never waits, and writes retried on `WouldBlock`.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    frames: FrameBuf,
}

impl TcpClient {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failure, as a message.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Every frame goes out in one write; Nagle would only hold it.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(TcpClient {
            stream,
            frames: FrameBuf::new(),
        })
    }

    /// Sends a [`Request::Shutdown`] frame, asking the daemon to drain
    /// and exit.
    ///
    /// # Errors
    ///
    /// Write failure, as a message.
    pub fn send_shutdown(&mut self) -> Result<(), String> {
        proto::write_frame(&mut self.stream, &proto::encode_request(&Request::Shutdown))
            .map_err(|e| format!("send shutdown: {e}"))
    }

    /// Waits up to `timeout_micros` for the daemon's
    /// [`Response::ShuttingDown`] acknowledgement.
    pub fn wait_shutting_down(&mut self, timeout_micros: u64) -> bool {
        let start = Stamp::now();
        let mut responses = Vec::new();
        while start.elapsed_micros() < timeout_micros {
            if self.poll(&mut responses).is_err() {
                // The daemon may close the connection right after the
                // acknowledgement; whatever was buffered still counts.
                return responses.contains(&Response::ShuttingDown);
            }
            if responses.contains(&Response::ShuttingDown) {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        false
    }
}

impl Transport for TcpClient {
    fn submit(&mut self, req: RecoverRequest) -> Result<bool, String> {
        proto::write_frame(
            &mut self.stream,
            &proto::encode_request(&Request::Recover(req)),
        )
        .map_err(|e| format!("send: {e}"))?;
        Ok(true)
    }

    /// On a closed connection, the frames that arrived before the close
    /// are still appended before the error is returned.
    fn poll(&mut self, out: &mut Vec<Response>) -> Result<(), String> {
        let mut scratch = [0u8; 4096];
        let closed = loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => break true,
                Ok(n) => self.frames.extend(scratch.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        loop {
            match self.frames.next_frame() {
                Ok(None) if closed => return Err("connection closed".into()),
                Ok(None) => return Ok(()),
                Ok(Some(body)) => out
                    .push(proto::decode_response(&body).map_err(|e| format!("bad response: {e}"))?),
                Err(e) => return Err(format!("bad frame: {e}")),
            }
        }
    }
}

/// Drives one load run over `transport`, cycling through `mix` with
/// fresh sequential ids.
///
/// # Errors
///
/// An empty or invalid mix/config, or a transport failure mid-run.
pub fn run_load(
    transport: &mut impl Transport,
    mix: &[RecoverRequest],
    cfg: &LoadConfig,
) -> Result<LoadReport, String> {
    if mix.is_empty() {
        return Err("empty request mix".into());
    }
    if let LoadMode::OpenLoop { target_qps } = cfg.mode {
        if target_qps <= 0.0 || !target_qps.is_finite() {
            return Err(format!("target_qps {target_qps} must be finite and > 0"));
        }
    }
    if let LoadMode::Saturate { inflight } = cfg.mode {
        if inflight == 0 {
            return Err("inflight must be > 0".into());
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = LoadReport::default();
    let mut in_flight: BTreeMap<u64, u64> = BTreeMap::new();
    let mut responses: Vec<Response> = Vec::new();
    let mut next_id: u64 = 1;
    let mut mix_idx: usize = 0;
    let mut next_arrival: f64 = 0.0;
    let mut refused = false;
    let start = Stamp::now();
    loop {
        let now = start.elapsed_micros();
        let mut submit_one = |in_flight: &mut BTreeMap<u64, u64>,
                              report: &mut LoadReport,
                              refused: &mut bool|
         -> Result<(), String> {
            let mut req = mix.get(mix_idx).cloned().unwrap_or_else(|| {
                // Unreachable (mix_idx wraps below len); typed fallback
                // keeps this total.
                RecoverRequest {
                    id: 0,
                    topo: 0,
                    region: RegionSpec {
                        cx: 0.0,
                        cy: 0.0,
                        radius: 0.0,
                    },
                    initiator: 0,
                    failed_link: 0,
                    scheme: 0,
                    dests: Vec::new(),
                }
            });
            req.id = next_id;
            if transport.submit(req)? {
                in_flight.insert(next_id, Stamp::now().micros_since(start));
                report.offered += 1;
            } else {
                report.rejected += 1;
                *refused = true;
            }
            next_id += 1;
            mix_idx = (mix_idx + 1) % mix.len();
            Ok(())
        };
        if now < cfg.duration_micros && !refused {
            match cfg.mode {
                LoadMode::OpenLoop { target_qps } => {
                    while next_arrival <= now as f64 {
                        submit_one(&mut in_flight, &mut report, &mut refused)?;
                        let u: f64 = rng.gen_range(0.0..1.0);
                        next_arrival += -(1.0 - u).ln() / target_qps * 1e6;
                    }
                }
                LoadMode::Saturate { inflight } => {
                    while in_flight.len() < inflight && !refused {
                        submit_one(&mut in_flight, &mut report, &mut refused)?;
                    }
                }
            }
        }
        transport.poll(&mut responses)?;
        let arrived = Stamp::now().micros_since(start);
        for resp in responses.drain(..) {
            match resp {
                Response::Recover(r) => {
                    if let Some(submitted) = in_flight.remove(&r.id) {
                        report
                            .sojourn_micros
                            .record(arrived.saturating_sub(submitted));
                        report.service_micros.record(r.service_micros);
                        report.completed += 1;
                        report.recoveries += r.results.len() as u64;
                        report.delivered += r
                            .results
                            .iter()
                            .filter(|d| d.outcome == Outcome::Delivered)
                            .count() as u64;
                    }
                }
                Response::Error { id, .. } => {
                    in_flight.remove(&id);
                    report.errors += 1;
                }
                Response::ShuttingDown => {}
            }
        }
        if arrived >= cfg.duration_micros || refused {
            if in_flight.is_empty() {
                report.drained_clean = true;
                break;
            }
            if arrived >= cfg.duration_micros.saturating_add(cfg.drain_timeout_micros) {
                report.drained_clean = false;
                break;
            }
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    report.elapsed_micros = start.elapsed_micros();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, NodeId};

    fn grid_baseline() -> Arc<Baseline> {
        Arc::new(Baseline::new(generate::grid(5, 5, 400.0)))
    }

    #[test]
    fn mix_is_deterministic_and_sessions_are_well_formed() {
        let base = grid_baseline();
        let a = build_mix(0, "grid5", &base, 40, 7);
        let b = build_mix(0, "grid5", &base, 40, 7);
        assert_eq!(a, b, "same seed, same mix");
        assert!(!a.is_empty());
        let c = build_mix(0, "grid5", &base, 40, 8);
        assert_ne!(a, c, "different seed, different mix");
        for (i, req) in a.iter().enumerate() {
            assert_eq!(req.id, i as u64 + 1, "ids are sequential");
            assert!(!req.dests.is_empty());
            assert!(req.region.is_valid());
            // The failed link is incident to the initiator, as phase 1
            // requires.
            let topo = base.topo();
            assert!(topo
                .link(rtr_topology::LinkId(req.failed_link))
                .is_incident_to(NodeId(req.initiator)));
        }
    }

    #[test]
    fn mix_groups_match_the_driver_session_layout() {
        // Recompute the grouping directly from the workload and check
        // the mix agrees: one request per (scenario, class, initiator),
        // dests in case order.
        let base = grid_baseline();
        let cases = 40;
        let seed = 11;
        let mix = build_mix(0, "grid5", &base, cases, seed);
        let cfg = ExperimentConfig::quick().with_cases(cases).with_threads(1);
        let w = generate_workload_shared("grid5", Arc::clone(&base), &cfg, seed);
        let mut expected = 0;
        for sc in &w.scenarios {
            for class in [&sc.recoverable, &sc.irrecoverable] {
                let mut initiators: Vec<NodeId> = class.iter().map(|c| c.initiator).collect();
                initiators.sort_unstable();
                initiators.dedup();
                expected += initiators.len();
            }
        }
        assert_eq!(mix.len(), expected);
    }

    #[test]
    fn poll_keeps_the_frames_that_arrived_with_the_close() {
        // A peer that acknowledges and closes at once: the acknowledgement
        // and the end of stream reach the client in the same poll.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        proto::write_frame(&mut peer, &proto::encode_response(&Response::ShuttingDown)).unwrap();
        drop(peer);
        std::thread::sleep(Duration::from_millis(20));
        assert!(client.wait_shutting_down(5_000_000));
    }

    #[test]
    fn run_load_validates_config() {
        struct Never;
        impl Transport for Never {
            fn submit(&mut self, _req: RecoverRequest) -> Result<bool, String> {
                Ok(false)
            }
            fn poll(&mut self, _out: &mut Vec<Response>) -> Result<(), String> {
                Ok(())
            }
        }
        let mix = build_mix(0, "grid5", &grid_baseline(), 20, 1);
        assert!(run_load(&mut Never, &[], &LoadConfig::open_loop(10.0, 0.1, 1)).is_err());
        assert!(run_load(&mut Never, &mix, &LoadConfig::open_loop(0.0, 0.1, 1)).is_err());
        assert!(run_load(&mut Never, &mix, &LoadConfig::saturate(0, 0.1, 1)).is_err());
        // A service that refuses everything ends the run promptly.
        let report = run_load(&mut Never, &mix, &LoadConfig::saturate(4, 5.0, 1)).unwrap();
        assert!(report.rejected > 0);
        assert_eq!(report.offered, 0);
    }
}
