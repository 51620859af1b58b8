//! `serve-tcp-open`: the daemon's service over one TCP loopback
//! connection, with open-loop Poisson arrivals of RTR (scheme 0)
//! requests on AS4323 at a fixed rate below the knee.

use crate::gen::{self, GenRun};
use crate::layers::{self, PhaseCounts};
use crate::stats::Samples;
use crate::trace::Recorder;
use crate::{median_of, Outcome, SETUP_REPEATS, THREADS};
use rtr_core::{
    collect_failure_info_with, source_route_walk, DeliveryOutcome, RecoveryComputer,
    RecoveryScratch, SessionPool, SweepKernel,
};
use rtr_serve::load::{build_mix, TcpClient};
use rtr_serve::proto::{self, ServeError};
use rtr_serve::service::{answer, ServiceReport};
use rtr_serve::{
    serve, DestResult, Fleet, Outcome as Served, RecoverRequest, RecoverResponse, Request,
    Response, ServeConfig,
};
use rtr_topology::{FailureScenario, LinkId, NodeId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve-tcp-open";

/// Table II topology served.
const TOPO: &str = "AS4323";

/// Cases per class the request mix is drawn from.
const CASES_PER_CLASS: usize = 2000;

/// Arrival rate, requests per second: well below the knee, so the wire
/// codec, acceptor and queue dominate the sojourn.
const QPS: f64 = 1000.0;

/// Worker threads of the service under test.
pub const WORKERS: usize = 1;

struct Setup {
    fleet: Fleet,
    mix: Vec<RecoverRequest>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let fleet = Fleet::from_profiles(&[TOPO.to_string()], THREADS)?;
    let entry = fleet.get(0).ok_or("empty fleet")?;
    let mix = build_mix(0, TOPO, entry.baseline(), CASES_PER_CLASS, seed);
    Ok(Setup { fleet, mix })
}

/// Runs the generator against a live service for `window`, checking
/// every response against `oracle`.
fn drive(
    s: &Setup,
    oracle: &[Response],
    seed: u64,
    window: Duration,
) -> Result<(GenRun, ServiceReport), String> {
    let verify = |idx: usize, resp: &Response| oracle.get(idx) == Some(&normalized(resp.clone()));
    let cfg = ServeConfig {
        workers: WORKERS,
        bind: Some("127.0.0.1:0".to_string()),
    };
    let (run, report) = serve(&s.fleet, &cfg, |h| {
        let addr = h.addr().ok_or("service did not bind")?;
        let mut client = TcpClient::connect(&addr.to_string())?;
        gen::drive(&mut client, &s.mix, QPS, seed, window, &verify)
    })?;
    Ok((run?, report))
}

/// The oracle: each mix entry answered by `service::answer` on a fresh
/// `SessionPool`, id and service time zeroed.
fn expected(s: &Setup) -> Vec<Response> {
    s.mix
        .iter()
        .map(|req| normalized(answer(&s.fleet, &SessionPool::new(), req)))
        .collect()
}

fn normalized(mut resp: Response) -> Response {
    match &mut resp {
        Response::Recover(r) => {
            r.id = 0;
            r.service_micros = 0;
        }
        Response::Error { id, .. } => *id = 0,
        Response::ShuttingDown => {}
    }
    resp
}

/// Failures of one generator run: errors, refusals, undrained requests,
/// responses that differ from the oracle, and an unclean drain.
fn failures(run: &GenRun, report: &ServiceReport) -> u64 {
    run.errors + run.refused + run.undrained + run.mismatches + u64::from(!report.drained_clean)
}

/// The timed run.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut last = None;
    let setup_s = median_of(SETUP_REPEATS, || last = Some(setup(seed)));
    let s = last.ok_or("no set-up ran")??;
    let oracle = expected(&s);
    let (run, report) = drive(&s, &oracle, seed, Duration::from_secs_f64(seconds))?;
    let failed = failures(&run, &report);
    let p50 = run
        .sojourn_us
        .quantile(0.50)
        .ok_or("too few samples for p50")?;
    let p99 = run
        .sojourn_us
        .quantile(0.99)
        .ok_or("too few samples for p99")?;
    // Capacity: requests per second of worker busy time, from the
    // service time each response reports. The wall-time rate is the
    // generator's offered rate and says only that nothing was shed.
    let busy_s = run.busy_us as f64 / 1e6;
    let per_s = run.answered as f64 / busy_s;
    let n = run.sojourn_us.len();
    let mut out = Outcome::new(run.submitted + run.refused, failed);
    out.end_to_end(setup_s, p50, p99, per_s);
    out.note(format!(
        "mix {} requests on {TOPO}, {WORKERS} worker, open loop at {QPS} requests/s over TCP",
        s.mix.len(),
    ));
    out.note(format!("sojourn_p50_us {p50:.1} us (n={n})"));
    out.note(format!(
        "sojourn_p99_us {p99:.1} us (n={n}, {} beyond)",
        n - (0.99 * n as f64).ceil() as usize
    ));
    out.note(format!(
        "capacity {per_s:.1} requests/s of worker busy time ({busy_s:.3} s busy)"
    ));
    out.note(format!(
        "recoveries_per_s {:.1} 1/s of worker busy time ({} recoveries)",
        run.recoveries as f64 / busy_s,
        run.recoveries
    ));
    out.note(format!(
        "offered rate {:.1} requests/s of wall time",
        run.answered as f64 / run.elapsed.as_secs_f64()
    ));
    Ok(out)
}

/// Counts gathered while replaying requests.
#[derive(Debug, Default)]
struct ReplayCounts {
    phases: PhaseCounts,
    /// Request frame bytes, summed.
    request_bytes: u64,
    /// Response frame bytes, summed.
    response_bytes: u64,
    /// Replayed answers that differ from the oracle.
    mismatches: u64,
}

/// `service::answer` for scheme 0, rebuilt from the public functions it
/// calls so each call is a span. Produces the identical response.
fn answer_traced(
    rec: &mut Recorder,
    fleet: &Fleet,
    scratch: &mut RecoveryScratch,
    req: &RecoverRequest,
    counts: &mut ReplayCounts,
) -> Response {
    let reject = |error| Response::Error { id: req.id, error };
    let Some(entry) = fleet.get(req.topo) else {
        return reject(ServeError::UnknownTopology);
    };
    let Some(scenario) = rec.span("fleet.scenario", |_| entry.scenario(&req.region)) else {
        return reject(ServeError::BadRegion);
    };
    let base = entry.baseline();
    let topo = base.topo();
    let ids_ok = (req.initiator as usize) < topo.node_count()
        && (req.failed_link as usize) < topo.link_count()
        && req.dests.iter().all(|&d| (d as usize) < topo.node_count());
    if !ids_ok || req.scheme != 0 {
        return reject(ServeError::BadId);
    }
    let initiator = NodeId(req.initiator);
    let phase1 = rec.span("phase1.sweep", |_| {
        collect_failure_info_with(
            topo,
            base.crosslinks(),
            scenario.as_ref(),
            initiator,
            LinkId(req.failed_link),
            SweepKernel::default(),
        )
    });
    let Ok(phase1) = phase1 else {
        return reject(ServeError::Phase1Rejected);
    };
    let mut computer = rec.span("phase2.spt", |_| {
        RecoveryComputer::new_in(topo, scenario.as_ref(), initiator, &phase1.header, scratch)
    });
    counts.phases.session(&phase1, &computer);
    let mut results = Vec::with_capacity(req.dests.len());
    for &dest in &req.dests {
        let path = rec.span("phase2.path", |_| computer.recovery_path(NodeId(dest)));
        let (outcome, _) = rec.span("phase2.walk", |_| {
            source_route_walk(topo, scenario.as_ref(), initiator, path.as_ref())
        });
        counts.phases.dest(outcome == DeliveryOutcome::Delivered);
        let outcome = match outcome {
            DeliveryOutcome::Delivered => Served::Delivered,
            DeliveryOutcome::HitFailure { at_link } => Served::HitFailure { at_link: at_link.0 },
            DeliveryOutcome::NoPath => Served::NoPath,
        };
        let (cost, route) = path.as_ref().map_or((0, Vec::new()), |p| {
            (p.cost(), p.nodes().iter().map(|n| n.0).collect())
        });
        results.push(DestResult {
            dest,
            outcome,
            cost,
            route,
        });
    }
    computer.recycle(scratch);
    Response::Recover(RecoverResponse {
        id: req.id,
        results,
        service_micros: 0,
    })
}

/// Replays `passes` passes over the mix as the acceptor and worker
/// handle them: decode the request frame, answer, encode the response.
/// Every answer is checked against the oracle.
fn replay(
    rec: &mut Recorder,
    s: &Setup,
    oracle: &[Response],
    wires: &[Vec<u8>],
    passes: usize,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let mut scratch = RecoveryScratch::default();
    let mut id = 0u64;
    for _ in 0..passes {
        for (idx, wire) in wires.iter().enumerate() {
            id += 1;
            rec.request(id);
            rec.enter("request");
            counts.request_bytes += wire.len() as u64;
            let Ok(Request::Recover(req)) =
                rec.span("proto.decode", |_| proto::decode_request(wire))
            else {
                counts.mismatches += 1;
                rec.exit();
                continue;
            };
            let resp = rec.span("service.answer", |rec| {
                answer_traced(rec, &s.fleet, &mut scratch, &req, &mut counts)
            });
            let body = rec.span("proto.encode", |_| proto::encode_response(&resp));
            counts.response_bytes += body.len() as u64;
            rec.exit();
            if oracle.get(idx) != Some(&normalized(resp)) {
                counts.mismatches += 1;
            }
        }
    }
    counts
}

/// Requests replayed: enough for a p99 with
/// [`crate::stats::MIN_BEYOND`] samples beyond it.
const REPLAY_REQUESTS: usize = 1200;

/// Per-layer metrics of `serve-tcp-open`; the live service runs for
/// `seconds`.
pub fn traced(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let s = setup(seed)?;
    let entry = s.fleet.get(0).ok_or("empty fleet")?;
    let oracle = expected(&s);

    // Live service: queue wait, depth and steals, generator lateness.
    let (run, report) = drive(&s, &oracle, seed, Duration::from_secs_f64(seconds))?;
    out.add_failed(run.submitted + run.refused, failures(&run, &report));
    let m = |name: &str| format!("{NAME}.{name}");
    out.quantile(m("queue.wait_p50_us"), &run.wait_us, 0.50, "us");
    out.quantile(m("queue.wait_p99_us"), &run.wait_us, 0.99, "us");
    // The service's own depth samples sit in power-of-two histogram
    // buckets; the generator's count of outstanding requests at each
    // submit is exact.
    out.quantile(m("queue.depth_p99"), &run.in_flight, 0.99, "count");
    out.metric(m("queue.steals"), report.steals() as f64, "count");
    out.quantile(m("loadgen.late_p99_us"), &run.late_us, 0.99, "us");

    // Replay with spans.
    let wires: Vec<Vec<u8>> = s
        .mix
        .iter()
        .map(|r| proto::encode_request(&Request::Recover(r.clone())))
        .collect();
    let passes = REPLAY_REQUESTS.div_ceil(s.mix.len());
    let misses_before = entry.cached_scenarios();
    let (rec, counts, overhead_pct) =
        crate::overhead(|| (), |rec, ()| replay(rec, &s, &oracle, &wires, passes));
    let misses = entry.cached_scenarios() - misses_before;
    out.add_failed(counts.phases.dests, counts.mismatches);
    crate::save_spans(&rec, NAME);
    let p = rec.profile();
    let requests = (passes * s.mix.len()) as f64;
    out.metric(m("proto.decode_us"), p.total("proto.decode").mean(), "us");
    out.metric(m("proto.encode_us"), p.total("proto.encode").mean(), "us");
    out.metric(
        m("proto.request_bytes"),
        counts.request_bytes as f64 / requests,
        "bytes",
    );
    out.metric(
        m("proto.response_bytes"),
        counts.response_bytes as f64 / requests,
        "bytes",
    );
    let answer_us = p.total("service.answer");
    out.quantile(m("service.answer_p50_us"), &answer_us, 0.50, "us");
    out.quantile(m("service.answer_p99_us"), &answer_us, 0.99, "us");
    out.metric(
        m("service.residual_us"),
        p.self_time("service.answer").mean(),
        "us",
    );
    out.metric(
        m("service.explained_pct"),
        p.explained_pct("service.answer"),
        "pct",
    );
    out.metric(
        m("fleet.scenario_us"),
        p.total("fleet.scenario").mean(),
        "us",
    );
    out.metric(m("fleet.scenario_misses"), misses as f64, "count");
    layers::phase_metrics(out, NAME, &p, &counts.phases);

    // Substrate build and scenario construction on the served topology.
    let topo = entry.baseline().topo();
    layers::substrate_metrics(out, NAME, &[topo]);
    let mut regions = BTreeMap::new();
    for r in &s.mix {
        regions.entry(r.region.key()).or_insert(r.region);
    }
    let mut scenario_us = Samples::default();
    for spec in regions.values() {
        if let Some(region) = spec.to_region() {
            let t = Instant::now();
            std::hint::black_box(FailureScenario::from_region(topo, &region));
            scenario_us.push_us(t.elapsed());
        }
    }
    out.metric(m("topology.scenario_us"), scenario_us.mean(), "us");
    out.metric(m("trace.overhead_pct"), overhead_pct, "pct");
    Ok(())
}
