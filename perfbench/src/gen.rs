//! The benchmark's single-threaded open-loop load generator, driving the
//! service through the public `Transport` trait (`TcpClient`).
//!
//! Arrivals follow a seeded Poisson schedule, and each request's sojourn
//! runs from its *due* time, not from when the generator got round to
//! sending it, so a stall in the generator or the service counts against
//! every request it delays. How late the generator ran is reported
//! separately. Between events the generator sleeps until the next due
//! time, capped at [`POLL_MAX`] so responses are stamped within that long
//! of their arrival.

use crate::stats::Samples;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_serve::load::Transport;
use rtr_serve::{RecoverRequest, Response};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Longest sleep between polls for responses.
const POLL_MAX: Duration = Duration::from_micros(50);

/// How long after the window in-flight requests may still take.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// What one generator run saw.
#[derive(Debug, Default)]
pub struct GenRun {
    /// Due time to response, per answered request, microseconds.
    pub sojourn_us: Samples,
    /// Sojourn minus the worker-side service time the response reports:
    /// time spent outside the worker, microseconds.
    pub wait_us: Samples,
    /// Submit time minus due time, microseconds.
    pub late_us: Samples,
    /// Requests still outstanding (queued, in service or in transit)
    /// when each request is submitted.
    pub in_flight: Samples,
    /// Worker-side service time the responses report, summed,
    /// microseconds.
    pub busy_us: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Submissions the service refused.
    pub refused: u64,
    /// Error responses.
    pub errors: u64,
    /// Requests still unanswered when the drain timed out.
    pub undrained: u64,
    /// Requests answered.
    pub answered: u64,
    /// Responses that differ from the oracle.
    pub mismatches: u64,
    /// Destination recoveries answered.
    pub recoveries: u64,
    /// Wall time from the first due time to the last response.
    pub elapsed: Duration,
}

/// Drives `transport` with `mix` (cycled, with fresh ids) at Poisson
/// rate `qps` drawn from `seed` for `window`, then waits for every
/// outstanding response. `verify(i, response)` checks a response against
/// the oracle for mix entry `i`.
pub fn drive(
    transport: &mut impl Transport,
    mix: &[RecoverRequest],
    qps: f64,
    seed: u64,
    window: Duration,
    verify: &dyn Fn(usize, &Response) -> bool,
) -> Result<GenRun, String> {
    if mix.is_empty() {
        return Err("empty request mix".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run = GenRun::default();
    let mut pending: HashMap<u64, (Duration, usize)> = HashMap::new();
    let mut responses = Vec::new();
    let mut next_due = Duration::ZERO;
    let mut issued = 0usize;
    let start = Instant::now();
    loop {
        // Submit everything that is due.
        while run.refused == 0 && next_due < window && start.elapsed() >= next_due {
            let idx = issued % mix.len();
            let mut req = mix[idx].clone();
            issued += 1;
            req.id = issued as u64;
            let id = req.id;
            let sent = start.elapsed();
            if transport.submit(req)? {
                run.submitted += 1;
                run.late_us.push_us(sent.saturating_sub(next_due));
                run.in_flight.push(pending.len() as f64);
                pending.insert(id, (next_due, idx));
            } else {
                run.refused += 1;
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            next_due += Duration::from_secs_f64(-(1.0 - u).ln() / qps);
        }
        let submitting = run.refused == 0 && next_due < window;

        transport.poll(&mut responses)?;
        let arrived = start.elapsed();
        let got_any = !responses.is_empty();
        for resp in responses.drain(..) {
            match &resp {
                Response::Recover(r) => {
                    if let Some((due, idx)) = pending.remove(&r.id) {
                        let sojourn = arrived.saturating_sub(due);
                        run.sojourn_us.push_us(sojourn);
                        run.wait_us
                            .push(sojourn.as_secs_f64() * 1e6 - r.service_micros as f64);
                        run.busy_us += r.service_micros;
                        run.recoveries += r.results.len() as u64;
                        run.answered += 1;
                        run.mismatches += u64::from(!verify(idx, &resp));
                    }
                }
                Response::Error { id, .. } => {
                    pending.remove(id);
                    run.errors += 1;
                }
                Response::ShuttingDown => {}
            }
        }
        if !submitting && pending.is_empty() {
            break;
        }
        if arrived >= window + DRAIN_TIMEOUT {
            run.undrained = pending.len() as u64;
            break;
        }
        let wake = if submitting {
            next_due.min(arrived + POLL_MAX)
        } else if got_any {
            arrived
        } else {
            arrived + POLL_MAX
        };
        let now = start.elapsed();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    run.elapsed = start.elapsed();
    Ok(run)
}
