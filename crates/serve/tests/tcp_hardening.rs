//! The TCP path under hostile or lazy clients: a garbage frame, a client
//! that vanishes mid-frame, a client that connects and goes idle, and a
//! shutdown requested over the wire. Each run must return promptly and
//! drain clean; a hang fails the test through a watchdog instead of
//! stalling the suite.

use rtr_eval::baseline::Baseline;
use rtr_serve::load::build_mix;
use rtr_serve::proto::{self, FrameBuf, RecoverRequest, Request, Response, ServeError};
use rtr_serve::{serve, Fleet, ServeConfig, ServiceReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Longest any one serve run may take before the test calls it hung.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Read timeout on test sockets, so a missing reply fails a read
/// instead of blocking it forever.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// What one watched serve run produced.
struct Run<R> {
    out: R,
    report: ServiceReport,
    /// From the driving closure's return to `serve`'s return.
    drain: Duration,
}

/// Serves a 5×5 grid over loopback TCP on a thread of its own, driving
/// it with `f(addr, mix)`. Errors when `serve` fails or has not
/// returned within [`WATCHDOG`].
fn serve_tcp<R: Send + 'static>(
    workers: usize,
    f: impl FnOnce(SocketAddr, &[RecoverRequest]) -> R + Send + 'static,
) -> Result<Run<R>, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let baseline = Arc::new(Baseline::new(rtr_topology::generate::grid(5, 5, 100.0)));
        let mix = build_mix(0, "grid5", &baseline, 20, 3);
        let fleet = Fleet::from_baselines(vec![("grid5".to_string(), baseline)]);
        let cfg = ServeConfig {
            workers,
            bind: Some("127.0.0.1:0".to_string()),
        };
        let mut returned = None;
        let result = serve(&fleet, &cfg, |h| {
            let out = h.addr().map(|addr| f(addr, &mix));
            returned = Some(Instant::now());
            out
        });
        let drain = returned.map(|t| t.elapsed()).unwrap_or_default();
        let _ = tx.send(result.and_then(|(out, report)| {
            Ok(Run {
                out: out.ok_or("service did not bind")?,
                report,
                drain,
            })
        }));
    });
    rx.recv_timeout(WATCHDOG)
        .map_err(|_| format!("serve did not return within {WATCHDOG:?}"))?
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, req: &Request) -> Result<(), String> {
    proto::write_frame(stream, &proto::encode_request(req)).map_err(|e| format!("send: {e}"))
}

/// Reads the next response; `None` once the server closed the stream.
fn next_response(
    stream: &mut TcpStream,
    frames: &mut FrameBuf,
) -> Result<Option<Response>, String> {
    let mut scratch = [0u8; 4096];
    loop {
        if let Some(body) = frames.next_frame().map_err(|e| format!("frame: {e}"))? {
            return proto::decode_response(&body)
                .map(Some)
                .map_err(|e| format!("decode: {e}"));
        }
        match stream.read(&mut scratch) {
            Ok(0) => return Ok(None),
            Ok(n) => frames.extend(scratch.get(..n).unwrap_or(&[])),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// One request/response round trip; returns the answered id.
fn round_trip(stream: &mut TcpStream, req: &RecoverRequest) -> Result<u64, String> {
    send(stream, &Request::Recover(req.clone()))?;
    match next_response(stream, &mut FrameBuf::new())? {
        Some(Response::Recover(r)) => Ok(r.id),
        other => Err(format!("expected a recovery, got {other:?}")),
    }
}

#[test]
fn garbage_frame_gets_malformed_and_closes_only_its_connection() {
    let run = serve_tcp(1, |addr, mix| -> Result<(), String> {
        let mut good = connect(addr)?;
        let first = mix.first().ok_or("empty mix")?;
        assert_eq!(round_trip(&mut good, first)?, first.id);

        let mut bad = connect(addr)?;
        proto::write_frame(&mut bad, &[0xEE, 1, 2, 3]).map_err(|e| e.to_string())?;
        let mut frames = FrameBuf::new();
        assert_eq!(
            next_response(&mut bad, &mut frames)?,
            Some(Response::Error {
                id: 0,
                error: ServeError::Malformed
            })
        );
        assert_eq!(
            next_response(&mut bad, &mut frames)?,
            None,
            "the malformed connection is closed"
        );

        for req in mix.iter().take(5) {
            assert_eq!(
                round_trip(&mut good, req)?,
                req.id,
                "other connection served"
            );
        }
        Ok(())
    })
    .unwrap();
    run.out.unwrap();
    assert!(run.report.drained_clean);
    assert_eq!(run.report.jobs_completed(), 6);
}

#[test]
fn client_vanishing_mid_frame_does_not_disturb_serve() {
    let run = serve_tcp(1, |addr, mix| -> Result<(), String> {
        let mut quitter = connect(addr)?;
        // A length prefix promising 100 bytes, then only 10 of them.
        let mut partial = 100u32.to_le_bytes().to_vec();
        partial.extend_from_slice(&[1; 10]);
        quitter.write_all(&partial).map_err(|e| e.to_string())?;
        drop(quitter);

        let mut next = connect(addr)?;
        for req in mix.iter().take(3) {
            assert_eq!(round_trip(&mut next, req)?, req.id);
        }
        Ok(())
    })
    .unwrap();
    run.out.unwrap();
    assert!(run.report.drained_clean);
    assert_eq!(run.report.jobs_completed(), 3);
}

#[test]
fn idle_client_does_not_hold_up_the_drain() {
    let run = serve_tcp(1, |addr, mix| -> Result<TcpStream, String> {
        // One round trip proves the connection has its reader; then the
        // client goes quiet but stays connected past serve's return.
        let mut idle = connect(addr)?;
        let first = mix.first().ok_or("empty mix")?;
        assert_eq!(round_trip(&mut idle, first)?, first.id);
        Ok(idle)
    })
    .unwrap();
    let idle = run.out.unwrap();
    assert!(run.report.drained_clean);
    assert_eq!(run.report.jobs_completed(), 1);
    // The read timeout (5 ms) bounds the wait; leave room for a loaded
    // host.
    assert!(
        run.drain < Duration::from_millis(500),
        "serve took {:?} to return with an idle client connected",
        run.drain
    );
    drop(idle);
}

#[test]
fn shutdown_frame_is_acknowledged_and_drains() {
    let run = serve_tcp(
        2,
        |addr, mix| -> Result<(Vec<u64>, Vec<Response>), String> {
            let mut client = connect(addr)?;
            let sent: Vec<u64> = mix.iter().take(8).map(|r| r.id).collect();
            for req in mix.iter().take(8) {
                send(&mut client, &Request::Recover(req.clone()))?;
            }
            send(&mut client, &Request::Shutdown)?;
            // Read until the server closes: the acknowledgement and every
            // answer queued before the drain must arrive first.
            let mut frames = FrameBuf::new();
            let mut got = Vec::new();
            while let Some(resp) = next_response(&mut client, &mut frames)? {
                got.push(resp);
            }
            Ok((sent, got))
        },
    )
    .unwrap();
    let (mut sent, got) = run.out.unwrap();
    assert!(run.report.drained_clean);
    assert!(
        got.contains(&Response::ShuttingDown),
        "shutdown acknowledged"
    );
    let mut answered: Vec<u64> = got
        .iter()
        .filter_map(|r| match r {
            Response::Recover(r) => Some(r.id),
            _ => None,
        })
        .collect();
    answered.sort_unstable();
    sent.sort_unstable();
    assert_eq!(
        answered, sent,
        "every request sent before the drain answered"
    );
    assert_eq!(run.report.jobs_completed(), 8);
}
