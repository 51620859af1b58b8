//! `loadgen` — the open-loop load harness for `rtr-serve`.
//!
//! Two modes:
//!
//! * **single run** (default): start an in-process service (or a
//!   TCP-loopback one) and drive one load run, printing the report;
//! * **`--connect ADDR`**: drive an already-running daemon over TCP
//!   (`--shutdown` sends the drain frame afterwards and waits for the
//!   acknowledgement — the CI smoke job's clean-drain check).
//!
//! Measured serving latency and capacity come from the workspace
//! benchmark (`perfbench/`), not from this harness.
//!
//! ```text
//! loadgen [--topo AS4323] [--transport inproc|tcp] [--workers N]
//!         [--qps F | --saturate K] [--duration SECS] [--seed N]
//!         [--cases N]
//! loadgen --connect 127.0.0.1:4650 [--topo-index 0] [--shutdown] ...
//! ```

use rtr_eval::{par, writer};
use rtr_serve::load::{build_mix, run_load, InProc, TcpClient};
use rtr_serve::proto::RecoverRequest;
use rtr_serve::{serve, Fleet, LoadConfig, LoadMode, LoadReport, ServeConfig, ServiceReport};
use std::process::ExitCode;

struct Args {
    topo: String,
    transport: String,
    workers: usize,
    mode: LoadMode,
    duration_secs: f64,
    seed: u64,
    cases: usize,
    connect: Option<String>,
    topo_index: u16,
    shutdown: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            topo: "AS4323".into(),
            transport: "inproc".into(),
            workers: 0,
            mode: LoadMode::OpenLoop { target_qps: 500.0 },
            duration_secs: 2.0,
            seed: 1,
            cases: 100,
            connect: None,
            topo_index: 0,
            shutdown: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {flag} value: {v}"))
        }
        match arg.as_str() {
            "--topo" => args.topo = value("--topo")?,
            "--transport" => args.transport = value("--transport")?,
            "--workers" => args.workers = num("--workers", &value("--workers")?)?,
            "--qps" => {
                args.mode = LoadMode::OpenLoop {
                    target_qps: num("--qps", &value("--qps")?)?,
                }
            }
            "--saturate" => {
                args.mode = LoadMode::Saturate {
                    inflight: num("--saturate", &value("--saturate")?)?,
                }
            }
            "--duration" => args.duration_secs = num("--duration", &value("--duration")?)?,
            "--seed" => args.seed = num("--seed", &value("--seed")?)?,
            "--cases" => args.cases = num("--cases", &value("--cases")?)?,
            "--connect" => args.connect = Some(value("--connect")?),
            "--topo-index" => args.topo_index = num("--topo-index", &value("--topo-index")?)?,
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown flag {other} (see module docs)")),
        }
    }
    if args.transport != "inproc" && args.transport != "tcp" {
        return Err(format!("--transport {} is not inproc|tcp", args.transport));
    }
    Ok(args)
}

fn load_config(args: &Args) -> LoadConfig {
    LoadConfig {
        mode: args.mode,
        duration_micros: (args.duration_secs * 1e6) as u64,
        drain_timeout_micros: 20_000_000,
        seed: args.seed,
    }
}

/// Runs one (transport, workers, mode) point against a fresh service.
fn run_point(
    fleet: &Fleet,
    mix: &[RecoverRequest],
    transport: &str,
    workers: usize,
    cfg: &LoadConfig,
) -> Result<(LoadReport, ServiceReport), String> {
    let serve_cfg = ServeConfig {
        workers,
        bind: (transport == "tcp").then(|| "127.0.0.1:0".to_string()),
    };
    let (load, service_report) = serve(fleet, &serve_cfg, |h| -> Result<LoadReport, String> {
        if transport == "tcp" {
            let addr = h.addr().ok_or("service has no TCP address")?;
            let mut t = TcpClient::connect(&addr.to_string())?;
            run_load(&mut t, mix, cfg)
        } else {
            let mut t = InProc::new(h);
            run_load(&mut t, mix, cfg)
        }
    })?;
    Ok((load?, service_report))
}

/// Drives an external daemon over TCP; optionally sends Shutdown after.
fn run_connect(args: &Args) -> Result<bool, String> {
    let addr = args.connect.clone().ok_or("no --connect address")?;
    writer::notice(format!(
        "loadgen: building {} baseline for the request mix",
        args.topo
    ));
    let fleet = Fleet::from_profiles(std::slice::from_ref(&args.topo), par::resolve_threads(0))?;
    let entry = fleet.get(0).ok_or("empty fleet")?;
    let mix = build_mix(
        args.topo_index,
        &args.topo,
        entry.baseline(),
        args.cases,
        args.seed,
    );
    let mut client = TcpClient::connect(&addr)?;
    let report = run_load(&mut client, &mix, &load_config(args))?;
    writer::print_report(&report);
    let mut clean = report.drained_clean;
    if args.shutdown {
        client.send_shutdown()?;
        let acked = client.wait_shutting_down(5_000_000);
        writer::notice(format!(
            "loadgen: shutdown {}",
            if acked {
                "acknowledged"
            } else {
                "NOT acknowledged"
            }
        ));
        clean = clean && acked;
    }
    Ok(clean)
}

/// One self-contained run: in-process service (or TCP loopback), one
/// load run, both reports printed.
fn run_single(args: &Args) -> Result<bool, String> {
    writer::notice(format!("loadgen: building {} baseline", args.topo));
    let fleet = Fleet::from_profiles(std::slice::from_ref(&args.topo), par::resolve_threads(0))?;
    let entry = fleet.get(0).ok_or("empty fleet")?;
    let mix = build_mix(0, &args.topo, entry.baseline(), args.cases, args.seed);
    let (load, service) = run_point(
        &fleet,
        &mix,
        &args.transport,
        args.workers,
        &load_config(args),
    )?;
    writer::print_report(&format!("{load}\n{service}"));
    Ok(load.drained_clean && service.drained_clean)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            writer::notice(format!("loadgen: {e}"));
            return ExitCode::from(2);
        }
    };
    let outcome = if args.connect.is_some() {
        run_connect(&args)
    } else {
        run_single(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            writer::notice("loadgen: run did not drain clean");
            ExitCode::FAILURE
        }
        Err(e) => {
            writer::notice(format!("loadgen: {e}"));
            ExitCode::from(2)
        }
    }
}
