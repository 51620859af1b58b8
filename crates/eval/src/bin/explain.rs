//! Replays one scenario's recovery-event stream as a human-readable
//! narrative (see EXPERIMENTS.md "Observability").
//!
//! Accepts the common flags (`--topos`, `--cases`, `--seed`, ...) plus
//! `--scenario N` to pick a scenario index; by default it explains the
//! first scenario with a recoverable case of the first selected topology
//! (AS209 when `--topos` is not given). The narrative covers the first
//! recovery session (one initiator: phase-1 sweep, SPT recompute, then
//! every case routed from it); the scenario's aggregate counters follow.

use rtr_eval::writer;
use rtr_topology::isp;

fn main() {
    // Extract `--scenario N` before handing the rest to the shared parser.
    let mut scenario_arg: Option<usize> = None;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--scenario" {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("--scenario requires a value");
                std::process::exit(2);
            });
            scenario_arg = Some(v.parse().unwrap_or_else(|_| {
                eprintln!("bad --scenario value: {v}");
                std::process::exit(2);
            }));
        } else {
            rest.push(arg);
        }
    }
    let opts = rtr_eval::cli::Options::parse(rest).unwrap_or_else(|e| {
        eprintln!("{e}\n       [--scenario N]");
        std::process::exit(2);
    });

    let profile = opts.topologies.first().copied().unwrap_or(isp::TABLE2[0]);
    let name = profile.name;
    let w = rtr_eval::trace::workload_for(profile, &opts.config);

    let (index, sc) = match scenario_arg {
        Some(i) => match w.scenarios.get(i) {
            Some(sc) => (i, sc),
            None => {
                eprintln!(
                    "scenario {i} out of range (workload has {} scenarios)",
                    w.scenarios.len()
                );
                std::process::exit(2);
            }
        },
        None => rtr_eval::trace::first_recoverable_scenario(&w).unwrap_or_else(|| {
            eprintln!("no scenario with recoverable cases; raise --cases");
            std::process::exit(2);
        }),
    };

    let replays = rtr_eval::trace::replay_scenario(&w, sc);
    let registry = rtr_eval::trace::scenario_registry(&w, sc);

    let mut out = String::new();
    out.push_str(&format!(
        "{name} scenario {index}: {} recoverable + {} irrecoverable cases, \
         {} recovery sessions\n",
        sc.recoverable.len(),
        sc.irrecoverable.len(),
        replays.len(),
    ));
    if let Some(r) = replays.first() {
        out.push_str(&format!(
            "\nsession at initiator {} ({} phase-1 hops, {} header bytes, \
             {} SP calculation{}):\n\n",
            r.stats.initiator,
            r.stats.hops,
            r.stats.header_bytes,
            r.stats.sp_calculations,
            if r.stats.sp_calculations == 1 {
                ""
            } else {
                "s"
            },
        ));
        out.push_str(&rtr_eval::trace::narrate(&r.events));
    }
    out.push_str(&format!(
        "\nscenario totals: {} sweep hops, {} failed links appended, \
         {} cross links excluded, {} SPT recomputes, {} routes installed, \
         {} packets discarded",
        registry.sweep_hops(),
        registry.failed_links_appended(),
        registry.cross_links_excluded(),
        registry.spt_recomputes(),
        registry.source_routes_installed(),
        registry.packets_discarded(),
    ));
    writer::print_report(&out);
}
