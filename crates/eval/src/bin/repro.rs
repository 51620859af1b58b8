//! Runs the complete evaluation: every table and figure plus the headline
//! comparison, writing text and JSON artifacts to `results/`.

use std::fmt::Write as _;
use std::path::Path;

fn main() {
    let opts = rtr_eval::cli::Options::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir).expect("create results/");

    let results =
        rtr_eval::driver::run_topologies(&opts.topologies, &opts.config).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });

    let mut text = String::new();
    let mut save = |name: &str, rendered: String, json: String| {
        std::fs::write(out_dir.join(format!("{name}.txt")), &rendered).expect("write text");
        std::fs::write(out_dir.join(format!("{name}.json")), json).expect("write json");
        writeln!(text, "{rendered}").unwrap();
    };

    macro_rules! emit {
        ($name:literal, $report:expr) => {{
            let r = $report;
            save($name, r.to_string(), rtr_eval::json::to_string_pretty(&r));
        }};
    }

    emit!("table2", rtr_eval::reports::table2());
    emit!("fig7", rtr_eval::reports::fig7(&results));
    emit!("table3", rtr_eval::reports::table3(&results));
    emit!("fig8", rtr_eval::reports::fig8(&results));
    emit!("fig9", rtr_eval::reports::fig9(&results));
    emit!("fig10", rtr_eval::reports::fig10(&results));
    emit!("fig12", rtr_eval::reports::fig12(&results));
    emit!("fig13", rtr_eval::reports::fig13(&results));
    emit!("table4", rtr_eval::reports::table4(&results));
    emit!(
        "fig11",
        rtr_eval::fig11::fig11(&opts.topologies, &opts.config)
    );
    emit!("headline", rtr_eval::reports::headline(&results));
    emit!(
        "ablation_thoroughness",
        rtr_eval::ablations::thoroughness_report(&opts.topologies, &opts.config)
    );
    emit!(
        "ablation_embedding",
        rtr_eval::ablations::embedding_report(&opts.topologies, &opts.config)
    );
    emit!(
        "matrix",
        rtr_eval::matrix::matrix(&opts.topologies, &opts.config).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    );

    std::fs::write(out_dir.join("all.txt"), &text).expect("write all.txt");
    print!("{text}");
    eprintln!("[rtr-eval] artifacts written to results/");
}
