//! Runs the whole evaluation suite and writes one file per experiment
//! into `results/` — the one-shot reproduction entry point.

use std::fs;
use std::path::Path;
use std::time::Instant;

use causaliot_bench::experiments::{
    ablations, complexity, fig2_4, fig5, table1, table2, table3, table4, table5,
};
use causaliot_bench::{telemetry_out, Dataset, ExperimentConfig};

fn write(dir: &Path, name: &str, contents: String) {
    let path = dir.join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let run_start = Instant::now();
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let base = ExperimentConfig::default();

    write(dir, "table1.txt", table1::render(&table1::run()));
    write(dir, "table2.txt", table2::render(&table2::run(&base)));
    write(dir, "table3.txt", table3::render(&table3::run(&base)));
    write(dir, "table4.txt", {
        let tuned = table4::render(&table4::run(&base));
        let faithful_cfg = ExperimentConfig {
            calibration_fraction: 0.0,
            unseen_max_anomaly: false,
            ..base
        };
        let faithful = table4::render(&table4::run(&faithful_cfg));
        format!("tuned configuration:\n{tuned}\npaper-faithful calibration:\n{faithful}")
    });
    write(dir, "fig5.txt", {
        let cells = fig5::run(&base);
        let mut out = fig5::render(&cells);
        out.push_str("Mean F1 per detector:\n");
        for (name, f1) in fig5::mean_f1(&cells) {
            out.push_str(&format!("  {name:<12} {f1:.3}\n"));
        }
        out
    });
    write(dir, "table5.txt", {
        let cfg = ExperimentConfig {
            days: 42.0,
            unseen_max_anomaly: false,
            ..base
        };
        table5::render(&table5::run(&cfg))
    });
    write(dir, "fig2_4.txt", fig2_4::render(&fig2_4::run(7)));
    write(dir, "complexity.txt", {
        let mining = complexity::mining_scaling(&[4, 8, 12, 16, 20, 24]);
        let monitor = complexity::monitor_scaling(&[4, 8, 16, 24]);
        complexity::render(&mining, &monitor)
    });
    write(dir, "casas.txt", {
        let cfg = ExperimentConfig { days: 30.0, ..base };
        let ds = Dataset::casas(&cfg);
        table3::render(&table3::report_for(&ds, &cfg))
    });
    write(dir, "ablations.txt", {
        let mut out = String::new();
        out.push_str(&ablations::render_mining(
            "Maximum time lag",
            &ablations::sweep_tau(&base, &[1, 2, 3]),
        ));
        out.push_str(&ablations::render_mining(
            "Significance threshold",
            &ablations::sweep_alpha(&base, &[0.0001, 0.001, 0.01, 0.05]),
        ));
        out.push_str(&ablations::render_detection(
            "Score percentile (remote-control case)",
            &ablations::sweep_q(&base, &[95.0, 97.0, 99.0, 99.5]),
        ));
        out.push_str(&ablations::render_detection(
            "Unseen-context policy (remote-control case)",
            &ablations::sweep_unseen(&base),
        ));
        out.push_str(&ablations::render_mining(
            "Ground-truth support threshold",
            &ablations::sweep_gt_support(&base, &[2, 5, 10, 20, 30]),
        ));
        let (without, with_clock) = ablations::daylight_augmentation(&base);
        out.push_str(&format!(
            "Daylight-context augmentation: brightness spurious edges {without} -> {with_clock}\n"
        ));
        out
    });
    // Observability reports: one representative fit + monitoring session
    // on the ContextAct-like dataset, serialised as machine-readable JSON.
    let ds = Dataset::contextact(&base);
    telemetry_out::write_report(
        "fit_report_contextact.json",
        &ds.model.fit_report().to_json(),
    );
    let mut monitor = ds.model.into_monitor_with(1, ds.test_initial);
    for &event in &ds.test_events {
        monitor.observe(event);
    }
    telemetry_out::write_report(
        "monitor_report_contextact.json",
        &monitor.report().to_json(),
    );
    telemetry_out::write_report(
        "exp_all.json",
        &telemetry_out::run_report(
            "exp_all",
            run_start.elapsed().as_secs_f64() * 1e3,
            &[("test_events", ds.test_events.len() as f64)],
        ),
    );
    println!("\nall experiments written to {}", dir.display());
}
