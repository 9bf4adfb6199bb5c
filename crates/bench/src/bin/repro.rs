//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                       # all experiments, paper-scale campaign
//! repro table1 fig6 table2    # a subset
//! repro --quick               # 40-day campaign (fast smoke run)
//! repro --seed 7 --out results
//! repro --ckpt ckpt fig5 fault_matrix   # resumable: re-run after a
//!                                       # crash and finished cells
//!                                       # are restored, not redone
//! ```
//!
//! All artifacts (CSV outputs and checkpoints alike) are committed
//! atomically — a crash mid-write never leaves a torn file behind.

use std::path::PathBuf;
use std::time::Instant;

use thermal_bench::experiments::{ablation, clustering, fault_matrix, model, selection};
use thermal_bench::protocol::Protocol;
use thermal_ckpt::{CellPolicy, CheckpointStore};
use thermal_cluster::Similarity;

const ALL: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "fig10",
    "fig11",
    "ablation",
    "diagnostics",
    "fault_matrix",
];

struct Args {
    experiments: Vec<String>,
    quick: bool,
    seed: u64,
    out: PathBuf,
    ckpt: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut experiments = Vec::new();
    let mut quick = false;
    let mut seed = 20130131_u64;
    let mut out = PathBuf::from("results");
    let mut ckpt = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out = PathBuf::from(argv.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--ckpt" => {
                ckpt = Some(PathBuf::from(
                    argv.next().unwrap_or_else(|| die("--ckpt needs a path")),
                ));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--quick] [--seed N] [--out DIR] [--ckpt DIR] [{}]",
                    ALL.join("|")
                );
                std::process::exit(0);
            }
            name if ALL.contains(&name) => experiments.push(name.to_owned()),
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    if experiments.is_empty() {
        experiments = ALL.iter().map(|s| (*s).to_owned()).collect();
    }
    Args {
        experiments,
        quick,
        seed,
        out,
        ckpt,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn save(out_dir: &PathBuf, name: &str, contents: &str) {
    if std::fs::create_dir_all(out_dir).is_ok() {
        let path = out_dir.join(name);
        // Atomic commit: a crash mid-save never leaves a torn CSV.
        if let Err(e) = thermal_ckpt::write_atomic(&path, contents.as_bytes()) {
            eprintln!("repro: could not write {}: {e}", path.display());
        } else {
            println!("  (csv saved to {})", path.display());
        }
    }
}

// Designated clock module (AMBIENT_READ_MODULES in xtask): `main`
// times wall-clock phases for progress reporting only.
#[expect(clippy::disallowed_methods, reason = "times its progress output")]
fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    println!(
        "simulating the {} campaign (seed {})...",
        if args.quick {
            "40-day quick"
        } else {
            "98-day paper"
        },
        args.seed
    );
    let protocol = if args.quick {
        Protocol::quick(args.seed)
    } else {
        Protocol::paper(args.seed)
    }
    .unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "usable days: {} of {} (outages: {} days) [{:.1?}]\n",
        protocol.usable_days.len(),
        protocol.output.scenario.days,
        protocol.output.outage_days.len(),
        t0.elapsed()
    );

    let mut store = args.ckpt.as_ref().map(|dir| {
        let store = CheckpointStore::open(dir, args.seed, env!("CARGO_PKG_VERSION"))
            .unwrap_or_else(|e| die(&format!("could not open checkpoint store: {e}")));
        let report = store.open_report();
        if !report.fresh {
            println!(
                "checkpoint store: {} verified cells on disk, {} quarantined, {} missing\n",
                report.restored,
                report.quarantined.len(),
                report.missing.len()
            );
        }
        store
    });

    for name in &args.experiments {
        let t = Instant::now();
        println!("==== {name} ====");
        if let Err(e) = run_experiment(name, &protocol, &args, store.as_mut()) {
            die(&format!("{name} failed: {e}"));
        }
        println!("[{name} took {:.1?}]\n", t.elapsed());
    }
    println!("total: {:.1?}", t0.elapsed());
}

fn run_experiment(
    name: &str,
    protocol: &Protocol,
    args: &Args,
    store: Option<&mut CheckpointStore>,
) -> thermal_bench::Result<()> {
    match name {
        "table1" => {
            let rows = model::table1(protocol)?;
            print!("{}", model::render_table1(&rows));
        }
        "fig3" => {
            let r = model::fig3(protocol)?;
            let (chart, csv) = model::render_fig3(&r);
            println!("CDF of per-sensor RMS (occupied, 13.5 h):");
            print!("{chart}");
            save(&args.out, "fig3.csv", &csv);
        }
        "fig4" => {
            let r = model::fig4(protocol, "t01")?;
            let (chart, csv) = model::render_fig4(&r);
            println!(
                "measured vs predicted for sensor {} over one day:",
                r.sensor
            );
            print!("{chart}");
            save(&args.out, "fig4.csv", &csv);
        }
        "fig5" => {
            let checkpointed = store.is_some();
            let (r, resume) = model::fig5(protocol, store)?;
            if checkpointed {
                println!(
                    "(checkpointed: {} cells restored, {} computed)",
                    resume.restored.len(),
                    resume.computed.len()
                );
            }
            print!("{}", model::render_fig5(&r));
        }
        "fig6" => {
            let sides = clustering::fig6(protocol)?;
            print!("{}", clustering::render_fig6(&sides));
        }
        "fig7" => {
            let cols = clustering::quality_columns(protocol, Similarity::euclidean(), &[3, 4, 5])?;
            print!(
                "{}",
                clustering::render_quality(Similarity::euclidean(), &cols)
            );
        }
        "fig8" => {
            let cols =
                clustering::quality_columns(protocol, Similarity::correlation(), &[2, 3, 4, 5])?;
            print!(
                "{}",
                clustering::render_quality(Similarity::correlation(), &cols)
            );
        }
        "table2" => {
            let rows = selection::table2(protocol)?;
            print!("{}", selection::render_table2(&rows));
        }
        "fig9" => {
            let points = selection::fig9(protocol, 8)?;
            print!("{}", selection::render_fig9(&points));
        }
        "fig10" => {
            let rows = selection::fig10(protocol, &[2, 3, 4, 5, 6, 7, 8])?;
            print!(
                "{}",
                selection::render_k_comparison(
                    "99th-pct cluster-mean error by selection strategy:",
                    &rows
                )
            );
        }
        "fig11" => {
            let rows = selection::fig11(protocol, &[2, 3, 4, 5, 6, 7, 8])?;
            print!(
                "{}",
                selection::render_k_comparison(
                    "99th-pct cluster-mean error of reduced identified models:",
                    &rows
                )
            );
        }
        "diagnostics" => {
            let r = model::diagnostics(protocol, 6)?;
            println!("one-step residual whiteness (validation half, occupied):");
            print!("{}", model::render_diagnostics(&r));
        }
        "fault_matrix" => {
            let intensities = if args.quick {
                &[0.0, 0.5, 1.0][..]
            } else {
                fault_matrix::DEFAULT_INTENSITIES
            };
            let cells = if let Some(store) = store {
                let outcomes = fault_matrix::fault_matrix_checkpointed(
                    protocol,
                    intensities,
                    store,
                    &CellPolicy::default(),
                )?;
                let mut cells = Vec::with_capacity(outcomes.len());
                let mut restored = 0usize;
                for outcome in outcomes {
                    match outcome {
                        fault_matrix::FaultCellOutcome::Done { cell, restored: r } => {
                            restored += usize::from(r);
                            cells.push(cell);
                        }
                        fault_matrix::FaultCellOutcome::Quarantined {
                            class,
                            intensity,
                            reason,
                        } => {
                            eprintln!(
                                "repro: fault_matrix cell ({class}, {intensity}) quarantined: {reason}"
                            );
                        }
                    }
                }
                println!(
                    "(checkpointed: {restored} cells restored, {} computed)",
                    cells.len() - restored
                );
                cells
            } else {
                fault_matrix::fault_matrix(protocol, intensities)?
            };
            let (table, csv) = fault_matrix::render_fault_matrix(&cells);
            println!("RMSE degradation by fault class and intensity:");
            print!("{table}");
            save(&args.out, "fault_matrix.csv", &csv);
        }
        "ablation" => {
            let days = if args.quick { 40 } else { 60 };
            let rows = ablation::ablation(days, args.seed)?;
            println!("simulator design-choice ablation ({days}-day campaigns):");
            print!("{}", ablation::render_ablation(&rows));
        }
        other => die(&format!("unknown experiment {other:?}")),
    }
    Ok(())
}
