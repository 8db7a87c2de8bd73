//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures fig6                      # benchmark table
//! figures fig7                      # hardware/software configuration
//! figures fig8                      # all twelve subfigures (both systems)
//! figures fig8 --system nvidia      # 8a-8f
//! figures fig8 --system amd --app stencil
//! figures all                       # everything, in paper order
//! ```
//!
//! Add `--test-scale` to use the tiny unit-test workloads (fast, identical
//! orderings, coarser absolute numbers).

use ompx_bench::cli::{Args, CliError};
use ompx_bench::{print_fig6, print_fig7, print_fig8, print_fig8_all};
use ompx_hecbench::{System, WorkScale, APP_NAMES};

fn usage(e: &CliError) -> ! {
    eprintln!(
        "figures: {e}\n\
         usage: figures <fig6|fig7|fig8|all|verify|shapecheck> [--system nvidia|amd] [--app NAME] \
         [--csv PATH] [--test-scale]\n\
         apps: {}",
        APP_NAMES.join(", ")
    );
    std::process::exit(2);
}

struct Opts {
    command: String,
    system: Option<System>,
    app: Option<&'static str>,
    scale: WorkScale,
    csv: Option<String>,
}

fn parse(mut a: Args) -> Result<Opts, CliError> {
    let command = a.next_flag().ok_or(CliError::Usage("a figure or command is required"))?;
    let mut o = Opts { command, system: None, app: None, scale: WorkScale::Default, csv: None };
    while let Some(flag) = a.next_flag() {
        match flag.as_str() {
            "--csv" => o.csv = Some(a.value()?),
            "--system" => o.system = Some(a.system()?),
            "--app" => o.app = Some(a.app()?),
            "--test-scale" => o.scale = WorkScale::Test,
            _ => return Err(a.unknown()),
        }
    }
    Ok(o)
}

fn main() {
    let Opts { command, system, app, scale, csv } =
        parse(Args::from_env()).unwrap_or_else(|e| usage(&e));

    let systems = match system {
        Some(s) => vec![s],
        None => vec![System::Nvidia, System::Amd],
    };

    if let Some(path) = &csv {
        let data = ompx_bench::fig8_csv(scale);
        if let Err(e) = std::fs::write(path, &data) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} ({} rows)", path, data.lines().count() - 1);
        return;
    }

    match command.as_str() {
        "fig6" => print_fig6(),
        "fig7" => print_fig7(),
        "shapecheck" => {
            let checks = ompx_bench::shape_checks(scale);
            let mut failed = false;
            for c in &checks {
                println!("[{}] {} — {}", if c.pass { "PASS" } else { "FAIL" }, c.claim, c.detail);
                failed |= !c.pass;
            }
            println!(
                "\n{}/{} paper observations hold",
                checks.iter().filter(|c| c.pass).count(),
                checks.len()
            );
            if failed {
                std::process::exit(1);
            }
        }
        "verify" => {
            let mut failed = false;
            for app in APP_NAMES {
                match ompx_bench::verify_app(app, scale) {
                    Ok(sum) => {
                        println!("{app:<10} OK  checksum {sum:#018x} across 8 version/system cells")
                    }
                    Err(e) => {
                        failed = true;
                        println!("{app:<10} FAIL {e}");
                    }
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        "fig8" => {
            for sys in systems {
                match app {
                    Some(a) => print_fig8(a, sys, scale),
                    None => print_fig8_all(sys, scale),
                }
            }
        }
        "all" => {
            print_fig6();
            println!();
            print_fig7();
            println!();
            for sys in systems {
                print_fig8_all(sys, scale);
            }
        }
        _ => usage(&CliError::Unknown { arg: command }),
    }
}
