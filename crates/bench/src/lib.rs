//! # ompx-bench — regenerating the paper's tables and figures
//!
//! * **Figure 6** (benchmark table) — [`print_fig6`]
//! * **Figure 7** (hardware/software configuration) — [`print_fig7`]
//! * **Figure 8 a–l** (six benchmarks × four versions × two systems) —
//!   [`run_fig8`] / [`print_fig8`], which also compares each bar against
//!   the value read off the paper's plots ([`paper_reference_seconds`]).
//!
//! The host wall-clock cost of the simulator itself is measured by
//! `perfbench/` (see its README); the paper-facing numbers are the modeled
//! times printed by the `figures` binary and recorded in EXPERIMENTS.md.

use ompx_hecbench::{run_app, ProgVersion, RunOutcome, System, WorkScale, APP_NAMES};

/// Approximate bar heights read from the paper's Figure 8 plots, in
/// seconds. `None` = the paper excluded the series (XSBench `omp`).
pub fn paper_reference_seconds(app: &str, sys: System, label: &str) -> Option<f64> {
    let ms = 1e-3;
    let v = match (app, sys, label) {
        ("xsbench", System::Nvidia, "ompx") => 0.74,
        ("xsbench", System::Nvidia, "omp") => return None,
        ("xsbench", System::Nvidia, "cuda") => 0.85,
        ("xsbench", System::Nvidia, "cuda-nvcc") => 0.85,
        ("xsbench", System::Amd, "ompx") => 0.55,
        ("xsbench", System::Amd, "omp") => return None,
        ("xsbench", System::Amd, "hip") => 0.65,
        ("xsbench", System::Amd, "hip-hipcc") => 0.66,

        ("rsbench", System::Nvidia, "ompx") => 1.6,
        ("rsbench", System::Nvidia, "omp") => 1.8,
        ("rsbench", System::Nvidia, "cuda") => 2.0,
        ("rsbench", System::Nvidia, "cuda-nvcc") => 1.9,
        ("rsbench", System::Amd, "ompx") => 2.5,
        ("rsbench", System::Amd, "omp") => 3.5,
        ("rsbench", System::Amd, "hip") => 3.1,
        ("rsbench", System::Amd, "hip-hipcc") => 3.0,

        ("su3", System::Nvidia, "ompx") => 1.09,
        ("su3", System::Nvidia, "omp") => 1.3,
        ("su3", System::Nvidia, "cuda") => 1.0,
        ("su3", System::Nvidia, "cuda-nvcc") => 1.05,
        ("su3", System::Amd, "ompx") => 1.2,
        ("su3", System::Amd, "omp") => 1.8,
        ("su3", System::Amd, "hip") => 1.54,
        ("su3", System::Amd, "hip-hipcc") => 1.5,

        ("aidw", System::Nvidia, "ompx") => 84.0 * ms,
        ("aidw", System::Nvidia, "omp") => 86.0 * ms,
        ("aidw", System::Nvidia, "cuda") => 80.0 * ms,
        ("aidw", System::Nvidia, "cuda-nvcc") => 84.0 * ms,
        ("aidw", System::Amd, "ompx") => 200.0 * ms,
        ("aidw", System::Amd, "omp") => 205.0 * ms,
        ("aidw", System::Amd, "hip") => 200.0 * ms,
        ("aidw", System::Amd, "hip-hipcc") => 200.0 * ms,

        ("adam", System::Nvidia, "ompx") => 0.20 * ms,
        ("adam", System::Nvidia, "omp") => 1.60 * ms,
        ("adam", System::Nvidia, "cuda") => 0.20 * ms,
        ("adam", System::Nvidia, "cuda-nvcc") => 0.20 * ms,
        ("adam", System::Amd, "ompx") => 0.125 * ms,
        ("adam", System::Amd, "omp") => 1.59 * ms,
        ("adam", System::Amd, "hip") => 0.15 * ms,
        ("adam", System::Amd, "hip-hipcc") => 0.15 * ms,

        ("stencil", System::Nvidia, "ompx") => 0.85 * ms,
        ("stencil", System::Nvidia, "omp") => 145.6 * ms,
        ("stencil", System::Nvidia, "cuda") => 1.0 * ms,
        ("stencil", System::Nvidia, "cuda-nvcc") => 1.05 * ms,
        ("stencil", System::Amd, "ompx") => 0.95 * ms,
        ("stencil", System::Amd, "omp") => 60.87 * ms,
        ("stencil", System::Amd, "hip") => 1.1 * ms,
        ("stencil", System::Amd, "hip-hipcc") => 1.15 * ms,
        _ => return None,
    };
    Some(v)
}

/// Which subfigure (8a–8l) an (app, system) cell corresponds to.
pub fn subfigure_label(app: &str, sys: System) -> &'static str {
    match (app, sys) {
        ("xsbench", System::Nvidia) => "8a",
        ("rsbench", System::Nvidia) => "8b",
        ("su3", System::Nvidia) => "8c",
        ("aidw", System::Nvidia) => "8d",
        ("adam", System::Nvidia) => "8e",
        ("stencil", System::Nvidia) => "8f",
        ("xsbench", System::Amd) => "8g",
        ("rsbench", System::Amd) => "8h",
        ("su3", System::Amd) => "8i",
        ("aidw", System::Amd) => "8j",
        ("adam", System::Amd) => "8k",
        ("stencil", System::Amd) => "8l",
        _ => "8?",
    }
}

/// Run the four program versions of one subfigure.
pub fn run_fig8(app: &str, sys: System, scale: WorkScale) -> Vec<RunOutcome> {
    ProgVersion::all().iter().map(|v| run_app(app, sys, *v, scale)).collect()
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:8.3} s ")
    } else if seconds >= 1e-3 {
        format!("{:8.3} ms", seconds * 1e3)
    } else {
        format!("{:8.3} us", seconds * 1e6)
    }
}

/// Print the Figure 6 table (benchmark descriptions + command lines).
pub fn print_fig6() {
    println!("Figure 6: Benchmarks including brief summary and the command line arguments.");
    println!("{:<12} {:<70} Command Line", "Name", "Description");
    println!("{}", "-".repeat(110));
    for b in ompx_hecbench::all_benchmarks() {
        println!("{:<12} {:<70} {}", b.name, b.description, b.paper_cmdline);
    }
}

/// Print the Figure 7 table (hardware/software configuration), from the
/// device profiles the simulator actually uses.
pub fn print_fig7() {
    use ompx_sim::device::DeviceProfile;
    let nv = DeviceProfile::a100();
    let amd = DeviceProfile::mi250();
    println!("Figure 7: Hardware and software configuration of the AMD and NVIDIA systems.");
    println!("{:<22} {:<28} {:<28}", "", "AMD", "NVIDIA");
    println!("{}", "-".repeat(78));
    println!("{:<22} {:<28} {:<28}", "GPU", amd.name, nv.name);
    println!("{:<22} {:<28} {:<28}", "CPU", "AMD EPYC 7532", "AMD EPYC 7532");
    println!("{:<22} {:<28} {:<28}", "Memory", "256 GB", "512 GB");
    println!("{:<22} {:<28} {:<28}", "SDK", "ROCm 5.5 (modeled)", "CUDA 11.8 (modeled)");
    println!(
        "{:<22} {:<28} {:<28}",
        "SMs/CUs x warp",
        format!("{} x {}", amd.sm_count, amd.warp_size),
        format!("{} x {}", nv.sm_count, nv.warp_size)
    );
    println!(
        "{:<22} {:<28} {:<28}",
        "Memory bandwidth",
        format!("{:.0} GB/s", amd.mem_bw_bytes_per_s / 1e9),
        format!("{:.0} GB/s", nv.mem_bw_bytes_per_s / 1e9)
    );
}

/// Render the subfigure's bars the way the paper draws them: horizontal
/// bars normalized to the native-LLVM baseline (the figure's dotted line).
/// Excluded and pathological series are capped and annotated.
fn render_bars(outcomes: &[ompx_hecbench::RunOutcome], baseline: f64) {
    const WIDTH: f64 = 46.0;
    for o in outcomes {
        let rel = o.reported_seconds / baseline;
        let capped = rel.min(3.0);
        let len = ((capped / 3.0) * WIDTH).round().max(1.0) as usize;
        let bar: String = "█".repeat(len);
        let overflow = if rel > 3.0 { "▸" } else { " " };
        let marker = if o.excluded { " (excluded in paper)" } else { "" };
        println!("  {:<10} |{bar:<46}{overflow} {rel:6.2}x{marker}", o.label);
    }
    let baseline_pos = ((1.0 / 3.0) * WIDTH).round() as usize;
    println!("  {:<10} |{}^ 1.00x = native (LLVM/Clang)", "", " ".repeat(baseline_pos));
}

/// Print one Figure 8 subfigure with paper-reference comparison.
pub fn print_fig8(app: &str, sys: System, scale: WorkScale) {
    let info = ompx_hecbench::all_benchmarks()
        .into_iter()
        .find(|b| b.name.to_lowercase().starts_with(&app[..3]))
        .expect("benchmark info");
    let outcomes = run_fig8(app, sys, scale);
    println!(
        "Figure {} — {} on {} ({})",
        subfigure_label(app, sys),
        info.name,
        sys.label(),
        info.reported_metric
    );
    println!("{:<12} {:>12} {:>12} {:>9}  notes", "version", "modeled", "paper", "mod/paper");
    // Baseline = the native LLVM/Clang version (the figure's dotted line).
    let baseline = outcomes
        .iter()
        .find(|o| o.label == "cuda" || o.label == "hip")
        .map(|o| o.reported_seconds)
        .unwrap_or(f64::NAN);
    for o in &outcomes {
        let paper = paper_reference_seconds(app, sys, &o.label);
        let cmp = match paper {
            Some(p) => format!("{:9.2}", o.reported_seconds / p),
            None => format!("{:>9}", "-"),
        };
        let mut notes = Vec::new();
        if o.excluded {
            notes.push("EXCLUDED IN PAPER".to_string());
        }
        if let Some(n) = &o.note {
            notes.push(n.clone());
        }
        notes.push(format!(
            "{:.2}x of {}",
            o.reported_seconds / baseline,
            if sys == System::Nvidia { "cuda" } else { "hip" }
        ));
        println!(
            "{:<12} {:>12} {:>12} {}  {}",
            o.label,
            fmt_time(o.reported_seconds),
            paper.map(fmt_time).unwrap_or_else(|| "    -    ".into()),
            cmp,
            notes.join("; ")
        );
    }
    render_bars(&outcomes, baseline);
    println!();
}

/// All apps (the full Figure 8).
pub fn print_fig8_all(sys: System, scale: WorkScale) {
    for app in APP_NAMES {
        print_fig8(app, sys, scale);
    }
}

/// Serialize the full Figure 8 data to CSV (one row per bar), including
/// paper references and checksums — the machine-readable companion to
/// EXPERIMENTS.md.
pub fn fig8_csv(scale: WorkScale) -> String {
    let mut out = String::from(
        "subfigure,app,system,version,modeled_seconds,paper_seconds,checksum,excluded,note\n",
    );
    for sys in [System::Nvidia, System::Amd] {
        for app in APP_NAMES {
            for o in run_fig8(app, sys, scale) {
                let paper = paper_reference_seconds(app, sys, &o.label)
                    .map(|p| format!("{p:.6}"))
                    .unwrap_or_default();
                let note = o.note.clone().unwrap_or_default().replace(',', ";");
                out.push_str(&format!(
                    "{},{},{},{},{:.9},{},{:#018x},{},{}\n",
                    subfigure_label(app, sys),
                    app,
                    sys.label(),
                    o.label,
                    o.reported_seconds,
                    paper,
                    o.checksum,
                    o.excluded,
                    note
                ));
            }
        }
    }
    out
}

/// One assertion of the DESIGN.md §3 shape table.
pub struct ShapeCheck {
    /// Human-readable statement of the paper observation.
    pub claim: &'static str,
    /// Did the modeled numbers satisfy it?
    pub pass: bool,
    /// The measured quantity backing the verdict.
    pub detail: String,
}

/// Evaluate the full DESIGN.md shape table against modeled results at the
/// given scale. This is the machine-checked core of EXPERIMENTS.md.
pub fn shape_checks(scale: WorkScale) -> Vec<ShapeCheck> {
    let t = |app: &str, sys: System, v: ProgVersion| run_app(app, sys, v, scale).reported_seconds;
    use ProgVersion::{Native, NativeVendor, Omp, Ompx};
    use System::{Amd, Nvidia};
    let mut checks = Vec::new();
    let mut push = |claim: &'static str, pass: bool, detail: String| {
        checks.push(ShapeCheck { claim, pass, detail })
    };

    // XSBench
    for sys in [Nvidia, Amd] {
        let (o, n, v) =
            (t("xsbench", sys, Ompx), t("xsbench", sys, Native), t("xsbench", sys, NativeVendor));
        push(
            "XSBench: ompx beats native under both compilers",
            o < n && o < v,
            format!("{}: ompx/native = {:.3}", sys.label(), o / n),
        );
    }
    push(
        "XSBench: omp series flagged excluded (invalid checksum in paper)",
        run_app("xsbench", Nvidia, Omp, scale).excluded,
        "flag carried".into(),
    );

    // RSBench
    {
        let (o, m, n) =
            (t("rsbench", Nvidia, Ompx), t("rsbench", Nvidia, Omp), t("rsbench", Nvidia, Native));
        push(
            "RSBench A100: ompx < omp < cuda (omp beats cuda via heap-to-shared)",
            o < m && m < n,
            format!("ompx {o:.3}, omp {m:.3}, cuda {n:.3}"),
        );
        let (o, m, n) =
            (t("rsbench", Amd, Ompx), t("rsbench", Amd, Omp), t("rsbench", Amd, Native));
        push(
            "RSBench MI250: ompx < hip; omp slowest",
            o < n && n < m,
            format!("ompx {o:.3}, hip {n:.3}, omp {m:.3}"),
        );
    }

    // SU3 crossover
    {
        let r = t("su3", Nvidia, Ompx) / t("su3", Nvidia, Native);
        push(
            "SU3 A100: ompx/cuda in 1.03..1.20 (paper ~1.09)",
            (1.03..1.20).contains(&r),
            format!("{r:.3}"),
        );
        let r = t("su3", Amd, Native) / t("su3", Amd, Ompx);
        push(
            "SU3 MI250: hip/ompx in 1.15..1.50 (paper ~1.28)",
            (1.15..1.50).contains(&r),
            format!("{r:.3}"),
        );
    }

    // AIDW
    {
        let times: Vec<f64> = ProgVersion::all().iter().map(|v| t("aidw", Amd, *v)).collect();
        let spread = times.iter().cloned().fold(0.0f64, f64::max)
            / times.iter().cloned().fold(f64::INFINITY, f64::min);
        push(
            "AIDW MI250: all four versions within 25%",
            spread < 1.25,
            format!("spread {spread:.3}"),
        );
        let r = t("aidw", Nvidia, Ompx) / t("aidw", Nvidia, Native);
        push(
            "AIDW A100: ompx a few % behind clang-cuda",
            (1.01..1.20).contains(&r),
            format!("{r:.3}"),
        );
        let r = t("aidw", Nvidia, Ompx) / t("aidw", Nvidia, NativeVendor);
        push("AIDW A100: ompx matches cuda-nvcc", (0.9..1.1).contains(&r), format!("{r:.3}"));
    }

    // Adam
    for sys in [Nvidia, Amd] {
        let r = t("adam", sys, Omp) / t("adam", sys, Native);
        push(
            "Adam: omp an order of magnitude slower (32-thread bug)",
            (4.0..30.0).contains(&r),
            format!("{}: omp/native = {r:.2}", sys.label()),
        );
    }
    {
        let r = t("adam", Amd, Native) / t("adam", Amd, Ompx);
        push("Adam MI250: ompx beats hip (paper 16.6%)", r > 1.05, format!("hip/ompx = {r:.3}"));
    }

    // Stencil
    for sys in [Nvidia, Amd] {
        let o = t("stencil", sys, Ompx);
        let n = t("stencil", sys, Native);
        let m = t("stencil", sys, Omp);
        push(
            "Stencil: ompx beats native; omp two orders of magnitude slower",
            o < n && m / o > 50.0,
            format!("{}: ompx/native = {:.3}, omp/ompx = {:.1}", sys.label(), o / n, m / o),
        );
    }
    checks
}

/// Verify cross-version checksum agreement for one app on both systems.
/// Returns the common checksum on success.
pub fn verify_app(app: &str, scale: WorkScale) -> Result<u64, String> {
    let mut sums = std::collections::HashMap::new();
    for sys in [System::Nvidia, System::Amd] {
        for v in ProgVersion::all() {
            let r = run_app(app, sys, v, scale);
            sums.entry(r.checksum).or_insert_with(Vec::new).push(format!(
                "{}/{}",
                sys.label(),
                r.label
            ));
        }
    }
    if sums.len() == 1 {
        Ok(*sums.keys().next().unwrap())
    } else {
        Err(format!("{app}: checksum divergence: {sums:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subfigures_cover_a_through_l() {
        let mut labels = Vec::new();
        for sys in [System::Nvidia, System::Amd] {
            for app in APP_NAMES {
                labels.push(subfigure_label(app, sys));
            }
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn paper_reference_covers_every_bar() {
        for sys in [System::Nvidia, System::Amd] {
            for app in APP_NAMES {
                for v in ProgVersion::all() {
                    let label = v.label(sys);
                    let r = paper_reference_seconds(app, sys, label);
                    // Only the XSBench omp series is absent (excluded).
                    if app == "xsbench" && label == "omp" {
                        assert!(r.is_none());
                    } else {
                        assert!(
                            r.is_some(),
                            "missing paper value for {app}/{}/{label}",
                            sys.label()
                        );
                    }
                }
            }
        }
    }
}
