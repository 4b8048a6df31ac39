//! `perfbench` — the seqge benchmark of record.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` is the served run: it boots the serve plane in-process,
//! drives it over one loopback TCP connection and prints the end-to-end
//! metrics, phase-3 medians in reference scans (see `served`) with the
//! same medians in time beside them. `--trace 1` repeats the served run
//! once, untimed for the report, then replays the same inputs through each
//! layer's public functions and prints the per-layer metrics. Either way the last line of
//! stdout is one JSON object, and one record is appended to
//! `<out>/records.jsonl`. See README.md for the workloads and metrics.

mod pin;
mod reference;
mod served;
mod traced;
mod workload;

use reference::{median, windowed_percentile};
use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use workload::Workload;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    Workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}` (one of {names:?})"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: usize = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be in 1..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The checkout's commit, when it is a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out)?;
    let cycles = w.cycles(args.seconds);
    // Read before the measured phases bind every thread to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get()) as u64;
    let (served, layers, mut violations) = if args.trace {
        let t = traced::run(w, args.seed, cycles, &args.out)?;
        let layers: Vec<(String, f64, &str)> =
            t.layers.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect();
        (t.served, Some(layers), t.violations)
    } else {
        let (_, s) = served::run(w, args.seed, cycles, workload::SETUPS, &args.out)?;
        (s, None, Vec::new())
    };
    violations.extend(served.violations.iter().cloned());

    let p50 = |xs: &[f64]| if xs.is_empty() { f64::NAN } else { median(xs) };
    let tail = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            windowed_percentile(xs, workload::TAIL_PERCENTILE, 10)
        }
    };
    // Medians of phase 3 in reference scans, the raw ones beside them.
    // Tails stay raw: they moved less with the host's speed than the
    // reference scan did, so scaling them added spread. They are p90s, not
    // p99s: a p99 needs 1,000 samples per window, one window per run on
    // publish_sbm20k_float, so one host stall decided a run's figure.
    let (visible, reads) = (&served.visible_ms, &served.reads_us);
    let scans = (&served.visible_scans, &served.reads_scans);
    let end_to_end: Vec<(String, f64, &str)> = [
        ("setup_s", median(&served.setup_s), "s"),
        ("ingest_eps", served.ingest_eps, "events/s"),
        ("visible_p50_scans", p50(scans.0), "scans"),
        ("visible_p90_ms", tail(visible), "ms"),
        ("get_embedding_p50_scans", p50(&scans.1[0]), "scans"),
        ("score_link_p50_scans", p50(&scans.1[1]), "scans"),
        ("topk_exact_p50_scans", p50(&scans.1[2]), "scans"),
        ("topk_exact_p90_us", tail(&reads[2]), "us"),
        ("topk_ann_p50_scans", p50(&scans.1[3]), "scans"),
        ("topk_ann_p90_us", tail(&reads[3]), "us"),
        ("peak_rss_mb", served.peak_rss_mb, "MiB"),
        ("linkpred_auc", served.auc, "ratio"),
    ]
    .map(|(n, v, u)| (n.to_string(), v, u))
    .into();
    let raw: Vec<(String, f64, &str)> = [
        ("reference_scan_us", p50(&served.scan_us), "us"),
        ("visible_p50_ms", p50(visible), "ms"),
        ("get_embedding_p50_us", p50(&reads[0]), "us"),
        ("score_link_p50_us", p50(&reads[1]), "us"),
        ("topk_exact_p50_us", p50(&reads[2]), "us"),
        ("topk_ann_p50_us", p50(&reads[3]), "us"),
    ]
    .map(|(n, v, u)| (n.to_string(), v, u))
    .into();

    println!(
        "workload {} seed {} ({} phase-3 cycles; {})",
        w.name, args.seed, cycles, served.placement
    );
    for (name, pc) in served::PHASES.iter().zip(&served.phases) {
        println!("  phase {name:<10} attempted {:>7}  failed {}", pc.attempted, pc.failed);
    }
    println!(
        "  samples: visible {}, get_embedding {}, score_link {}, topk_exact {}, topk_ann {}",
        visible.len(),
        reads[0].len(),
        reads[1].len(),
        reads[2].len(),
        reads[3].len()
    );
    println!(
        "  AUC {:.4} after setup -> {:.4} at end; ANN recall@10 {:.3}, fallbacks {:.4}; digest {:016x}",
        served.auc_after_setup,
        served.auc,
        served.ann_recall,
        served.ann_fallback_share,
        served.digest
    );
    let shown = layers.as_deref().unwrap_or(&end_to_end);
    for (name, value, unit) in shown {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    println!("  phase-3 medians in time (the reference scan is their unit):");
    for (name, value, unit) in &raw {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    if !violations.is_empty() {
        println!("  {} output checks failed (see stderr)", violations.len());
    }

    let attempted: u64 = served.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = served.phases.iter().map(|p| p.failed).sum();
    let correct = violations.is_empty();
    let as_object = |xs: &[(String, f64, &str)]| {
        Value::Object(xs.iter().map(|(n, v, u)| (n.clone(), metric(*v, u))).collect())
    };
    let metrics = as_object(shown);
    let phases = Value::Object(
        served::PHASES
            .iter()
            .zip(&served.phases)
            .map(|(name, pc)| {
                let obj = vec![
                    ("attempted".to_string(), Value::U64(pc.attempted)),
                    ("failed".to_string(), Value::U64(pc.failed)),
                ];
                (name.to_string(), Value::Object(obj))
            })
            .collect(),
    );
    let record = Value::Object(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds as u64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("commit".into(), Value::Str(commit())),
        ("nproc".into(), Value::U64(nproc)),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("placement".into(), Value::Str(served.placement.clone())),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("phases".into(), phases),
        ("metrics".into(), metrics.clone()),
        ("raw".into(), as_object(&raw)),
    ]);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("records.jsonl"))?;
    writeln!(f, "{}", serde_json::to_string(&record).expect("record serializes"))?;

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    Ok(())
}
