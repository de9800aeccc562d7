//! End-to-end benchmark of FabricSharp's orderer pipeline: execute → arrive → form → commit →
//! append, driven closed-loop from one thread over the crates' public functions.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <smallbank_hot|ycsb_b_1m|smallbank_mixed_durable|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats fixed-size rounds of the workload until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]), checks every round with the correctness gate, and prints one line per
//! metric followed by a JSON result line. `--trace 0` reports the end-to-end metrics from
//! untraced rounds. `--trace 1` alternates untraced and traced rounds and reports the
//! per-layer breakdown of the traced ones. Files go to `perfbench/out/<workload>/`:
//! `counts.json` (deterministic counts), and with `--trace 1` `spans.jsonl`, `trace.json`
//! (Chrome trace events, loads in Perfetto) and `layers.txt`. `--workload all` runs each
//! workload in a child process of its own and exits 0 only if every one passed.

mod report;
mod round;
mod trace;
mod workloads;

use report::{median, quantile, result_line, tail_quantile, Metric};
use round::{run_round, Round};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{covered_ns, self_times, Kind, NoTrace, Recorder, Span, LAYERS};
use workloads::Workload;

/// Rounds (untraced; with `--trace 1` also traced) every run makes, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Largest share of the traced wall-clock no layer span may cover.
const MAX_UNATTRIBUTED: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(parsed)
}

/// Every round of one run.
pub struct Run {
    pub untraced: Vec<Round>,
    pub traced: Vec<(Round, Vec<Span>)>,
}

/// Repeats rounds of `w` until `seconds` have passed and at least `min_rounds` are done.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_rounds: usize,
    dir: &Path,
) -> Run {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    while run.untraced.len() < min_rounds || started.elapsed() < budget {
        let first = run.untraced.is_empty();
        run.untraced
            .push(run_round(w, seed, dir, &mut NoTrace, first));
        if trace {
            let mut recorder = Recorder::with_capacity(4 * w.txns + 8 * w.txns / w.block_size + 8);
            let round = run_round(w, seed, dir, &mut recorder, false);
            run.traced.push((round, recorder.spans));
        }
    }
    run
}

/// Correctness failures of the run: every round's own gate, plus every round (traced ones
/// included) reproducing the first round's tip digest and commit count. The first round's
/// gate also ran the serializability oracle, so the digest match extends it to the others.
pub fn gate(run: &Run) -> Vec<String> {
    let reference = &run.untraced[0];
    let rounds = run
        .untraced
        .iter()
        .map(|r| ("untraced", r))
        .chain(run.traced.iter().map(|(r, _)| ("traced", r)));
    let mut errors = Vec::new();
    for (i, (label, r)) in rounds.enumerate() {
        errors.extend(r.errors.iter().map(|e| format!("round {i} ({label}): {e}")));
        if r.tip_digest != reference.tip_digest || r.committed != reference.committed {
            errors.push(format!(
                "round {i} ({label}): tip {} / {} committed differs from round 0: {} / {}",
                r.tip_digest, r.committed, reference.tip_digest, reference.committed
            ));
        }
    }
    errors
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

pub fn end_to_end(run: &Run, peak_rss_mib: f64) -> Vec<Metric> {
    let rounds = &run.untraced;
    let n = rounds.len();
    let per_round = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let block_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.block_us.iter().map(|us| us / 1e3))
        .collect();
    let tail = tail_quantile(block_ms.len());
    let of_rounds = format!("median of {n} rounds");
    vec![
        Metric::new(
            "effective_tps",
            per_round(Round::effective_tps),
            "txn/s",
            of_rounds.clone(),
        ),
        Metric::new(
            "commit_ratio",
            rounds[0].commit_ratio(),
            "ratio",
            format!("{} of {} offered", rounds[0].committed, rounds[0].offered),
        ),
        Metric::new(
            "block_p50_ms",
            quantile(&block_ms, 0.5),
            "ms",
            format!("p50 of {} blocks", block_ms.len()),
        ),
        Metric::new(
            "block_p99_ms",
            quantile(&block_ms, tail),
            "ms",
            format!("p{:.1} of {} blocks", tail * 100.0, block_ms.len()),
        ),
        Metric::new("setup_s", per_round(|r| r.setup_s), "s", of_rounds.clone()),
        Metric::new(
            "peak_rss_mib",
            peak_rss_mib,
            "MiB",
            "VmHWM of this process".into(),
        ),
        Metric::new("recover_s", per_round(|r| r.recover_s), "s", of_rounds),
    ]
}

/// Self time, per-call durations and coverage of every layer over the traced rounds.
struct LayerBreakdown {
    self_ns: [u64; LAYERS.len()],
    calls_us: [Vec<f64>; LAYERS.len()],
    wall_ns: u64,
    unattributed_ns: u64,
}

fn breakdown(traced: &[(Round, Vec<Span>)]) -> LayerBreakdown {
    let mut b = LayerBreakdown {
        self_ns: [0; LAYERS.len()],
        calls_us: Default::default(),
        wall_ns: 0,
        unattributed_ns: 0,
    };
    for (_, spans) in traced {
        let own = self_times(spans);
        let mut layer_intervals = Vec::with_capacity(spans.len());
        for (s, own_ns) in spans.iter().zip(own) {
            if let Some(l) = LAYERS.iter().position(|k| *k == s.kind) {
                b.self_ns[l] += own_ns;
                b.calls_us[l].push(s.duration_ns() as f64 / 1e3);
                layer_intervals.push((s.start_ns, s.end_ns));
            }
        }
        for root in spans.iter().filter(|s| s.kind == Kind::Round) {
            let covered = covered_ns(&mut layer_intervals, root.start_ns, root.end_ns);
            b.wall_ns += root.duration_ns();
            b.unattributed_ns += root.duration_ns() - covered;
        }
    }
    b
}

/// The per-layer metrics, the per-layer table, and the layer-sum check's failures.
pub fn per_layer(run: &Run) -> (Vec<Metric>, Vec<String>, Vec<String>) {
    let b = breakdown(&run.traced);
    let rounds: Vec<&Round> = run.traced.iter().map(|(r, _)| r).collect();
    let sum = |f: fn(&Round) -> f64| rounds.iter().map(|r| f(r)).sum::<f64>();
    let offered = sum(|r| r.offered as f64);
    let blocks = sum(|r| r.blocks as f64);
    let in_ledger = sum(|r| (r.committed + r.validation_aborts) as f64);
    let calls = |k: Kind| &b.calls_us[LAYERS.iter().position(|l| *l == k).expect("a layer")];
    let self_us =
        |k: Kind| b.self_ns[LAYERS.iter().position(|l| *l == k).expect("a layer")] as f64 / 1e3;
    let share = |ns: u64| ns as f64 / b.wall_ns.max(1) as f64;
    let first = rounds[0];
    let checkpoint_ms: Vec<f64> = first.checkpoint_us.iter().map(|us| us / 1e3).collect();
    let pct = |k: Kind, suffix: &str| {
        let samples = calls(k);
        let q = if suffix == "p50" {
            0.5
        } else {
            tail_quantile(samples.len())
        };
        Metric::new(
            format!("{}.{suffix}_us", k.name()),
            quantile(samples, q),
            "us",
            format!("p{:.1} of {} calls", q * 100.0, samples.len()),
        )
    };
    let traced_rounds = format!("{} traced rounds", rounds.len());
    let mut metrics = vec![
        Metric::new(
            "workload.us_per_txn",
            self_us(Kind::Workload) / offered,
            "us",
            traced_rounds.clone(),
        ),
        Metric::new(
            "endorse.us_per_txn",
            self_us(Kind::Endorse) / offered,
            "us",
            traced_rounds.clone(),
        ),
        Metric::new(
            "endorse.reads_per_txn",
            sum(|r| r.reads as f64) / offered,
            "count",
            "deterministic".into(),
        ),
        pct(Kind::Arrival, "p50"),
        pct(Kind::Arrival, "p99"),
        Metric::new(
            "arrival.accept_ratio",
            sum(|r| r.accepted as f64) / offered,
            "ratio",
            "deterministic".into(),
        ),
        Metric::new(
            "arrival.avg_hops",
            first.avg_hops,
            "count",
            "deterministic".into(),
        ),
        pct(Kind::Formation, "p50"),
        pct(Kind::Formation, "p99"),
        Metric::new(
            "formation.txns_per_block",
            in_ledger / blocks,
            "count",
            "deterministic".into(),
        ),
        pct(Kind::Commit, "p50"),
        pct(Kind::Commit, "p99"),
        Metric::new(
            "commit.writes_per_block",
            sum(|r| r.committed_writes as f64) / blocks,
            "count",
            "deterministic".into(),
        ),
        pct(Kind::Ledger, "p50"),
        pct(Kind::Ledger, "p99"),
        Metric::new(
            "ledger.bytes_per_txn",
            first.segment_bytes as f64 / (in_ledger / rounds.len() as f64),
            "B",
            "segment bytes / txns; 0 in memory".into(),
        ),
        pct(Kind::Notify, "p50"),
        Metric::new(
            "checkpoint.count",
            checkpoint_ms.len() as f64,
            "count",
            "per round, deterministic".into(),
        ),
        Metric::new(
            "checkpoint.p50_ms",
            quantile(&checkpoint_ms, 0.5),
            "ms",
            format!("of {} checkpoints", checkpoint_ms.len()),
        ),
        Metric::new(
            "checkpoint.max_ms",
            quantile(&checkpoint_ms, 1.0),
            "ms",
            format!("of {} checkpoints", checkpoint_ms.len()),
        ),
        Metric::new(
            "checkpoint.bytes",
            first.checkpoint_bytes as f64,
            "B",
            "per round, deterministic".into(),
        ),
        Metric::new(
            "recovery.blocks_replayed",
            first.blocks_replayed as f64,
            "count",
            "deterministic".into(),
        ),
    ];
    let mut table = vec![format!(
        "{:<11} {:>12} {:>8} {:>9} {:>11} {:>11}",
        "layer", "self_ms/rnd", "share", "calls", "p50_us", "p99_us"
    )];
    let mut share_sum = 0.0;
    for (l, kind) in LAYERS.iter().enumerate() {
        let s = share(b.self_ns[l]);
        share_sum += s;
        let samples = &b.calls_us[l];
        table.push(format!(
            "{:<11} {:>12.3} {:>7.2}% {:>9} {:>11.2} {:>11.2}",
            kind.name(),
            b.self_ns[l] as f64 / 1e6 / rounds.len() as f64,
            s * 100.0,
            samples.len(),
            quantile(samples, 0.5),
            quantile(samples, tail_quantile(samples.len())),
        ));
        metrics.push(Metric::new(
            format!("share.{}", kind.name()),
            s,
            "ratio",
            "self time / traced wall".into(),
        ));
    }
    let unattributed = share(b.unattributed_ns);
    table.push(format!(
        "{:<11} {:>12.3} {:>7.2}%",
        "unattributed",
        b.unattributed_ns as f64 / 1e6 / rounds.len() as f64,
        unattributed * 100.0
    ));
    metrics.push(Metric::new(
        "unattributed_share",
        unattributed,
        "ratio",
        "wall no layer span covers".into(),
    ));
    let tps = |rs: Vec<&Round>| median(&rs.iter().map(|r| r.effective_tps()).collect::<Vec<_>>());
    metrics.push(Metric::new(
        "trace_overhead",
        tps(run.untraced.iter().collect()) / tps(rounds.clone()),
        "ratio",
        "untraced / traced effective_tps".into(),
    ));

    let mut errors = Vec::new();
    if (share_sum + unattributed - 1.0).abs() > 1e-3 {
        errors.push(format!(
            "layer shares {share_sum:.6} + unattributed {unattributed:.6} do not account for the traced wall-clock"
        ));
    }
    if unattributed > MAX_UNATTRIBUTED {
        errors.push(format!(
            "unattributed share {unattributed:.4} exceeds {MAX_UNATTRIBUTED}"
        ));
    }
    (metrics, table, errors)
}

/// The deterministic counts of the run, kept apart from wall-clock spans so two commits can
/// be compared on them exactly.
fn counts_json(w: &Workload, seed: u64, r: &Round) -> String {
    let fields: [(&str, String); 16] = [
        ("workload", report::json_string(w.name)),
        ("seed", seed.to_string()),
        ("offered", r.offered.to_string()),
        ("committed", r.committed.to_string()),
        ("early_aborts", r.early_aborts.to_string()),
        ("validation_aborts", r.validation_aborts.to_string()),
        ("commit_ratio", report::json_number(r.commit_ratio())),
        ("accepted_arrivals", r.accepted.to_string()),
        ("blocks", r.blocks.to_string()),
        ("reads", r.reads.to_string()),
        ("committed_writes", r.committed_writes.to_string()),
        ("arrival.avg_hops", report::json_number(r.avg_hops)),
        ("checkpoint.count", r.checkpoint_us.len().to_string()),
        ("checkpoint.bytes", r.checkpoint_bytes.to_string()),
        ("recovery.blocks_replayed", r.blocks_replayed.to_string()),
        ("tip_digest", report::json_string(&r.tip_digest)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", report::json_string(k)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<26} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let out = PathBuf::from("perfbench/out").join(w.name);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let run = run(w, args.seed, args.seconds, args.trace, MIN_ROUNDS, &out);
    let mut errors = gate(&run);
    let reference = &run.untraced[0];
    println!(
        "workload {} seed {}: {} untraced + {} traced rounds of {} txns; tip digest {}",
        w.name,
        args.seed,
        run.untraced.len(),
        run.traced.len(),
        reference.offered,
        reference.tip_digest
    );
    let end_to_end = end_to_end(&run, peak_rss_mib());
    print_metrics(&end_to_end);
    let mut files = vec![(
        "counts.json",
        std::fs::write(
            out.join("counts.json"),
            counts_json(w, args.seed, reference),
        ),
    )];
    let metrics = if args.trace {
        let (layers, table, layer_errors) = per_layer(&run);
        errors.extend(layer_errors);
        let spans = &run.traced[0].1;
        files.push((
            "spans.jsonl",
            trace::write_jsonl(&out.join("spans.jsonl"), spans),
        ));
        files.push((
            "trace.json",
            trace::write_chrome(&out.join("trace.json"), spans),
        ));
        files.push((
            "layers.txt",
            std::fs::write(out.join("layers.txt"), table.join("\n") + "\n"),
        ));
        for line in &table {
            println!("{line}");
        }
        print_metrics(&layers);
        layers
    } else {
        end_to_end
    };
    for (name, result) in files {
        if let Err(e) = result {
            errors.push(format!("write {}: {e}", out.join(name).display()));
        }
    }

    let all_rounds = run.untraced.iter().chain(run.traced.iter().map(|(r, _)| r));
    let attempted: u64 = all_rounds.clone().map(|r| r.offered).sum();
    let mut failed: u64 = all_rounds
        .map(|r| {
            if r.errors.is_empty() {
                r.failed
            } else {
                r.offered
            }
        })
        .sum();
    for e in &errors {
        eprintln!("GATE FAILED: {e}");
    }
    if !errors.is_empty() && failed == 0 {
        failed = attempted;
    }
    println!(
        "{}",
        result_line(errors.is_empty(), attempted, failed, &metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload in a child process of its own (so each peak RSS is its
/// own), waited for in turn.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for name in workloads::NAMES {
        let mut child_args: Vec<String> = raw.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = name.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).output();
        let output = match status {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success();
        if let Some(last) = stdout.lines().last() {
            results.push(format!("{}: {last}", report::json_string(name)));
        }
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    match workloads::by_name(&args.workload) {
        Some(w) => run_one(&w, &args),
        None => {
            eprintln!(
                "unknown workload {:?}; expected one of {} or all",
                args.workload,
                workloads::NAMES.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed under `section` of the repository's BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        body[..body.find(']').expect("list closes")]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn temp_dir_for(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn tiny_runs_report_every_declared_metric_and_pass_the_gate() {
        let end_to_end_names = declared("end_to_end");
        let per_layer_names = declared("per_layer");
        for name in declared("workloads") {
            assert!(
                workloads::NAMES.contains(&name.as_str()),
                "{name} is runnable"
            );
        }
        for name in workloads::NAMES {
            let mut w = workloads::by_name(name).expect("known workload");
            w.txns = 2_000;
            w.params.num_accounts = w.params.num_accounts.min(20_000);
            let dir = temp_dir_for(name);
            let run = run(&w, 7, 0.0, true, 2, &dir);
            std::fs::remove_dir_all(&dir).expect("remove temp dir");
            assert_eq!(gate(&run), Vec::<String>::new(), "{name}");
            assert_eq!(run.untraced.len(), 2, "{name}");

            let e2e = end_to_end(&run, peak_rss_mib());
            let names: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, end_to_end_names, "{name}");
            assert!(e2e.iter().all(|m| m.value > 0.0), "{name}: {e2e:?}");

            let (layers, table, errors) = per_layer(&run);
            assert_eq!(errors, Vec::<String>::new(), "{name}");
            assert_eq!(table.len(), LAYERS.len() + 2, "{name}");
            let names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, per_layer_names, "{name}");
            assert!(layers.iter().all(|m| m.value.is_finite()), "{name}");
            let shares: f64 = layers
                .iter()
                .filter(|m| m.name.starts_with("share.") || m.name == "unattributed_share")
                .map(|m| m.value)
                .sum();
            assert!(
                (shares - 1.0).abs() < 1e-3,
                "{name}: shares sum to {shares}"
            );
        }
    }

    /// The contended workload at its benchmark size. FabricSharp currently commits a
    /// non-serializable history here: endorsements on a lagging snapshot give arrivals
    /// rw-dependencies on committed transactions, and a cycle closing through a ww-dependency
    /// from a committed blind writer to a pending one goes undetected. This test stays red
    /// until the concurrency control is fixed; the workload is kept out of BENCHMARK.json
    /// until then.
    #[test]
    fn smallbank_hot_commits_a_serializable_history() {
        let w = workloads::by_name("smallbank_hot").expect("known workload");
        let dir = temp_dir_for("hot");
        let round = run_round(&w, 7, &dir, &mut NoTrace, true);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
        assert_eq!(round.errors, Vec::<String>::new());
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args: Vec<String> = [
            "--workload",
            "ycsb_b_1m",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_args(&args).expect("valid");
        assert_eq!(
            (parsed.workload.as_str(), parsed.seed, parsed.trace),
            ("ycsb_b_1m", 3, true)
        );
        assert_eq!(parsed.seconds, 2.0);
        for bad in [
            &["--trace", "2"][..],
            &["--seed", "x"],
            &["--seconds"],
            &["--bogus", "1"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
    }
}
