//! The trust stack's serving benchmark.
//!
//! ```text
//! perfbench --workload <ingest_durable|rounds_remote|fleet_failover>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! With `--trace 0` one untraced pass measures the end-to-end metrics.
//! With `--trace 1` an untraced and a traced pass of half the time each
//! give the tracing overhead and the workload's layer counters, and the
//! layer probes (the waterfall and micro-probes) run after them. Every
//! pass checks its served state against a sequential oracle outside the
//! timed region. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod common;
mod fleet;
mod gen;
mod ingest;
mod layers;
mod measure;
mod rounds;

use common::{Config, RunOutput};
use measure::Tally;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["ingest_durable", "rounds_remote", "fleet_failover"];

/// The end-to-end metrics the result line carries on `--trace 0`: the
/// ones every workload has, that are never zero, and that hold steady on
/// a machine shared with other tenants. Wall-clock throughput and latency
/// move with the CPU time other tenants take (measured as steal), so they
/// are printed and recorded but not carried; CPU time is not charged for
/// stolen time.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("cpu_per_commit_rt", "rt"), ("peak_rss_mb", "MB")];

/// The thread round-trip CPU cost `setup_s` is scaled to: about what one
/// costs on the 2-vCPU guest this benchmark was written on.
const NOMINAL_ROUNDTRIP_NS: f64 = 15_000.0;

/// The per-layer metrics the result line carries on `--trace 1`.
const PER_LAYER: [(&str, &str); 46] = [
    ("waterfall.r1_engine_ns", "ns"),
    ("waterfall.r2_journal_ns", "ns"),
    ("waterfall.r3_fsync_ns", "ns"),
    ("waterfall.r4_service1_ns", "ns"),
    ("waterfall.r5_sharded2_ns", "ns"),
    ("waterfall.r6_wire_ns", "ns"),
    ("waterfall.r7_fleet_ns", "ns"),
    ("waterfall.r1_engine_cpu_ns", "ns"),
    ("waterfall.r2_journal_cpu_ns", "ns"),
    ("waterfall.r3_fsync_cpu_ns", "ns"),
    ("waterfall.r4_service1_cpu_ns", "ns"),
    ("waterfall.r5_sharded2_cpu_ns", "ns"),
    ("waterfall.r6_wire_cpu_ns", "ns"),
    ("waterfall.r7_fleet_cpu_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("delegation.build_ns", "ns"),
    ("delegation.evaluate_ns", "ns"),
    ("store.fold_ns_per_session", "ns"),
    ("store.update_share", "ratio"),
    ("store.rss_bytes_per_record", "B"),
    ("log.append_ns_per_session", "ns"),
    ("log.fsync_ns_per_session", "ns"),
    ("log.barrier_us_p50", "us"),
    ("log.barrier_us_p99", "us"),
    ("log.fsyncs", "count"),
    ("log.bytes_per_session", "B"),
    ("log.segments", "count"),
    ("log.replay_ns_per_frame", "ns"),
    ("service.actor_ns_per_session", "ns"),
    ("service.mean_commit_batch", "count"),
    ("service.largest_commit_batch", "count"),
    ("service.drains", "count"),
    ("service.saturation_max", "ratio"),
    ("service.evaluate_us", "us"),
    ("replica.read_ns", "ns"),
    ("replica.lag_nonzero_ratio", "ratio"),
    ("replica.publish_lag", "count"),
    ("sharded.route_ns_per_session", "ns"),
    ("sharded.imbalance", "ratio"),
    ("remote.ping_us", "us"),
    ("remote.commit_ns_per_session", "ns"),
    ("framing.crc_ns_per_kib", "ns"),
    ("fleet.tag_ns_per_session", "ns"),
    ("fleet.route_ns_per_session", "ns"),
    ("fleet.stall_ms", "ms"),
    ("fleet.folded_over_sent", "ratio"),
];

/// Calls per block for the commit percentiles: each block's p99 has ten
/// calls beyond it.
const BLOCK: usize = 1_000;

/// Spans written per client to the span file.
const SPAN_CAP: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

fn run_workload(name: &str, cfg: &Config) -> RunOutput {
    let smoke = cfg.smoke;
    match name {
        "ingest_durable" => ingest::run(cfg, if smoke { &ingest::SMOKE } else { &ingest::FULL }),
        "rounds_remote" => rounds::run(cfg, if smoke { &rounds::SMOKE } else { &rounds::FULL }),
        _ => fleet::run(cfg, if smoke { &fleet::SMOKE } else { &fleet::FULL }),
    }
}

/// The host and build stamp every result carries.
fn host_stamp() -> Vec<(&'static str, String)> {
    let command = |program: &str, args: &[&str]| {
        let cwd = std::env::current_dir().unwrap_or_default();
        let mut cmd = std::process::Command::new(program);
        cmd.args(args).stdin(std::process::Stdio::null()).stderr(std::process::Stdio::null());
        // never look for a repository above the benchmark's own directory
        if let Some(parent) = cwd.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".to_string(), |n| n.to_string()),
        ),
        ("rustc", command("rustc", &["-V"])),
        ("git_rev", command("git", &["rev-parse", "HEAD"])),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
    ]
}

const MIB: f64 = 1024.0 * 1024.0;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Acked sessions per second: the median of the run's one-second slices.
fn commits_per_s(o: &RunOutput) -> f64 {
    let rates = measure::slice_rates(&o.acks, 1_000_000_000, (o.elapsed_s * 1e9) as u64);
    if rates.is_empty() {
        common::ratio(o.commits as f64, o.elapsed_s)
    } else {
        measure::median(&rates)
    }
}

/// One pass of `name`, with the machine's thread round-trip cost read
/// before and after it.
fn measured_pass(name: &str, cfg: &Config) -> RunOutput {
    let before = measure::roundtrip_cpu_ns();
    let mut o = run_workload(name, cfg);
    o.roundtrip_ns = (before + measure::roundtrip_cpu_ns()) / 2.0;
    o
}

/// Process CPU per acked session: the median of the run's one-second
/// slices, or the whole run's when it is shorter than a second.
fn cpu_us_per_commit(o: &RunOutput) -> f64 {
    let slices = measure::slice_cpu_us_per_session(&o.acks, &o.cpu_marks);
    if slices.is_empty() {
        common::ratio(o.run_cpu_ns as f64 / 1e3, o.commits as f64)
    } else {
        measure::median(&slices)
    }
}

/// The fifteen end-to-end metrics of one pass, plus the set-up's wall
/// time and the CPU cost per commit (per-slice median and whole run):
/// `(name, value, unit, samples)`, with `None` where the workload has no
/// such call.
fn end_to_end(o: &RunOutput) -> Vec<(&'static str, Option<f64>, &'static str, usize)> {
    let (_, _, cn) = o.commit.summary();
    let (r50, r99, rn) = o.round.summary();
    let (q50, q99, qn) = o.read.summary();
    let (d50, d99, dn) = o.decide.summary();
    let has_rounds = rn > 0;
    let setup_cpu = measure::median(&o.setup_cpu);
    let when = |ok: bool, v: f64| ok.then_some(v);
    vec![
        (
            "setup_s",
            Some(setup_cpu * NOMINAL_ROUNDTRIP_NS / o.roundtrip_ns.max(1.0)),
            "s",
            o.setup.len(),
        ),
        ("setup_cpu_s", Some(setup_cpu), "s", o.setup.len()),
        ("setup_wall_s", Some(measure::median(&o.setup)), "s", o.setup.len()),
        (
            "cpu_per_commit_rt",
            Some(cpu_us_per_commit(o) * 1e3 / o.roundtrip_ns.max(1.0)),
            "rt",
            o.commits as usize,
        ),
        ("cpu_us_per_commit", Some(cpu_us_per_commit(o)), "us", o.commits as usize),
        (
            "cpu_us_per_commit_whole",
            Some(common::ratio(o.run_cpu_ns as f64 / 1e3, o.commits as f64)),
            "us",
            o.commits as usize,
        ),
        ("commits_per_s", Some(commits_per_s(o)), "1/s", o.commits as usize),
        ("commit_p50_ms", Some(o.commit.block_quantile(BLOCK, 0.50) / 1e6), "ms", cn),
        ("commit_p99_ms", Some(o.commit.block_quantile(BLOCK, 0.99) / 1e6), "ms", cn),
        ("rounds_per_s", when(has_rounds, common::ratio(o.rounds as f64, o.elapsed_s)), "1/s", rn),
        ("round_p50_us", when(has_rounds, us(r50)), "us", rn),
        ("round_p99_us", when(has_rounds, us(r99)), "us", rn),
        ("read_p50_us", when(has_rounds, us(q50)), "us", qn),
        ("read_p99_us", when(has_rounds, us(q99)), "us", qn),
        ("decide_p50_us", when(has_rounds, us(d50)), "us", dn),
        ("decide_p99_us", when(has_rounds, us(d99)), "us", dn),
        ("reopen_s", o.reopen_s, "s", usize::from(o.reopen_s.is_some())),
        (
            "disk_bytes_per_record",
            o.disk_bytes_per_record,
            "B",
            usize::from(o.disk_bytes_per_record.is_some()),
        ),
        (
            "peak_rss_mb",
            Some(o.peak_rss_bytes.saturating_sub(o.record_bytes()) as f64 / MIB),
            "MB",
            1,
        ),
        ("peak_rss_with_records_mb", Some(o.peak_rss_bytes as f64 / MIB), "MB", 1),
        (
            "error_rate",
            Some(common::ratio(o.tally.failed as f64, o.tally.attempted as f64)),
            "ratio",
            o.tally.attempted as usize,
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (JSON has no infinities or NaN).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_pass(label: &str, o: &RunOutput) {
    println!("pass {label}: {:.3}s measured, inputs {}", o.elapsed_s, pairs(&o.inputs));
    for (name, value, unit, n) in end_to_end(o) {
        match value {
            Some(v) => println!("  e2e {name:<22} {v:>16.4} {unit:<5} n={n}"),
            None => println!("  e2e {name:<22} {:>16} {unit:<5} (not on this workload)", "n/a"),
        }
    }
    println!(
        "  calls attempted={} failed={} errors_by_layer={}",
        o.tally.attempted,
        o.tally.failed,
        if o.tally.errors.is_empty() { "{}".to_string() } else { format!("{:?}", o.tally.errors) }
    );
    let rates = measure::slice_rates(&o.acks, 1_000_000_000, (o.elapsed_s * 1e9) as u64);
    let (c50, c99, _) = o.commit.summary();
    println!(
        "  commits per 1s slice {:?}; whole run: {:.1}/s, commit p50 {:.4} ms, p99 {:.4} ms",
        rates.iter().map(|r| r.round() as u64).collect::<Vec<_>>(),
        common::ratio(o.commits as f64, o.elapsed_s),
        ms(c50),
        ms(c99)
    );
    let cpu_slices = measure::slice_cpu_us_per_session(&o.acks, &o.cpu_marks);
    println!(
        "  CPU us per session per 1s slice {:?}",
        cpu_slices.iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    println!("  thread round trip {:.1} us of CPU", o.roundtrip_ns / 1e3);
    for note in &o.notes {
        println!("  note {note}");
    }
    if o.check_failures.is_empty() {
        println!("  checks passed");
    }
    for failure in &o.check_failures {
        println!("  CHECK FAILED {failure}");
    }
}

fn pairs(p: &[(&str, String)]) -> String {
    p.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let host = host_stamp();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} smoke={} clients={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        common::CLIENTS,
        pairs(&host)
    );
    let cfg = |trace: bool, seconds: f64| Config {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        out: args.out.clone(),
        trace,
    };

    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut report_passes = Vec::new();
    if !args.trace {
        let o = measured_pass(&args.workload, &cfg(false, args.seconds));
        print_pass("untraced", &o);
        let all = end_to_end(&o);
        for (name, unit) in END_TO_END {
            let v = all.iter().find(|m| m.0 == name).and_then(|m| m.1).unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
        tally.merge(o.tally.clone());
        failures.extend(o.check_failures.iter().cloned());
        report_passes.push(("untraced", o));
    } else {
        let plain = measured_pass(&args.workload, &cfg(false, args.seconds / 2.0));
        print_pass("untraced", &plain);
        let traced = measured_pass(&args.workload, &cfg(true, args.seconds / 2.0));
        print_pass("traced", &traced);
        let probe_dir = args.out.join(format!("probe-{}", std::process::id()));
        let sizes = if args.smoke { &layers::SMOKE } else { &layers::FULL };
        let mut probe_tally = Tally::default();
        let mut layer = layers::run(args.seed, sizes, &probe_dir, &mut probe_tally);
        let _ = std::fs::remove_dir_all(&probe_dir);
        println!(
            "  layer probes: calls attempted={} failed={} errors_by_layer={:?}",
            probe_tally.attempted, probe_tally.failed, probe_tally.errors
        );
        layer.extend(traced.layer.iter().map(|(k, v)| (*k, *v)));
        layer.insert(
            "trace.overhead_ratio",
            common::ratio(cpu_us_per_commit(&traced), cpu_us_per_commit(&plain)),
        );
        let span_count: usize = traced.spans.iter().map(Vec::len).sum();
        let span_path = args.out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match measure::write_spans(&span_path, &traced.spans, SPAN_CAP) {
            Ok(n) => {
                println!("  spans: {span_count} recorded, {n} written to {}", span_path.display())
            }
            Err(e) => println!("  spans: {span_count} recorded, not written: {e}"),
        }
        for (name, (n, mean, own)) in measure::span_summary(&traced.spans) {
            println!(
                "  span {name:<28} n={n:<8} mean_us={:<10.2} self_us={:.2}",
                mean / 1e3,
                own / 1e3
            );
        }
        for (name, unit) in PER_LAYER {
            match layer.get(name) {
                Some(&v) => metrics.push((name, v, unit)),
                None => failures.push(format!("per-layer metric {name} was not measured")),
            }
        }
        for pass in [&plain, &traced] {
            tally.merge(pass.tally.clone());
            failures.extend(pass.check_failures.iter().cloned());
        }
        tally.merge(probe_tally);
        report_passes.push(("untraced", plain));
        report_passes.push(("traced", traced));
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} {} {unit}", json_num(*v));
    }

    // the full report, for later reading next to the result line
    let report_path = args.out.join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \"passes\": {{",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        host.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect::<Vec<_>>().join(", ")
    );
    let passes: Vec<String> = report_passes
        .iter()
        .map(|(label, o)| {
            let e2e: Vec<String> = end_to_end(o)
                .into_iter()
                .map(|(n, v, u, c)| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {c}}}",
                        json_str(n),
                        v.map_or("null".to_string(), json_num),
                        json_str(u)
                    )
                })
                .collect();
            let errors: Vec<String> =
                o.tally.errors.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
            format!(
                "{}: {{\"inputs\": {{{}}}, \"end_to_end\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"errors\": {{{}}}, \"checks_failed\": [{}]}}",
                json_str(label),
                o.inputs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect::<Vec<_>>().join(", "),
                e2e.join(", "),
                o.tally.attempted,
                o.tally.failed,
                errors.join(", "),
                o.check_failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    report.push_str(&passes.join(", "));
    report.push_str("}}\n");
    if let Err(e) = std::fs::write(&report_path, report) {
        println!("report not written: {e}");
    }

    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
