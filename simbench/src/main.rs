//! `simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload for about `S` seconds on one thread, prints every
//! metric by name with its unit, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 if any
//! simulated output differs from its reference, 2 on a usage or set-up
//! error (without a JSON line).

use std::process::ExitCode;

use sam_simbench::bench::{self, Kind, Report, GOLDEN_SEED};

const USAGE: &str = "usage: simbench --workload <fig12_q|fig12_qs|fig16_hybrid|ctrl_stream> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = GOLDEN_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = parse_u64(value).ok_or(format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = bench::setup(args.kind, args.seed).and_then(|setup| {
        let report = if args.trace {
            bench::trace(&setup, args.seconds)
        } else {
            bench::measure(&setup, args.seconds)?
        };
        Ok((setup, report))
    });
    let (setup, report) = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "# workload {} seed {:#x} trace {}: {} runs per pass, {} untraced + {} traced passes{}, one thread",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        setup.runs_per_pass(),
        report.passes.0,
        report.passes.1,
        if args.trace { " + 1 capture pass" } else { "" }
    );
    println!("# correctness: {}", setup.check_description());
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    if let Some((p50, p90)) = report.run_ms {
        println!(
            "# run_ms_p50 = {p50} ms, run_ms_p90 = {p90} ms ({} samples: each run's {} fastest; not gated)",
            bench::FASTEST_K * setup.runs_per_pass(),
            bench::FASTEST_K
        );
    }
    println!(
        "# fail_frac = {} ({} of {} runs)",
        report.fail_frac(),
        report.failed,
        report.attempted
    );
    match report.paper_gmean_err {
        Some(e) => println!(
            "# paper_gmean_err = {e} (mean |ln(measured/paper)| of the 7 Figure 12 gmeans)"
        ),
        None => println!("# paper_gmean_err: unvalidated (no paper reference for this workload)"),
    }
    for failure in &report.failures {
        println!("# FAIL {failure}");
    }
    if report.replay_errors > 0 {
        println!("# FAIL {} DRAM replay errors", report.replay_errors);
    }
    println!("{}", json_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
