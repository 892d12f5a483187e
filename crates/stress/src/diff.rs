//! The differential runner: one stream, many knob settings.
//!
//! Cycle-accurate simulators rarely fail loudly; they fail by drifting.
//! Running the *same* adversarial stream under several configurations
//! and comparing behaviour across runs catches the drift the per-run
//! invariants cannot see:
//!
//! * **starved-count monotonicity** — among runs that differ only in
//!   starvation cap, a smaller cap must force at least as many
//!   starvation decisions as a larger one;
//! * **semantic identity** — runs whose configurations are equal (e.g.
//!   defaults spelled implicitly vs explicitly) must produce
//!   byte-identical stats digests.
//!
//! Cross-run findings are reported as strings rather than
//! [`crate::invariant::Violation`]s: they have no single offending
//! request or cycle, and the shrinker operates on per-run violations
//! only.

use crate::driver::{run_stream, StressOutcome};
use crate::stream::{StressConfig, TimedRequest};

/// One configuration to run the stream under.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffCase {
    /// Display label (unique within a differential run).
    pub label: String,
    /// The knobs.
    pub config: StressConfig,
}

/// One case's result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRun {
    /// The case that produced it.
    pub case: DiffCase,
    /// Measurements and per-run violations.
    pub outcome: StressOutcome,
}

/// All cases' results plus the cross-run findings.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-case results, in case order.
    pub runs: Vec<DiffRun>,
    /// Cross-run invariant failures (empty = all held).
    pub cross_findings: Vec<String>,
}

impl DiffReport {
    /// Total violations across runs plus cross-run findings.
    pub fn total_violations(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.outcome.violations.len())
            .sum::<usize>()
            + self.cross_findings.len()
    }
}

/// Runs `requests` under every case and applies the cross-run checks.
pub fn run_differential(requests: &[TimedRequest], cases: &[DiffCase]) -> DiffReport {
    let runs: Vec<DiffRun> = cases
        .iter()
        .map(|case| DiffRun {
            case: case.clone(),
            outcome: run_stream(&case.config, requests),
        })
        .collect();
    let cross_findings = cross_check(&runs);
    DiffReport {
        runs,
        cross_findings,
    }
}

/// The cross-run checks, separated for reuse on precomputed runs (the
/// bench harness runs cases through its own sweep workers).
pub fn cross_check(runs: &[DiffRun]) -> Vec<String> {
    let mut findings = Vec::new();
    // Monotonicity: group runs equal in everything but the cap.
    for (i, a) in runs.iter().enumerate() {
        for b in runs.iter().skip(i + 1) {
            let (ca, cb) = (&a.case.config, &b.case.config);
            let same_but_cap =
                ca.device == cb.device && ca.drain_hi == cb.drain_hi && ca.drain_lo == cb.drain_lo;
            if same_but_cap && ca.starvation_cap != cb.starvation_cap {
                let (small, large) = if ca.starvation_cap < cb.starvation_cap {
                    (a, b)
                } else {
                    (b, a)
                };
                if small.outcome.starved < large.outcome.starved {
                    findings.push(format!(
                        "starved-count not monotone vs cap: '{}' (cap {}) forced {} < '{}' \
                         (cap {}) forced {}",
                        small.case.label,
                        small.case.config.starvation_cap,
                        small.outcome.starved,
                        large.case.label,
                        large.case.config.starvation_cap,
                        large.outcome.starved
                    ));
                }
            }
            // Semantic identity: equal configs, equal bytes.
            if ca == cb && a.outcome.stats_digest() != b.outcome.stats_digest() {
                findings.push(format!(
                    "equal configs diverged: '{}' vs '{}': {} != {}",
                    a.case.label,
                    b.case.label,
                    a.outcome.stats_digest(),
                    b.outcome.stats_digest()
                ));
            }
            // Scheduler-path identity: the incremental group index and
            // the naive reference scan are exact equivalents, so runs that
            // differ *only* in the scheduler implementation must be
            // byte-identical in both the stats digest and the per-core
            // lanes. This is the index-vs-reference differential.
            let same_but_sched = ca.device == cb.device
                && ca.starvation_cap == cb.starvation_cap
                && ca.drain_hi == cb.drain_hi
                && ca.drain_lo == cb.drain_lo
                && ca.reference_scheduler != cb.reference_scheduler;
            if same_but_sched {
                if a.outcome.stats_digest() != b.outcome.stats_digest() {
                    findings.push(format!(
                        "scheduler paths diverged: '{}' vs '{}': {} != {}",
                        a.case.label,
                        b.case.label,
                        a.outcome.stats_digest(),
                        b.outcome.stats_digest()
                    ));
                }
                if a.outcome.lanes_digest != b.outcome.lanes_digest {
                    findings.push(format!(
                        "scheduler paths diverged in per-core lanes: '{}' vs '{}': {} != {}",
                        a.case.label, b.case.label, a.outcome.lanes_digest, b.outcome.lanes_digest
                    ));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, PatternParams};
    use crate::stream::DeviceKind;

    fn cases() -> Vec<DiffCase> {
        let mk = |label: &str, cap: u64| DiffCase {
            label: label.into(),
            config: StressConfig::new(DeviceKind::Ddr4, cap, 28, 8).unwrap(),
        };
        vec![
            mk("fcfs", 0),
            mk("tight", 256),
            mk("default", 4096),
            DiffCase {
                label: "default-explicit".into(),
                config: StressConfig::ddr4_default(),
            },
            DiffCase {
                label: "default-reference-sched".into(),
                config: StressConfig::ddr4_default().with_reference_scheduler(),
            },
            // The default cap rarely fires on these streams; the tight cap
            // puts starvation-forced picks under the scheduler
            // differential too.
            DiffCase {
                label: "tight-reference-sched".into(),
                config: StressConfig::new(DeviceKind::Ddr4, 256, 28, 8)
                    .unwrap()
                    .with_reference_scheduler(),
            },
        ]
    }

    #[test]
    fn flood_is_clean_and_monotone_across_caps() {
        let stream = Pattern::RowHitFlood.generate(&PatternParams::small(11));
        let report = run_differential(&stream, &cases());
        assert_eq!(report.total_violations(), 0, "{:?}", report.cross_findings);
        // The tight cap really does fire more often than the default, and
        // the reference scan forces exactly the same picks under it.
        let starved: Vec<u64> = report.runs.iter().map(|r| r.outcome.starved).collect();
        assert!(starved[1] >= starved[2], "{starved:?}");
        assert!(starved[1] > 0, "{starved:?}");
        assert_eq!(report.runs[1].outcome, report.runs[5].outcome);
    }

    #[test]
    fn all_patterns_clean_under_default_knobs() {
        for pattern in Pattern::ALL {
            let stream = pattern.generate(&PatternParams::small(3));
            let report = run_differential(&stream, &cases());
            assert_eq!(
                report.total_violations(),
                0,
                "{}: {:?} / {:?}",
                pattern.name(),
                report.cross_findings,
                report
                    .runs
                    .iter()
                    .flat_map(|r| &r.outcome.violations)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Recorded streams — rendered to the on-disk trace format and
    /// parsed back, exactly what `sam-check replay` does — replayed
    /// through the reference scan and the group index produce identical
    /// stats digests, per-core lanes, and completion cycles, at the
    /// default cap and at a tight one that forces starvation picks.
    #[test]
    fn recorded_streams_replay_identically_under_both_schedulers() {
        use crate::stream::{format_stream, parse_stream, StressStream};
        let tight = StressConfig {
            starvation_cap: 256,
            ..StressConfig::ddr4_default()
        };
        for (pattern, config) in Pattern::ALL
            .into_iter()
            .flat_map(|p| [(p, StressConfig::ddr4_default()), (p, tight)])
        {
            let requests = pattern.generate(&PatternParams::small(7));
            let recorded = format_stream(&StressStream { config, requests });
            let replayed = parse_stream(&recorded).unwrap();
            let indexed = run_stream(&replayed.config, &replayed.requests);
            let reference = run_stream(
                &replayed.config.with_reference_scheduler(),
                &replayed.requests,
            );
            assert_eq!(
                indexed.stats_digest(),
                reference.stats_digest(),
                "{}: scheduler paths must not diverge",
                pattern.name()
            );
            assert_eq!(
                indexed.lanes_digest,
                reference.lanes_digest,
                "{}",
                pattern.name()
            );
            assert_eq!(
                indexed.last_finish,
                reference.last_finish,
                "{}",
                pattern.name()
            );
            assert_eq!(indexed, reference, "{}", pattern.name());
        }
    }

    #[test]
    fn scheduler_divergence_is_reported() {
        let stream = Pattern::RowHitFlood.generate(&PatternParams::small(9));
        let mut report = run_differential(&stream, &cases());
        // Forge a desync between the group-index and reference runs.
        let idx = report
            .runs
            .iter()
            .position(|r| r.case.config.reference_scheduler)
            .expect("matrix includes a reference-scheduler case");
        report.runs[idx].outcome.row_hits += 1;
        report.runs[idx].outcome.lanes_digest.push('!');
        let findings = cross_check(&report.runs);
        assert!(
            findings
                .iter()
                .any(|f| f.contains("scheduler paths diverged")),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.contains("diverged in per-core lanes")),
            "{findings:?}"
        );
    }

    #[test]
    fn forged_divergence_is_reported() {
        let stream = Pattern::BankPingPong.generate(&PatternParams::small(5));
        let mut report = run_differential(&stream, &cases());
        // Forge a desync between the two equal-config runs.
        report.runs[3].outcome.completions += 1;
        let findings = cross_check(&report.runs);
        assert!(
            findings
                .iter()
                .any(|f| f.contains("equal configs diverged")),
            "{findings:?}"
        );
    }
}
