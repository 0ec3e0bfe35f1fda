//! Host-performance benchmark for the CloudyBench testbed.
//!
//! Three workloads run in-process through the same public library calls
//! the `cloudybench` CLI makes; `BENCHMARK.md` beside this crate gives
//! each one's CLI equivalent, why it was chosen, and its measured sizes.
//! The benchmark times its own calls into each crate from outside the
//! program and reads counts the program already records. Simulated
//! (virtual-time) results are deterministic model outputs: they feed the
//! output check as a digest, never a metric.
//!
//! A run repeats whole workload instances (set-up, measured call, report,
//! teardown) for the requested host seconds and reports medians. With
//! `trace` off every end-to-end metric is printed and the program's own
//! tracing stays disabled; with `trace` on, traced instances (alternating
//! with untraced ones, for the overhead ratio) and per-layer probes give
//! the per-layer metrics.

pub mod chaos;
pub mod driver;
pub mod host;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use spans::Spans;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// Quantile of a run's instances that end-to-end host times report: the
/// fastest tenth. Contention from other tenants of a shared host only ever
/// adds time, and on the 2-vCPU development VM it stretched instances by up
/// to 2x for tens of seconds at a time; the run's median followed that load
/// (29% spread between runs on one workload) while the fastest tenth tracks
/// the program's own cost (10%).
pub const HOST_TIME_QUANTILE: f64 = 0.1;

/// The host time a run reports from its instances' times.
pub fn host_time(times: &[f64]) -> f64 {
    stats::quantile(times, HOST_TIME_QUANTILE)
}

/// Fewest workload instances per run, whatever `--seconds` says, so every
/// reported median has at least this many samples.
pub const MIN_INSTANCES: usize = 3;

/// Tolerated share of an instance's wall time that its phase spans (set-up,
/// measured call, report, probes, teardown) may leave uncovered. The gap is
/// the digest comparison and span bookkeeping; the larger of this share and
/// [`RECONCILE_MIN_SECS`] applies.
pub const RECONCILE_SHARE: f64 = 0.02;
/// Absolute floor of the reconciliation tolerance, in seconds.
pub const RECONCILE_MIN_SECS: f64 = 0.002;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop CDB2 read-write cell whose data spills the buffer pool.
    OltpRwSpill,
    /// Open-loop read-only Poisson load on a buffer-resident dataset.
    OpenloopRoResident,
    /// Crash/recovery campaign over all five profiles.
    ChaosRecovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OltpRwSpill,
        Workload::OpenloopRoResident,
        Workload::ChaosRecovery,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpRwSpill => "oltp-rw-spill",
            Workload::OpenloopRoResident => "openloop-ro-resident",
            Workload::ChaosRecovery => "chaos-recovery",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: the generated inputs are a function of it.
    pub seed: u64,
    /// Host seconds to keep repeating workload instances.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Self-test only: plant `ChaosOptions::bug_skip_redo` in the chaos
    /// campaign, so its oracles must report violations.
    pub bug_skip_redo: Option<usize>,
}

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_txn_per_s", "1/s"),
    ("seed_runs_per_s", "1/s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit, in `BENCHMARK.json`
/// order. A workload that does not run a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.deploy.new_s", "s"),
    ("core.schema.load_dataset_s", "s"),
    ("core.driver.run_s", "s"),
    ("core.driver.host_ns_per_txn", "ns"),
    ("core.openloop.run_s", "s"),
    ("core.openloop.host_ns_per_txn", "ns"),
    ("core.report.usage_s", "s"),
    ("core.teardown_s", "s"),
    ("engine.bufferpool.hit_ratio", "ratio"),
    ("engine.bufferpool.misses_per_txn", "count"),
    ("engine.bufferpool.writebacks_per_txn", "count"),
    ("engine.locks.conflicts_per_ktxn", "count"),
    ("engine.recovery.analyze_ns_per_record", "ns"),
    ("engine.recovery.redo_ns_per_record", "ns"),
    ("store.wal.records_per_txn", "count"),
    ("store.wal.bytes_per_txn", "B"),
    ("store.group_commit.commits_per_batch", "count"),
    ("store.codec.encode_ns_per_record", "ns"),
    ("store.codec.decode_ns_per_record", "ns"),
    ("obs.export_s", "s"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.spans_dropped", "count"),
    ("load.generate_ns_per_arrival", "ns"),
    ("load.peak_tracked_ops", "count"),
    ("load.blocked_retries", "count"),
    ("chaos.seed_ms_p50", "ms"),
    ("chaos.seed_ms_p99", "ms"),
    ("chaos.aws-rds.seed_ms_p50", "ms"),
    ("chaos.cdb1.seed_ms_p50", "ms"),
    ("chaos.cdb2.seed_ms_p50", "ms"),
    ("chaos.cdb3.seed_ms_p50", "ms"),
    ("chaos.cdb4.seed_ms_p50", "ms"),
    ("chaos.redone_per_seed", "count"),
    ("chaos.undone_per_seed", "count"),
    ("chaos.crashes_per_seed", "count"),
    ("cluster.replication.lag_samples_per_txn", "count"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulated transactions (driver workloads) or
    /// seed-runs (chaos), over every instance.
    pub attempted: u64,
    /// Operations failed: an instance whose output check fails fails all
    /// of its operations; a chaos seed with an oracle violation is one.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// Simulated-report digest of the first instance.
    pub digest: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Workload instances run.
    pub instances: usize,
}

impl Outcome {
    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The metrics this run reports — end-to-end or per-layer — as
    /// `(name, value, unit)`; per-layer metrics the workload did not
    /// measure read 0.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// Compare an instance's digest with the first instance's; on a
    /// mismatch the instance's `ops` operations fail.
    pub fn check_digest(&mut self, instance: usize, digest: Vec<String>, ops: u64) {
        if self.digest.is_empty() {
            self.digest = digest;
        } else if digest != self.digest {
            self.failed += ops;
            self.problems.push(format!(
                "instance {instance}: simulated report differs from instance 0: {digest:?}"
            ));
        }
    }

    /// Check that the phase spans of instance span `wall` cover it within
    /// the stated tolerance.
    pub fn reconcile(&mut self, spans: &Spans, wall: usize, instance: usize) {
        let total = spans.all()[wall].secs();
        let gap = spans.unattributed_secs(wall);
        let tol = (RECONCILE_SHARE * total).max(RECONCILE_MIN_SECS);
        if gap.abs() > tol {
            self.problems.push(format!(
                "instance {instance}: phase spans leave {gap:.6} s of {total:.6} s wall unattributed (tolerance {tol:.6} s)"
            ));
        }
    }
}

/// Repeat `instance` until `seconds` have passed and at least
/// [`MIN_INSTANCES`] ran. Returns the count and the process's peak resident
/// memory after the first instance, in MiB: later instances reuse memory
/// the allocator kept, so their peak depends on how many instances fit in
/// the run rather than on the workload.
pub fn repeat(seconds: f64, mut instance: impl FnMut(usize)) -> (usize, f64) {
    let start = Instant::now();
    let mut first_peak = 0.0;
    let mut n = 0;
    while n < MIN_INSTANCES || start.elapsed().as_secs_f64() < seconds {
        instance(n);
        if n == 0 {
            first_peak = host::peak_rss_mb();
        }
        n += 1;
    }
    (n, first_peak)
}

/// Run one benchmark invocation, recording host-time spans into `spans`.
pub fn run(cfg: &Config, spans: &mut Spans) -> Outcome {
    match cfg.workload {
        Workload::OltpRwSpill => driver::oltp_rw_spill(cfg, spans),
        Workload::OpenloopRoResident => driver::openloop_ro_resident(cfg, spans),
        Workload::ChaosRecovery => chaos::chaos_recovery(cfg, spans),
    }
}
