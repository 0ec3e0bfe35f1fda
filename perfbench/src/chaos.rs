//! The `chaos-recovery` workload: a crash/recovery campaign over all five
//! profiles with default `ChaosOptions`, fanned over two worker threads.
//! Each instance builds one deployment per profile at the chaos shape
//! (set-up: the build every seed repeats inside the campaign), runs the
//! campaign (measured), formats the CLI-equivalent summary (report), and
//! drops the reports and their artifacts (teardown).

use std::hint::black_box;
use std::time::Instant;

use cb_chaos::{run_campaign_jobs, run_with_schedule, CampaignReport, ChaosOptions, FaultSchedule};
use cb_sut::SutProfile;
use cloudybench::Deployment;

use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::{host_time, repeat, Config, Outcome};

/// Worker threads per campaign (`cloudybench chaos --jobs 2`). Fixed, not
/// the host's parallelism, so the work split is the same on every host.
pub const CHAOS_JOBS: usize = 2;
/// Seeds per profile in one campaign instance.
pub const CAMPAIGN_SEEDS: u64 = 40;
/// Seeds per profile timed one by one in the traced run: 5 x 220 = 1100
/// samples, so the p99 has 11 samples beyond it.
pub const TIMED_SEEDS: u64 = 220;

/// The seed block of workload seed `seed`: `[seed*TIMED_SEEDS, +TIMED_SEEDS)`;
/// a campaign instance runs its first [`CAMPAIGN_SEEDS`].
pub fn seed_block(seed: u64, len: u64) -> Vec<u64> {
    let base = seed.wrapping_mul(TIMED_SEEDS);
    (0..len).map(|i| base.wrapping_add(i)).collect()
}

struct Instance {
    setup: f64,
    measured: f64,
    wall: f64,
    seed_runs: u64,
    sim_txns: u64,
}

/// Run the chaos workload.
pub fn chaos_recovery(cfg: &Config, spans: &mut Spans) -> Outcome {
    let profiles = SutProfile::all();
    let seeds = seed_block(cfg.seed, CAMPAIGN_SEEDS);
    let opts = ChaosOptions {
        bug_skip_redo: cfg.bug_skip_redo,
        ..ChaosOptions::default()
    };
    let mut out = Outcome::default();
    let mut with_artifacts: Vec<Instance> = Vec::new();
    let mut without: Vec<Instance> = Vec::new();
    let (instances, peak_rss_mb) = repeat(cfg.seconds, |n| {
        // The traced run alternates campaigns without and with artifact
        // collection (the program's tracing); the workload itself collects
        // them, as the determinism oracle needs.
        let collect = !(cfg.trace && n % 2 == 0);
        let opts = ChaosOptions {
            collect_artifacts: collect,
            ..opts.clone()
        };
        let inst = instance(cfg, spans, &profiles, &seeds, &opts, n, &mut out);
        if collect {
            with_artifacts.push(inst);
        } else {
            without.push(inst);
        }
    });
    out.instances = instances;
    let med =
        |v: &[Instance], f: fn(&Instance) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    if cfg.trace {
        out.set(
            "core.deploy.new_s",
            med(&with_artifacts, |i| i.setup) / profiles.len() as f64,
        );
        out.set(
            "obs.overhead_ratio",
            ratio(
                med(&with_artifacts, |i| i.measured),
                med(&without, |i| i.measured),
            ),
        );
        per_seed_probe(cfg, spans, &profiles, &opts, instances, &mut out);
    } else {
        let fast =
            |f: fn(&Instance) -> f64| host_time(&with_artifacts.iter().map(f).collect::<Vec<_>>());
        let measured = fast(|i| i.measured);
        // Every instance runs the same seed-runs and transactions: the
        // digest check fails any that does not.
        let first = &with_artifacts[0];
        out.set("setup_s", fast(|i| i.setup));
        out.set("sim_txn_per_s", ratio(first.sim_txns as f64, measured));
        out.set("seed_runs_per_s", ratio(first.seed_runs as f64, measured));
        out.set("wall_s", fast(|i| i.wall));
        out.set("peak_rss_mb", peak_rss_mb);
    }
    out
}

fn instance(
    cfg: &Config,
    spans: &mut Spans,
    profiles: &[SutProfile],
    seeds: &[u64],
    opts: &ChaosOptions,
    n: usize,
    out: &mut Outcome,
) -> Instance {
    let wall = spans.open("instance", n, None);
    let ((), setup) = spans.time("setup", n, wall, || {
        for p in profiles {
            black_box(Deployment::new(p.clone(), 1, opts.sim_scale, 1, seeds[0]));
        }
    });
    let (reports, measured) = spans.time("measured", n, wall, || {
        profiles
            .iter()
            .map(|p| run_campaign_jobs(p, seeds, opts, CHAOS_JOBS))
            .collect::<Vec<_>>()
    });
    let (digest, _) = spans.time("report", n, wall, || {
        campaign_digest(profiles, seeds, &reports)
    });
    let seed_runs = (profiles.len() * seeds.len()) as u64;
    let violations: u64 = reports.iter().map(|r| r.violations.len() as u64).sum();
    // Both oracle passes run every clean seed's transactions.
    let sim_txns: u64 = reports
        .iter()
        .flat_map(|r| &r.reports)
        .map(|s| 2 * s.committed)
        .sum();
    for v in reports.iter().flat_map(|r| &r.violations) {
        out.problems.push(format!("instance {n}: {}", v.violation));
    }
    spans.time("teardown", n, wall, || drop(reports));
    out.attempted += seed_runs;
    out.failed += violations;
    out.check_digest(n, digest, seed_runs - violations);
    let wall_s = spans.close(wall);
    if cfg.trace {
        out.reconcile(spans, wall, n);
    }
    Instance {
        setup,
        measured,
        wall: wall_s,
        seed_runs,
        sim_txns,
    }
}

/// The lines `cloudybench chaos --seeds N --jobs 2` prints for the seed
/// block, plus a hash over every seed report's counts.
fn campaign_digest(
    profiles: &[SutProfile],
    seeds: &[u64],
    reports: &[CampaignReport],
) -> Vec<String> {
    let mut lines = Vec::new();
    let mut hash = Fnv::default();
    let (mut ok, mut bad) = (0, 0);
    for (p, r) in profiles.iter().zip(reports) {
        let crashes: u64 = r.reports.iter().map(|s| s.crashes).sum();
        let faults: u64 = r.reports.iter().map(|s| s.faults).sum();
        lines.push(format!(
            "{:8}  seeds={}  clean={}  violations={}  faults={} (crashes={})",
            p.name,
            seeds.len(),
            r.reports.len(),
            r.violations.len(),
            faults,
            crashes,
        ));
        ok += r.reports.len();
        bad += r.violations.len();
        for s in &r.reports {
            hash.write(
                format!(
                    "{} {} {} {} {} {} {} {}\n",
                    s.profile,
                    s.seed,
                    s.committed,
                    s.aborted,
                    s.crashes,
                    s.faults,
                    s.gc_promoted,
                    s.gc_dropped
                )
                .as_bytes(),
            );
        }
    }
    lines.push(format!(
        "chaos: {ok} clean seed-runs, {bad} violations across {} profile(s)",
        profiles.len()
    ));
    lines.push(format!(
        "seeds {}..={}; seed reports fnv1a64 = {:016x}",
        seeds[0],
        seeds[seeds.len() - 1],
        hash.0
    ));
    lines
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Value of `"name":N` in an exported JSON document (a counter in the
/// histogram summary, `dropped` in the trace).
fn json_count(doc: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let Some(at) = doc.find(&key) else {
        return 0;
    };
    let rest = &doc[at + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0)
}

/// Time `run_with_schedule` seed by seed on one thread over the whole seed
/// block, and read each seed's recovery counts and span evictions from its
/// report and the artifacts it exported. The harness records no engine or store
/// counters, so those layers read 0 on this workload.
fn per_seed_probe(
    cfg: &Config,
    spans: &mut Spans,
    profiles: &[SutProfile],
    opts: &ChaosOptions,
    rep: usize,
    out: &mut Outcome,
) {
    let span = spans.open("probe.chaos.per_seed", rep, None);
    let seeds = seed_block(cfg.seed, TIMED_SEEDS);
    let mut all_ms = Vec::new();
    let (mut runs, mut redone, mut undone, mut crashes, mut dropped) = (0u64, 0, 0, 0, 0);
    for p in profiles {
        let mut ms = Vec::with_capacity(seeds.len());
        for &seed in &seeds {
            let schedule = FaultSchedule::generate(seed, opts.txns);
            let t = Instant::now();
            let result = run_with_schedule(p, seed, &schedule, opts);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            let report = match result {
                Ok(r) => r,
                Err(v) => {
                    out.problems.push(format!("per-seed probe: {v}"));
                    continue;
                }
            };
            runs += 1;
            crashes += report.crashes;
            let a = report
                .artifacts
                .expect("the chaos workload collects artifacts");
            redone += json_count(&a.hist_json, "chaos.redone");
            undone += json_count(&a.hist_json, "chaos.undone");
            dropped += json_count(&a.trace, "dropped");
        }
        out.set(&format!("chaos.{}.seed_ms_p50", p.name), median(&ms));
        all_ms.extend(ms);
    }
    spans.close(span);
    let per_seed = |n: u64| ratio(n as f64, runs as f64);
    out.set("chaos.seed_ms_p50", median(&all_ms));
    out.set("chaos.seed_ms_p99", quantile(&all_ms, 0.99));
    out.set("chaos.redone_per_seed", per_seed(redone));
    out.set("chaos.undone_per_seed", per_seed(undone));
    out.set("chaos.crashes_per_seed", per_seed(crashes));
    out.set("obs.spans_dropped", dropped as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_exported_counters() {
        let doc = "{\"histograms\":{},\"counters\":{\"chaos.redone\":40,\"chaos.undone\":7}}";
        assert_eq!(json_count(doc, "chaos.redone"), 40);
        assert_eq!(json_count(doc, "chaos.undone"), 7);
        assert_eq!(json_count(doc, "absent"), 0);
    }

    #[test]
    fn seed_blocks_are_disjoint() {
        let a = seed_block(7, TIMED_SEEDS);
        let b = seed_block(8, TIMED_SEEDS);
        assert_eq!(a.last().unwrap() + 1, b[0]);
        assert_eq!(
            seed_block(0, CAMPAIGN_SEEDS),
            (0..CAMPAIGN_SEEDS).collect::<Vec<_>>()
        );
    }
}
