//! The two driver workloads: the closed-loop `oltp-rw-spill` cell and the
//! open-loop `openloop-ro-resident` load. Each instance builds a
//! deployment (set-up), makes one measured driver call, meters usage and
//! formats the CLI-equivalent report (report), and drops everything
//! (teardown). Traced instances also run the per-layer probes before
//! teardown.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cb_load::{ArrivalGen, ArrivalPlan, ArrivalProcess, PhasePlan, PhasedArrivals};
use cb_obs::{ascii_timeline, chrome_trace_json, histogram_csv, histogram_summary_json, ObsSink};
use cb_sim::{SimDuration, SimTime};
use cb_store::{decode_segment, encode_segment_into, Lsn, WalRecord};
use cb_sut::SutProfile;
use cloudybench::cost::{ruc_cost, RucRates};
use cloudybench::driver::VcoreControl;
use cloudybench::report::{fmoney, fnum};
use cloudybench::{
    redo_committed_parallel, run, run_open_loop, AccessDistribution, Deployment, KeyPartition,
    OpenLoopResult, OpenLoopSpec, RunOptions, RunResult, TenantSpec, TxnMix,
};

use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::{host_time, repeat, Config, Outcome};

/// `oltp-rw-spill`: CDB2 at SF10, `sim_scale` 100 — 360k rows against a
/// 44 MB scaled buffer, so reads miss and evict and every write goes
/// through the WAL and group commit.
const SPILL_PROFILE: &str = "cdb2";
const SPILL_SF: u64 = 10;
const SPILL_SIM_SCALE: u64 = 100;
const SPILL_CLIENTS: u32 = 100;
const SPILL_RO_NODES: usize = 1;
/// The CLI's default `duration_secs`.
const SPILL_SIM_SECS: u64 = 30;

/// `openloop-ro-resident`: aws-rds at SF1, `sim_scale` 100 — the data fits
/// the buffer and the read-only mix logs nothing.
const RESIDENT_PROFILE: &str = "aws-rds";
const RESIDENT_SF: u64 = 1;
const RESIDENT_SIM_SCALE: u64 = 100;
const RESIDENT_RO_NODES: usize = 1;
/// About 60% of the closed-loop read-only capacity: below the knee.
const RESIDENT_RATE: f64 = 30_000.0;
/// The `load` subcommand's default phases and client population.
const RESIDENT_PHASES: &str = "2s,2s,20s";
const RESIDENT_CLIENTS: u64 = 100_000;
/// Seed salt `run_open_loop` applies to its arrival stream; the load probe
/// draws the identical stream and checks the arrival count against the run.
const ARRIVAL_SEED_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// The parts of a driver workload that differ between the two.
struct DriverWorkload<R> {
    /// Per-layer prefix of the measured call (`core.driver`, `core.openloop`).
    layer: &'static str,
    setup: fn(u64) -> Deployment,
    measure: fn(&mut Deployment, u64, &ObsSink) -> R,
    /// CLI-equivalent simulated report and the operations it completed.
    report: fn(&Deployment, &R, u64) -> (Vec<String>, u64),
    /// Workload-specific probes over a traced instance.
    probe: fn(&R, u64, &mut Samples),
}

/// Per-layer samples, one per traced instance, reported as medians.
type Samples = BTreeMap<&'static str, Vec<f64>>;

fn sample(s: &mut Samples, name: &'static str, v: f64) {
    s.entry(name).or_default().push(v);
}

fn profile(name: &str) -> SutProfile {
    SutProfile::by_name(name).expect("built-in profile")
}

/// Run the closed-loop spill workload.
pub fn oltp_rw_spill(cfg: &Config, spans: &mut Spans) -> Outcome {
    drive(
        cfg,
        spans,
        &DriverWorkload {
            layer: "core.driver",
            setup: |seed| {
                Deployment::new(
                    profile(SPILL_PROFILE),
                    SPILL_SF,
                    SPILL_SIM_SCALE,
                    SPILL_RO_NODES,
                    seed,
                )
            },
            measure: |dep, seed, obs| {
                let spec = TenantSpec::constant(
                    SPILL_CLIENTS,
                    SimDuration::from_secs(SPILL_SIM_SECS),
                    TxnMix::read_write(),
                    AccessDistribution::Uniform,
                    KeyPartition::whole(dep.shape.orders, dep.shape.customers),
                );
                let opts = RunOptions {
                    seed,
                    vcores: VcoreControl::Fixed,
                    obs: obs.clone(),
                    ..RunOptions::default()
                };
                run(dep, &[spec], &opts)
            },
            report: spill_report,
            probe: |_, _, _| {},
        },
    )
}

/// The rows `cloudybench` prints for the `mode = oltp` props cell, plus
/// the virtual latency percentiles and full-precision values.
fn spill_report(dep: &Deployment, r: &RunResult, _seed: u64) -> (Vec<String>, u64) {
    let end = SimTime::ZERO + SimDuration::from_secs(SPILL_SIM_SECS);
    let cost = ruc_cost(&dep.usage(SimTime::ZERO, end), &RucRates::default());
    let t = &r.tenants[0];
    let tps = r.avg_tps(SimTime::ZERO, end);
    let digest = vec![
        format!("avg TPS = {} ({tps:?})", fnum(tps)),
        format!("committed = {}", t.committed),
        format!("avg latency = {}", t.avg_latency()),
        format!("lock conflicts = {}", r.lock_conflicts),
        format!("RUC cost = {} ({:?})", fmoney(cost.total()), cost.total()),
        format!(
            "virtual p50/p99 ms = {:?} / {:?}",
            t.latency_percentile_ms(50.0),
            t.latency_percentile_ms(99.0)
        ),
    ];
    (digest, t.committed)
}

fn resident_spec(dep: &Deployment) -> OpenLoopSpec {
    OpenLoopSpec {
        plan: ArrivalPlan::fixed_rate(
            ArrivalProcess::poisson(RESIDENT_RATE),
            PhasePlan::parse(RESIDENT_PHASES).expect("valid phase plan"),
            RESIDENT_CLIENTS,
        ),
        mix: TxnMix::read_only(),
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    }
}

/// Run the open-loop resident workload.
pub fn openloop_ro_resident(cfg: &Config, spans: &mut Spans) -> Outcome {
    drive(
        cfg,
        spans,
        &DriverWorkload {
            layer: "core.openloop",
            setup: |seed| {
                Deployment::new(
                    profile(RESIDENT_PROFILE),
                    RESIDENT_SF,
                    RESIDENT_SIM_SCALE,
                    RESIDENT_RO_NODES,
                    seed,
                )
            },
            measure: |dep, seed, obs| {
                let spec = resident_spec(dep);
                let opts = RunOptions {
                    seed,
                    obs: obs.clone(),
                    ..RunOptions::default()
                };
                run_open_loop(dep, &spec, &opts)
            },
            report: resident_report,
            probe: resident_probe,
        },
    )
}

/// The per-seed row `cloudybench load` writes (`load-report.txt` field
/// order, shortest round-trip floats) plus the metered RUC cost.
fn resident_report(dep: &Deployment, r: &OpenLoopResult, seed: u64) -> (Vec<String>, u64) {
    let cost = ruc_cost(
        &dep.usage(SimTime::ZERO, r.run.horizon),
        &RucRates::default(),
    );
    let digest = vec![
        format!(
            "seed={seed} tps={:?} mean_ms={:?} p50_ms={:?} p99_ms={:?} p999_ms={:?}",
            r.measured_tps(),
            r.mean_response_ms(),
            r.response_percentile_ms(50.0),
            r.response_percentile_ms(99.0),
            r.response_percentile_ms(99.9)
        ),
        format!(
            "service_p99_ms={:?} sched_lag_p99_ms={:?} queue_depth_max={} arrivals={} measured={}",
            r.service_percentile_ms(99.0),
            r.sched_lag_percentile_ms(99.0),
            r.queue_depth_max,
            r.arrivals,
            r.measured
        ),
        format!("RUC cost = {} ({:?})", fmoney(cost.total()), cost.total()),
    ];
    (digest, r.completed)
}

/// Draw the run's own seeded arrival stream through cb-load's API.
fn resident_probe(r: &OpenLoopResult, seed: u64, s: &mut Samples) {
    let mut stream = PhasedArrivals::new(
        ArrivalGen::new(
            ArrivalProcess::poisson(RESIDENT_RATE),
            seed ^ ARRIVAL_SEED_SALT,
        ),
        PhasePlan::parse(RESIDENT_PHASES).expect("valid phase plan"),
        seed,
    );
    let t = Instant::now();
    let mut drawn = 0u64;
    while let Some(at) = stream.next_arrival() {
        black_box(at);
        drawn += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        drawn, r.arrivals,
        "the probe must draw the same arrival stream the run consumed"
    );
    sample(
        s,
        "load.generate_ns_per_arrival",
        ratio(secs * 1e9, drawn as f64),
    );
    sample(s, "load.peak_tracked_ops", r.peak_tracked_ops as f64);
    sample(s, "load.blocked_retries", r.blocked_retries as f64);
}

/// Measurements of one instance.
struct Instance {
    setup: f64,
    measured: f64,
    report: f64,
    teardown: f64,
    wall: f64,
    ops: u64,
}

fn drive<R>(cfg: &Config, spans: &mut Spans, w: &DriverWorkload<R>) -> Outcome {
    let mut out = Outcome::default();
    let mut plain: Vec<Instance> = Vec::new();
    let mut traced: Vec<Instance> = Vec::new();
    let mut samples = Samples::new();
    let (instances, peak_rss_mb) = repeat(cfg.seconds, |n| {
        // The traced run alternates untraced and traced instances so the
        // overhead ratio compares neighbours under the same host load.
        let trace_this = cfg.trace && n % 2 == 1;
        let obs = if trace_this {
            ObsSink::enabled()
        } else {
            ObsSink::disabled()
        };
        let probes = trace_this.then_some(&mut samples);
        let inst = instance(cfg, spans, w, n, &obs, probes, &mut out);
        if trace_this {
            traced.push(inst);
        } else {
            plain.push(inst);
        }
    });
    out.instances = instances;
    let med =
        |v: &[Instance], f: fn(&Instance) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    if cfg.trace {
        for (name, v) in &samples {
            out.set(name, median(v));
        }
        out.set("core.deploy.new_s", med(&traced, |i| i.setup));
        out.set(&format!("{}.run_s", w.layer), med(&traced, |i| i.measured));
        out.set(
            &format!("{}.host_ns_per_txn", w.layer),
            med(&traced, |i| ratio(i.measured * 1e9, i.ops as f64)),
        );
        out.set("core.report.usage_s", med(&traced, |i| i.report));
        out.set("core.teardown_s", med(&traced, |i| i.teardown));
        out.set(
            "obs.overhead_ratio",
            ratio(med(&traced, |i| i.measured), med(&plain, |i| i.measured)),
        );
    } else {
        let fast = |f: fn(&Instance) -> f64| host_time(&plain.iter().map(f).collect::<Vec<_>>());
        let measured = fast(|i| i.measured);
        // Every instance completes the same operations: the digest check
        // fails any that does not.
        out.set("setup_s", fast(|i| i.setup));
        out.set("sim_txn_per_s", ratio(plain[0].ops as f64, measured));
        out.set("seed_runs_per_s", ratio(1.0, measured));
        out.set("wall_s", fast(|i| i.wall));
        out.set("peak_rss_mb", peak_rss_mb);
    }
    out
}

/// One workload instance: set-up, measured call, report and digest check,
/// probes (traced instances only), teardown.
fn instance<R>(
    cfg: &Config,
    spans: &mut Spans,
    w: &DriverWorkload<R>,
    n: usize,
    obs: &ObsSink,
    probes: Option<&mut Samples>,
    out: &mut Outcome,
) -> Instance {
    let wall = spans.open("instance", n, None);
    let (mut dep, setup) = spans.time("setup", n, wall, || (w.setup)(cfg.seed));
    let log_before = (dep.db.log().head(), dep.db.log().appended_bytes());
    let (result, measured) =
        spans.time("measured", n, wall, || (w.measure)(&mut dep, cfg.seed, obs));
    let ((digest, ops), report) =
        spans.time("report", n, wall, || (w.report)(&dep, &result, cfg.seed));
    if let Some(s) = probes {
        let p = spans.open("probe", n, Some(wall));
        layer_probes(&dep, obs, ops, log_before, spans, n, p, s, out);
        (w.probe)(&result, cfg.seed, s);
        spans.close(p);
    }
    let ((), teardown) = spans.time("teardown", n, wall, || drop((dep, result)));
    out.attempted += ops;
    if ops == 0 {
        out.failed += 1;
        out.attempted += 1;
        out.problems
            .push(format!("instance {n}: no simulated transaction completed"));
    }
    out.check_digest(n, digest, ops);
    let wall_s = spans.close(wall);
    if cfg.trace {
        out.reconcile(spans, wall, n);
    }
    Instance {
        setup,
        measured,
        report,
        teardown,
        wall: wall_s,
        ops,
    }
}

/// Probes shared by both driver workloads over a traced instance: engine
/// and store counts, the WAL codec and recovery passes over the run's own
/// log, the four exporters over its sink.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    dep: &Deployment,
    obs: &ObsSink,
    txns: u64,
    (head_before, bytes_before): (Lsn, u64),
    spans: &mut Spans,
    n: usize,
    parent: usize,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let txns = txns as f64;
    let (c, lag_samples, dropped) = obs
        .with(|t| {
            let c = |name: &str| t.counter(name) as f64;
            (
                [
                    c("bufferpool.hits"),
                    c("bufferpool.misses"),
                    c("bufferpool.writebacks"),
                    c("lock.conflicts"),
                    c("wal.gc.commits"),
                    c("wal.gc.batches"),
                ],
                t.histogram("replication.lag_ns").map_or(0, |h| h.count()) as f64,
                t.journal().dropped() as f64,
            )
        })
        .expect("traced instances run with an enabled sink");
    let [hits, misses, writebacks, conflicts, gc_commits, gc_batches] = c;
    sample(s, "engine.bufferpool.hit_ratio", ratio(hits, hits + misses));
    sample(s, "engine.bufferpool.misses_per_txn", ratio(misses, txns));
    sample(
        s,
        "engine.bufferpool.writebacks_per_txn",
        ratio(writebacks, txns),
    );
    sample(
        s,
        "engine.locks.conflicts_per_ktxn",
        ratio(conflicts * 1000.0, txns),
    );
    sample(
        s,
        "store.group_commit.commits_per_batch",
        ratio(gc_commits, gc_batches),
    );
    sample(
        s,
        "cluster.replication.lag_samples_per_txn",
        ratio(lag_samples, txns),
    );
    sample(s, "obs.spans_dropped", dropped);

    let log = dep.db.log();
    let appended = (log.head().0 - head_before.0) as f64;
    sample(s, "store.wal.records_per_txn", ratio(appended, txns));
    sample(
        s,
        "store.wal.bytes_per_txn",
        ratio((log.appended_bytes() - bytes_before) as f64, txns),
    );

    let (_, export) = spans.time("probe.obs.export", n, parent, || {
        obs.with(|t| {
            black_box(chrome_trace_json(t));
            black_box(histogram_summary_json(t));
            black_box(histogram_csv(t));
            black_box(ascii_timeline(t));
        })
    });
    sample(s, "obs.export_s", export);

    let (mut base, load) = spans.time("probe.schema.load_dataset", n, parent, || {
        dep.base_database()
    });
    sample(s, "core.schema.load_dataset_s", load);

    let records: Vec<&WalRecord> = log.records_after(Lsn::ZERO).collect();
    if records.is_empty() {
        return;
    }
    let per_record = |secs: f64| ratio(secs * 1e9, records.len() as f64);
    let mut wire = Vec::new();
    let ((), enc) = spans.time("probe.codec.encode", n, parent, || {
        encode_segment_into(records.iter().copied(), &mut wire)
    });
    let (decoded, dec) = spans.time("probe.codec.decode", n, parent, || decode_segment(&wire));
    let round_trips = decoded.is_ok_and(|d| d.iter().eq(records.iter().copied()));
    if !round_trips {
        out.problems.push(format!(
            "instance {n}: WAL segment did not decode back to its {} records",
            records.len()
        ));
    }
    sample(s, "store.codec.encode_ns_per_record", per_record(enc));
    sample(s, "store.codec.decode_ns_per_record", per_record(dec));

    let (analysis, analyze) = spans.time("probe.recovery.analyze", n, parent, || {
        cb_engine::recovery::analyze(log, Lsn::ZERO)
    });
    sample(
        s,
        "engine.recovery.analyze_ns_per_record",
        ratio(analyze * 1e9, analysis.scanned as f64),
    );
    let (_, redo) = spans.time("probe.recovery.redo", n, parent, || {
        redo_committed_parallel(&mut base, &records, 1)
    });
    sample(s, "engine.recovery.redo_ns_per_record", per_record(redo));
}
