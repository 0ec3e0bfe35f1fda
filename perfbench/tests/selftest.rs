//! Self-tests of the benchmark's output checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`: the
//! workloads run at their benchmark sizes.

use cb_load::{ArrivalPlan, PhasePlan};
use cb_perfbench::spans::Spans;
use cb_perfbench::{run, Config, Workload};
use cb_sut::SutProfile;
use cloudybench::config::Props;
use cloudybench::{
    run_open_loop_seeds, AccessDistribution, DatasetShape, KeyPartition, OpenLoopConfig,
    OpenLoopSpec, TxnMix,
};

/// The shortest run: [`cb_perfbench::MIN_INSTANCES`] instances.
fn config(workload: Workload, seed: u64) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.0,
        trace: false,
        bug_skip_redo: None,
    }
}

#[test]
fn planted_redo_bug_fails_seed_runs() {
    let cfg = Config {
        bug_skip_redo: Some(0),
        ..config(Workload::ChaosRecovery, 0)
    };
    let out = run(&cfg, &mut Spans::default());
    assert!(out.failed > 0, "the planted bug must fail seed-runs");
    assert!(out.failed <= out.attempted);
    assert!(!out.correct());
}

#[test]
fn clean_chaos_campaign_matches_cli_summary_format() {
    let out = run(&config(Workload::ChaosRecovery, 0), &mut Spans::default());
    assert!(out.correct(), "{:?}", out.problems);
    assert_eq!(out.failed, 0);
    // `cloudybench chaos --seeds 40 --jobs 2` prints one line per profile
    // and a total line.
    assert!(out.digest[0].starts_with("aws-rds   seeds=40  clean=40  violations=0  faults="));
    assert_eq!(
        out.digest[5],
        "chaos: 200 clean seed-runs, 0 violations across 5 profile(s)"
    );
}

#[test]
fn oltp_digest_matches_cli_report() {
    let out = run(&config(Workload::OltpRwSpill, 7), &mut Spans::default());
    assert!(out.correct(), "{:?}", out.problems);
    let props = Props::parse(
        "sut = cdb2\nmode = oltp\nscale_factor = 10\nsim_scale = 100\n\
         concurrency = 100\nduration_secs = 30\nro_nodes = 1\nseed = 7\n",
    )
    .expect("valid props");
    let report = cb_cli::run_from_props(&props).expect("CLI run");
    let rows: Vec<Vec<&str>> = report
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| Metric"))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), 5, "{report}");
    for row in rows {
        let expect = format!("{} = {}", row[0], row[1]);
        assert!(
            out.digest.iter().any(|d| d.starts_with(&expect)),
            "{expect:?} missing from {:?}",
            out.digest
        );
    }
}

#[test]
fn openloop_digest_matches_load_cli_row() {
    let out = run(
        &config(Workload::OpenloopRoResident, 7),
        &mut Spans::default(),
    );
    assert!(out.correct(), "{:?}", out.problems);
    // `cloudybench load --arrival poisson:30000/s --mix ro --seed 7 --jobs 1`
    let shape = DatasetShape::new(1, 100);
    let spec = OpenLoopSpec {
        plan: ArrivalPlan {
            mode: ArrivalPlan::parse_mode("poisson:30000/s").expect("valid arrival"),
            phases: PhasePlan::parse("2s,2s,20s").expect("valid phases"),
            logical_clients: 100_000,
        },
        mix: TxnMix::read_only(),
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(shape.orders, shape.customers),
    };
    let cfg = OpenLoopConfig {
        profile: SutProfile::aws_rds(),
        scale_factor: 1,
        sim_scale: 100,
        ro_nodes: 1,
    };
    let o = run_open_loop_seeds(&cfg, &spec, &[7], 1)[0];
    assert_eq!(
        out.digest[0],
        format!(
            "seed=7 tps={:?} mean_ms={:?} p50_ms={:?} p99_ms={:?} p999_ms={:?}",
            o.tps, o.mean_ms, o.p50_ms, o.p99_ms, o.p999_ms
        )
    );
    assert_eq!(
        out.digest[1],
        format!(
            "service_p99_ms={:?} sched_lag_p99_ms={:?} queue_depth_max={} arrivals={} measured={}",
            o.service_p99_ms, o.sched_lag_p99_ms, o.queue_depth_max, o.arrivals, o.measured
        )
    );
}

#[test]
fn traced_run_reports_every_layer_and_reconciles() {
    let cfg = Config {
        trace: true,
        ..config(Workload::OpenloopRoResident, 7)
    };
    let mut spans = Spans::default();
    let out = run(&cfg, &mut spans);
    assert!(out.correct(), "{:?}", out.problems);
    let metrics = out.metrics(true);
    assert_eq!(metrics.len(), cb_perfbench::PER_LAYER.len());
    let value = |name: &str| metrics.iter().find(|m| m.0 == name).expect("metric").1;
    assert!(value("core.openloop.run_s") > 0.0);
    assert!(value("load.generate_ns_per_arrival") > 0.0);
    assert!(value("engine.bufferpool.hit_ratio") > 0.99);
    assert!(value("obs.overhead_ratio") > 0.0);
    assert!(spans.all().iter().any(|s| s.name == "probe.obs.export"));
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = |section: &str| -> Vec<(String, String)> {
        let start = spec.find(&format!("\"{section}\"")).expect("section");
        let body = &spec[start..spec[start..].find(']').map(|e| start + e).expect("end")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|item| {
                let name = item.split('"').next().expect("name");
                let unit = item.split("\"unit\": \"").nth(1).expect("unit");
                (
                    name.to_string(),
                    unit.split('"').next().expect("unit").to_string(),
                )
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&cb_perfbench::END_TO_END));
    assert_eq!(listed("per_layer"), owned(&cb_perfbench::PER_LAYER));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for w in &workloads {
        assert!(
            spec.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
            "{w}"
        );
    }
}
