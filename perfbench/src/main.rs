//! `cb-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--trace-out FILE]`
//!
//! Runs one benchmark workload for `S` host seconds and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it give the host fingerprint, the simulated-report digest, every
//! metric with its unit, and the failure ratio with its base.

use std::fmt::Write;
use std::process::ExitCode;

use cb_perfbench::host::{json_str, Host};
use cb_perfbench::spans::Spans;
use cb_perfbench::{run, Config, Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("cb-perfbench: {msg}");
    eprintln!(
        "usage: cb-perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(e) => return usage(&format!("--seed: {e}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if (0.0..=600.0).contains(&s) => seconds = s,
                _ => return usage("--seconds must be a number of seconds in 0..=600"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace must be 0 or 1"),
            },
            "--trace-out" => trace_out = Some(value),
            _ => return usage(&format!("unknown argument {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        bug_skip_redo: None,
    };

    let host = Host::probe();
    println!("host: {}", host.json());
    println!(
        "workload: {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    let mut spans = Spans::default();
    let out = run(&cfg, &mut spans);

    println!("instances: {}", out.instances);
    for line in &out.digest {
        println!("digest: {line}");
    }
    for problem in &out.problems {
        println!("check failed: {problem}");
    }
    let metrics = out.metrics(trace);
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_ratio = {} ({} failed / {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );

    if let Some(path) = trace_out {
        let meta = format!(
            "{{\"host\":{},\"workload\":{},\"seed\":{seed},\"trace\":{trace}}}",
            host.json(),
            json_str(workload.name())
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans.chrome_json(&meta)));
        if let Err(e) = written {
            eprintln!("cb-perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace written to {path}");
    }

    let mut json = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
