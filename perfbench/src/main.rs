//! Runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <settle|confirm|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Context lines start with `#`; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use perfbench::context;
use perfbench::layers::{in_order, END_TO_END, PER_LAYER};
use perfbench::report::result_json;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_before = context::host_probe_ms();
    let seconds = Duration::from_secs(args.seconds);
    let outcome = match perfbench::run(&args.workload, args.seed, seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let probe_after = context::host_probe_ms();

    println!(
        "# workload={} seed={} seconds={} trace={} profile=release available_parallelism={} \
         key_bits=1024 commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context::parallelism(),
        context::commit(),
    );
    println!("# host_probe_ms before={probe_before:.2} after={probe_after:.2}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    for reason in &outcome.tally.reasons {
        println!("# failed: {reason}");
    }
    for reason in &outcome.probes.reasons {
        println!("# probe failed: {reason}");
    }
    let (reported, names) = if args.trace {
        let e2e: Vec<String> = outcome
            .end_to_end
            .iter()
            .map(|m| format!("{}={:.4}{}", m.name, m.value, m.unit))
            .collect();
        println!("# traced end-to-end (tracing on): {}", e2e.join(" "));
        (outcome.per_layer, &PER_LAYER[..])
    } else {
        (outcome.end_to_end, &END_TO_END[..])
    };
    match in_order(reported, names) {
        Ok(metrics) => {
            println!("{}", result_json(&outcome.tally, &outcome.probes, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
