//! Command line of the pipeline benchmark.
//!
//! ```text
//! rap-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! rap-perfbench --self-check
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it is the detail object (named metrics, deterministic counters, checks
//! and host facts). Exit code 2 means bad arguments or a workload that
//! could not run; a wrong output is a failed check in the result instead.

use rap_perfbench::{report, run, self_check, work_dir, work_root, Opts, Size};

const USAGE: &str =
    "usage: rap-perfbench --workload NAME --seed N --seconds S --trace 0|1 | --self-check";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: invalid {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("duration"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Opts {
        work_dir: work_dir(&work_root(), &workload),
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size: Size::Full,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-check") {
        match self_check() {
            Ok(summary) => {
                println!("{summary}");
                println!("self-check ok");
            }
            Err(e) => {
                eprintln!("self-check failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for m in &outcome.named {
                eprintln!("{:<18} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.detail);
            println!(
                "{}",
                report::result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
        }
        Err(e) => {
            eprintln!("{} failed: {e}", opts.workload);
            std::process::exit(2);
        }
    }
}
