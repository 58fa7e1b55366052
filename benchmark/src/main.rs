//! The repo benchmark. See `README.md` beside this package.

mod alloc;
mod describe;
mod harness;
mod layers;
mod reference;
mod selfcheck;
mod spans;
mod stats;
mod trace;
mod workloads;

use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: gossip-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--toy] [--spans <path>]\n       \
                     gossip-benchmark --selfcheck [--passes <n>] [--seed <n>] [--seconds <s>] \
                     [--toy]\n       \
                     gossip-benchmark --describe";

/// The seed of a run that is given none.
const DEFAULT_SEED: u64 = 0xE18;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
    selfcheck: bool,
    describe: bool,
    passes: usize,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(describe::RUN_SECONDS),
        trace: false,
        toy: false,
        selfcheck: false,
        describe: false,
        passes: 3,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {v}: outside 0..=600"));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--passes" => {
                let v = value("a number")?;
                args.passes = v.parse().map_err(|e| format!("--passes {v}: {e}"))?;
            }
            "--spans" => args.spans = Some(value("a path")?.into()),
            "--toy" => args.toy = true,
            "--describe" => args.describe = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", describe::benchmark_json());
        return std::process::ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return if selfcheck::run(args.seed, args.seconds, args.passes, args.toy) {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::FAILURE
        };
    }
    let Some(name) = &args.workload else {
        eprintln!("{USAGE}\nworkloads: {}", workloads::NAMES.join(", "));
        return std::process::ExitCode::from(2);
    };
    let Some(workload) = Workload::by_name(name, args.seed, args.toy) else {
        eprintln!(
            "unknown workload {name}; workloads: {}",
            workloads::NAMES.join(", ")
        );
        return std::process::ExitCode::from(2);
    };
    if args.trace {
        // Beside the package, under a directory its .gitignore names.
        let spans_path = args.spans.unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{name}.jsonl"))
        });
        let traced = trace::run(&workload, args.seed, args.toy, args.seconds, &spans_path);
        trace::print_traced(&traced, name, &spans_path);
        return harness::finish(
            traced.correct,
            traced.attempted,
            traced.failed,
            &traced.metrics,
        );
    }
    let reference = reference::Reference::new(args.toy);
    let run = harness::run(&workload, args.seconds, &reference);
    harness::print_run(&run, workload.unit());
    harness::finish(run.correct, run.attempted, run.failed, &run.metrics)
}
