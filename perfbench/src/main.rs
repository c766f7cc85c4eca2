//! Command-line entry point of the repository benchmark; see the library
//! docs for the workloads and the output format.

use std::process::exit;

use perfbench::{host_cores, inputs, ladder, measure, Options, END_TO_END, PER_LAYER};

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::parse(&args).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload fleet_tenants|fleet_hammer|gen_matrix \
             --seed N [--seconds S] [--trace 0|1] [--smoke] [--prepare]"
        );
        exit(2);
    });
    if opts.prepare {
        if let Err(e) = inputs::prepare(opts.profile, opts.seed, opts.smoke) {
            fail(&e);
        }
        return;
    }
    let inputs = inputs::ensure(opts.profile, opts.seed, opts.smoke).unwrap_or_else(|e| fail(&e));
    let threads = measure::threads_used(&inputs);
    if threads > host_cores() {
        fail(&format!(
            "{} needs {threads} threads but the host runs {}; refusing to record scheduler \
             contention as program time",
            opts.profile.name(),
            host_cores()
        ));
    }
    println!("provenance {}", perfbench::provenance(&opts, &inputs, threads));
    let mut outcome = if opts.trace {
        ladder::run(&inputs, opts.seconds).unwrap_or_else(|e| fail(&e))
    } else {
        measure::run(&inputs, opts.seconds)
    };
    if inputs.pinned == Some(false) {
        // The simulator itself no longer reproduces the pinned behaviour:
        // every unit checked against the moved reference is suspect.
        outcome.failed = outcome.attempted;
        outcome.problem(format!(
            "reference digest of {} seed {} differs from perfbench/reference/digests.txt",
            opts.profile.name(),
            opts.seed
        ));
    }
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    match outcome.render(catalog) {
        Ok(line) => println!("{line}"),
        Err(e) => fail(&e),
    }
}
