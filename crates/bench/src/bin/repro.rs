//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hdsd-bench --bin repro -- <experiment> [flags]
//!
//! experiments:
//!   t3       Table 3   dataset statistics
//!   f1a      Fig. 1a   k-truss convergence rate (Kendall-τ per iteration)
//!   f6       Fig. 6    same for k-core and the (3,4) nucleus
//!   f1b      Fig. 1b   thread-scalability vs sequential peeling (Peeling-1t)
//!   toys     Figs. 2–4 worked toy examples, step by step
//!   f5       Fig. 5    τ trajectories / plateaus on facebook
//!   t4       Table 4   k-core:   iterations + runtimes vs peeling
//!   t5       Table 5   k-truss:  iterations + runtimes vs peeling
//!   t6       Table 6   (3,4):    iterations + runtimes vs peeling
//!   f7       Fig. 7    accuracy-vs-runtime trade-off curves
//!   f8       Fig. 8    notification-mechanism ablation
//!   f9       Fig. 9    query-driven local estimation
//!   levels   §3.1      degree-level bound vs observed iterations
//!   hier     §1/§2     hierarchy quality: core vs truss vs (3,4)
//!   all      everything above, in order
//!
//! flags:
//!   --scale X      dataset scale factor        (default $HDSD_SCALE or 0.25)
//!   --threads N    max worker threads          (default $HDSD_THREADS or #cpus)
//!   --data-dir D   original SNAP files dir     (default ./data)
//! ```

use hdsd_bench::experiments::{f1a, f1b, f5, f7, f8, f9, hier, levels, t3, tables456, toys};
use hdsd_bench::Env;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (env, rest) = Env::from_args(&args);
    let exp = rest.first().map(String::as_str).unwrap_or("help");

    let t0 = std::time::Instant::now();
    match exp {
        "t3" => t3::run(&env),
        "f1a" => run_f1a(&env),
        "f6" => run_f6(&env),
        "f1b" => f1b::run(&env),
        "toys" => toys::run(&env),
        "f5" => f5::run(&env),
        "t4" => tables456::run(&env, tables456::Which::Core),
        "t5" => tables456::run(&env, tables456::Which::Truss),
        "t6" => tables456::run(&env, tables456::Which::Nucleus34),
        "f7" => f7::run(&env),
        "f8" => f8::run(&env),
        "f9" => f9::run(&env),
        "levels" => levels::run(&env),
        "hier" => hier::run(&env),
        "all" => {
            for (name, f) in EXPERIMENTS {
                banner(name);
                f(&env);
            }
        }
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            return;
        }
        other => {
            eprintln!("unknown experiment {other:?}\n");
            print!("{}", HELP);
            std::process::exit(2);
        }
    }
    eprintln!("\n[{exp} finished in {:.1}s]", t0.elapsed().as_secs_f64());
}

type Runner = fn(&Env);

const EXPERIMENTS: &[(&str, Runner)] = &[
    ("t3", t3::run as Runner),
    ("toys", toys::run as Runner),
    ("f1a", run_f1a as Runner),
    ("f6", run_f6 as Runner),
    ("f1b", f1b::run as Runner),
    ("f5", f5::run as Runner),
    ("t4", run_t4 as Runner),
    ("t5", run_t5 as Runner),
    ("t6", run_t6 as Runner),
    ("f7", f7::run as Runner),
    ("f8", f8::run as Runner),
    ("f9", f9::run as Runner),
    ("levels", levels::run as Runner),
    ("hier", hier::run as Runner),
];

fn run_f1a(env: &Env) {
    fail_clean(f1a::run(env, "truss"));
}
fn run_f6(env: &Env) {
    fail_clean(f1a::run(env, "core"));
    println!();
    fail_clean(f1a::run(env, "34"));
}

/// Prints a convergence-experiment error and exits non-zero instead of
/// unwinding through the bench harness.
fn fail_clean(r: Result<(), String>) {
    if let Err(e) = r {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
}
fn run_t4(env: &Env) {
    tables456::run(env, tables456::Which::Core);
}
fn run_t5(env: &Env) {
    tables456::run(env, tables456::Which::Truss);
}
fn run_t6(env: &Env) {
    tables456::run(env, tables456::Which::Nucleus34);
}

fn banner(name: &str) {
    println!("\n{}", "=".repeat(78));
    println!("==  {name}");
    println!("{}\n", "=".repeat(78));
}

const HELP: &str = r#"repro — regenerate the paper's tables and figures

usage: repro <experiment> [--scale X] [--threads N] [--data-dir D]

experiments:
  t3      Table 3   dataset statistics (|V| |E| |tri| |K4|)
  f1a     Fig. 1a   k-truss convergence rate (Kendall-tau per iteration)
  f6      Fig. 6    convergence rate for k-core and (3,4)
  f1b     Fig. 1b   thread scalability vs sequential peeling (Peeling-1t)
  toys    Figs 2-4  worked toy examples
  f5      Fig. 5    tau trajectories / plateaus on facebook
  t4      Table 4   k-core iterations + runtimes
  t5      Table 5   k-truss iterations + runtimes
  t6      Table 6   (3,4) nucleus iterations + runtimes
  f7      Fig. 7    accuracy vs runtime trade-off
  f8      Fig. 8    notification ablation
  f9      Fig. 9    query-driven estimation
  levels  sec. 3.1  degree-level convergence bound
  hier    sec. 1-2  hierarchy quality comparison
  all     run everything
"#;
