//! End-to-end figure benchmark for the FalVolt workspace.
//!
//! ```text
//! falvolt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! falvolt-perfbench --self-check --seed <n> [--workload <name>]
//! falvolt-perfbench --record-reference --workload <name> --seed <n> --last-seed <m>
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! binary and pins the worker-thread count. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod calib;
mod gate;
mod probe;
mod trace;
mod workloads;

use probe::{median, peak_rss_mb};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{campaign_seed, Workload};

/// Context preparations per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Figure repetitions run even when `--seconds` has already elapsed.
const MIN_FIGURES: usize = 3;
/// Host-speed probes run in every gap between set-ups and figures.
const PROBES_PER_GAP: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
    record_reference: bool,
    last_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        self_check: false,
        record_reference: false,
        last_seed: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--last-seed" => {
                args.last_seed = value()?.parse().map_err(|e| format!("--last-seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            "--self-check" => args.self_check = true,
            "--record-reference" => args.record_reference = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("falvolt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.self_check {
        self_check(&args)
    } else if let Some(workload) = args.workload {
        print_env(workload, &args);
        if args.record_reference {
            record_reference(workload, &args)
        } else if args.trace {
            traced(workload, &args)
        } else {
            untraced(workload, &args)
        }
    } else {
        Err("--workload is required".into())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("falvolt-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

type Outcome = Result<bool, Box<dyn std::error::Error>>;

/// Prints the run's environment as one `# env` JSON line.
fn print_env(workload: Workload, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {}, \"simd_detected\": \"{}\", \"falvolt_simd\": \"{}\", \
         \"commit\": \"{}\"}}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        rayon::current_num_threads(),
        falvolt_tensor::simd::detected().name(),
        std::env::var("FALVOLT_SIMD").unwrap_or_default(),
        var("FALVOLT_COMMIT"),
    );
}

/// Prints the result object as the last line of standard output.
fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_violations(violations: &[String]) {
    for v in violations {
        println!("# VIOLATION {v}");
    }
}

/// Runs `f`, returning its result with the wall seconds and the process CPU
/// seconds (user + sys, all threads) it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (started, cpu) = (Instant::now(), probe::Sample::now());
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    (out, wall, probe::Sample::now().since(&cpu).cpu_s())
}

/// The end-to-end run: set up [`SETUP_REPS`] times, then run figure
/// repetitions back to back (one client, closed loop) for `--seconds`,
/// gating every repetition.
///
/// The result reports CPU seconds (user + sys, all threads of the process),
/// normalised to the reference host's speed with the host-speed probe
/// ([`calib`]), which runs [`PROBES_PER_GAP`] times before and after every
/// set-up and figure. Raw CPU and wall times are printed beside them.
fn untraced(workload: Workload, args: &Args) -> Outcome {
    let threads = rayon::current_num_threads();
    let (mut setup_wall, mut setup_cpu, mut setup_probes) = (Vec::new(), Vec::new(), Vec::new());
    calib::probes(threads, PROBES_PER_GAP, &mut setup_probes);
    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        drop(ctx.take());
        let (prepared, wall, cpu) = timed(|| workload.prepare());
        ctx = Some(prepared?);
        setup_wall.push(wall);
        setup_cpu.push(cpu);
        calib::probes(threads, PROBES_PER_GAP, &mut setup_probes);
    }
    let mut ctx = ctx.ok_or("no context prepared")?;
    println!("# baseline accuracy {:.4}", ctx.baseline_accuracy());

    let (mut walls, mut cpus, mut violations) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = setup_probes[setup_probes.len() - PROBES_PER_GAP..].to_vec();
    let (mut attempted, mut scenarios, mut epochs) = (0usize, 0usize, 0usize);
    let mut strategies = gate::StrategyMeans::default();
    let started = Instant::now();
    let mut rep = 0;
    while rep < MIN_FIGURES || started.elapsed().as_secs_f64() < args.seconds {
        let (runs, wall, cpu) =
            timed(|| workload.run_figure(&mut ctx, campaign_seed(args.seed, rep)));
        let runs = runs?;
        calib::probes(threads, PROBES_PER_GAP, &mut probes);
        walls.push(wall);
        cpus.push(cpu);
        for plan in &runs {
            attempted += plan.run.len();
            for cell in plan.run.cells() {
                scenarios += cell.scenarios;
                epochs += cell.outcomes.iter().map(|o| o.epochs_run).sum::<usize>();
            }
        }
        violations.extend(
            gate::check_figure(&runs)
                .into_iter()
                .map(|v| format!("repetition {rep}: {v}")),
        );
        strategies.add(&runs);
        if rep == 0 {
            println!("# figure[0] accuracies {:?}", gate::accuracies(&runs));
            match gate::reference(workload, args.seed) {
                Some(reference) => violations.extend(
                    gate::check_reference(&runs, &reference)
                        .into_iter()
                        .map(|v| format!("reference: {v}")),
                ),
                None => println!("# no reference series recorded for seed {}", args.seed),
            }
        }
        rep += 1;
    }
    violations.extend(strategies.check());
    report_violations(&violations);
    let failed = violations.len().min(attempted);
    let (setup_probe_s, probe_s) = (median(&setup_probes), median(&probes));
    if !(setup_probe_s > 0.0 && probe_s > 0.0) {
        return Err("the host-speed probe read no CPU time (/proc/thread-self/schedstat)".into());
    }
    let (setup_scale, scale) = (
        calib::REFERENCE_S / setup_probe_s,
        calib::REFERENCE_S / probe_s,
    );
    let (wall_s, cpu_s): (f64, f64) = (walls.iter().sum(), cpus.iter().sum());
    let setup_s = median(&setup_cpu) * setup_scale;
    let figure_norm_cpu_p50_s = median(&cpus) * scale;
    let scenarios_per_norm_cpu_s = scenarios as f64 / (cpu_s * scale);
    println!(
        "# host-speed probe: median {setup_probe_s:.5} s per thread over {} set-up probes, \
         {probe_s:.5} s over {} figure probes (reference {} s); spread {:.3} / {:.3}",
        setup_probes.len(),
        probes.len(),
        calib::REFERENCE_S,
        probe::spread(&setup_probes),
        probe::spread(&probes),
    );
    println!("# setup_s {setup_s:.4} s normalised; CPU {setup_cpu:.4?}, wall {setup_wall:.4?}",);
    println!(
        "# figure_norm_cpu_p50_s {figure_norm_cpu_p50_s:.4} s, median of {} figures; \
         CPU {cpus:.4?} (median {:.4})",
        cpus.len(),
        median(&cpus)
    );
    println!(
        "# figure_p50_s {:.4} s wall, median of {} figures {walls:.4?}",
        median(&walls),
        walls.len()
    );
    println!(
        "# scenarios_per_norm_cpu_s {scenarios_per_norm_cpu_s:.4} 1/s ({scenarios} scenarios); \
         scenarios_per_cpu_s {:.4} 1/s; scenarios_per_s {:.4} 1/s wall",
        scenarios as f64 / cpu_s,
        scenarios as f64 / wall_s
    );
    if workload.retrains() {
        println!(
            "# retrain_epochs_per_s {:.4} 1/s wall, {:.4} 1/s CPU ({epochs} epochs)",
            epochs as f64 / wall_s,
            epochs as f64 / cpu_s
        );
    }
    println!(
        "# peak_rss_mb {:.2} MB (VmHWM; not in the result, see perfbench/README.md)",
        peak_rss_mb()
    );
    println!(
        "# failed_frac {:.4} ({failed} of {attempted} cells)",
        failed as f64 / attempted.max(1) as f64
    );
    print_result(
        failed == 0,
        attempted,
        failed,
        &[
            ("setup_s", "s", setup_s),
            ("figure_norm_cpu_p50_s", "s", figure_norm_cpu_p50_s),
            ("scenarios_per_norm_cpu_s", "1/s", scenarios_per_norm_cpu_s),
        ],
    );
    Ok(failed == 0)
}

/// The traced run: per-layer metrics plus the instrument-fidelity checks.
fn traced(workload: Workload, args: &Args) -> Outcome {
    let report = trace::run(workload, args.seed, args.seconds)?;
    for line in &report.details {
        println!("# {line}");
    }
    report_violations(&report.violations);
    for m in &report.metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    let failed = report.violations.len().min(report.attempted);
    let metrics: Vec<(&str, &str, f64)> = report
        .metrics
        .iter()
        .map(|m| (m.name, m.unit, m.value))
        .collect();
    print_result(failed == 0, report.attempted.max(1), failed, &metrics);
    Ok(failed == 0)
}

/// Prints repetition 0's reference line for `(workload, seed)` for every
/// seed from `--seed` to `--last-seed`.
fn record_reference(workload: Workload, args: &Args) -> Outcome {
    let mut ctx = workload.prepare()?;
    let mut ok = true;
    for seed in args.seed..=args.last_seed.max(args.seed) {
        let runs = workload.run_figure(&mut ctx, campaign_seed(seed, 0))?;
        let violations = gate::check_figure(&runs);
        report_violations(&violations);
        ok &= violations.is_empty();
        println!("{}", gate::reference_line(workload, seed, &runs));
    }
    Ok(ok)
}

/// The benchmark's self-check: the worker-count determinism probe (one
/// seed, 1 and 2 worker threads, eval accuracies must be bit-identical),
/// plus the gate and reference comparison on that repetition.
fn self_check(args: &Args) -> Outcome {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for workload in workloads {
        let mut series = Vec::new();
        for threads in [1, 2] {
            rayon::set_thread_count_override(threads);
            let started = Instant::now();
            let mut ctx = workload.prepare()?;
            let runs = workload.run_figure(&mut ctx, campaign_seed(args.seed, 0))?;
            println!(
                "# self-check {} at {} worker threads: set-up and one figure in {:.3} s",
                workload.name(),
                rayon::current_num_threads(),
                started.elapsed().as_secs_f64()
            );
            let mut violations = gate::check_figure(&runs);
            if let Some(reference) = gate::reference(workload, args.seed) {
                violations.extend(gate::check_reference(&runs, &reference));
            }
            report_violations(&violations);
            ok &= violations.is_empty();
            series.push(gate::accuracies(&runs));
        }
        rayon::set_thread_count_override(0);
        let bits = |s: &[f32]| s.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let identical = bits(&series[0]) == bits(&series[1]);
        println!(
            "# self-check {} seed {}: 1-thread and 2-thread accuracies {}",
            workload.name(),
            args.seed,
            if identical { "identical" } else { "DIFFER" }
        );
        ok &= identical;
    }
    println!("# self-check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
