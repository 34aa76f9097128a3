//! The traced run: per-layer timings taken from the benchmark's own files,
//! around calls into each layer's public functions. No program code is
//! instrumented; the only hook is a [`MatmulBackend`] decorator.

use crate::probe::{median, quantile, Sample};
use crate::workloads::{campaign_seed, Workload, CONTEXT_SEED, MAPS_PER_CELL};
use falvolt::experiment::{DatasetKind, ExperimentContext};
use falvolt::mitigation::{MitigationStrategy, Mitigator, RetrainConfig};
use falvolt::prune::PruneMasks;
use falvolt::vulnerability::{scenario_outcomes, ScenarioOutcome};
use falvolt::{SweepCaches, SystolicBackend};
use falvolt_datasets::{
    to_batches, Dataset, DatasetConfig, SyntheticDvsGesture, SyntheticMnist, SyntheticNMnist,
};
use falvolt_snn::loss::{Loss, MseRateLoss};
use falvolt_snn::optim::{Adam, Optimizer};
use falvolt_snn::trainer::Trainer;
use falvolt_snn::{
    EnginePreset, FloatBackend, MatmulBackend, MatmulOutput, MatmulRequest, Mode, SpikingNetwork,
    SweepCache,
};
use falvolt_systolic::{FaultMap, ProductCache, StuckAt, SystolicConfig, SystolicExecutor};
use falvolt_tensor::{reduce, MatmulHint, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `(m, k, n)` of one product; each key is one network layer.
pub type Shape3 = (usize, usize, usize);

/// The operands of one product, captured for the systolic replays.
type Operands = (Shape3, Tensor, Tensor, MatmulHint);

/// Calls and busy time per product shape, plus the operands of the first
/// call per shape while capture is on.
#[derive(Debug, Default)]
pub struct Recorder {
    calls: Mutex<BTreeMap<Shape3, (u64, f64)>>,
    captured: Mutex<Option<Vec<Operands>>>,
}

impl Recorder {
    fn start_capture(&self) {
        *lock(&self.captured) = Some(Vec::new());
    }

    fn take_captured(&self) -> Vec<Operands> {
        lock(&self.captured).take().unwrap_or_default()
    }

    /// Total calls and seconds over every shape.
    fn totals(&self) -> (u64, f64) {
        lock(&self.calls)
            .values()
            .fold((0, 0.0), |(c, s), &(calls, secs)| (c + calls, s + secs))
    }
}

/// Every update under these locks is a single insert or add, so a guard
/// poisoned by a panicking product leaves consistent data behind.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Times every product and forwards the request, name and fingerprint of
/// the wrapped backend unchanged, so cache keys (and therefore hits and
/// misses) are the same with and without the decorator.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn MatmulBackend>,
    recorder: Arc<Recorder>,
}

impl MatmulBackend for TracedBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        let started = Instant::now();
        let out = self.inner.matmul_request(req)?;
        let seconds = started.elapsed().as_secs_f64();
        let (a, b) = (req.a().shape(), req.b().shape());
        let key = (a[0], a[1], b[1]);
        {
            let mut calls = lock(&self.recorder.calls);
            let entry = calls.entry(key).or_default();
            entry.0 += 1;
            entry.1 += seconds;
        }
        if let Some(captured) = lock(&self.recorder.captured).as_mut() {
            if !captured.iter().any(|(k, ..)| *k == key) {
                captured.push((key, req.a().clone(), req.b().clone(), req.hint()));
            }
        }
        Ok(out)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

fn traced(inner: Arc<dyn MatmulBackend>, recorder: &Arc<Recorder>) -> Arc<dyn MatmulBackend> {
    Arc::new(TracedBackend {
        inner,
        recorder: Arc::clone(recorder),
    })
}

/// One named per-layer metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed under `per_layer` in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What the traced run produced: the metrics, human-readable detail lines,
/// and fidelity violations (which count as failures).
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Per-layer metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Detail lines (per-shape breakdowns, bases, sample counts).
    pub details: Vec<String>,
    /// Fidelity violations.
    pub violations: Vec<String>,
    /// Figure cells attempted.
    pub attempted: usize,
}

impl TraceReport {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }
}

/// Cache counters of a context, as `[prefix, lowered, product]` rows of
/// `(hits, lookups)`.
fn cache_counts(ctx: &ExperimentContext) -> [(u64, u64); 3] {
    let caches = ctx.caches();
    let sweep = |s: falvolt_snn::sweep_cache::CacheStats| {
        (s.hits as u64, (s.hits + s.misses + s.promotions) as u64)
    };
    let p = &caches.product;
    [
        sweep(caches.sweep.prefix_stats()),
        sweep(caches.sweep.lowered_stats()),
        (
            p.hits() as u64,
            (p.hits() + p.promotions() + p.skips()) as u64,
        ),
    ]
}

fn delta(after: [(u64, u64); 3], before: [(u64, u64); 3]) -> [(u64, u64); 3] {
    std::array::from_fn(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1))
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| time(&mut f).1).collect();
    median(&times)
}

/// Runs the traced measurement for `workload`.
///
/// Figure repetitions run on one context with process-counter and cache
/// snapshots around each. A campaign's backend cannot be decorated through
/// the public API, so the figures themselves carry no instrument; the layer
/// replays after them do, and the instrument's fidelity and overhead are
/// measured there.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> falvolt::Result<TraceReport> {
    let mut report = TraceReport::default();
    let mut ctx = workload.prepare()?;

    // --- Figure repetitions ---------------------------------------------
    let (mut figure_times, mut minflts, mut sys_fracs) = (Vec::new(), Vec::new(), Vec::new());
    let mut cache_total = [(0u64, 0u64); 3];
    let started = Instant::now();
    let mut rep = 0;
    while rep < 2 || started.elapsed().as_secs_f64() < seconds {
        let before = cache_counts(&ctx);
        let sample = Sample::now();
        let (runs, t) = time(|| workload.run_figure(&mut ctx, campaign_seed(seed, rep)));
        let used = Sample::now().since(&sample);
        let runs = runs?;
        let cache = delta(cache_counts(&ctx), before);
        figure_times.push(t);
        minflts.push(used.minflt as f64);
        sys_fracs.push(used.sys_s / t);
        report.attempted += runs.iter().map(|p| p.run.len()).sum::<usize>();
        report.violations.extend(
            crate::gate::check_figure(&runs)
                .into_iter()
                .map(|v| format!("repetition {rep}: {v}")),
        );
        if rep == 0 {
            report.details.push(format!(
                "figure[0] accuracies {:?}",
                crate::gate::accuracies(&runs)
            ));
        }
        report.details.push(format!(
            "cache counters figure[{rep}] (hits, lookups) prefix/lowered/product: {cache:?}"
        ));
        for (total, d) in cache_total.iter_mut().zip(cache) {
            total.0 += d.0;
            total.1 += d.1;
        }
        for plan in &runs {
            report.details.push(format!(
                "span figure[{rep}].plan[{}] {:.6} s, {} cells",
                plan.plan,
                plan.seconds,
                plan.run.len()
            ));
        }
        rep += 1;
    }
    let ctx = &mut ctx;
    let msb = ctx.systolic_config().accumulator_format().msb();
    let config = *ctx.systolic_config();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE);

    // --- datasets -------------------------------------------------------
    let gen_s = median_time(3, || {
        let (train, test) = generate(ctx.kind(), CONTEXT_SEED);
        black_box(to_batches(train.as_ref(), 16, CONTEXT_SEED));
        black_box(to_batches(test.as_ref(), 16, CONTEXT_SEED + 1));
    });
    report.push("datasets.gen_s", "s", gen_s);

    // --- snn train path, replayed from Trainer::train_batch's calls -----
    let recorder = Arc::new(Recorder::default());
    let mut network = ctx.network_clone()?;
    network.set_backend(traced(FloatBackend::shared(), &recorder));
    let mut optimizer = Adam::new(BASELINE_LR);
    let loss = MseRateLoss::new();
    let replay_epochs = MIN_BATCH_SAMPLES.div_ceil(ctx.train_batches().len().max(1));
    let (mut fwd, mut bwd, mut opt, mut epochs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..replay_epochs {
        let epoch_start = Instant::now();
        for batch in ctx.train_batches() {
            let targets = reduce::one_hot(&batch.labels, ctx.classes())?;
            network.zero_grads();
            let (rates, t) = time(|| network.forward(&batch.input, Mode::Train));
            let rates = rates?;
            fwd.push(t);
            let _ = loss.forward(&rates, &targets)?;
            let grad = loss.backward(&rates, &targets)?;
            let (r, t) = time(|| network.backward(&grad));
            r?;
            bwd.push(t);
            let ((), t) = time(|| optimizer.step(network.params_mut()));
            opt.push(t);
        }
        epochs.push(epoch_start.elapsed().as_secs_f64());
    }
    let (matmul_calls, matmul_s) = recorder.totals();
    // The replay, decorator included, must train exactly as a `Trainer` on
    // the bare backend does: same parameters and eval accuracy, bit for bit.
    let mut bare = ctx.network_clone()?;
    let mut trainer = Trainer::new(Adam::new(BASELINE_LR), MseRateLoss::new(), ctx.classes());
    for _ in 0..replay_epochs {
        trainer.train_epoch(&mut bare, ctx.train_batches())?;
    }
    let state_bits = |net: &mut SpikingNetwork| -> falvolt::Result<Vec<u32>> {
        let mut bits: Vec<u32> = net
            .export_parameters()
            .iter()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect();
        bits.push(falvolt_snn::trainer::evaluate(net, ctx.test_batches())?.to_bits());
        Ok(bits)
    };
    let replay_identical = state_bits(&mut network)? == state_bits(&mut bare)?;
    if !replay_identical {
        report.violations.push(
            "train replay through the decorator left other parameters or eval accuracy than \
             Trainer::train_epoch on the bare backend"
                .to_string(),
        );
    }
    report.details.push(format!(
        "train replay fidelity: {replay_epochs} epochs, parameters and eval accuracy \
         identical to Trainer::train_epoch on the bare backend: {replay_identical}"
    ));
    for (name, samples) in [
        ("snn.train.forward_s", &fwd),
        ("snn.train.backward_s", &bwd),
        ("snn.train.optim_s", &opt),
    ] {
        let p90 = quantile(samples, 0.9);
        report.details.push(format!(
            "{name}: p50 {:.6} s, p90 {p90:.6} s over {} samples, {} beyond the p90",
            median(samples),
            samples.len(),
            samples.iter().filter(|&&t| t > p90).count()
        ));
    }
    report.details.push(format!(
        "snn.train.epoch_s: p50 {:.6} s over {} samples (too few for a p90)",
        median(&epochs),
        epochs.len()
    ));
    report.push("snn.train.forward_s", "s", median(&fwd));
    report.push("snn.train.forward_s.p90", "s", quantile(&fwd, 0.9));
    report.push("snn.train.backward_s", "s", median(&bwd));
    report.push("snn.train.backward_s.p90", "s", quantile(&bwd, 0.9));
    report.push("snn.train.optim_s", "s", median(&opt));
    report.push("snn.train.optim_s.p90", "s", quantile(&opt, 0.9));
    report.push("snn.train.epoch_s", "s", median(&epochs));
    report.push("snn.train.batches", "count", fwd.len() as f64);
    report.push("snn.backend.matmul_calls", "count", matmul_calls as f64);
    report.push("snn.backend.matmul_s", "s", matmul_s);
    report.push(
        "snn.backend.forward_share",
        "frac",
        matmul_s / fwd.iter().sum::<f64>(),
    );
    for (key, (calls, secs)) in lock(&recorder.calls).iter() {
        report.details.push(format!(
            "snn.backend.matmul[{}x{}x{}]: {calls} calls, {secs:.6} s (train forward)",
            key.0, key.1, key.2
        ));
    }

    // --- snn eval, and the decorator's fidelity -------------------------
    let mut eval_net = ctx.network_clone()?;
    let eval_s = median_time(3, || {
        black_box(falvolt_snn::trainer::evaluate(&mut eval_net, ctx.test_batches()).ok());
    });
    report.push("snn.eval_s", "s", eval_s);
    let rate_map = FaultMap::random_with_rate(&config, 0.30, msb, StuckAt::One, &mut rng)?;
    let overhead = check_decorator_fidelity(ctx, &rate_map, &mut report)?;

    // --- core: mitigation and pruning -----------------------------------
    let mitigator = Mitigator::new(ctx.classes(), RetrainConfig::paper_like());
    for (name, strategy) in [
        ("core.mitigation.run_s.fap", MitigationStrategy::FaP),
        (
            "core.mitigation.run_s.fapit",
            MitigationStrategy::fapit(Workload::retrain_epochs()),
        ),
        (
            "core.mitigation.run_s.falvolt",
            MitigationStrategy::falvolt(Workload::retrain_epochs()),
        ),
    ] {
        let mut net = ctx.network_clone()?;
        let (outcome, t) = time(|| {
            mitigator.run(
                &mut net,
                &rate_map,
                ctx.train_batches(),
                ctx.test_batches(),
                strategy,
            )
        });
        outcome?;
        report.push(name, "s", t);
    }
    let mut prune_net = ctx.network_clone()?;
    let prune_s = median_time(5, || {
        let masks = PruneMasks::derive(&mut prune_net, &rate_map);
        black_box(masks.apply(&mut prune_net).ok());
    });
    report.push("core.prune_s", "s", prune_s);

    // --- core: one cell's scenarios through scenario_outcomes -----------
    let maps: Vec<(SystolicConfig, FaultMap)> = (0..MAPS_PER_CELL)
        .map(|_| FaultMap::random_faulty_pes(&config, 4, msb, StuckAt::One, &mut rng))
        .map(|m| m.map(|m| (config, m)))
        .collect::<Result<_, _>>()?;
    let scenarios = maps.len();
    let (outcomes, t) = time(|| {
        scenario_outcomes(
            ctx.network(),
            maps,
            ctx.test_batches(),
            &SweepCaches::new(),
            &EnginePreset::full(),
            None,
            None,
        )
    });
    if !outcomes
        .iter()
        .all(|o| matches!(o, ScenarioOutcome::Done(_)))
    {
        report
            .violations
            .push("core.vulnerability: a scenario did not complete".to_string());
    }
    report.push("core.vulnerability.scenario_s", "s", t / scenarios as f64);
    report.push("core.vulnerability.scenarios", "count", scenarios as f64);

    // --- systolic: per layer, on operands captured in one Eval forward --
    let capture = Arc::new(Recorder::default());
    let mut probe_net = ctx.network_clone()?;
    probe_net.set_backend(traced(FloatBackend::shared(), &capture));
    capture.start_capture();
    probe_net.predict(&ctx.test_batches()[0].input)?;
    let layers = capture.take_captured();
    let faulty = FaultMap::random_faulty_pes(&config, 16, msb, StuckAt::One, &mut rng)?;
    let batch_maps: Vec<FaultMap> = (0..SCENARIO_MAPS)
        .map(|_| FaultMap::random_faulty_pes(&config, 16, msb, StuckAt::One, &mut rng))
        .collect::<Result<_, _>>()?;
    let faulty_exec = SystolicExecutor::new(config, faulty);
    let clean_exec = SystolicExecutor::new(config, FaultMap::new(config));
    let (mut faulty_s, mut clean_s, mut batched_s, mut ops, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut densities = Vec::new();
    for ((m, k, n), a, b, hint) in &layers {
        let f = median_time(3, || {
            black_box(faulty_exec.matmul_hinted(a, b, *hint).ok());
        });
        let c = median_time(3, || {
            black_box(clean_exec.matmul_hinted(a, b, *hint).ok());
        });
        let s = median_time(3, || {
            black_box(
                faulty_exec
                    .matmul_scenarios_hinted(a, b, &batch_maps, *hint)
                    .ok(),
            );
        }) / SCENARIO_MAPS as f64;
        let nnz = a.spike_index().map_or_else(
            || a.data().iter().filter(|v| **v != 0.0).count(),
            |i| i.nnz(),
        );
        let density = nnz as f64 / (m * k).max(1) as f64;
        // Computed, not counted: one multiply-add per nonzero activation
        // and output column; f32 footprint of the nonzero activations,
        // the weights and the output.
        let layer_ops = 2.0 * nnz as f64 * *n as f64;
        let layer_bytes = 4.0 * (nnz + k * n + m * n) as f64;
        report.details.push(format!(
            "systolic[{m}x{k}x{n}]: faulty {f:.6} s, clean {c:.6} s, batched {s:.6} s/map \
             ({SCENARIO_MAPS} maps), ops {layer_ops:.0} (computed), bytes {layer_bytes:.0} \
             (computed), tensor.event_density {density:.4}"
        ));
        faulty_s += f;
        clean_s += c;
        batched_s += s;
        ops += layer_ops;
        bytes += layer_bytes;
        densities.push(density);
    }
    report.push("systolic.faulty_s", "s", faulty_s);
    report.push("systolic.clean_s", "s", clean_s);
    report.push("systolic.batched_s_per_map", "s", batched_s);
    report.push("systolic.layers", "count", layers.len() as f64);
    report.push("systolic.ops", "count", ops);
    report.push("systolic.bytes", "bytes", bytes);
    report.push(
        "tensor.event_density",
        "frac",
        densities.iter().sum::<f64>() / densities.len().max(1) as f64,
    );
    report.push(
        "tensor.event_density.min",
        "frac",
        densities
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
    );

    // --- caches over the traced repetitions -----------------------------
    for ((ratio, hits, lookups), (h, l)) in [
        (
            "cache.prefix.hit_ratio",
            "cache.prefix.hits",
            "cache.prefix.lookups",
        ),
        (
            "cache.lowered.hit_ratio",
            "cache.lowered.hits",
            "cache.lowered.lookups",
        ),
        (
            "cache.product.hit_ratio",
            "cache.product.hits",
            "cache.product.lookups",
        ),
    ]
    .into_iter()
    .zip(cache_total)
    {
        // No base, no ratio: a store that saw no lookups reports 0.
        report.push(
            ratio,
            "frac",
            if l == 0 { 0.0 } else { h as f64 / l as f64 },
        );
        report.push(hits, "count", h as f64);
        report.push(lookups, "count", l as f64);
    }

    // --- process, per traced figure -------------------------------------
    report.push("proc.sys_frac", "frac", median(&sys_fracs));
    report.push("proc.minflt", "count", median(&minflts));
    report.push("proc.peak_rss_mb", "MB", crate::probe::peak_rss_mb());

    // --- figure wall time, and the instrument's own cost ----------------
    report.push("trace.figure_p50_s", "s", median(&figure_times));
    report.push("trace.figure_samples", "count", figure_times.len() as f64);
    report.push("trace_overhead_frac", "frac", overhead);
    report.push(
        "trace.fidelity_violations",
        "count",
        report.violations.len() as f64,
    );
    Ok(report)
}

/// Batch samples the train replay collects at least, so that ten or more
/// lie beyond each reported p90.
const MIN_BATCH_SAMPLES: usize = 110;
/// Learning rate of the replayed training: the baseline trainer's.
const BASELINE_LR: f32 = 5e-3;
/// Fault maps per batched `matmul_scenarios` call (the paper's 8).
const SCENARIO_MAPS: usize = 8;

/// Generates the workload's dataset from public calls, the same way
/// `ExperimentContext::prepare` does at Tiny scale.
fn generate(kind: DatasetKind, seed: u64) -> (Box<dyn Dataset>, Box<dyn Dataset>) {
    let config = DatasetConfig::default_experiment().with_samples_per_class(10);
    let steps = config.with_time_steps(kind.architecture().time_steps);
    match kind {
        DatasetKind::Mnist => {
            let (a, b) = SyntheticMnist::train_test(&config, seed);
            (Box::new(a), Box::new(b))
        }
        DatasetKind::NMnist => {
            let (a, b) = SyntheticNMnist::train_test(&steps, seed);
            (Box::new(a), Box::new(b))
        }
        DatasetKind::DvsGesture => {
            let (a, b) = SyntheticDvsGesture::train_test(&steps, seed);
            (Box::new(a), Box::new(b))
        }
    }
}

/// Evaluates the baseline twice through a backend and twice through the
/// decorator around an identical backend, each with fresh caches: accuracies
/// must match bit for bit and the sweep- and product-cache counters
/// exactly. Checked for the float backend and for a faulty systolic backend
/// with a product cache, [`FIDELITY_ROUNDS`] times each, alternating which
/// goes first.
///
/// Returns the decorator's overhead: the median decorated time over the
/// median bare time, summed over both backends, minus one.
fn check_decorator_fidelity(
    ctx: &ExperimentContext,
    faulty: &FaultMap,
    report: &mut TraceReport,
) -> falvolt::Result<f64> {
    type Probe = (Vec<u32>, [(u64, u64); 2], (usize, usize, usize));
    let probe = |systolic: bool, decorate: bool| -> falvolt::Result<(Probe, f64)> {
        let mut net = ctx.network_clone()?;
        let product = Arc::new(ProductCache::new());
        let mut backend = if systolic {
            SystolicBackend::builder(*ctx.systolic_config(), faulty.clone())
                .product_cache(Arc::clone(&product))
                .shared()
        } else {
            FloatBackend::shared()
        };
        if decorate {
            backend = traced(backend, &Arc::new(Recorder::default()));
        }
        net.set_backend(backend);
        let cache = Arc::new(SweepCache::new());
        net.set_sweep_cache(Some(Arc::clone(&cache)));
        let started = Instant::now();
        let mut accs = Vec::new();
        for _ in 0..2 {
            accs.push(falvolt_snn::trainer::evaluate(&mut net, ctx.test_batches())?.to_bits());
        }
        let seconds = started.elapsed().as_secs_f64();
        let counts = |s: falvolt_snn::sweep_cache::CacheStats| {
            (s.hits as u64, (s.hits + s.misses + s.promotions) as u64)
        };
        let probe = (
            accs,
            [counts(cache.prefix_stats()), counts(cache.lowered_stats())],
            (product.hits(), product.promotions(), product.skips()),
        );
        Ok((probe, seconds))
    };
    let (mut bare_s, mut decorated_s) = (0.0, 0.0);
    for (label, systolic) in [("float", false), ("systolic", true)] {
        let (mut bare_times, mut decorated_times) = (Vec::new(), Vec::new());
        let mut identical = true;
        let mut base = None;
        for round in 0..FIDELITY_ROUNDS {
            let ((plain, t_plain), (decorated, t_decorated)) = if round % 2 == 0 {
                let plain = probe(systolic, false)?;
                (plain, probe(systolic, true)?)
            } else {
                let decorated = probe(systolic, true)?;
                (probe(systolic, false)?, decorated)
            };
            bare_times.push(t_plain);
            decorated_times.push(t_decorated);
            if plain != decorated {
                identical = false;
                report.violations.push(format!(
                    "decorator around the {label} backend changed eval results or cache \
                     counters: plain {plain:?}, decorated {decorated:?}"
                ));
            }
            base.get_or_insert(plain);
        }
        let (b, d) = (median(&bare_times), median(&decorated_times));
        bare_s += b;
        decorated_s += d;
        if let Some(plain) = base {
            report.details.push(format!(
                "decorator fidelity ({label}): sweep (hits, lookups) {:?}, product (hits, \
                 promotions, skips) {:?}, identical with and without the decorator: {identical}; \
                 2 evaluations take {b:.6} s bare, {d:.6} s decorated (medians of \
                 {FIDELITY_ROUNDS})",
                plain.1, plain.2
            ));
        }
    }
    Ok(decorated_s / bare_s - 1.0)
}

/// Bare/decorated probe pairs per backend in the decorator fidelity check.
const FIDELITY_ROUNDS: usize = 4;
