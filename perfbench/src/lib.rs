//! `perfbench`: end-to-end and per-layer benchmark of the CBNet serving
//! stack. One run sets a workload up three times, then measures three
//! phases on its inputs — a closed-loop batch-1 stream, batch-64 offline
//! inference and a simulated three-tier fleet — and prints one JSON result
//! line. `perfbench/README.md` describes the workloads, metrics and
//! estimators.

pub mod args;
pub mod batch;
pub mod canary;
pub mod fleet;
pub mod procfs;
pub mod setup;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use setup::{Deployment, Replica, SetupTimes, FLEET_MODELS};
use stats::{median, Ledger};
use trace::{SpanKind, SpanProbe};
use workload::{key, Workload, MODELS, SETUP_REPEATS};

/// Share of `--seconds` given to the stream, batch and fleet phases.
const PHASE_SHARE: [f64; 3] = [0.6, 0.15, 0.25];
/// Fewest rounds or passes any phase runs, whatever the budget.
const MIN_ROUNDS: usize = 3;
/// Span capacity of the traced run.
const SPAN_CAPACITY: usize = 700_000;
/// Stream rounds recorded with spans in the traced run.
const TRACED_ROUNDS: usize = 12;
/// Spans written to the trace file.
const SPANS_WRITTEN: usize = 20_000;

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    estimator: &'static str,
    /// For a timing on the canary's nominal scale: the same estimate as
    /// measured, printed in the detail block.
    raw: Option<f64>,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        estimator: &'static str,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            estimator,
            raw: None,
        });
    }

    /// Add a timing on the canary's nominal scale along with its estimate
    /// as measured.
    fn add_normalised(
        &mut self,
        name: impl Into<String>,
        (value, raw): (f64, f64),
        unit: &'static str,
        samples: usize,
        estimator: &'static str,
    ) {
        self.add(name, value, unit, samples, estimator);
        if let Some(last) = self.0.last_mut() {
            last.raw = Some(raw);
        }
    }
}

/// JSON number with every digit (`{}` prints the shortest exact form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance_line(a: &args::Args, dep: &Deployment) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\":{{\"cpu_model\":{},\"nproc\":{nproc},\"max_threads\":{},\"backend\":{},\"git_rev\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"inputs_checksum\":\"{:016x}\",\"train_checksum\":\"{:016x}\"}}}}",
        string(&cpu_model()),
        tensor::parallel::max_threads(),
        string(tensor::backend::Backend::resolve().name()),
        string(&git_rev()),
        string(&a.workload),
        a.seed,
        num(a.seconds),
        a.trace,
        dep.inputs_checksum,
        dep.train_checksum,
    )
}

/// Set up [`SETUP_REPEATS`] times; keep the last deployment. Every repeat
/// must produce the same inputs and the same trained predictions.
fn set_up(w: &Workload, seed: u64, ledger: &mut Ledger) -> (Deployment, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut first: Option<(u64, Vec<Vec<usize>>)> = None;
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (dep, t) = setup::setup(w, seed, ledger);
        times.push(t);
        match &first {
            None => first = Some((dep.inputs_checksum, dep.reference.clone())),
            Some((sum, reference)) => ledger.record(
                *sum == dep.inputs_checksum && *reference == dep.reference,
                || {
                    "a repeated set-up generated different inputs or trained different models"
                        .into()
                },
            ),
        }
        last = Some(dep);
    }
    (last.expect("SETUP_REPEATS is positive"), times)
}

/// The whole fleet phase: passes until `budget` is spent, each checked to
/// repeat the first, then one check against the reference loop.
struct FleetResult {
    first: fleet::Pass,
    /// `[pass][simulation]` host cost; every pass runs the same simulations.
    costs: Vec<Vec<fleet::SimCost>>,
}

impl FleetResult {
    /// Events per host second with every simulation of the pass taken at
    /// its fastest repetition: scaled by the floor of the compute canary
    /// timed before each simulation, and as measured.
    fn events_per_s(&self) -> (f64, f64) {
        let first = &self.costs[0];
        let events = first.iter().map(|c| c.events).sum::<u64>() as f64;
        let secs: f64 = (0..first.len())
            .map(|j| {
                self.costs
                    .iter()
                    .filter_map(|pass| pass.get(j).map(|c| c.secs))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let mut floor = canary::Floor::default();
        for pass in &self.costs {
            for (j, c) in pass.iter().enumerate() {
                floor.add(j, c.canary);
            }
        }
        let raw = events / secs;
        (raw / floor.factor(canary::Kind::Compute), raw)
    }
}

fn fleet_phase(
    dep: &Deployment,
    w: &Workload,
    seed: u64,
    budget: Duration,
    ledger: &mut Ledger,
) -> Result<FleetResult, String> {
    let start = std::time::Instant::now();
    let mut first: Option<fleet::Pass> = None;
    let mut costs = Vec::new();
    while costs.len() < MIN_ROUNDS || start.elapsed() < budget {
        let mut pass_costs = Vec::new();
        let p = fleet::pass(&dep.fleet, w.rollout, seed, &mut pass_costs, ledger)?;
        costs.push(pass_costs);
        match &first {
            None => first = Some(p),
            Some(f) => ledger.record(*f == p, || {
                "a repeated fleet pass gave other results".into()
            }),
        }
    }
    let first = first.expect("at least one pass ran");
    let rate = fleet::ladder_hz(first.max_index[0]);
    let same = fleet::matches_reference(&dep.fleet[0], w.rollout, rate, seed)?;
    ledger.record(same, || {
        format!("fleet report at {rate} Hz differs from edgesim::reference")
    });
    Ok(FleetResult { first, costs })
}

/// Per-row layer costs of each model's plan stages, in plan-run order.
fn stage_costs(dep: &Deployment) -> Vec<Vec<Vec<trace::LayerCost>>> {
    let tf = dep.registry.trained();
    let pixels = datasets::IMAGE_PIXELS;
    let lenet = vec![trace::stage_costs(&tf.lenet.specs(), pixels)];
    let (trunk, branch, tail) = tf.artifacts.branchynet.stages();
    let branchy = vec![
        trace::stage_costs(&trunk.specs(), pixels),
        trace::stage_costs(&branch.specs(), trunk.out_dim()),
        trace::stage_costs(&tail.specs(), trunk.out_dim()),
    ];
    let cbnet = &tf.artifacts.cbnet;
    let ae = cbnet.autoencoder.specs();
    // The encoder is a Dense + Activation pair per hidden layer.
    let enc = 2 * cbnet.autoencoder.config().hidden.len();
    let cb = vec![
        trace::stage_costs(&ae[..enc], pixels),
        trace::stage_costs(&ae[enc..], cbnet.autoencoder.bottleneck_dim()),
        trace::stage_costs(&cbnet.lightweight.specs(), pixels),
    ];
    vec![lenet, branchy, cb]
}

/// Per-layer metrics of the traced stream rounds.
fn stream_layers(
    m: &mut Metrics,
    traces: &[trace::ModelTrace],
    untraced: &stream::StreamResult,
    traced: &stream::StreamResult,
) {
    let mut rebuilds = 0;
    for (i, t) in traces.iter().enumerate() {
        let k = key(MODELS[i]);
        let n = t.requests.max(1) as f64;
        let r = t.requests as usize;
        rebuilds += t.rebuilds;
        m.add(
            format!("runtime.allocs_per_request.{k}"),
            t.allocs as f64 / n,
            "count",
            r,
            "mean",
        );
        for (s, span) in [
            SpanKind::Request,
            SpanKind::Predict,
            SpanKind::Plan,
            SpanKind::Layer,
        ]
        .iter()
        .enumerate()
        {
            m.add(
                format!("trace.{}_self_us.{k}", span.name()),
                t.self_ns[s] as f64 / n / 1e3,
                "us",
                r,
                "mean",
            );
        }
        for (j, kind) in trace::KINDS.iter().enumerate() {
            let ns = t.kind_ns[j].max(1) as f64;
            m.add(
                format!("nn.{kind}_us.{k}"),
                t.kind_ns[j] as f64 / n / 1e3,
                "us",
                r,
                "mean",
            );
            m.add(
                format!("tensor.{kind}_gflops.{k}"),
                t.kind_flops[j] as f64 / ns,
                "GFLOP/s",
                r,
                "total",
            );
            m.add(
                format!("tensor.{kind}_gbps.{k}"),
                t.kind_moved[j] as f64 / ns,
                "GB/s",
                r,
                "total",
            );
        }
        m.add(
            format!("tensor.weight_bytes_per_request.{k}"),
            t.weight_bytes as f64 / n,
            "bytes",
            r,
            "computed",
        );
        m.add(
            format!("tensor.flops_per_request.{k}"),
            t.kind_flops.iter().sum::<u64>() as f64 / n,
            "count",
            r,
            "computed",
        );
        let p50 = |s: &stream::StreamResult| s.latency_us(i, 0.5).0;
        m.add(
            format!("trace.overhead_us.{k}"),
            p50(traced) - p50(untraced),
            "us",
            traced.samples(i),
            "p50_of_fastest_replays_difference",
        );
    }
    m.add("nn.plan_rebuilds", rebuilds as f64, "count", 1, "count");

    // Stage times: CBNet's autoencoder is its first two plan runs.
    let cb = &traces[2];
    let ae: Vec<f64> = cb
        .stage_ns
        .iter()
        .map(|s| s.iter().take(2).sum::<u64>() as f64 / 1e3)
        .collect();
    let lw: Vec<f64> = cb
        .stage_ns
        .iter()
        .filter_map(|s| s.get(2).map(|&x| x as f64 / 1e3))
        .collect();
    m.add("models.cbnet_ae_us", median(&ae), "us", ae.len(), "median");
    m.add(
        "models.cbnet_lightweight_us",
        median(&lw),
        "us",
        lw.len(),
        "median",
    );
    // BranchyNet: two plan runs is an early exit, three runs the tail.
    let bn = &traces[1];
    let by = |stages: usize| {
        bn.predict_ns_by_stages
            .get(stages)
            .cloned()
            .unwrap_or_default()
    };
    let (easy, hard) = (by(2), by(3));
    m.add(
        "models.branchynet_easy_us",
        median(&easy) / 1e3,
        "us",
        easy.len(),
        "median",
    );
    m.add(
        "models.branchynet_hard_us",
        median(&hard) / 1e3,
        "us",
        hard.len(),
        "median",
    );
    m.add(
        "models.branchynet_exit_rate",
        bn.two_stage as f64 / bn.requests.max(1) as f64,
        "ratio",
        bn.requests as usize,
        "count",
    );
}

/// Run the benchmark; returns the process exit code. `alloc_counting` is
/// true in the binary that installs the counting allocator, which traced
/// runs need.
pub fn run(alloc_counting: bool) -> i32 {
    let a = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let Some(w) = workload::find(&a.workload) else {
        eprintln!("perfbench: unknown workload {}", a.workload);
        return 2;
    };
    if a.trace && !alloc_counting {
        eprintln!("perfbench: --trace 1 needs the perfbench_traced binary");
        return 2;
    }
    match measure(&a, &w) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn measure(a: &args::Args, w: &Workload) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let (dep, setups) = set_up(w, a.seed, &mut ledger);
    println!("{}", provenance_line(a, &dep));
    let budget = |i: usize| Duration::from_secs_f64(a.seconds * PHASE_SHARE[i]);
    let mut m = Metrics::default();

    // Accuracy of the reference predictions, which every phase checks
    // its own predictions against.
    let accuracy: Vec<f64> = dep
        .reference
        .iter()
        .map(|p| f64::from(models::accuracy(p, &dep.inputs.labels)))
        .collect();

    let mut replicas = setup::replicas(&dep, &mut ledger)?;
    if !a.trace {
        let s = stream::run(
            &dep,
            &mut replicas,
            budget(0),
            MIN_ROUNDS,
            usize::MAX,
            None,
            &mut ledger,
        );
        let b = batch::run(&dep, &mut replicas, budget(1), MIN_ROUNDS, &mut ledger);
        let f = fleet_phase(&dep, w, a.seed, budget(2), &mut ledger)?;
        let totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
        m.add("setup_s", median(&totals), "s", totals.len(), "median");
        for (i, kind) in MODELS.iter().enumerate() {
            let k = key(*kind);
            for (q, name) in [(0.50, "latency_p50_us"), (0.99, "latency_p99_us")] {
                m.add_normalised(
                    format!("{k}.{name}"),
                    s.latency_us(i, q),
                    "us",
                    s.samples(i),
                    "quantile_of_fastest_replays_canary_floor",
                );
            }
            m.add_normalised(
                format!("{k}.images_per_s"),
                (b.images_per_s(i, false), b.images_per_s(i, true)),
                "1/s",
                b.chunk_s[i].len(),
                "median_of_chunks_adjacent_canary",
            );
            m.add(
                format!("{k}.accuracy"),
                accuracy[i],
                "ratio",
                dep.inputs.labels.len(),
                "exact",
            );
        }
        m.add_normalised(
            "fleet.events_per_s",
            f.events_per_s(),
            "1/s",
            f.costs.len(),
            "fastest_repetition_of_each_simulation_canary_floor",
        );
        for (j, kind) in FLEET_MODELS.iter().enumerate() {
            m.add(
                format!("fleet.{}_max_rate_hz", key(*kind)),
                fleet::ladder_hz(f.first.max_index[j]),
                "Hz",
                1,
                "ladder_bisection",
            );
        }
    } else {
        traced(a, &dep, &mut replicas, &setups, &mut m, &mut ledger, w)?;
    }

    let mut detail = String::from("{\"detail\":{");
    for (i, x) in m.0.iter().enumerate() {
        let _ = write!(
            detail,
            "{}{}:{{\"samples\":{},\"estimator\":{}",
            if i == 0 { "" } else { "," },
            string(&x.name),
            x.samples,
            string(x.estimator)
        );
        if let Some(raw) = x.raw {
            let _ = write!(detail, ",\"raw\":{}", num(raw));
        }
        detail.push('}');
    }
    let _ = write!(detail, "}},\"failures\":[");
    for (i, f) in ledger.failures.iter().enumerate() {
        let _ = write!(detail, "{}{}", if i == 0 { "" } else { "," }, string(f));
    }
    detail.push_str("]}");
    println!("{detail}");

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    for (i, x) in m.0.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            string(&x.name),
            num(x.value),
            string(x.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// The traced run: the per-layer metrics and the tracing overhead.
fn traced(
    a: &args::Args,
    dep: &Deployment,
    replicas: &mut [Replica],
    setups: &[SetupTimes],
    m: &mut Metrics,
    ledger: &mut Ledger,
    w: &Workload,
) -> Result<(), String> {
    let budget = |i: usize| Duration::from_secs_f64(a.seconds * PHASE_SHARE[i]);
    let col = |f: fn(&SetupTimes) -> f64| -> Vec<f64> { setups.iter().map(f).collect() };
    let n = setups.len();
    m.add(
        "setup.datagen_s",
        median(&col(|t| t.datagen_s)),
        "s",
        n,
        "median",
    );
    m.add(
        "setup.train_s",
        median(&col(|t| t.train_s)),
        "s",
        n,
        "median",
    );
    m.add(
        "store.publish_us",
        median(&col(|t| t.publish_us)),
        "us",
        n,
        "median",
    );
    m.add(
        "store.load_us",
        median(&col(|t| t.load_us)),
        "us",
        n,
        "median",
    );

    // Stream: untraced and traced rounds alternate on one replica, so host
    // slowdowns that come and go over seconds fall on both; the tracing
    // overhead is the difference of their p50 latencies.
    let probe = Arc::new(SpanProbe::new(SPAN_CAPACITY));
    let (mut untraced, mut traced) = (
        stream::StreamResult::default(),
        stream::StreamResult::default(),
    );
    let start = std::time::Instant::now();
    let mut rounds = 0;
    while rounds < TRACED_ROUNDS && (rounds < MIN_ROUNDS || start.elapsed() < budget(0)) {
        obs::probe::clear();
        replicas[0].warm_up(dep, ledger);
        let one = &mut replicas[..1];
        untraced.extend(stream::run(dep, one, Duration::ZERO, 1, 1, None, ledger));
        obs::probe::install(probe.clone());
        replicas[0].warm_up(dep, ledger);
        probe.set_recording(true);
        traced.extend(stream::run(
            dep,
            &mut replicas[..1],
            Duration::ZERO,
            1,
            1,
            Some(&probe),
            ledger,
        ));
        probe.set_recording(false);
        rounds += 1;
    }
    obs::probe::clear();
    let (spans, dropped) = probe.take();
    ledger.record(dropped == 0, || {
        format!("{dropped} spans did not fit the recorder")
    });
    let traces = trace::analyse(&spans, &stage_costs(dep));
    stream_layers(m, &traces, &untraced, &traced);
    let names: Vec<&str> = MODELS.iter().map(|k| key(*k)).collect();
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{}-{}.json", w.name, a.seed));
    let keep = &spans[..spans.len().min(SPANS_WRITTEN)];
    if let Err(e) = SpanProbe::write_chrome_trace(keep, &names, &path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    drop(spans);

    // Batch: /proc counters around the batch calls.
    let b = batch::run(dep, replicas, budget(1), MIN_ROUNDS, ledger);
    m.add(
        "tensor.ctx_switches_per_batch",
        b.ctx_switches as f64 / b.batches.max(1) as f64,
        "count",
        b.batches as usize,
        "mean",
    );
    m.add(
        "tensor.cpu_utilization",
        b.cpu_s / b.wall_s,
        "cores",
        b.batches as usize,
        "total",
    );

    // Fleet: simulator counts and the display rates.
    let f = fleet_phase(dep, w, a.seed, budget(2), ledger)?;
    m.add(
        "edgesim.events",
        f.first.events as f64,
        "count",
        1,
        "count_per_pass",
    );
    m.add(
        "edgesim.ns_per_event",
        1e9 / f.events_per_s().0,
        "ns",
        f.costs.len(),
        "fastest_repetition_of_each_simulation_canary_floor",
    );
    m.add(
        "edgesim.swaps_applied",
        f.first.swaps_applied as f64,
        "count",
        1,
        "count_per_pass",
    );
    for (j, kind) in FLEET_MODELS.iter().enumerate() {
        for (d, hz) in fleet::DISPLAY_HZ.iter().enumerate() {
            let o = &f.first.display[j][d];
            let p = format!("edgesim.{}.r{hz}", key(*kind));
            m.add(format!("{p}.p99_ms"), o.p99_ms, "ms", 1, "simulated");
            m.add(
                format!("{p}.offload_rate"),
                o.offload_rate,
                "ratio",
                1,
                "simulated",
            );
            m.add(
                format!("{p}.drop_rate"),
                o.drop_rate,
                "ratio",
                1,
                "simulated",
            );
        }
    }
    m.add(
        "tensorstore.copy_fallbacks",
        tensorstore::copy_fallbacks() as f64,
        "count",
        1,
        "count",
    );
    Ok(())
}
