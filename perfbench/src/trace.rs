//! Spans for the traced run.
//!
//! The benchmark opens `request` and `predict_batch` spans around its own
//! calls. Inside `predict_batch`, every `nn::ForwardPlan` run reports its
//! layers to the installed [`obs::probe::PlanProbe`]; [`SpanProbe`] turns
//! those reports into `plan_run` spans (one per model stage: a stage is one
//! planned network) and `layer` spans. Spans stay in memory until
//! [`SpanProbe::write_chrome_trace`] writes them at exit.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use nn::{CostKind, LayerSpec};
use obs::probe::PlanProbe;

/// Marks "no span" in parent links.
pub const NONE: u32 = u32::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One request: input hand-off, `predict_batch`, output check.
    Request,
    /// One `InferenceModel::predict_batch` call.
    Predict,
    /// One `ForwardPlan::run`: the first layer's start to the last layer's end.
    Plan,
    /// One layer's `forward_into`.
    Layer,
}

impl SpanKind {
    /// Name used in the trace file and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Predict => "predict_batch",
            SpanKind::Plan => "plan_run",
            SpanKind::Layer => "layer",
        }
    }
}

/// One recorded span. Parents are recorded before their children.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// Index of the model in [`crate::workload::MODELS`].
    pub model: u8,
    /// Plan and layer spans: which plan run of the `predict_batch` call.
    pub stage: u8,
    /// Layer spans: index of the layer in its plan.
    pub layer: u16,
    /// Index of the parent span, or [`NONE`].
    pub parent: u32,
    /// Start, ns since the probe was created.
    pub start_ns: u64,
    /// End, ns since the probe was created.
    pub end_ns: u64,
    /// This thread's allocation count at the start (plan spans: at the
    /// first layer's report).
    pub allocs_start: u64,
    /// This thread's allocation count at the end (plan spans: at the last
    /// layer's report).
    pub allocs_end: u64,
}

struct State {
    spans: Vec<Span>,
    recording: bool,
    dropped: u64,
    open_request: u32,
    open_predict: u32,
    open_plan: u32,
    next_stage: u8,
    last_layer: usize,
    model: u8,
}

/// Span recorder and plan probe. Recording is off until
/// [`SpanProbe::set_recording`] turns it on.
pub struct SpanProbe {
    epoch: Instant,
    state: Mutex<State>,
}

fn allocs() -> u64 {
    testkit::current_thread_stats().allocs
}

impl SpanProbe {
    /// A recorder holding at most `capacity` spans (preallocated).
    pub fn new(capacity: usize) -> SpanProbe {
        SpanProbe {
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::with_capacity(capacity),
                recording: false,
                dropped: 0,
                open_request: NONE,
                open_predict: NONE,
                open_plan: NONE,
                next_stage: 0,
                last_layer: 0,
                model: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panic while recording")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start or stop recording.
    pub fn set_recording(&self, on: bool) {
        self.lock().recording = on;
    }

    /// Open a request (`kind` = Request) or predict (`kind` = Predict) span
    /// for model `model`; returns its id.
    pub fn begin(&self, kind: SpanKind, model: u8) -> u32 {
        let start_ns = self.now_ns();
        let allocs_start = allocs();
        let mut s = self.lock();
        if !s.recording || s.spans.len() == s.spans.capacity() {
            s.dropped += u64::from(s.recording);
            return NONE;
        }
        let parent = match kind {
            SpanKind::Predict => s.open_request,
            _ => NONE,
        };
        let id = s.spans.len() as u32;
        s.spans.push(Span {
            kind,
            model,
            stage: 0,
            layer: 0,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs_start,
            allocs_end: allocs_start,
        });
        s.model = model;
        match kind {
            SpanKind::Request => s.open_request = id,
            _ => {
                s.open_predict = id;
                s.open_plan = NONE;
                s.next_stage = 0;
            }
        }
        id
    }

    /// Close a span opened by [`SpanProbe::begin`].
    pub fn end(&self, id: u32) {
        let end_ns = self.now_ns();
        let allocs_end = allocs();
        let mut s = self.lock();
        if let Some(span) = s.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
            span.allocs_end = allocs_end;
            match span.kind {
                SpanKind::Request => s.open_request = NONE,
                _ => {
                    s.open_predict = NONE;
                    s.open_plan = NONE;
                }
            }
        }
    }

    /// The recorded spans and how many did not fit.
    pub fn take(&self) -> (Vec<Span>, u64) {
        let mut s = self.lock();
        let dropped = s.dropped;
        (std::mem::take(&mut s.spans), dropped)
    }

    /// Write spans as Chrome Trace Event JSON (`ph: "X"` complete events,
    /// viewable in Perfetto).
    pub fn write_chrome_trace(
        spans: &[Span],
        model_names: &[&str],
        path: &std::path::Path,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, sp) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"stage\":{},\"layer\":{}}}}}{sep}",
                sp.kind.name(),
                model_names.get(sp.model as usize).copied().unwrap_or("?"),
                sp.start_ns as f64 / 1e3,
                sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e3,
                if sp.parent == NONE { -1 } else { i64::from(sp.parent) },
                sp.stage,
                sp.layer,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

impl PlanProbe for SpanProbe {
    fn on_layer(&self, layer: usize, _batch: usize, elapsed_ns: u64) {
        let end_ns = self.now_ns();
        let allocs_now = allocs();
        let mut s = self.lock();
        if !s.recording || s.open_predict == NONE {
            return;
        }
        if s.spans.capacity() - s.spans.len() < 2 {
            s.dropped += 1;
            return;
        }
        let start_ns = end_ns.saturating_sub(elapsed_ns);
        let model = s.model;
        if s.open_plan == NONE || layer <= s.last_layer {
            let id = s.spans.len() as u32;
            let (parent, stage) = (s.open_predict, s.next_stage);
            s.spans.push(Span {
                kind: SpanKind::Plan,
                model,
                stage,
                layer: 0,
                parent,
                start_ns,
                end_ns,
                allocs_start: allocs_now,
                allocs_end: allocs_now,
            });
            s.open_plan = id;
            s.next_stage = stage.saturating_add(1);
        }
        let plan = s.open_plan;
        let stage = {
            let p = &mut s.spans[plan as usize];
            p.end_ns = end_ns;
            p.allocs_end = allocs_now;
            p.stage
        };
        s.last_layer = layer;
        s.spans.push(Span {
            kind: SpanKind::Layer,
            model,
            stage,
            layer: layer.min(usize::from(u16::MAX)) as u16,
            parent: plan,
            start_ns,
            end_ns,
            allocs_start: allocs_now,
            allocs_end: allocs_now,
        });
    }
}

/// Computed cost of one layer for one input row.
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Forward FLOPs.
    pub flops: u64,
    /// Parameter bytes read.
    pub weight_bytes: u64,
    /// Parameter, input and output bytes moved.
    pub moved_bytes: u64,
}

/// Layer kinds the per-kind metrics group by (the `DeviceModel` cost kinds).
pub const KINDS: [&str; 3] = ["conv", "dense", "other"];

/// Parameters a layer of this shape holds.
fn spec_params(spec: &LayerSpec) -> usize {
    match spec {
        LayerSpec::Dense { in_dim, out_dim } => in_dim * out_dim + out_dim,
        LayerSpec::Conv2d { geom, out_channels } => out_channels * geom.patch_cols() + out_channels,
        LayerSpec::BatchNorm1d { dim } => 4 * dim,
        _ => 0,
    }
}

/// Per-row costs of a planned stack whose input has `in_features` features.
pub fn stage_costs(specs: &[LayerSpec], mut in_features: usize) -> Vec<LayerCost> {
    specs
        .iter()
        .map(|spec| {
            let out = spec.out_features();
            let weight_bytes = 4 * spec_params(spec) as u64;
            let cost = LayerCost {
                kind: match spec.cost_kind() {
                    CostKind::Conv => 0,
                    CostKind::Dense => 1,
                    CostKind::Other => 2,
                },
                flops: spec.flops_per_sample(),
                weight_bytes,
                moved_bytes: weight_bytes + 4 * (in_features + out) as u64,
            };
            in_features = out;
            cost
        })
        .collect()
}

/// Per-layer figures of one model, aggregated over its traced requests.
#[derive(Debug, Clone, Default)]
pub struct ModelTrace {
    /// Requests traced.
    pub requests: u64,
    /// Self time summed per span kind (request, predict, plan, layer), ns.
    pub self_ns: [u64; 4],
    /// Layer time per kind, ns.
    pub kind_ns: [u64; 3],
    /// FLOPs executed per kind.
    pub kind_flops: [u64; 3],
    /// Bytes moved per kind.
    pub kind_moved: [u64; 3],
    /// Parameter bytes read, all layers.
    pub weight_bytes: u64,
    /// Allocations inside `predict_batch`.
    pub allocs: u64,
    /// Requests that ran exactly two plan runs (a BranchyNet early exit).
    pub two_stage: u64,
    /// Per request, plan-run durations by stage, ns.
    pub stage_ns: Vec<Vec<u64>>,
    /// `predict_batch` durations by number of plan runs, ns.
    pub predict_ns_by_stages: Vec<Vec<f64>>,
    /// Plan runs whose pre-run allocation count exceeded that stage's
    /// steady-state count: a plan built or rebuilt inside the call.
    pub rebuilds: u64,
}

/// Aggregate spans per model. `costs[m][stage]` are the per-row layer
/// costs of model `m`'s plan stages.
pub fn analyse(spans: &[Span], costs: &[Vec<Vec<LayerCost>>]) -> Vec<ModelTrace> {
    let mut out: Vec<ModelTrace> = costs.iter().map(|_| ModelTrace::default()).collect();
    let mut child_ns = vec![0u64; spans.len()];
    let mut plans_of = vec![0u8; spans.len()];
    for sp in spans.iter().filter(|sp| sp.parent != NONE) {
        let p = sp.parent as usize;
        child_ns[p] += sp.end_ns.saturating_sub(sp.start_ns);
        if sp.kind == SpanKind::Plan {
            plans_of[p] += 1;
        }
    }
    // (model, stage) -> pre-run allocation gaps.
    let mut gaps: Vec<Vec<Vec<u64>>> = costs.iter().map(|c| vec![Vec::new(); c.len()]).collect();
    let mut prev_alloc_end = 0u64;
    for (i, sp) in spans.iter().enumerate() {
        let m = sp.model as usize;
        let Some(t) = out.get_mut(m) else { continue };
        let dur = sp.end_ns.saturating_sub(sp.start_ns);
        let self_ns = dur.saturating_sub(child_ns[i]);
        match sp.kind {
            SpanKind::Request => {
                t.requests += 1;
                t.self_ns[0] += self_ns;
            }
            SpanKind::Predict => {
                t.self_ns[1] += self_ns;
                t.allocs += sp.allocs_end - sp.allocs_start;
                let stages = plans_of[i] as usize;
                if stages == 2 {
                    t.two_stage += 1;
                }
                if t.predict_ns_by_stages.len() <= stages {
                    t.predict_ns_by_stages.resize(stages + 1, Vec::new());
                }
                t.predict_ns_by_stages[stages].push(dur as f64);
                t.stage_ns.push(Vec::with_capacity(stages));
                prev_alloc_end = sp.allocs_start;
            }
            SpanKind::Plan => {
                t.self_ns[2] += self_ns;
                if let Some(req) = t.stage_ns.last_mut() {
                    req.push(dur);
                }
                if let Some(g) = gaps[m].get_mut(sp.stage as usize) {
                    g.push(sp.allocs_start - prev_alloc_end);
                }
                prev_alloc_end = sp.allocs_end;
            }
            SpanKind::Layer => {
                t.self_ns[3] += self_ns;
                let cost = costs[m]
                    .get(sp.stage as usize)
                    .and_then(|s| s.get(sp.layer as usize));
                if let Some(c) = cost {
                    t.kind_ns[c.kind] += dur;
                    t.kind_flops[c.kind] += c.flops;
                    t.kind_moved[c.kind] += c.moved_bytes;
                    t.weight_bytes += c.weight_bytes;
                }
            }
        }
    }
    for (t, model_gaps) in out.iter_mut().zip(&gaps) {
        for g in model_gaps {
            if let Some(&min) = g.iter().min() {
                t.rebuilds += g.iter().filter(|&&x| x > min).count() as u64;
            }
        }
    }
    out
}
