//! Fleet phase: a three-tier `edgesim` fleet under open-loop Poisson
//! arrivals in simulated time, priced by the set-up's measured tier
//! profiles. Each pass finds each fleet model's highest sustainable rate on
//! a fixed ladder and runs a few fixed display rates; host time per event is
//! measured around `FleetSim::run` only, with the canaries timed just
//! before each run (see [`crate::canary`]).

use std::time::Instant;

use edgesim::fleet::SloSojourn;
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, DeviceModel, FleetConfig, FleetReport, FleetSim,
    NetworkLink, RecordMode, SchedulerKind, SwapPolicy, Tier, TierSwap,
};

use crate::canary;
use crate::setup::{FleetPricing, TIER_DEVICES};
use crate::stats::Ledger;

/// Requests per simulated run.
pub const REQUESTS: usize = 20_000;
/// Latency limit on the simulated p99 sojourn, and the offload policy's
/// budget, ms.
pub const SLO_MS: f64 = 50.0;
/// Ladder rate `i` is `LADDER_BASE_HZ * LADDER_STEP^i`.
pub const LADDER_BASE_HZ: f64 = 20.0;
/// Ratio between neighbouring ladder rates: fine enough that the maximum
/// rate resolves the seed's arrival sequence, not just the tier capacities.
pub const LADDER_STEP: f64 = 1.005;
/// Ladder length (20 Hz to about 50 kHz).
pub const LADDER_LEN: usize = 1570;
/// Rates reported per model in the traced run, Hz.
pub const DISPLAY_HZ: [f64; 3] = [500.0, 2000.0, 8000.0];

/// Rate of ladder point `i`, Hz.
pub fn ladder_hz(i: usize) -> f64 {
    LADDER_BASE_HZ * LADDER_STEP.powi(i as i32)
}

/// Bytes one offloaded request ships: a 28×28 f32 image.
const PAYLOAD_BYTES: u64 = 28 * 28 * 4;

/// The fleet at `rate_hz`: a 4-server Raspberry Pi edge tier, a 2-server
/// cloud CPU tier over Wi-Fi and a 1-server cloud GPU tier over a WAN. The
/// edge queue bound is deep enough that the offload policy's predicted
/// wait passes the SLO before the queue fills, so overload offloads rather
/// than drops for every comparator.
pub fn config(profiles: &[CostProfile], rate_hz: f64, seed: u64) -> FleetConfig {
    let tier = |i: usize, name: &str, servers, admission, link| Tier {
        name: name.into(),
        device: DeviceModel::preset(TIER_DEVICES[i]),
        servers,
        profile: profiles[i].clone(),
        scheduler: SchedulerKind::Fifo,
        admission,
        link,
    };
    FleetConfig {
        tiers: vec![
            tier(
                0,
                "edge",
                4,
                AdmissionPolicy::Bounded { max_queue: 256 },
                None,
            ),
            tier(
                1,
                "cloud_cpu",
                2,
                AdmissionPolicy::Unbounded,
                Some(NetworkLink::wifi(PAYLOAD_BYTES)),
            ),
            tier(
                2,
                "cloud_gpu",
                1,
                AdmissionPolicy::Unbounded,
                Some(NetworkLink::wan(PAYLOAD_BYTES)),
            ),
        ],
        arrivals: ArrivalProcess::poisson(rate_hz),
        requests: REQUESTS,
        seed,
        slo_ms: SLO_MS,
    }
}

/// A rolling deploy: tier `t` switches to the store-loaded checkpoint a
/// `(t + 1) / 4` of the way through the expected run.
pub fn rollout(pricing: &FleetPricing, rate_hz: f64) -> Vec<TierSwap> {
    let run_ms = REQUESTS as f64 / rate_hz * 1e3;
    (0..TIER_DEVICES.len())
        .map(|t| TierSwap {
            tier: t,
            at_ms: run_ms * (t + 1) as f64 / 4.0,
            profile: pricing.loaded_profiles[t].clone(),
            version: pricing.version,
            policy: SwapPolicy::Immediate,
        })
        .collect()
}

/// One simulated run's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Simulated p99 end-to-end sojourn, ms.
    pub p99_ms: f64,
    /// Share of requests offloaded from the edge.
    pub offload_rate: f64,
    /// Share of requests dropped.
    pub drop_rate: f64,
    /// Completion of the last request minus arrival of the last request, ms.
    pub drain_ms: f64,
    /// Meets the SLO with no drops and no backlog left at the end.
    pub sustained: bool,
    /// Events the loop processed.
    pub events: u64,
    /// Swaps that applied.
    pub swaps_applied: usize,
}

/// Host cost of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SimCost {
    /// Events processed.
    pub events: u64,
    /// Seconds spent in `FleetSim::run`.
    pub secs: f64,
    /// The canaries, timed just before the run.
    pub canary: canary::Sample,
}

/// Build, run and score one fleet; appends its host cost to `costs`.
/// Records conservation in `ledger`.
pub fn simulate(
    cfg: &FleetConfig,
    swaps: &[TierSwap],
    costs: &mut Vec<SimCost>,
    ledger: &mut Ledger,
) -> Result<Outcome, String> {
    let mut sim = FleetSim::new(cfg, RecordMode::Lean)?;
    for s in swaps {
        sim.schedule_swap(s.clone())?;
    }
    let mut policy = SloSojourn { slo_ms: SLO_MS };
    let canary = canary::shared().sample();
    let t0 = Instant::now();
    sim.run(&mut policy, None)?;
    costs.push(SimCost {
        events: sim.events_processed(),
        secs: t0.elapsed().as_secs_f64(),
        canary,
    });
    let report = sim.report();
    ledger.record(report.completed + report.dropped == report.offered, || {
        format!(
            "fleet conservation broken: {} completed + {} dropped != {} offered",
            report.completed, report.dropped, report.offered
        )
    });
    let last_arrival = sim.requests().last().map_or(0.0, |r| r.gateway_ms);
    let drain_ms = report.end_to_end.makespan_ms - last_arrival;
    let sustained = report.dropped == 0 && report.end_to_end.p99_ms <= SLO_MS && drain_ms <= SLO_MS;
    Ok(Outcome {
        p99_ms: report.end_to_end.p99_ms,
        offload_rate: report.offload_rate(),
        drop_rate: report.drop_rate(),
        drain_ms,
        sustained,
        events: sim.events_processed(),
        swaps_applied: sim.swaps_applied(),
    })
}

/// One pass over both fleet models.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Per fleet model: highest sustained ladder index.
    pub max_index: Vec<usize>,
    /// Per fleet model: outcomes at [`DISPLAY_HZ`].
    pub display: Vec<Vec<Outcome>>,
    /// Events processed.
    pub events: u64,
    /// Swaps applied.
    pub swaps_applied: usize,
}

/// Simulate one fleet model at ladder point `i`.
fn at(
    pricing: &FleetPricing,
    with_rollout: bool,
    rate_hz: f64,
    seed: u64,
    costs: &mut Vec<SimCost>,
    ledger: &mut Ledger,
) -> Result<Outcome, String> {
    let cfg = config(&pricing.profiles, rate_hz, seed);
    let swaps = if with_rollout {
        rollout(pricing, rate_hz)
    } else {
        Vec::new()
    };
    let out = simulate(&cfg, &swaps, costs, ledger)?;
    ledger.record(out.swaps_applied == swaps.len(), || {
        format!(
            "{} of {} scheduled swaps applied at {rate_hz} Hz",
            out.swaps_applied,
            swaps.len()
        )
    });
    Ok(out)
}

/// One pass: bisect the ladder for each model (the sustained predicate is
/// monotone in rate because every rate replays the same seeded arrival
/// sequence, scaled), then run the display rates.
pub fn pass(
    fleet: &[FleetPricing],
    with_rollout: bool,
    seed: u64,
    costs: &mut Vec<SimCost>,
    ledger: &mut Ledger,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    for pricing in fleet {
        let mut eval = |i: usize, p: &mut Pass| -> Result<bool, String> {
            let o = at(pricing, with_rollout, ladder_hz(i), seed, costs, ledger)?;
            p.events += o.events;
            p.swaps_applied += o.swaps_applied;
            Ok(o.sustained)
        };
        let (mut lo, mut hi) = (0, LADDER_LEN - 1);
        if !eval(lo, &mut p)? {
            return Err(format!(
                "the fleet misses its SLO at the lowest ladder rate {LADDER_BASE_HZ} Hz"
            ));
        }
        if eval(hi, &mut p)? {
            lo = hi;
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if eval(mid, &mut p)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        p.max_index.push(lo);
        let mut display = Vec::with_capacity(DISPLAY_HZ.len());
        for &hz in &DISPLAY_HZ {
            let o = at(pricing, with_rollout, hz, seed, costs, ledger)?;
            p.events += o.events;
            p.swaps_applied += o.swaps_applied;
            display.push(o);
        }
        p.display.push(display);
    }
    Ok(p)
}

/// Full-record run of the first fleet model at `rate_hz` (with the rollout
/// when asked) against `edgesim::reference`'s swap-free loop. The
/// store-loaded checkpoint prices every tier exactly as its source, so the
/// swaps must leave the report bit-identical.
pub fn matches_reference(
    pricing: &FleetPricing,
    with_rollout: bool,
    rate_hz: f64,
    seed: u64,
) -> Result<bool, String> {
    let cfg = config(&pricing.profiles, rate_hz, seed);
    let mut sim = FleetSim::new(&cfg, RecordMode::Full)?;
    if with_rollout {
        for s in rollout(pricing, rate_hz) {
            sim.schedule_swap(s)?;
        }
    }
    sim.run(&mut SloSojourn { slo_ms: SLO_MS }, None)?;
    let fast: FleetReport = sim.report();
    let reference =
        edgesim::reference::simulate_fleet_reference(&cfg, &mut SloSojourn { slo_ms: SLO_MS })?;
    Ok(format!("{fast:?}") == format!("{reference:?}"))
}
