//! Engine hot-impl fixture: methods of `EventHeap`/`EngineSim`/`FleetSim`
//! (and the other flat-index impls) are hot by default; constructors,
//! `from_kind` and `report` are exempt, and `reset` is deliberately not.

pub struct EventHeap {
    entries: Vec<u64>,
}

impl EventHeap {
    pub fn with_capacity(n: usize) -> EventHeap {
        let entries = Vec::with_capacity(n); // exempt: constructor
        EventHeap { entries }
    }

    pub fn push(&mut self, v: u64) {
        let spill = self.entries.to_vec(); // flagged
        self.entries.push(v + spill.len() as u64);
    }
}

pub struct EngineSim {
    ids: Vec<u64>,
}

impl EngineSim {
    pub fn from_kind(n: usize) -> EngineSim {
        EngineSim { ids: vec![0; n] } // exempt: kind resolution
    }

    pub fn run(&mut self) {
        let label = format!("run-{}", self.ids.len()); // flagged
        self.ids[0] = label.len() as u64;
    }

    pub fn reset(&mut self) {
        // lint:allow(hot-path-alloc, reason = "fixture: reset is hot, the annotation is the escape hatch")
        let fresh = self.ids.clone();
        self.ids.copy_from_slice(&fresh);
    }

    pub fn report(&self) -> Vec<u64> {
        self.ids.clone() // exempt: report assembly
    }
}

pub struct FleetSim;

impl FleetSim {
    pub fn dispatch_tier(&mut self) -> u64 {
        let chain: Vec<u64> = (0..4).collect(); // flagged
        chain.iter().sum()
    }
}

/// Swap-dispatch fixture: applying a scheduled hot-swap mid-run is as hot
/// as the rest of the event loop (a `mem::swap` of preallocated slots
/// lints clean); scheduling is the cold control plane and its `format!`
/// diagnostics carry annotations.
pub struct TierSwap {
    pub version: u64,
    pub label: String,
}

impl FleetSim {
    pub fn apply_swap(&mut self, swap: &mut TierSwap, active: &mut u64) {
        std::mem::swap(active, &mut swap.version); // clean: no allocation
    }

    pub fn schedule_swap(&mut self, swap: TierSwap) -> Result<(), String> {
        // lint:allow(hot-path-alloc, reason = "fixture: cold scheduling path builds its rejection message")
        Err(format!("swap {} rejected", swap.label))
    }

    pub fn profile_at(&self, swaps: &[TierSwap]) -> u64 {
        let versions: Vec<u64> = swaps.iter().map(|s| s.version).collect(); // flagged
        versions.iter().sum()
    }
}

/// Worker-pool fixture: `submit` and `wait` run on every pooled kernel
/// call, so they are hot; starting the pool (`new`) is exempt.
pub struct WorkerPool {
    names: Vec<String>,
}

impl WorkerPool {
    pub fn new(workers: usize) -> WorkerPool {
        let names = (0..workers).map(|i| format!("pool-{i}")).collect(); // exempt: start-up
        WorkerPool { names }
    }

    pub fn submit(&self, tasks: usize) -> usize {
        let job = Box::new(tasks); // flagged
        *job + self.names.len()
    }

    pub fn wait(&self) -> usize {
        self.names.len() // clean: no allocation
    }
}
