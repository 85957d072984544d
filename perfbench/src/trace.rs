//! Outside-in per-layer tracing.  Every span here is taken around a call
//! into a layer's public functions from the benchmark's side; nothing inside
//! the program is instrumented, so a traced unit runs the same code as an
//! untraced one plus these clock reads.

use std::time::Instant;

use versaslot_core::engine::SharingSimulator;
use versaslot_core::policy::Policy;
use versaslot_sim::fault::FaultStats;

/// Per-pass samples of the wrapped scheduling policy.
#[derive(Debug, Default)]
pub struct PolicyLayer {
    /// Host nanoseconds of every `schedule` call.
    pub pass_ns: Vec<f64>,
    /// `active_apps().len()` at the start of every pass.
    pub live_apps: Vec<f64>,
    /// Scratch-buffer growth events of the traced unit's policies.
    pub scratch_allocs: u64,
}

impl PolicyLayer {
    /// Total host nanoseconds spent inside `schedule`.
    pub fn busy_ns(&self) -> f64 {
        self.pass_ns.iter().fold(0.0, |total, ns| total + ns)
    }
}

/// A benchmark-owned [`Policy`] wrapper that times every scheduling pass and
/// records how many applications were live when it started.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Policy,
    layer: &'a mut PolicyLayer,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`, recording into `layer`.
    pub fn new(inner: &'a mut dyn Policy, layer: &'a mut PolicyLayer) -> Self {
        TimedPolicy { inner, layer }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, sim: &mut SharingSimulator) {
        let live = sim.active_apps().len();
        let start = Instant::now();
        self.inner.schedule(sim);
        let elapsed = start.elapsed();
        self.layer.pass_ns.push(elapsed.as_nanos() as f64);
        self.layer.live_apps.push(live as f64);
    }

    fn scratch_allocs(&self) -> u64 {
        self.inner.scratch_allocs()
    }
}

/// Engine-side counters and time of one traced unit.
#[derive(Debug, Default)]
pub struct EngineLayer {
    /// Engine steps (one scheduling instant each).
    pub steps: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Host nanoseconds of the calls that drive the engine, policy passes
    /// included.
    pub drive_ns: f64,
    /// Event-queue growth events (must stay `0`).
    pub queue_grow_events: u64,
    /// Partial reconfigurations performed.
    pub total_pr: u64,
    /// Launches or reconfigurations delayed past the blocking threshold.
    pub blocked_events: u64,
}

/// Everything traced units record, plus the layer micro-timings a workload
/// takes once per run.  Counts and times accumulate over every traced unit;
/// the report divides counts by `units` (they repeat exactly from unit to
/// unit).
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced units run.
    pub units: u64,
    /// Host nanoseconds of all traced units.
    pub unit_ns: f64,
    pub policy: PolicyLayer,
    pub engine: EngineLayer,
    /// Host nanoseconds inside `run_baseline`.
    pub baseline_ns: f64,
    /// Host nanoseconds inside `ServiceRunner::run_with`.
    pub service_run_ns: f64,
    /// Host microseconds of each `ServiceRunner::service_report` call.
    pub service_report_us: Vec<f64>,
    /// Host nanoseconds per `ArrivalDriver::next_arrival` call.
    pub arrival_next_ns: f64,
    /// Host nanoseconds per response time recorded into a
    /// `StreamingSummary` plus a `LogHistogram`.
    pub stats_record_ns: f64,
    /// Host nanoseconds per `ShardRouter::route` call.
    pub router_route_ns: f64,
    /// Host milliseconds of each one-epoch `FleetEngine::run_epochs_on` chunk.
    pub fleet_epoch_ms: Vec<f64>,
    /// Host milliseconds of each `FleetEngine::report` call.
    pub fleet_report_ms: Vec<f64>,
    pub fleet_epochs: u64,
    pub fleet_forwarded: u64,
    pub fleet_undelivered: u64,
    pub fault: FaultStats,
    /// D_switch evaluations recorded by the switching cluster.
    pub dswitch_samples: u64,
    pub dswitch_switches: u64,
    pub migrations: u64,
}

/// Host nanoseconds `f` takes, with its result.
pub fn timed_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}
