//! The three workloads.  Each one is a repeated fixed-work *unit* in two
//! sizes ([`Size::Base`] and [`Size::Double`], twice the simulated horizon
//! or arrivals), an output check, a traced variant of the base unit, and the
//! untimed comparator runs behind its `sim_*` metrics.  Arrivals follow a
//! seeded open-loop schedule fixed before the run: simulator speed never
//! changes what arrives when.

use std::fmt::{self, Debug, Write as _};
use std::hint::black_box;

use versaslot_core::baseline::run_baseline;
use versaslot_core::config::{SwitchingConfig, SystemConfig};
use versaslot_core::engine::SharingSimulator;
use versaslot_core::fleet::{FleetConfig, FleetEngine, FleetReport};
use versaslot_core::metrics::{pooled_mean_response_ms, pooled_percentile_ms, RunReport};
use versaslot_core::par::{Parallelism, WorkerPool};
use versaslot_core::policy::Policy;
use versaslot_core::runner::{ClusterMode, SchedulerKind};
use versaslot_core::service::{ServiceConfig, ServiceReport, ServiceRunner, StopCondition};
use versaslot_fpga::board::BoardSpec;
use versaslot_sim::fault::FaultProfile;
use versaslot_sim::{LogHistogram, SimDuration, SimTime, StreamingSummary, Summary};
use versaslot_workload::{
    generate_workload, hash_shard, AppArrival, ApplicationSpec, ArrivalDriver, ArrivalProcess,
    BenchmarkApp, Congestion, Placement, ShardRouter, Workload as Sequences, WorkloadConfig,
};

use crate::trace::{timed_ns, Layers, TimedPolicy};

/// Which of a workload's two unit sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The unit every throughput metric is computed from.
    Base,
    /// Twice the base unit's simulated horizon (or arrivals per sequence).
    Double,
}

/// Full-size units, or tiny ones for the benchmark's own tests.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What the harness checks after every unit.
#[derive(Debug)]
pub struct UnitCheck {
    /// Simulated events the unit processed.
    pub events: u64,
    /// Digest of the unit's reports; must equal the first unit's of its size.
    pub digest: u64,
    /// Policy scratch growth events; must equal the first unit's of its size.
    pub scratch_allocs: u64,
    /// Invariants of the unit's own output.
    pub invariant: Result<(), String>,
}

/// Deterministic simulated outcomes of the base unit and its comparators.
#[derive(Debug, Clone, Copy)]
pub struct SimMetrics {
    /// Mean simulated response time of VersaSlot Big.Little, ms.
    pub response_mean_ms: f64,
    /// P99 simulated response time of VersaSlot Big.Little, ms.
    pub response_p99_ms: f64,
    /// Completed applications over admitted applications.
    pub completed_ratio: f64,
    /// Baseline mean response over VersaSlot Big.Little mean response.
    pub reduction_vs_baseline_x: f64,
    /// Nimblock mean response over VersaSlot Big.Little mean response.
    pub reduction_vs_nimblock_x: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// What a unit returns; checked after it is timed.
    type Output;

    /// Runs one untraced unit.
    fn run(&mut self, size: Size) -> Self::Output;

    /// Checks a unit's output.
    fn check(&self, out: &Self::Output) -> UnitCheck;

    /// Runs one base unit with spans around every layer call.
    fn run_traced(&mut self, layers: &mut Layers) -> Self::Output;

    /// Runs the sequential control of a parallel base unit, if the workload
    /// has one.
    fn run_control(&mut self) -> Option<Self::Output> {
        None
    }

    /// Worker threads a unit runs on.
    fn workers(&self) -> usize {
        1
    }

    /// Times the layers the units drive internally (arrival generation,
    /// routing, statistics) in isolation on the inputs of `base`, once per
    /// traced run.
    fn time_layers(&mut self, base: &Self::Output, layers: &mut Layers);

    /// The `sim_*` metrics of `base`, plus untimed comparator runs.
    fn sim_metrics(&mut self, base: &Self::Output) -> SimMetrics;
}

/// 64-bit FNV-1a over a value's `Debug` rendering (every report field,
/// floats at full precision), without building the string.
pub fn digest(value: &impl Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for byte in s.bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut hasher = Fnv(0xCBF2_9CE4_8422_2325);
    write!(hasher, "{value:?}").expect("hashing never fails");
    hasher.0
}

/// SplitMix64 of `seed ^ tag`: one independent stream per consumer of the
/// run's `--seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut x = (seed ^ tag).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs a simulator to completion; with `layers`, steps it batch by batch
/// under a timed policy so engine and policy time separate.
fn drive(
    sim: &mut SharingSimulator,
    policy: &mut dyn Policy,
    layers: Option<&mut Layers>,
) -> RunReport {
    let Some(layers) = layers else {
        return sim.run(policy);
    };
    let Layers {
        policy: policy_layer,
        engine,
        ..
    } = layers;
    let mut timed = TimedPolicy::new(policy, policy_layer);
    loop {
        let (more, ns) = timed_ns(|| sim.step_batch(&mut timed));
        engine.drive_ns += ns;
        if !more {
            break;
        }
        engine.steps += 1;
    }
    // The queue is empty: `run` only folds the report.
    let report = sim.run(&mut timed);
    engine.events += report.events_processed;
    engine.total_pr += report.total_pr;
    engine.blocked_events += report.blocked_events;
    engine.queue_grow_events += sim.event_queue_grow_events();
    policy_layer.scratch_allocs += timed.scratch_allocs();
    report
}

/// Response times of every application in `reports`, ms.
fn responses_ms<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Vec<f64> {
    reports
        .into_iter()
        .flat_map(|r| r.apps.iter().map(|a| a.response().as_millis_f64()))
        .collect()
}

/// Mean response of the applications in `reports` that arrived at or after
/// `warmup`, ms.
fn measured_mean_ms(reports: &[RunReport], warmup: SimTime) -> f64 {
    let measured: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.apps.iter())
        .filter(|app| app.arrival >= warmup)
        .map(|app| app.response().as_millis_f64())
        .collect();
    measured.iter().sum::<f64>() / measured.len().max(1) as f64
}

/// Mean of per-run mean responses `(mean_ms, measured_completions)`,
/// weighted by measured completions.
fn weighted_mean_ms(runs: impl Iterator<Item = (Option<Summary>, u64)>) -> f64 {
    let (sum, count) = runs.fold((0.0, 0u64), |(sum, count), (summary, measured)| {
        let mean = summary.map_or(0.0, |summary| summary.mean);
        (sum + mean * measured as f64, count + measured)
    });
    sum / count.max(1) as f64
}

/// Host nanoseconds per recorded value of a `StreamingSummary` plus a
/// `LogHistogram` fed `values` repeatedly (at least 200k records).
fn time_stats_record(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rounds = 200_000usize.div_ceil(values.len());
    let (_, ns) = timed_ns(|| {
        let mut summary = StreamingSummary::new();
        let mut tail = LogHistogram::new();
        for _ in 0..rounds {
            for &value in values {
                summary.record(black_box(value));
                tail.record(black_box(value));
            }
        }
        black_box((summary.p99(), tail.quantile(0.99)))
    });
    ns / (rounds * values.len()) as f64
}

/// Host nanoseconds per `ArrivalDriver::next_arrival` call over 200k calls.
fn time_arrivals(process: ArrivalProcess, batch_range: (u32, u32), seed: u64) -> f64 {
    const CALLS: usize = 200_000;
    let mut driver = ArrivalDriver::new(process, BenchmarkApp::suite().len(), batch_range, seed);
    let (_, ns) = timed_ns(|| {
        for _ in 0..CALLS {
            black_box(driver.next_arrival());
        }
    });
    ns / CALLS as f64
}

/// Every arrival `process` generates before `horizon`.
fn arrivals_until(
    process: ArrivalProcess,
    batch_range: (u32, u32),
    seed: u64,
    horizon: SimDuration,
) -> Vec<AppArrival> {
    let mut driver = ArrivalDriver::new(process, BenchmarkApp::suite().len(), batch_range, seed);
    let end = SimTime::ZERO + horizon;
    let mut arrivals = Vec::new();
    loop {
        let arrival = driver.next_arrival();
        if arrival.arrival >= end {
            return arrivals;
        }
        arrivals.push(arrival);
    }
}

// ---------------------------------------------------------------------------
// batch_matrix
// ---------------------------------------------------------------------------

/// One simulated sequence of a batch unit.
#[derive(Debug)]
pub struct BatchRun {
    report: RunReport,
    admitted: usize,
    grow: u64,
    scratch: u64,
}

/// A batch unit: the Fig 5/6 matrix, then the Fig 8 switching cluster.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per (congestion, scheduler, sequence), in that order.
    fig5: Vec<(SchedulerKind, BatchRun)>,
    /// Per (mode, sequence), in that order.
    fig8: Vec<BatchRun>,
}

struct BatchInputs {
    fig5: Vec<Sequences>,
    fig8: Sequences,
}

/// `batch_matrix`: the paper's evaluation path.
pub struct BatchMatrix {
    base: BatchInputs,
    double: BatchInputs,
}

impl BatchMatrix {
    /// Generates the base and doubled workloads from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (sequences, apps, fig8_sequences, fig8_apps) = match scale {
            Scale::Full => (10, 20, 3, 80),
            Scale::Tiny => (1, 6, 1, 12),
        };
        let inputs = |factor: u32| BatchInputs {
            fig5: Congestion::all()
                .iter()
                .enumerate()
                .map(|(i, &congestion)| {
                    generate_workload(
                        &WorkloadConfig::paper_default(congestion)
                            .with_seed(derive_seed(seed, 0x5EED_2025 + i as u64))
                            .with_shape(sequences, apps * factor),
                    )
                })
                .collect(),
            fig8: generate_workload(
                &WorkloadConfig::paper_switching()
                    .with_seed(derive_seed(seed, 0x5EED_8080))
                    .with_shape(fig8_sequences, fig8_apps * factor),
            ),
        };
        BatchMatrix {
            base: inputs(1),
            double: inputs(2),
        }
    }

    fn unit(&self, size: Size, mut layers: Option<&mut Layers>) -> BatchOutput {
        let inputs = match size {
            Size::Base => &self.base,
            Size::Double => &self.double,
        };
        let mut fig5 = Vec::new();
        for workload in &inputs.fig5 {
            for kind in SchedulerKind::all() {
                for sequence in &workload.sequences {
                    let run = run_fig5_cell(
                        kind,
                        &workload.suite,
                        &sequence.arrivals,
                        layers.as_deref_mut(),
                    );
                    fig5.push((kind, run));
                }
            }
        }
        let mut fig8 = Vec::new();
        for mode in ClusterMode::all() {
            for sequence in &inputs.fig8.sequences {
                fig8.push(run_fig8_cell(
                    mode,
                    &inputs.fig8.suite,
                    &sequence.arrivals,
                    layers.as_deref_mut(),
                ));
            }
        }
        BatchOutput { fig5, fig8 }
    }

    fn reports_of(out: &BatchOutput, kind: SchedulerKind) -> Vec<RunReport> {
        out.fig5
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, run)| run.report.clone())
            .collect()
    }
}

/// `runner::run_sequence`, with the simulator kept for its counters.
fn run_fig5_cell(
    kind: SchedulerKind,
    suite: &[ApplicationSpec],
    arrivals: &[AppArrival],
    layers: Option<&mut Layers>,
) -> BatchRun {
    let board = kind.board();
    let mut run = match kind.policy() {
        None => {
            let (report, ns) = timed_ns(|| run_baseline(&board, suite, arrivals));
            if let Some(layers) = layers {
                layers.baseline_ns += ns;
            }
            BatchRun {
                report,
                admitted: arrivals.len(),
                grow: 0,
                scratch: 0,
            }
        }
        Some(mut policy) => {
            let config = SystemConfig::single_board(board);
            let mut sim = SharingSimulator::new(config, suite.to_vec(), arrivals);
            let report = drive(&mut sim, policy.as_mut(), layers);
            BatchRun {
                report,
                admitted: arrivals.len(),
                grow: sim.event_queue_grow_events(),
                scratch: policy.scratch_allocs(),
            }
        }
    };
    run.report.scheduler = kind.label().to_string();
    run
}

/// `runner::run_cluster_sequence`, with the simulator kept for its counters.
fn run_fig8_cell(
    mode: ClusterMode,
    suite: &[ApplicationSpec],
    arrivals: &[AppArrival],
    mut layers: Option<&mut Layers>,
) -> BatchRun {
    let config = match mode {
        ClusterMode::OnlyLittle => SystemConfig::single_board(BoardSpec::zcu216_only_little()),
        ClusterMode::OnlyBigLittle => SystemConfig::single_board(BoardSpec::zcu216_big_little()),
        ClusterMode::Switching => SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(SwitchingConfig::default()),
    };
    let mut sim = SharingSimulator::new(config, suite.to_vec(), arrivals);
    let mut policy = SchedulerKind::VersaSlotBigLittle
        .policy()
        .expect("VersaSlot has a policy");
    let mut report = drive(&mut sim, policy.as_mut(), layers.as_deref_mut());
    report.scheduler = format!("versaslot-cluster:{}", mode.label());
    if let Some(layers) = layers {
        layers.dswitch_samples += report.dswitch_trace.len() as u64;
        layers.dswitch_switches += report.switches;
        layers.migrations += report.migrations.len() as u64;
    }
    BatchRun {
        report,
        admitted: arrivals.len(),
        grow: sim.event_queue_grow_events(),
        scratch: policy.scratch_allocs(),
    }
}

impl Workload for BatchMatrix {
    type Output = BatchOutput;

    fn run(&mut self, size: Size) -> BatchOutput {
        self.unit(size, None)
    }

    fn check(&self, out: &BatchOutput) -> UnitCheck {
        let runs = || out.fig5.iter().map(|(_, run)| run).chain(&out.fig8);
        // A batch run drains its queue, so every admitted app completes.
        let invariant = runs()
            .find_map(|run| {
                let name = &run.report.scheduler;
                if run.grow != 0 {
                    Some(format!("{name}: event queue grew {} times", run.grow))
                } else if run.report.completed() != run.admitted {
                    Some(format!(
                        "{name}: {} of {} admitted apps completed",
                        run.report.completed(),
                        run.admitted
                    ))
                } else {
                    None
                }
            })
            .map_or(Ok(()), Err);
        UnitCheck {
            events: runs().map(|run| run.report.events_processed).sum(),
            digest: digest(&runs().map(|run| &run.report).collect::<Vec<_>>()),
            scratch_allocs: runs().map(|run| run.scratch).sum(),
            invariant,
        }
    }

    fn run_traced(&mut self, layers: &mut Layers) -> BatchOutput {
        self.unit(Size::Base, Some(layers))
    }

    fn time_layers(&mut self, base: &BatchOutput, layers: &mut Layers) {
        let values = responses_ms(
            base.fig5
                .iter()
                .map(|(_, run)| &run.report)
                .chain(base.fig8.iter().map(|run| &run.report)),
        );
        layers.stats_record_ns = time_stats_record(&values);
    }

    fn sim_metrics(&mut self, base: &BatchOutput) -> SimMetrics {
        let versaslot = Self::reports_of(base, SchedulerKind::VersaSlotBigLittle);
        let mean = pooled_mean_response_ms(&versaslot);
        let admitted: usize = base
            .fig5
            .iter()
            .filter(|(kind, _)| *kind == SchedulerKind::VersaSlotBigLittle)
            .map(|(_, run)| run.admitted)
            .sum();
        let completed: usize = versaslot.iter().map(RunReport::completed).sum();
        SimMetrics {
            response_mean_ms: mean,
            response_p99_ms: pooled_percentile_ms(&versaslot, 0.99),
            completed_ratio: completed as f64 / admitted as f64,
            reduction_vs_baseline_x: pooled_mean_response_ms(&Self::reports_of(
                base,
                SchedulerKind::Baseline,
            )) / mean,
            reduction_vs_nimblock_x: pooled_mean_response_ms(&Self::reports_of(
                base,
                SchedulerKind::Nimblock,
            )) / mean,
        }
    }
}

// ---------------------------------------------------------------------------
// service_overload
// ---------------------------------------------------------------------------

/// Arrival rate of `service_overload`, apps/s: above the capacity of one
/// Big.Little board (about 1 app/s), so the backlog grows all run.
const OVERLOAD_RATE: f64 = 1.5;

/// Independent arrival streams per unit (see the workload notes in
/// `main.rs`).  Eight short streams average the backlog out at a lower cost
/// than one long stream.
const OVERLOAD_STREAMS: usize = 8;

/// One stream's report and the counters checked beside it.
#[derive(Debug)]
pub struct StreamOutput {
    report: ServiceReport,
    grow: u64,
    scratch: u64,
}

/// A service unit: one runner per stream, run one after another.
#[derive(Debug)]
pub struct ServiceOutput {
    streams: Vec<StreamOutput>,
}

/// `service_overload`: one VersaSlot Big.Little board fed above capacity.
pub struct ServiceOverload {
    configs: Vec<ServiceConfig>,
    horizon: SimDuration,
}

impl ServiceOverload {
    /// Builds the per-stream configurations from `seed` and constructs one
    /// runner.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (horizon, streams) = match scale {
            Scale::Full => (SimDuration::from_secs(150), OVERLOAD_STREAMS),
            Scale::Tiny => (SimDuration::from_secs(60), 2),
        };
        let configs = (0..streams)
            .map(|stream| {
                ServiceConfig::new(ArrivalProcess::Poisson {
                    rate_per_sec: OVERLOAD_RATE,
                })
                .with_seed(derive_seed(seed, 0x5EED_5EBF + stream as u64))
                .with_stop(StopCondition::Horizon(horizon))
            })
            .collect();
        let workload = ServiceOverload { configs, horizon };
        black_box(workload.runner(
            SchedulerKind::VersaSlotBigLittle,
            &workload.configs[0],
            Size::Base,
        ));
        workload
    }

    fn runner(&self, kind: SchedulerKind, config: &ServiceConfig, size: Size) -> ServiceRunner {
        let horizon = match size {
            Size::Base => self.horizon,
            Size::Double => self.horizon + self.horizon,
        };
        ServiceRunner::new(
            SystemConfig::single_board(kind.board()),
            BenchmarkApp::suite(),
            config.with_stop(StopCondition::Horizon(horizon)),
        )
    }

    fn output(runner: &ServiceRunner, policy: &dyn Policy, report: ServiceReport) -> StreamOutput {
        StreamOutput {
            report,
            grow: runner.simulator().event_queue_grow_events(),
            scratch: policy.scratch_allocs(),
        }
    }

    /// Each stream's base-unit arrivals through the exclusive Baseline board.
    fn baseline_reports(&self) -> Vec<RunReport> {
        let board = SchedulerKind::Baseline.board();
        self.configs
            .iter()
            .map(|config| {
                let arrivals = arrivals_until(
                    config.process.scaled(config.load),
                    config.batch_range,
                    config.seed,
                    self.horizon,
                );
                run_baseline(&board, &BenchmarkApp::suite(), &arrivals)
            })
            .collect()
    }
}

impl Workload for ServiceOverload {
    type Output = ServiceOutput;

    fn run(&mut self, size: Size) -> ServiceOutput {
        let streams = self
            .configs
            .iter()
            .map(|config| {
                let mut runner = self.runner(SchedulerKind::VersaSlotBigLittle, config, size);
                let mut policy = SchedulerKind::VersaSlotBigLittle
                    .policy()
                    .expect("VersaSlot has a policy");
                let report = runner.run(policy.as_mut());
                Self::output(&runner, policy.as_ref(), report)
            })
            .collect();
        ServiceOutput { streams }
    }

    fn check(&self, out: &ServiceOutput) -> UnitCheck {
        let invariant = out
            .streams
            .iter()
            .find_map(|stream| {
                let report = &stream.report;
                if stream.grow != 0 {
                    Some(format!("event queue grew {} times", stream.grow))
                } else if report.completions > report.arrivals_admitted {
                    Some(format!(
                        "{} completions of {} admitted apps",
                        report.completions, report.arrivals_admitted
                    ))
                } else if report.overall.is_none() {
                    Some("no measured completions".to_string())
                } else {
                    None
                }
            })
            .map_or(Ok(()), Err);
        let reports: Vec<&ServiceReport> = out.streams.iter().map(|s| &s.report).collect();
        UnitCheck {
            events: reports.iter().map(|r| r.events_processed).sum(),
            digest: digest(&reports),
            scratch_allocs: out.streams.iter().map(|s| s.scratch).sum(),
            invariant,
        }
    }

    fn run_traced(&mut self, layers: &mut Layers) -> ServiceOutput {
        let mut streams = Vec::with_capacity(self.configs.len());
        for config in &self.configs {
            let mut runner = self.runner(SchedulerKind::VersaSlotBigLittle, config, Size::Base);
            let mut policy = SchedulerKind::VersaSlotBigLittle
                .policy()
                .expect("VersaSlot has a policy");
            let passes_before = layers.policy.pass_ns.len();
            let (report, run_ns) = {
                let mut timed = TimedPolicy::new(policy.as_mut(), &mut layers.policy);
                timed_ns(|| runner.run_with(&mut timed, &mut |_| {}))
            };
            layers.service_run_ns += run_ns;
            let (again, report_ns) = timed_ns(|| runner.service_report(policy.name()));
            layers.service_report_us.push(report_ns / 1e3);
            debug_assert_eq!(again, report);
            // The runner steps the engine internally: one policy pass per
            // step, and the runner's own inject/fold loop counts as engine
            // time.
            let engine = &mut layers.engine;
            engine.steps += (layers.policy.pass_ns.len() - passes_before) as u64;
            engine.events += report.events_processed;
            engine.drive_ns += run_ns;
            engine.total_pr += report.total_pr;
            engine.blocked_events += report.blocked_events;
            engine.queue_grow_events += runner.simulator().event_queue_grow_events();
            layers.policy.scratch_allocs += policy.scratch_allocs();
            streams.push(Self::output(&runner, policy.as_ref(), report));
        }
        ServiceOutput { streams }
    }

    fn time_layers(&mut self, _base: &Self::Output, layers: &mut Layers) {
        let config = &self.configs[0];
        layers.arrival_next_ns = time_arrivals(
            config.process.scaled(config.load),
            config.batch_range,
            config.seed,
        );
        layers.stats_record_ns = time_stats_record(&responses_ms(&self.baseline_reports()));
    }

    fn sim_metrics(&mut self, base: &ServiceOutput) -> SimMetrics {
        let versaslot: Vec<ServiceReport> = base.streams.iter().map(|s| s.report.clone()).collect();
        let nimblock: Vec<ServiceReport> = self
            .configs
            .iter()
            .map(|config| {
                let mut runner = self.runner(SchedulerKind::Nimblock, config, Size::Base);
                let mut policy = SchedulerKind::Nimblock
                    .policy()
                    .expect("Nimblock has a policy");
                runner.run(policy.as_mut())
            })
            .collect();
        let mean = weighted_mean_ms(
            versaslot
                .iter()
                .map(|r| (r.overall, r.measured_completions)),
        );
        let p99s: Vec<f64> = versaslot
            .iter()
            .filter_map(|report| report.overall.map(|summary| summary.p99))
            .collect();
        let completions: u64 = versaslot.iter().map(|r| r.completions).sum();
        let admitted: u64 = versaslot.iter().map(|r| r.arrivals_admitted).sum();
        let warmup = SimTime::ZERO + self.configs[0].warmup;
        SimMetrics {
            response_mean_ms: mean,
            // Mean of the streams' own P² estimates: the runner keeps no
            // samples to pool.
            response_p99_ms: p99s.iter().sum::<f64>() / p99s.len().max(1) as f64,
            completed_ratio: completions as f64 / admitted.max(1) as f64,
            reduction_vs_baseline_x: measured_mean_ms(&self.baseline_reports(), warmup) / mean,
            reduction_vs_nimblock_x: weighted_mean_ms(
                nimblock.iter().map(|r| (r.overall, r.measured_completions)),
            ) / mean,
        }
    }
}

// ---------------------------------------------------------------------------
// fleet_diurnal
// ---------------------------------------------------------------------------

/// Shards of `fleet_diurnal`.
const FLEET_SHARDS: usize = 4;

/// Independent diurnal days per unit (see the workload notes in `main.rs`).
const FLEET_DAYS: usize = 3;

/// One day's report and the counters checked beside it.
#[derive(Debug)]
pub struct DayOutput {
    report: FleetReport,
    grow: Vec<u64>,
    scratch: u64,
}

/// A fleet unit: one fleet run per day, one after another.
#[derive(Debug)]
pub struct FleetOutput {
    days: Vec<DayOutput>,
}

/// `fleet_diurnal`: diurnal days over four VersaSlot shards with faults.
pub struct FleetDiurnal {
    pool: WorkerPool,
    configs: Vec<FleetConfig>,
}

impl FleetDiurnal {
    /// Builds the per-day configurations from `seed`, spawns the worker pool
    /// and constructs one engine.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (day, days) = match scale {
            Scale::Full => (SimDuration::from_secs(4_000), FLEET_DAYS),
            Scale::Tiny => (SimDuration::from_secs(400), 1),
        };
        let configs = (0..days as u64)
            .map(|d| {
                let faults = FaultProfile::new(derive_seed(seed, 0xFA17 + d))
                    .with_pr_failures(0.01)
                    .with_board_failures(SimDuration::from_secs(1_800), SimDuration::from_secs(10))
                    .with_link_flaps(0.05, SimDuration::from_secs(2));
                FleetConfig::new(
                    FLEET_SHARDS,
                    ArrivalProcess::Diurnal {
                        base_rate_per_sec: 2.4,
                        amplitude: 0.5,
                        period: day,
                    },
                )
                .with_seed(derive_seed(seed, 0x5EED_F1EE + d))
                .with_horizon(day)
                .with_epoch(SimDuration::from_secs(60))
                .with_window(SimDuration::from_secs(600))
                .with_placement(Placement::Hash)
                .with_spillover(4, SimDuration::from_millis(50))
                .with_faults(faults)
            })
            .collect();
        let workers = FLEET_SHARDS.min(std::thread::available_parallelism().map_or(1, usize::from));
        let workload = FleetDiurnal {
            pool: WorkerPool::new(workers),
            configs,
        };
        black_box(FleetEngine::new(
            SchedulerKind::VersaSlotBigLittle,
            workload.configs[0],
        ));
        workload
    }

    /// One engine per day, with the horizon doubled for [`Size::Double`].
    fn engines(&self, kind: SchedulerKind, size: Size) -> impl Iterator<Item = FleetEngine> + '_ {
        self.configs.iter().map(move |config| {
            let horizon = match size {
                Size::Base => config.horizon,
                Size::Double => config.horizon + config.horizon,
            };
            FleetEngine::new(kind, config.with_horizon(horizon))
        })
    }

    fn output(engine: &FleetEngine, report: FleetReport) -> DayOutput {
        DayOutput {
            report,
            grow: engine.shard_grow_events(),
            scratch: engine.shard_scratch_allocs().iter().sum(),
        }
    }

    /// Mean response of `kind` fleets over the first eighth of each day,
    /// pooled over measured completions.  A whole day is too long a
    /// comparator: Nimblock falls behind as load rises, and its backlog makes
    /// one day take tens of seconds.
    fn early_mean(&self, kind: SchedulerKind) -> f64 {
        let reports: Vec<FleetReport> = self
            .configs
            .iter()
            .map(|config| {
                let eighth = SimDuration::from_micros(config.horizon.as_micros() / 8);
                let mut engine = FleetEngine::new(kind, config.with_horizon(eighth));
                engine.run_on(&self.pool);
                engine.report()
            })
            .collect();
        weighted_mean_ms(reports.iter().map(|r| (r.overall, r.measured_completions)))
    }

    /// Each day's stream, split by the fleet's hash placement, through one
    /// exclusive Baseline board per shard.
    fn baseline_reports(&self) -> Vec<RunReport> {
        let board = SchedulerKind::Baseline.board();
        let suite = BenchmarkApp::suite();
        let mut reports = Vec::new();
        for config in &self.configs {
            let arrivals = arrivals_until(
                config.process.scaled(config.load),
                config.batch_range,
                config.seed,
                config.horizon,
            );
            for shard in 0..config.shards {
                let mine: Vec<AppArrival> = arrivals
                    .iter()
                    .filter(|a| hash_shard(config.seed, a.id, config.shards) == shard)
                    .copied()
                    .collect();
                reports.push(run_baseline(&board, &suite, &mine));
            }
        }
        reports
    }
}

impl Workload for FleetDiurnal {
    type Output = FleetOutput;

    fn run(&mut self, size: Size) -> FleetOutput {
        let days = self
            .engines(SchedulerKind::VersaSlotBigLittle, size)
            .map(|mut engine| {
                engine.run_on(&self.pool);
                let report = engine.report();
                Self::output(&engine, report)
            })
            .collect();
        FleetOutput { days }
    }

    fn check(&self, out: &FleetOutput) -> UnitCheck {
        let invariant = out
            .days
            .iter()
            .find_map(|day| {
                let report = &day.report;
                let routed: u64 = report.shards.iter().map(|s| s.routed).sum();
                if day.grow.iter().any(|&g| g != 0) {
                    Some(format!("shard event queues grew: {:?}", day.grow))
                } else if report.completions > report.arrivals_admitted {
                    Some(format!(
                        "{} completions of {} admitted apps",
                        report.completions, report.arrivals_admitted
                    ))
                } else if report.arrivals_generated != routed + report.undelivered {
                    Some(format!(
                        "{} generated != {routed} routed + {} undelivered",
                        report.arrivals_generated, report.undelivered
                    ))
                } else if report.overall.is_none() {
                    Some("no measured completions".to_string())
                } else {
                    None
                }
            })
            .map_or(Ok(()), Err);
        let reports: Vec<&FleetReport> = out.days.iter().map(|day| &day.report).collect();
        UnitCheck {
            events: reports.iter().map(|r| r.events_processed).sum(),
            digest: digest(&reports),
            scratch_allocs: out.days.iter().map(|day| day.scratch).sum(),
            invariant,
        }
    }

    fn run_traced(&mut self, layers: &mut Layers) -> FleetOutput {
        let mut days = Vec::with_capacity(self.configs.len());
        for mut engine in self.engines(SchedulerKind::VersaSlotBigLittle, Size::Base) {
            loop {
                let (more, ns) = timed_ns(|| engine.run_epochs_on(&self.pool, 1));
                layers.fleet_epoch_ms.push(ns / 1e6);
                if !more {
                    break;
                }
            }
            let (report, ns) = timed_ns(|| engine.report());
            layers.fleet_report_ms.push(ns / 1e6);
            layers.fleet_epochs += report.epochs;
            layers.fleet_forwarded += report.forwarded;
            layers.fleet_undelivered += report.undelivered;
            layers.fault.merge(&engine.fault_stats());
            let e = &mut layers.engine;
            e.events += report.events_processed;
            e.total_pr += report.total_pr;
            e.blocked_events += report.blocked_events;
            e.queue_grow_events += engine.shard_grow_events().iter().sum::<u64>();
            days.push(Self::output(&engine, report));
        }
        FleetOutput { days }
    }

    fn run_control(&mut self) -> Option<FleetOutput> {
        let days = self
            .engines(SchedulerKind::VersaSlotBigLittle, Size::Base)
            .map(|mut engine| {
                engine.run(Parallelism::Sequential);
                let report = engine.report();
                Self::output(&engine, report)
            })
            .collect();
        Some(FleetOutput { days })
    }

    fn workers(&self) -> usize {
        self.pool.workers()
    }

    fn time_layers(&mut self, _base: &FleetOutput, layers: &mut Layers) {
        let config = &self.configs[0];
        let process = config.process.scaled(config.load);
        layers.arrival_next_ns = time_arrivals(process, config.batch_range, config.seed);
        layers.stats_record_ns = time_stats_record(&responses_ms(&self.baseline_reports()));

        // The router fed the fleet's stream, with a barrier snapshot every
        // simulated epoch as the engine does.
        let arrivals = arrivals_until(
            process,
            config.batch_range,
            config.seed,
            SimDuration::from_micros(config.horizon.as_micros() * 50),
        );
        let mut router = ShardRouter::new(
            config.placement,
            config.shards,
            config.seed,
            config.spillover_threshold,
        );
        let mut next_barrier = SimTime::ZERO + config.epoch;
        let (_, ns) = timed_ns(|| {
            for arrival in &arrivals {
                if arrival.arrival >= next_barrier {
                    for shard in 0..config.shards {
                        // Half the backlog drains per epoch.
                        let done = router.assigned(shard) - router.backlog(shard) / 2;
                        router.record_completions(shard, done);
                    }
                    next_barrier += config.epoch;
                }
                black_box(router.route(arrival));
            }
        });
        layers.router_route_ns = ns / arrivals.len().max(1) as f64;
    }

    fn sim_metrics(&mut self, base: &FleetOutput) -> SimMetrics {
        let reports: Vec<FleetReport> = base.days.iter().map(|day| day.report.clone()).collect();
        let mean = weighted_mean_ms(reports.iter().map(|r| (r.overall, r.measured_completions)));
        // Mean of each day's fleet-wide p99 (the merged shard tail sketches).
        let p99s: Vec<f64> = reports
            .iter()
            .filter_map(|report| report.overall.map(|summary| summary.p99))
            .collect();
        let completions: u64 = reports.iter().map(|r| r.completions).sum();
        let admitted: u64 = reports.iter().map(|r| r.arrivals_admitted).sum();
        let warmup = SimTime::ZERO + self.configs[0].warmup;
        SimMetrics {
            response_mean_ms: mean,
            response_p99_ms: p99s.iter().sum::<f64>() / p99s.len().max(1) as f64,
            completed_ratio: completions as f64 / admitted.max(1) as f64,
            reduction_vs_baseline_x: measured_mean_ms(&self.baseline_reports(), warmup) / mean,
            reduction_vs_nimblock_x: self.early_mean(SchedulerKind::Nimblock)
                / self.early_mean(SchedulerKind::VersaSlotBigLittle),
        }
    }
}
