//! Golden fingerprints of every slot-granting policy.
//!
//! Each case runs one scheduler on one fixed workload and hashes the run's
//! `Debug` rendering with FNV-1a; batch runs record a full event trace and hash
//! it as well.  The expected values were captured before the policies' early
//! exits and lookup tables were introduced, so a mismatch means a scheduling
//! decision changed — an optimisation of the policy pass must keep every value.
//!
//! Coverage: every [`SchedulerKind`] with a policy on service runs above
//! capacity (1.5 apps/s), at stable load (0.6 apps/s) and above capacity with
//! PR failures and board outages, three seeds each; the Fig 5/6 sequences of
//! every congestion level; and the Fig 8 switching cluster with PR failures
//! and link flaps (paper thresholds, plus low thresholds that force switches
//! and migrations).
//!
//! If a change is *meant* to alter scheduling, the failure message prints the
//! whole table of new values to paste in; record why in the change log.

use versaslot::core::config::{SwitchingConfig, SystemConfig};
use versaslot::core::dswitch::SwitchThresholds;
use versaslot::core::engine::SharingSimulator;
use versaslot::core::runner::SchedulerKind;
use versaslot::core::service::{ServiceConfig, ServiceRunner, StopCondition};
use versaslot::fpga::board::BoardSpec;
use versaslot::sim::fault::FaultProfile;
use versaslot::sim::SimDuration;
use versaslot::workload::benchmarks::BenchmarkApp;
use versaslot::workload::{
    generate_workload, AppArrival, ApplicationSpec, ArrivalProcess, Congestion, WorkloadConfig,
};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The schedulers that run through the sharing engine (the Baseline bypasses
/// it and has no policy).
fn policy_kinds() -> impl Iterator<Item = SchedulerKind> {
    SchedulerKind::all()
        .into_iter()
        .filter(|kind| kind.policy().is_some())
}

/// A batch run with the trace on: fingerprint of the report plus the trace.
fn batch_fingerprint(
    config: SystemConfig,
    kind: SchedulerKind,
    suite: &[ApplicationSpec],
    arrivals: &[AppArrival],
) -> u64 {
    let mut policy = kind.policy().expect("kind has a policy");
    let mut sim = SharingSimulator::new(config.with_trace(), suite.to_vec(), arrivals);
    let report = sim.run(policy.as_mut());
    assert_eq!(
        report.completed(),
        arrivals.len(),
        "{kind:?} lost applications"
    );
    fnv1a(format!("{report:?}{:?}", sim.trace()).as_bytes())
}

/// One service cell: every policy kind on three seeds of `base`, with a PR
/// failure and board outage profile when `faulty`.
fn service_cases(label: &str, base: ServiceConfig, faulty: bool) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        for kind in policy_kinds() {
            let mut system = SystemConfig::single_board(kind.board());
            if faulty {
                system = system.with_faults(
                    FaultProfile::new(0xFA17 + seed)
                        .with_pr_failures(0.05)
                        .with_board_failures(SimDuration::from_secs(40), SimDuration::from_secs(5)),
                );
            }
            let mut policy = kind.policy().expect("kind has a policy");
            let mut runner =
                ServiceRunner::new(system, BenchmarkApp::suite(), base.with_seed(seed));
            let report = runner.run(policy.as_mut());
            out.push((
                format!("service/{label}/seed{seed}/{}", kind.label()),
                fnv1a(format!("{report:?}").as_bytes()),
            ));
        }
    }
    out
}

/// Poisson arrivals at `rate_per_sec` for `secs` simulated seconds.
fn poisson(rate_per_sec: f64, secs: u64) -> ServiceConfig {
    ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec })
        .with_stop(StopCondition::Horizon(SimDuration::from_secs(secs)))
}

fn figure56_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for congestion in Congestion::all() {
        let workload =
            generate_workload(&WorkloadConfig::paper_default(congestion).with_shape(2, 12));
        for kind in policy_kinds() {
            for sequence in &workload.sequences {
                out.push((
                    format!(
                        "fig56/{congestion:?}/seq{}/{}",
                        sequence.index,
                        kind.label()
                    ),
                    batch_fingerprint(
                        SystemConfig::single_board(kind.board()),
                        kind,
                        &workload.suite,
                        &sequence.arrivals,
                    ),
                ));
            }
        }
    }
    out
}

fn figure8_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let workload = generate_workload(&WorkloadConfig::paper_switching().with_shape(2, 40));
    let thresholds = [
        ("paper", SwitchThresholds::paper_default()),
        ("low", SwitchThresholds::new(0.02, 0.005)),
    ];
    for (label, thresholds) in thresholds {
        for sequence in &workload.sequences {
            let config = SystemConfig::switching_cluster(
                BoardSpec::zcu216_only_little(),
                BoardSpec::zcu216_big_little(),
            )
            .with_switching(SwitchingConfig {
                thresholds,
                ..SwitchingConfig::default()
            })
            .with_faults(
                FaultProfile::new(0xF168 + u64::from(sequence.index))
                    .with_pr_failures(0.05)
                    .with_link_flaps(0.2, SimDuration::from_secs(2)),
            );
            out.push((
                format!("fig8/{label}/seq{}", sequence.index),
                batch_fingerprint(
                    config,
                    SchedulerKind::VersaSlotBigLittle,
                    &workload.suite,
                    &sequence.arrivals,
                ),
            ));
        }
    }
    out
}

/// Compares `actual` with `golden`, printing the whole new table on mismatch.
fn check(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = actual
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", 0x{hash:016x}),\n"))
        .collect();
    let matches = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((name, hash), (golden_name, golden_hash))| {
                name == golden_name && hash == golden_hash
            });
    assert!(matches, "policy fingerprints changed; new table:\n{table}");
}

#[test]
fn service_overload_fingerprints_match() {
    check(
        &service_cases("overload", poisson(1.5, 100), false),
        SERVICE_OVERLOAD_GOLDEN,
    );
}

#[test]
fn service_stable_fingerprints_match() {
    check(
        &service_cases("stable", poisson(0.6, 300), false),
        SERVICE_STABLE_GOLDEN,
    );
}

#[test]
fn service_faulty_overload_fingerprints_match() {
    check(
        &service_cases("faulty", poisson(1.5, 100), true),
        SERVICE_FAULTY_GOLDEN,
    );
}

#[test]
fn figure56_fingerprints_match() {
    check(&figure56_cases(), FIGURE56_GOLDEN);
}

#[test]
fn figure8_fingerprints_match() {
    check(&figure8_cases(), FIGURE8_GOLDEN);
}

// Values captured on the policies before the no-free-slot early exit.

const SERVICE_OVERLOAD_GOLDEN: &[(&str, u64)] = &[
    ("service/overload/seed1/FCFS", 0x3a484b3c622282c8),
    ("service/overload/seed1/RR", 0x0b961ca6833fec9a),
    ("service/overload/seed1/Nimblock", 0x527884934e01c629),
    (
        "service/overload/seed1/VersaSlot Only.Little",
        0xba9d058d2722a46f,
    ),
    (
        "service/overload/seed1/VersaSlot Big.Little",
        0xa0255a9288a300de,
    ),
    ("service/overload/seed2/FCFS", 0x6ee4db4f0823c159),
    ("service/overload/seed2/RR", 0x9cccabff3faf33ec),
    ("service/overload/seed2/Nimblock", 0xfe135946f200d792),
    (
        "service/overload/seed2/VersaSlot Only.Little",
        0xd785e0b31b407e06,
    ),
    (
        "service/overload/seed2/VersaSlot Big.Little",
        0x20cbf7ad8a853c20,
    ),
    ("service/overload/seed3/FCFS", 0x3cddae0848e5e546),
    ("service/overload/seed3/RR", 0x8a4f370c8f9657db),
    ("service/overload/seed3/Nimblock", 0x2c81b786efd4b155),
    (
        "service/overload/seed3/VersaSlot Only.Little",
        0x58e2d7999f1eb7e5,
    ),
    (
        "service/overload/seed3/VersaSlot Big.Little",
        0x446847b2bd804d57,
    ),
];

const SERVICE_STABLE_GOLDEN: &[(&str, u64)] = &[
    ("service/stable/seed1/FCFS", 0x0edc65b8287dda44),
    ("service/stable/seed1/RR", 0x6b5ff3dbb1ce39e7),
    ("service/stable/seed1/Nimblock", 0x4ca7bc586ea72436),
    (
        "service/stable/seed1/VersaSlot Only.Little",
        0x160c74019c2c8e0b,
    ),
    (
        "service/stable/seed1/VersaSlot Big.Little",
        0x14d1217476488a60,
    ),
    ("service/stable/seed2/FCFS", 0x0099c525b5086aa3),
    ("service/stable/seed2/RR", 0x2c0caf3af0189e1b),
    ("service/stable/seed2/Nimblock", 0xc2995cceb9bd90fc),
    (
        "service/stable/seed2/VersaSlot Only.Little",
        0xdb4adb9df9a9b0d6,
    ),
    (
        "service/stable/seed2/VersaSlot Big.Little",
        0x256678fd3442be1a,
    ),
    ("service/stable/seed3/FCFS", 0x01a0b51fcd478a49),
    ("service/stable/seed3/RR", 0x6f217dde5f0b1ff5),
    ("service/stable/seed3/Nimblock", 0x97816751a84af65b),
    (
        "service/stable/seed3/VersaSlot Only.Little",
        0x62e09028e9fa5b0c,
    ),
    (
        "service/stable/seed3/VersaSlot Big.Little",
        0x1837e1a6ee9846e4,
    ),
];

const SERVICE_FAULTY_GOLDEN: &[(&str, u64)] = &[
    ("service/faulty/seed1/FCFS", 0xbb464746f835af39),
    ("service/faulty/seed1/RR", 0xe447ed11d8f16a4b),
    ("service/faulty/seed1/Nimblock", 0x9d94bbe8656266de),
    (
        "service/faulty/seed1/VersaSlot Only.Little",
        0x43b81e5a5a29278c,
    ),
    (
        "service/faulty/seed1/VersaSlot Big.Little",
        0xac032e78cba899f8,
    ),
    ("service/faulty/seed2/FCFS", 0x80f1081e5bdf23d9),
    ("service/faulty/seed2/RR", 0x1a7f02be8cae733c),
    ("service/faulty/seed2/Nimblock", 0x1f09a57ba55a2804),
    (
        "service/faulty/seed2/VersaSlot Only.Little",
        0x0f9c7523881588f3,
    ),
    (
        "service/faulty/seed2/VersaSlot Big.Little",
        0xdb92f597fad8f1a6,
    ),
    ("service/faulty/seed3/FCFS", 0xda6d7dc584238d21),
    ("service/faulty/seed3/RR", 0xbb225e7d8f47c7b6),
    ("service/faulty/seed3/Nimblock", 0xa5a1d42d86c59f95),
    (
        "service/faulty/seed3/VersaSlot Only.Little",
        0x9a712ea10e14ab52,
    ),
    (
        "service/faulty/seed3/VersaSlot Big.Little",
        0xfd63c844573fb448,
    ),
];

const FIGURE56_GOLDEN: &[(&str, u64)] = &[
    ("fig56/Loose/seq0/FCFS", 0x5f408f0bb826d28f),
    ("fig56/Loose/seq1/FCFS", 0x36301849bcec1055),
    ("fig56/Loose/seq0/RR", 0xcd3fbfda8c41815c),
    ("fig56/Loose/seq1/RR", 0x868d9e523f0dbb4c),
    ("fig56/Loose/seq0/Nimblock", 0xbb1cf6b70085f3a8),
    ("fig56/Loose/seq1/Nimblock", 0x5b2aa98f334fc458),
    ("fig56/Loose/seq0/VersaSlot Only.Little", 0x16911798e018e8eb),
    ("fig56/Loose/seq1/VersaSlot Only.Little", 0xbb8f21a8425c3876),
    ("fig56/Loose/seq0/VersaSlot Big.Little", 0x6cea4dc4a7cb78ad),
    ("fig56/Loose/seq1/VersaSlot Big.Little", 0x8b309c692de6d2f5),
    ("fig56/Standard/seq0/FCFS", 0x0b97953420a29ac5),
    ("fig56/Standard/seq1/FCFS", 0x168a154df8aeee69),
    ("fig56/Standard/seq0/RR", 0x8fefdfa9bf2da4ec),
    ("fig56/Standard/seq1/RR", 0x588d04961db45972),
    ("fig56/Standard/seq0/Nimblock", 0x9342ceb5a0930789),
    ("fig56/Standard/seq1/Nimblock", 0x20503b745689a4f8),
    (
        "fig56/Standard/seq0/VersaSlot Only.Little",
        0xab3eeb136c911ccc,
    ),
    (
        "fig56/Standard/seq1/VersaSlot Only.Little",
        0xce6e6cc8f313fc50,
    ),
    (
        "fig56/Standard/seq0/VersaSlot Big.Little",
        0x76edba423531f0cb,
    ),
    (
        "fig56/Standard/seq1/VersaSlot Big.Little",
        0xa106b15f82fbe57a,
    ),
    ("fig56/Stress/seq0/FCFS", 0x0e3571a84d4b0bc9),
    ("fig56/Stress/seq1/FCFS", 0x32893b0cff89dac9),
    ("fig56/Stress/seq0/RR", 0xb282e2669f5e6394),
    ("fig56/Stress/seq1/RR", 0x02477e00e5e576cb),
    ("fig56/Stress/seq0/Nimblock", 0x5a9bb1fd62c72471),
    ("fig56/Stress/seq1/Nimblock", 0x3c40d27dbabc618f),
    (
        "fig56/Stress/seq0/VersaSlot Only.Little",
        0x09b333d7c9645889,
    ),
    (
        "fig56/Stress/seq1/VersaSlot Only.Little",
        0xb193210211bdfc51,
    ),
    ("fig56/Stress/seq0/VersaSlot Big.Little", 0xe991117aca91e94c),
    ("fig56/Stress/seq1/VersaSlot Big.Little", 0xa46f861ba054ab8a),
    ("fig56/RealTime/seq0/FCFS", 0x04adf10e8be6d232),
    ("fig56/RealTime/seq1/FCFS", 0xd2eaf0717dfebe12),
    ("fig56/RealTime/seq0/RR", 0x014c6fcf957bc068),
    ("fig56/RealTime/seq1/RR", 0x002403f8a90a7b34),
    ("fig56/RealTime/seq0/Nimblock", 0xf2eb8095cddb50d0),
    ("fig56/RealTime/seq1/Nimblock", 0xda2678741619c96e),
    (
        "fig56/RealTime/seq0/VersaSlot Only.Little",
        0x02911ba69fcfb080,
    ),
    (
        "fig56/RealTime/seq1/VersaSlot Only.Little",
        0x5010fcd80b4dc188,
    ),
    (
        "fig56/RealTime/seq0/VersaSlot Big.Little",
        0xf719903071c456ac,
    ),
    (
        "fig56/RealTime/seq1/VersaSlot Big.Little",
        0x99f045f6bd2d1298,
    ),
];

const FIGURE8_GOLDEN: &[(&str, u64)] = &[
    ("fig8/paper/seq0", 0xb110d50113f56415),
    ("fig8/paper/seq1", 0xfb6d76bd40b2b923),
    ("fig8/low/seq0", 0x542f43f6212180ee),
    ("fig8/low/seq1", 0x61db42ffb2089525),
];
