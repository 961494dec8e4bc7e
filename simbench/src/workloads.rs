//! The benchmark's workloads: a platform, a back-end and the traffic
//! generators, all derived from one seed.
//!
//! The three benchmark workloads cover the behaviour space the simulator's
//! cost depends on: working set against host memory (both `zipf-*` read a
//! catalog about 5× memory), reads against writes (80 % against 50 % reads),
//! and one host against a replicated fleet. Every workload is closed-loop
//! with zero think time, Zipf(0.9) popularity and 64 KB requests, and starts
//! with empty caches: users pay the fill cost on every run.

use storage_model::units::{GB, KB, MB};
use storage_model::DeviceSpec;
use workflow::{ApplicationSpec, FleetSpec, PlatformSpec, Scenario, SimulatorKind, TrafficSpec};

/// Workloads the benchmark measures, in the order `BENCHMARK.json` lists them.
pub const BENCHMARK_WORKLOADS: [&str; 3] = ["zipf-pagecache", "zipf-kernelemu", "fleet-mixed"];

/// Repros of the fleet livelock (a known defect, see README.md). Accepted on
/// the command line so the defect and the watchdog can be exercised; they
/// are not benchmark workloads because on most seeds they never finish.
pub const LIVELOCK_REPROS: [&str; 2] = ["fleet-open-livelock", "fleet-mixed-200k"];

/// One workload instance for one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: SimulatorKind,
    pub platform: PlatformSpec,
    pub traffic: Vec<TrafficSpec>,
}

/// A 4 GB host with the uniform memory and disk bandwidths the registry's
/// example workloads use.
fn host() -> PlatformSpec {
    PlatformSpec::uniform(
        4.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

/// Closed-loop Zipf(0.9) traffic with 64 KB requests.
fn zipf_closed(name: &str, clients: usize, requests: usize, seed: u64) -> TrafficSpec {
    TrafficSpec::closed(name, clients, 0.0, requests)
        .with_zipf(0.9)
        .with_request_bytes(64.0 * KB)
        .with_seed(seed)
}

/// Four fleet generators, one per client host; generator `i` uses seed
/// `seed + i`.
fn fleet_generators(seed: u64, make: impl Fn(String, u64) -> TrafficSpec) -> Vec<TrafficSpec> {
    (0..4u64)
        .map(|i| {
            make(format!("client{i}"), seed.wrapping_add(i))
                .with_catalog(2_000, 1.0 * MB)
                .with_read_fraction(0.5)
        })
        .collect()
}

impl Workload {
    /// The workload `name` for `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let local = |name, kind, requests| Workload {
            name,
            kind,
            platform: host(),
            traffic: vec![zipf_closed("zipf", 64, requests, seed)
                .with_catalog(20_000, 1.0 * MB)
                .with_read_fraction(0.8)],
        };
        let fleet = |name, traffic| Workload {
            name,
            kind: SimulatorKind::PageCache,
            platform: host().with_fleet(FleetSpec::new(4, 3, 2)),
            traffic,
        };
        match name {
            "zipf-pagecache" => Some(local("zipf-pagecache", SimulatorKind::PageCache, 600_000)),
            // Memory fills after about 45k requests; the rest of the run is
            // the emulator's full-cache eviction path.
            "zipf-kernelemu" => Some(local("zipf-kernelemu", SimulatorKind::KernelEmu, 50_000)),
            // 30k requests per generator: at 50k the run livelocks on most
            // seeds (`fleet-mixed-200k`).
            "fleet-mixed" => Some(fleet(
                "fleet-mixed",
                fleet_generators(seed, |name, seed| zipf_closed(&name, 16, 30_000, seed)),
            )),
            "fleet-mixed-200k" => Some(fleet(
                "fleet-mixed-200k",
                fleet_generators(seed, |name, seed| zipf_closed(&name, 16, 50_000, seed)),
            )),
            "fleet-open-livelock" => Some(fleet(
                "fleet-open-livelock",
                fleet_generators(seed, |name, seed| {
                    TrafficSpec::open(name, 4000.0, 50_000)
                        .with_zipf(0.9)
                        .with_request_bytes(64.0 * KB)
                        .with_seed(seed)
                }),
            )),
            _ => None,
        }
    }

    /// The same workload cut to one request per generator: what remains is
    /// set-up (catalog and Zipf tables, request planning, back-end and
    /// fleet construction).
    pub fn setup_only(&self) -> Workload {
        let mut cut = self.clone();
        for spec in &mut cut.traffic {
            spec.requests = 1;
            spec.warmup = 0;
        }
        cut
    }

    /// Total requests over every generator.
    pub fn requests(&self) -> u64 {
        self.traffic.iter().map(|t| t.requests as u64).sum()
    }

    /// The pure-traffic scenario `run_scenario` executes. The periodic
    /// memory sampler is off: it is an observation aid, not workload.
    pub fn scenario(&self) -> Scenario {
        Scenario::new(
            self.platform.clone(),
            ApplicationSpec::new("simbench"),
            self.kind,
        )
        .with_sample_interval(None)
        .with_traffic(self.traffic.clone())
    }
}
