//! Ablation benchmarks for three modelling choices of the page-cache model:
//! chunk size (block coalescing granularity), dirty ratio, and bandwidth
//! sharing policy. Each reports the simulated makespan alongside the cost of
//! simulating it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use storage_model::units::{GB, MB};
use storage_model::DeviceSpec;
use workflow::{run_scenario, ApplicationSpec, PlatformSpec, Scenario, SimulatorKind};

fn base_platform() -> PlatformSpec {
    PlatformSpec::uniform(
        16.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

fn bench_chunk_size_ablation(c: &mut Criterion) {
    let app = ApplicationSpec::synthetic_pipeline(2.0 * GB);
    let mut group = c.benchmark_group("ablation_chunk_size");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &chunk_mb in &[10.0f64, 100.0, 500.0] {
        let platform = base_platform().with_chunk_size(chunk_mb * MB);
        let scenario = Scenario::new(platform, app.clone(), SimulatorKind::PageCache)
            .with_sample_interval(None);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{chunk_mb}MB")),
            &scenario,
            |b, s| b.iter(|| run_scenario(s).unwrap().mean_makespan()),
        );
    }
    group.finish();
}

fn bench_dirty_ratio_ablation(c: &mut Criterion) {
    let app = ApplicationSpec::synthetic_pipeline(4.0 * GB);
    let mut group = c.benchmark_group("ablation_dirty_ratio");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &ratio in &[0.1f64, 0.2, 0.4] {
        let platform = base_platform().with_dirty_ratio(ratio);
        let scenario = Scenario::new(platform, app.clone(), SimulatorKind::PageCache)
            .with_sample_interval(None);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("ratio_{ratio}")),
            &scenario,
            |b, s| b.iter(|| run_scenario(s).unwrap().mean_total_write_time()),
        );
    }
    group.finish();
}

fn bench_sharing_policy_ablation(c: &mut Criterion) {
    // Prototype (no bandwidth sharing) vs full model, 8 concurrent instances.
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let mut group = c.benchmark_group("ablation_sharing_policy");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (label, kind) in [
        ("fair_share", SimulatorKind::PageCache),
        ("no_sharing", SimulatorKind::Prototype),
    ] {
        let scenario = Scenario::new(base_platform(), app.clone(), kind)
            .with_instances(8)
            .expect("at least one instance")
            .with_sample_interval(None);
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, s| {
            b.iter(|| run_scenario(s).unwrap().mean_total_read_time())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chunk_size_ablation,
    bench_dirty_ratio_ablation,
    bench_sharing_policy_ablation
);
criterion_main!(benches);
