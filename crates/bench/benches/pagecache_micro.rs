//! Micro-benchmarks of the core data structures: LRU list operations, the
//! I/O controller fast path, the kernel emulator's victim selection, the
//! discrete-event engine, traffic generation and the replicated fleet's
//! request path.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use des::{SimTime, Simulation};
use pagecache::{EvictionPolicy, FileId, IoController, LruLists, MemoryManager, PageCacheConfig};
use storage_model::units::{GB, KB, MB};
use storage_model::{DeviceSpec, Disk, MemoryDevice, SharedResource, SharingPolicy};

fn bench_lru_operations(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_lists");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &blocks in &[100usize, 1_000, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("add_and_read", blocks),
            &blocks,
            |b, &n| {
                b.iter(|| {
                    let mut lru = LruLists::new();
                    let file: FileId = "f".into();
                    for i in 0..n {
                        lru.add_clean(file.clone(), 1.0 * MB, SimTime::from_secs(i as f64));
                    }
                    lru.read_cached(&file, n as f64 * MB, SimTime::from_secs(n as f64));
                    lru.total_cached()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("flush_and_evict", blocks),
            &blocks,
            |b, &n| {
                b.iter(|| {
                    let mut lru = LruLists::new();
                    for i in 0..n {
                        lru.add_dirty(
                            FileId::new(format!("f{}", i % 10)),
                            1.0 * MB,
                            SimTime::from_secs(i as f64),
                        );
                    }
                    lru.flush_lru(n as f64 * MB / 2.0, None);
                    lru.evict(n as f64 * MB / 4.0, None);
                    lru.block_count()
                })
            },
        );
    }
    group.finish();
}

/// Interleaved multi-file workload: blocks of many files alternate on the
/// lists, so per-file reads cannot rely on the target file's blocks being
/// contiguous. This is the access pattern of `nfs_cluster` and
/// `concurrent_instances`: with scan-based lists every `read_cached` walks
/// every block of every file, degrading toward O(n²); with per-file chains it
/// touches only the target file's blocks.
fn bench_lru_interleaved(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_lists");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &blocks in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("interleaved_files", blocks),
            &blocks,
            |b, &n| {
                let files: Vec<FileId> = (0..100).map(|i| FileId::new(format!("f{i}"))).collect();
                b.iter(|| {
                    let mut lru = LruLists::new();
                    // Round-robin adds: each file's blocks are maximally
                    // interleaved with every other file's.
                    for i in 0..n {
                        let file = files[i % files.len()].clone();
                        if i % 10 < 3 {
                            lru.add_dirty(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        } else {
                            lru.add_clean(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        }
                    }
                    // Read every file fully, then age out half of the dirty
                    // data and evict a quarter of the total.
                    let per_file = n as f64 / files.len() as f64 * MB;
                    for (k, file) in files.iter().enumerate() {
                        lru.read_cached(file, per_file, SimTime::from_secs((n + k) as f64));
                    }
                    lru.flush_lru(n as f64 * MB * 0.15, None);
                    lru.evict(n as f64 * MB / 4.0, None);
                    lru.total_cached()
                })
            },
        );
    }
    // Full-scale point for the ROADMAP's million-block north star: 1M blocks
    // over 1000 files, every file read back, then bulk flush + evict. Must
    // complete in well under a second per iteration on the arena
    // implementation (the scan-based lists needed minutes here).
    group.bench_with_input(
        BenchmarkId::new("million_blocks", 1_000_000usize),
        &1_000_000usize,
        |b, &n| {
            let files: Vec<FileId> = (0..1000).map(|i| FileId::new(format!("f{i}"))).collect();
            b.iter(|| {
                let mut lru = LruLists::new();
                for i in 0..n {
                    let file = files[i % files.len()].clone();
                    if i % 10 < 3 {
                        lru.add_dirty(file, 1.0 * MB, SimTime::from_secs(i as f64));
                    } else {
                        lru.add_clean(file, 1.0 * MB, SimTime::from_secs(i as f64));
                    }
                }
                let per_file = n as f64 / files.len() as f64 * MB;
                for (k, file) in files.iter().enumerate() {
                    lru.read_cached(file, per_file, SimTime::from_secs((n + k) as f64));
                }
                lru.flush_lru(n as f64 * MB * 0.15, None);
                lru.evict(n as f64 * MB / 4.0, None);
                lru.total_cached()
            })
        },
    );
    group.finish();
}

/// The interleaved multi-file workload under each replacement policy. The
/// mechanism (chains, aggregates, coalescing) is shared; only the tier
/// decisions differ, so every policy must stay within a small constant
/// factor of the default 2-list numbers.
fn bench_lru_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_lists");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let blocks = 10_000usize;
    for policy in EvictionPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::new(format!("policy_{policy}"), blocks),
            &blocks,
            |b, &n| {
                let files: Vec<FileId> = (0..100).map(|i| FileId::new(format!("f{i}"))).collect();
                b.iter(|| {
                    let mut lru = LruLists::with_policy(policy);
                    for i in 0..n {
                        let file = files[i % files.len()].clone();
                        if i % 10 < 3 {
                            lru.add_dirty(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        } else {
                            lru.add_clean(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        }
                    }
                    let per_file = n as f64 / files.len() as f64 * MB;
                    for (k, file) in files.iter().enumerate() {
                        lru.read_cached(file, per_file, SimTime::from_secs((n + k) as f64));
                    }
                    lru.flush_lru(n as f64 * MB * 0.15, None);
                    lru.evict(n as f64 * MB / 4.0, None);
                    lru.total_cached()
                })
            },
        );
    }
    group.finish();
}

fn bench_shared_resource(c: &mut Criterion) {
    // 1k concurrent flows on one device: the fair-share model used to re-sync
    // every flow at every completion (O(n) per event, O(n^2) per run); the
    // heap-based algorithm advances only the completing flow.
    let mut group = c.benchmark_group("shared_resource");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let flows = 1_000usize;
    for (label, policy) in [
        ("fair_share", SharingPolicy::FairShare),
        ("unlimited", SharingPolicy::Unlimited),
    ] {
        group.bench_with_input(BenchmarkId::new(label, flows), &flows, |b, &n| {
            b.iter(|| {
                let sim = Simulation::new();
                let ctx = sim.context();
                let res = SharedResource::with_policy(&ctx, "dev", 1000.0 * MB, 0.0, policy);
                for i in 0..n {
                    let res = res.clone();
                    // Distinct sizes so completions are staggered events.
                    let bytes = 1.0 * MB + i as f64;
                    sim.spawn(async move { res.transfer(bytes).await });
                }
                sim.run().as_secs()
            })
        });
    }
    group.finish();
}

fn bench_io_controller(c: &mut Criterion) {
    let mut group = c.benchmark_group("io_controller");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &file_gb in &[1.0f64, 10.0] {
        group.bench_with_input(
            BenchmarkId::new("read_write_cycle", format!("{file_gb}GB")),
            &file_gb,
            |b, &file_gb| {
                b.iter(|| {
                    let sim = Simulation::new();
                    let ctx = sim.context();
                    let memory = MemoryDevice::new(
                        &ctx,
                        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
                    );
                    let disk = Disk::new(
                        &ctx,
                        "d",
                        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
                    );
                    let mm = MemoryManager::new(
                        &ctx,
                        PageCacheConfig::with_memory(32.0 * GB),
                        memory,
                        disk,
                    );
                    let io = IoController::new(&ctx, mm);
                    sim.spawn(async move {
                        io.write_file(&"out".into(), file_gb * GB).await;
                        io.read_file(&"out".into(), file_gb * GB).await;
                    });
                    sim.run().as_secs()
                })
            },
        );
    }
    group.finish();
}

/// Steady-state eviction on a full kernel-emulator cache with `n` resident
/// files: every iteration admits one new file and evicts one file's worth of
/// clean pages, the least recently used file. Selecting that victim used to
/// sort every resident file per call (O(n log n)); the clean victim index
/// makes it O(log n).
fn bench_kernel_emu(c: &mut Criterion) {
    use kernel_emu::{KernelCache, KernelTuning};
    let mut group = c.benchmark_group("kernel_emu");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &files in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("evict_full_cache", files),
            &files,
            |b, &n| {
                let sim = Simulation::new();
                let ctx = sim.context();
                let memory =
                    MemoryDevice::new(&ctx, DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY));
                let disk = Disk::new(
                    &ctx,
                    "d",
                    DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
                );
                let tuning = KernelTuning::with_memory(n as f64 * MB);
                let cache = KernelCache::new(&ctx, tuning, memory, disk);
                // Equal access times: names order the victims, so the
                // zero-padded sequence numbers make eviction FIFO.
                for k in 0..n {
                    cache.insert_clean(&FileId::new(format!("f{k:09}")), MB);
                }
                let mut next = n;
                b.iter(|| {
                    cache.insert_clean(&FileId::new(format!("f{next:09}")), MB);
                    next += 1;
                    cache.evict(MB, None)
                })
            },
        );
    }
    group.finish();
}

fn bench_des_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &processes in &[10usize, 100, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("sleep_storm", processes),
            &processes,
            |b, &n| {
                b.iter(|| {
                    let sim = Simulation::new();
                    for i in 0..n {
                        let ctx = sim.context();
                        sim.spawn(async move {
                            for k in 0..20u32 {
                                ctx.sleep(((i + k as usize) % 7 + 1) as f64).await;
                            }
                        });
                    }
                    sim.run().as_secs()
                })
            },
        );
    }
    group.finish();
}

/// Head-to-head of the engine's hierarchical timer wheel against the old
/// `BinaryHeap` scheduler on identical key streams.
///
/// `timer_wheel`/`heap_baseline` is the dense-timer workload: a standing
/// population of N concurrent sleepers where every fired timer immediately
/// re-arms (the traffic tier's sleep-storm shape), 10 events per sleeper.
/// The `*_cancel_churn` pair is the net tier's timeout/hedge shape: every
/// request arms a far-future timeout that is cancelled when the request
/// completes — the heap keeps the dead keys and pays O(log garbage) per
/// push; the wheel compacts them away.
fn bench_timer_schedulers(c: &mut Criterion) {
    use des::scheduler::{NaiveHeapScheduler, TimerId, TimerKey, TimerWheel};

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545f4914f6cdd1d)
        }
        fn delta(&mut self) -> f64 {
            // Re-arm intervals of 1–101 ms — the traffic tier's pacing and
            // think-time scale. 100k sleepers in a ~100 ms window is ~1
            // timer per wheel tick: the dense regime.
            (self.next() % 100_000) as f64 * 1e-6 + 1e-3
        }
    }

    let key = |time: f64, seq: u64| TimerKey {
        time: SimTime::from_secs(time),
        seq,
        id: TimerId::from_raw(seq),
    };

    let mut group = c.benchmark_group("des_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Steady-state dense-timer throughput at a standing population of `n`
    // concurrent sleepers: every event pops the earliest timer and re-arms
    // one 1–101 ms out. `iter_batched` builds the populated scheduler
    // outside the timer so only the pop/re-arm regime is measured (the
    // heap's population build is a cache-hot O(1) tail push per timer and
    // would otherwise dilute the contrast at the big points, where events
    // are capped). The wheel's O(1) schedule/pop vs the heap's O(log n)
    // sift — every level a cache miss once the backing array outgrows the
    // LLC — makes the ratio grow with the population: ~3× at 10k sleepers,
    // ~4.5× at 100k–1M, ~7× at 4M.
    for &sleepers in &[10_000usize, 100_000, 1_000_000, 4_000_000] {
        let events = (sleepers * 10).min(2_000_000);
        group.bench_with_input(
            BenchmarkId::new("timer_wheel", sleepers),
            &sleepers,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut rng = Rng(0x1234_5678_9abc_def0);
                        let mut w = TimerWheel::new();
                        for seq in 0..n as u64 {
                            let d = rng.delta();
                            w.schedule(key(d, seq));
                        }
                        (w, rng, n as u64)
                    },
                    |(mut w, mut rng, mut seq)| {
                        let mut clock = 0.0f64;
                        for _ in 0..events {
                            let k = w.pop(|_| true).expect("population never drains");
                            clock = clock.max(k.time.as_secs());
                            let d = rng.delta();
                            w.schedule(key(clock + d, seq));
                            seq += 1;
                        }
                        clock
                    },
                    BatchSize::LargeInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("heap_baseline", sleepers),
            &sleepers,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut rng = Rng(0x1234_5678_9abc_def0);
                        let mut h = NaiveHeapScheduler::new();
                        for seq in 0..n as u64 {
                            let d = rng.delta();
                            h.schedule(key(d, seq));
                        }
                        (h, rng, n as u64)
                    },
                    |(mut h, mut rng, mut seq)| {
                        let mut clock = 0.0f64;
                        for _ in 0..events {
                            let k = h.pop(|_| true).expect("population never drains");
                            clock = clock.max(k.time.as_secs());
                            let d = rng.delta();
                            h.schedule(key(clock + d, seq));
                            seq += 1;
                        }
                        clock
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }

    let churn_events = 100_000usize;
    group.bench_with_input(
        BenchmarkId::new("timer_wheel_cancel_churn", churn_events),
        &churn_events,
        |b, &events| {
            b.iter(|| {
                let mut rng = Rng(0x0bad_cafe_dead_beef);
                let mut w = TimerWheel::new();
                let mut dead = vec![false; 2 * events + 1];
                let mut clock = 0.0f64;
                for seq in 0..events as u64 {
                    // The request's completion timer fires...
                    w.schedule(key(clock + rng.delta() * 1e-3, 2 * seq));
                    // ...its timeout hedge never does.
                    w.schedule(key(clock + 30.0, 2 * seq + 1));
                    dead[2 * seq as usize + 1] = true;
                    w.note_cancel();
                    if w.should_compact() {
                        w.compact(|t| !dead[t.raw() as usize]);
                    }
                    let k = w.pop(|t| !dead[t.raw() as usize]).expect("live timer");
                    clock = clock.max(k.time.as_secs());
                }
                clock
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("heap_baseline_cancel_churn", churn_events),
        &churn_events,
        |b, &events| {
            b.iter(|| {
                let mut rng = Rng(0x0bad_cafe_dead_beef);
                let mut h = NaiveHeapScheduler::new();
                let mut dead = vec![false; 2 * events + 1];
                let mut clock = 0.0f64;
                for seq in 0..events as u64 {
                    h.schedule(key(clock + rng.delta() * 1e-3, 2 * seq));
                    h.schedule(key(clock + 30.0, 2 * seq + 1));
                    dead[2 * seq as usize + 1] = true;
                    h.note_cancel();
                    let k = h.pop(|t| !dead[t.raw() as usize]).expect("live timer");
                    clock = clock.max(k.time.as_secs());
                }
                clock
            })
        },
    );
    group.finish();
}

fn bench_traffic_generate(c: &mut Criterion) {
    use workflow::{
        run_scenario, ApplicationSpec, PlatformSpec, Scenario, SimulatorKind, TrafficSpec,
    };
    let mut group = c.benchmark_group("traffic");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &requests in &[200usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("generate", requests),
            &requests,
            |b, &requests| {
                let platform = PlatformSpec::uniform(
                    8.0 * GB,
                    DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
                    DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
                );
                b.iter(|| {
                    let spec = TrafficSpec::open("bench", 500.0, requests)
                        .with_catalog(64, 8.0 * MB)
                        .with_request_bytes(1.0 * MB)
                        .with_seed(7);
                    let scenario = Scenario::new(
                        platform.clone(),
                        ApplicationSpec::new("bench"),
                        SimulatorKind::PageCache,
                    )
                    .with_sample_interval(None)
                    .with_traffic(vec![spec]);
                    run_scenario(&scenario).unwrap().simulated_duration
                })
            },
        );
    }
    group.finish();
}

/// Mixed closed-loop requests on a replicated fleet (4 clients, 3 servers,
/// 2 replicas) through `run_scenario`: the per-request fleet path —
/// catalog ids, replica placement, fabric route checks and link transfers,
/// the client and server caches — which no other micro-benchmark reaches.
/// The id is the total request count over the four client generators.
fn bench_fleet(c: &mut Criterion) {
    use workflow::{
        run_scenario, ApplicationSpec, FleetSpec, PlatformSpec, Scenario, SimulatorKind,
        TrafficSpec,
    };
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &requests in &[2_000usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("mixed_closed", requests),
            &requests,
            |b, &requests| {
                let platform = PlatformSpec::uniform(
                    4.0 * GB,
                    DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
                    DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
                )
                .with_fleet(FleetSpec::new(4, 3, 2));
                let traffic: Vec<TrafficSpec> = (0..4u64)
                    .map(|i| {
                        TrafficSpec::closed(format!("client{i}"), 16, 0.0, requests / 4)
                            .with_zipf(0.9)
                            .with_request_bytes(64.0 * KB)
                            .with_catalog(2_000, 1.0 * MB)
                            .with_read_fraction(0.5)
                            .with_seed(7 + i)
                    })
                    .collect();
                let scenario = Scenario::new(
                    platform,
                    ApplicationSpec::new("bench"),
                    SimulatorKind::PageCache,
                )
                .with_sample_interval(None)
                .with_traffic(traffic);
                b.iter(|| run_scenario(&scenario).unwrap().simulated_duration)
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lru_operations,
    bench_lru_interleaved,
    bench_lru_policies,
    bench_shared_resource,
    bench_io_controller,
    bench_kernel_emu,
    bench_des_engine,
    bench_timer_schedulers,
    bench_traffic_generate,
    bench_fleet
);
criterion_main!(benches);
