//! The traced run: per-layer metrics measured from outside the program.
//!
//! The back-end is built with the public `Backend::build`, and a
//! benchmark-owned replayer re-issues the workload's `TrafficSpec`s the way
//! `workflow::traffic` does (same seeded request streams, same spawn order).
//! Spans are recorded at the layer boundaries the replayer crosses:
//!
//! * `Simulation::run` — the whole `des` engine run;
//! * every future the replayer spawns — `des` self time is the run time these
//!   polls do not cover;
//! * every `IoBackend` call — host time per call, summed over its polls,
//!   and how often it returned `Pending`.
//!
//! After the run the replayer reads the public counters of `MemoryManager`,
//! `KernelCache`, the `Disk` and memory `SharedResource` channels and the
//! fabric links. The same replayer runs untraced as a twin, so the tracing
//! overhead is measured, and both must predict bit-identical totals.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use des::{JoinHandle, SimContext, Simulation};
use kernel_emu::KernelCache;
use pagecache::{FileId, IoOpStats, MemoryManager};
use storage_model::SharedResource;
use workflow::net::server_link;
use workflow::{
    run_scenario, Backend, IoBackend, LatencyHistogram, LoopMode, ScenarioError, TrafficSpec,
    ZipfSampler,
};

use crate::workloads::Workload;
use crate::{check_accounting, median, Metrics, Outcome};

const MB: f64 = 1e6;

// ---------------------------------------------------------------------------
// Request planning: the same seeded streams as `workflow::traffic`, so the
// replayer issues exactly the requests `run_scenario` issues.
// ---------------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(
            seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                | 1,
        )
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy)]
struct Request {
    file: usize,
    is_read: bool,
    offset: f64,
    len: f64,
    gap: f64,
    record: bool,
}

fn file_size(spec: &TrafficSpec, idx: usize) -> f64 {
    let mut rng = XorShift::new(spec.seed ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    spec.mean_file_size * (0.5 + rng.next_f64())
}

fn plan_requests(spec: &TrafficSpec) -> Vec<Request> {
    let zipf = ZipfSampler::new(spec.catalog_files, spec.zipf_alpha);
    let mut pop = XorShift::new(spec.seed ^ 0x504f_5055_4c41_5249);
    let mut op = XorShift::new(spec.seed ^ 0x4f50_434c_4153_5321);
    let mut size = XorShift::new(spec.seed ^ 0x5245_5153_495a_4553);
    let mut time = XorShift::new(spec.seed ^ 0x4152_5249_5641_4c53);
    (0..spec.requests)
        .map(|index| {
            let file = zipf.sample(pop.next_f64());
            let fsize = file_size(spec, file);
            let is_read = op.next_f64() < spec.read_fraction;
            let len = (spec.request_bytes * (0.5 + size.next_f64())).min(fsize);
            let offset = size.next_f64() * (fsize - len);
            let gap = match spec.mode {
                LoopMode::Open {
                    rate,
                    poisson: true,
                } => -(1.0 - time.next_f64()).ln() / rate,
                LoopMode::Open { rate, .. } => 1.0 / rate,
                LoopMode::Closed { think_time, .. } => think_time,
            };
            Request {
                file,
                is_read,
                offset,
                len,
                gap,
                record: index >= spec.warmup,
            }
        })
        .collect()
}

fn catalog_file(spec: &TrafficSpec, idx: usize) -> FileId {
    FileId::new(format!("traffic/{}/f{idx:06}", spec.name))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Host seconds per completed `IoBackend` call, by op class.
#[derive(Default)]
struct IoLog {
    read_s: Vec<f64>,
    write_s: Vec<f64>,
    /// Every call's host seconds in completion order.
    in_order: Vec<f64>,
    pending: u64,
    /// Host seconds inside `IoBackend` calls, `create_file` included.
    self_s: f64,
}

/// What the traced run records. Each field is written at one boundary.
#[derive(Default)]
struct Probe {
    task_polls: Cell<u64>,
    task_s: Cell<f64>,
    io: RefCell<IoLog>,
    /// Whether call starts also sample the active device flows (see
    /// `sample`).
    sample_flows: bool,
    /// Largest number of simultaneously active device flows seen at a call
    /// start.
    peak_flows: Cell<usize>,
    /// First memory-bound violation seen, if any.
    violation: RefCell<Option<String>>,
    /// Largest `cached + anonymous - memory` seen on any host, bytes.
    overcommit: Cell<f64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Span {
    Task,
    Read,
    Write,
}

/// Wraps a future and charges the host time of each of its polls to `span`.
struct Timed<F> {
    fut: Pin<Box<F>>,
    probe: Rc<Probe>,
    span: Span,
    host_s: f64,
    pending: u64,
}

impl<F: Future> Timed<F> {
    fn new(fut: F, probe: &Rc<Probe>, span: Span) -> Self {
        Timed {
            fut: Box::pin(fut),
            probe: Rc::clone(probe),
            span,
            host_s: 0.0,
            pending: 0,
        }
    }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let start = Instant::now();
        let out = this.fut.as_mut().poll(cx);
        let dt = start.elapsed().as_secs_f64();
        this.host_s += dt;
        let probe = &this.probe;
        if this.span == Span::Task {
            probe.task_polls.set(probe.task_polls.get() + 1);
            probe.task_s.set(probe.task_s.get() + dt);
            return out;
        }
        let mut io = probe.io.borrow_mut();
        io.self_s += dt;
        if out.is_pending() {
            this.pending += 1;
        } else {
            io.pending += this.pending;
            io.in_order.push(this.host_s);
            match this.span {
                Span::Read => io.read_s.push(this.host_s),
                _ => io.write_s.push(this.host_s),
            }
        }
        out
    }
}

fn spawn<T: 'static>(
    ctx: &SimContext,
    probe: &Option<Rc<Probe>>,
    fut: impl Future<Output = T> + 'static,
) -> JoinHandle<T> {
    match probe {
        Some(probe) => ctx.spawn(Timed::new(fut, probe, Span::Task)),
        None => ctx.spawn(fut),
    }
}

// ---------------------------------------------------------------------------
// Layer handles reachable through public accessors
// ---------------------------------------------------------------------------

/// A host whose memory the replayer can observe mid-run without changing it.
enum Host {
    PageCache(MemoryManager),
    Kernel(KernelCache),
}

impl Host {
    /// `(cached, dirty, anonymous, memory)`, bytes.
    fn memory(&self) -> (f64, f64, f64, f64) {
        match self {
            Host::PageCache(mm) => (mm.cached(), mm.dirty(), mm.anonymous(), mm.total_memory()),
            Host::Kernel(cache) => (
                cache.cached(),
                cache.dirty(),
                cache.anonymous(),
                cache.tuning().total_memory,
            ),
        }
    }
}

/// The single host and device channels of a local back-end. The fleet keeps
/// its servers' managers and disks private, so only its client memory (at
/// the end of the run) and fabric links are observable.
struct Layers {
    host: Option<Host>,
    disk: Vec<SharedResource>,
    memory: Vec<SharedResource>,
}

impl Layers {
    fn of(backend: &Backend) -> Layers {
        match backend {
            Backend::Cached(fs) => {
                let mm = fs.memory_manager();
                Layers {
                    host: Some(Host::PageCache(mm.clone())),
                    disk: vec![
                        fs.disk().read_channel().clone(),
                        fs.disk().write_channel().clone(),
                    ],
                    memory: vec![
                        mm.memory().read_channel().clone(),
                        mm.memory().write_channel().clone(),
                    ],
                }
            }
            Backend::Kernel(fs) => {
                let cache = fs.cache();
                Layers {
                    host: Some(Host::Kernel(cache.clone())),
                    disk: vec![
                        fs.disk().read_channel().clone(),
                        fs.disk().write_channel().clone(),
                    ],
                    memory: vec![
                        cache.memory().read_channel().clone(),
                        cache.memory().write_channel().clone(),
                    ],
                }
            }
            _ => Layers {
                host: None,
                disk: Vec::new(),
                memory: Vec::new(),
            },
        }
    }
}

/// Checks one host's memory bounds and tracks the anonymous overcommit.
fn check_memory(probe: &Probe, (cached, dirty, anonymous, memory): (f64, f64, f64, f64)) {
    // Relative slack for float accumulation in the byte aggregates.
    let slack = 1e-9 * memory;
    if probe.violation.borrow().is_none() {
        if cached > memory + slack {
            *probe.violation.borrow_mut() =
                Some(format!("cached {cached} B exceeds host memory {memory} B"));
        } else if dirty > cached + slack {
            *probe.violation.borrow_mut() =
                Some(format!("dirty {dirty} B exceeds cached {cached} B"));
        }
    }
    probe
        .overcommit
        .set(probe.overcommit.get().max(cached + anonymous - memory));
}

/// Memory of each fleet client host at the current instant, in the order
/// of `Host::memory`; empty for other back-ends.
fn fleet_client_memory(backend: &Backend) -> Vec<(f64, f64, f64, f64)> {
    let clients = backend.fleet().map_or(0, |fleet| fleet.spec().clients);
    (0..clients)
        .filter_map(|client| backend.for_instance(client).sample_memory())
        .map(|s| (s.cached, s.dirty, s.anonymous, s.total))
        .collect()
}

/// Samples the layers at an `IoBackend` call start: the memory bounds and,
/// in the flow-sampling pass only, the number of active device flows.
/// `SharedResource::active_flows` brings a channel's virtual clock up to now,
/// which splits its float integration and so perturbs later predictions in
/// the last digits: the traced run proper must predict exactly what its
/// untraced twin does, so flows are counted in a pass of their own.
fn sample(probe: &Probe, layers: &Layers) {
    if let Some(host) = &layers.host {
        check_memory(probe, host.memory());
    }
    if !probe.sample_flows {
        return;
    }
    let flows: usize = layers
        .disk
        .iter()
        .chain(&layers.memory)
        .map(SharedResource::active_flows)
        .sum();
    probe.peak_flows.set(probe.peak_flows.get().max(flows));
}

// ---------------------------------------------------------------------------
// The replayer
// ---------------------------------------------------------------------------

#[derive(Default)]
struct GenState {
    created: HashSet<usize>,
    issued: u64,
    completed: u64,
    failed: u64,
    read_hist: LatencyHistogram,
    write_hist: LatencyHistogram,
    io: IoOpStats,
    bytes_read: f64,
    bytes_written: f64,
    in_flight: u64,
    peak_in_flight: u64,
}

struct Gen {
    ctx: SimContext,
    backend: Backend,
    spec: TrafficSpec,
    state: RefCell<GenState>,
    trace: Option<(Rc<Probe>, Rc<Layers>)>,
}

/// One request, as `workflow::traffic::execute_request` runs it on a
/// fault-free, tenant-free generator.
async fn request(gen: Rc<Gen>, req: Request, base: f64) -> Result<(), ScenarioError> {
    let id = catalog_file(&gen.spec, req.file);
    gen.state.borrow_mut().issued += 1;
    if gen.state.borrow_mut().created.insert(req.file) {
        let size = file_size(&gen.spec, req.file);
        match &gen.trace {
            Some((probe, _)) => {
                let start = Instant::now();
                gen.backend.create_file(&id, size)?;
                probe.io.borrow_mut().self_s += start.elapsed().as_secs_f64();
            }
            None => gen.backend.create_file(&id, size)?,
        }
    }
    {
        let mut s = gen.state.borrow_mut();
        s.in_flight += 1;
        s.peak_in_flight = s.peak_in_flight.max(s.in_flight);
    }
    let backend = &gen.backend;
    let result = match &gen.trace {
        None if req.is_read => backend.read_range(&id, req.offset, req.len).await,
        None => backend.write_range(&id, req.offset, req.len).await,
        Some((probe, layers)) => {
            sample(probe, layers);
            if req.is_read {
                Timed::new(
                    backend.read_range(&id, req.offset, req.len),
                    probe,
                    Span::Read,
                )
                .await
            } else {
                Timed::new(
                    backend.write_range(&id, req.offset, req.len),
                    probe,
                    Span::Write,
                )
                .await
            }
        }
    };
    let now = gen.ctx.now().as_secs();
    let mut s = gen.state.borrow_mut();
    s.in_flight -= 1;
    match result {
        Ok(stats) => {
            if req.is_read {
                if req.record {
                    s.read_hist.record(now - base);
                }
                s.bytes_read += req.len;
            } else {
                if req.record {
                    s.write_hist.record(now - base);
                }
                s.bytes_written += req.len;
            }
            s.io.merge(&stats);
            s.completed += 1;
        }
        Err(ScenarioError::Injected(_)) => s.failed += 1,
        Err(error) => return Err(error),
    }
    Ok(())
}

/// One generator, spawning tasks in the order `workflow::traffic` does.
async fn generator(gen: Rc<Gen>) -> Result<(), ScenarioError> {
    let ctx = gen.ctx.clone();
    let probe = gen.trace.as_ref().map(|(probe, _)| Rc::clone(probe));
    let requests = plan_requests(&gen.spec);
    let mut handles = Vec::new();
    match gen.spec.mode {
        LoopMode::Open { .. } => {
            let mut arrival = ctx.now().as_secs();
            for req in requests {
                arrival += req.gap;
                let now = ctx.now().as_secs();
                if arrival > now {
                    ctx.sleep(arrival - now).await;
                }
                handles.push(spawn(&ctx, &probe, request(Rc::clone(&gen), req, arrival)));
            }
        }
        LoopMode::Closed { clients, .. } => {
            for client in 0..clients {
                let mine: Vec<Request> = requests
                    .iter()
                    .skip(client)
                    .step_by(clients)
                    .copied()
                    .collect();
                let gen = Rc::clone(&gen);
                let ctx2 = ctx.clone();
                handles.push(spawn(&ctx, &probe, async move {
                    for req in mine {
                        let base = ctx2.now().as_secs();
                        request(Rc::clone(&gen), req, base).await?;
                        if req.gap > 0.0 {
                            ctx2.sleep(req.gap).await;
                        }
                    }
                    Ok(())
                }));
            }
        }
    }
    for handle in handles {
        handle.await?;
    }
    Ok(())
}

/// Simulated totals of one replayer run, over every generator.
#[derive(Debug, PartialEq)]
struct Totals {
    issued: u64,
    completed: u64,
    failed: u64,
    bytes_read: f64,
    bytes_written: f64,
    io: IoOpStats,
    /// Per-generator hit ratios weighted by bytes read: the only combined
    /// hit ratio the end-to-end report's per-generator figures allow.
    read_weighted_hits: f64,
    read_p99: f64,
    write_p99: f64,
    peak_in_flight: u64,
    sim_s: f64,
}

struct Drive {
    totals: Totals,
    /// Host seconds of `Simulation::run`.
    run_s: f64,
    backend: Backend,
}

/// Builds the back-end and replays the workload's traffic, traced when
/// `probe` is given.
fn drive(w: &Workload, probe: Option<Rc<Probe>>) -> Result<Drive, String> {
    let sim = Simulation::new();
    let ctx = sim.context();
    let backend = Backend::build(&ctx, &w.platform, w.kind).map_err(|e| e.to_string())?;
    let layers = Rc::new(Layers::of(&backend));
    let gens: Vec<Rc<Gen>> = w
        .traffic
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            Rc::new(Gen {
                ctx: ctx.clone(),
                backend: backend.for_instance(index),
                spec: spec.clone(),
                state: RefCell::default(),
                trace: probe.as_ref().map(|p| (Rc::clone(p), Rc::clone(&layers))),
            })
        })
        .collect();
    backend.start_background();
    let coordinator = {
        let ctx = ctx.clone();
        let backend = backend.clone();
        let gens = gens.clone();
        let probe = probe.clone();
        spawn(&ctx.clone(), &probe.clone(), async move {
            let handles: Vec<_> = gens
                .into_iter()
                .map(|gen| spawn(&ctx, &probe, generator(gen)))
                .collect();
            let mut results = Vec::new();
            for handle in handles {
                results.push(handle.await);
            }
            backend.stop_background();
            results
        })
    };
    let start = Instant::now();
    sim.run();
    let run_s = start.elapsed().as_secs_f64();
    if let Some(probe) = &probe {
        // The fleet's client memory is observable only once the run is over.
        for host in fleet_client_memory(&backend) {
            check_memory(probe, host);
        }
    }
    for result in coordinator
        .try_take_result()
        .ok_or("replayer did not finish: simulation deadlocked")?
    {
        result.map_err(|e| e.to_string())?;
    }

    let mut totals = Totals {
        issued: 0,
        completed: 0,
        failed: 0,
        bytes_read: 0.0,
        bytes_written: 0.0,
        io: IoOpStats::default(),
        read_weighted_hits: 0.0,
        read_p99: 0.0,
        write_p99: 0.0,
        peak_in_flight: 0,
        sim_s: sim.now().as_secs(),
    };
    for (spec, gen) in w.traffic.iter().zip(&gens) {
        let s = gen.state.borrow();
        if s.issued != s.completed + s.failed || s.issued != spec.requests as u64 {
            return Err(format!(
                "replayer generator {}: issued {} completed {} failed {} of {} requests",
                spec.name, s.issued, s.completed, s.failed, spec.requests
            ));
        }
        totals.issued += s.issued;
        totals.completed += s.completed;
        totals.failed += s.failed;
        totals.bytes_read += s.bytes_read;
        totals.bytes_written += s.bytes_written;
        totals.io.merge(&s.io);
        totals.read_weighted_hits += s.io.cache_hit_ratio() * s.bytes_read;
        totals.read_p99 = totals.read_p99.max(s.read_hist.quantile(0.99));
        totals.write_p99 = totals.write_p99.max(s.write_hist.quantile(0.99));
        totals.peak_in_flight = totals.peak_in_flight.max(s.peak_in_flight);
    }
    Ok(Drive {
        totals,
        run_s,
        backend,
    })
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Exact `q`-quantile (nearest rank) of a sample, 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Host time of the last quarter of completions over the first quarter.
fn cost_growth(in_order: &[f64]) -> f64 {
    let q = in_order.len() / 4;
    let first: f64 = in_order[..q].iter().sum();
    let last: f64 = in_order[in_order.len() - q..].iter().sum();
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

fn channel_totals(channels: &[SharedResource]) -> (f64, f64) {
    channels.iter().fold((0.0, 0.0), |(flows, bytes), c| {
        (flows + c.completed_flows() as f64, bytes + c.total_bytes())
    })
}

/// The cache-layer metrics: `pagecache.*` on the page-cache model (local or
/// fleet), `kemu.*` on the emulator; the other family reads 0.
fn cache_metrics(m: &mut Metrics, drive: &Drive) {
    let hit = drive.totals.io.cache_hit_ratio();
    let mut pc = [0.0; 7];
    let mut ke = [0.0; 6];
    match &drive.backend {
        Backend::Cached(fs) => {
            let mm = fs.memory_manager();
            let c = mm.counters();
            pc = [
                hit,
                c.evicted / MB,
                (c.flushed_on_demand + c.flushed_background) / MB,
                c.flusher_runs as f64,
                mm.block_count() as f64,
                mm.cached() / MB,
                mm.anonymous() / MB,
            ];
        }
        Backend::Kernel(fs) => {
            let cache = fs.cache();
            let c = cache.counters();
            ke = [
                hit,
                c.evicted / MB,
                (c.background_writeback + c.throttled_writeback) / MB,
                c.throttle_stall_seconds,
                cache.cached() / MB,
                cache.anonymous() / MB,
            ];
        }
        Backend::Fleet(_) => {
            // Servers: eviction and flush counters through the public
            // write-back counters. Clients: cached and anonymous memory.
            let wb = drive.backend.writeback_counters().unwrap_or_default();
            let (mut cached, mut anon) = (0.0, 0.0);
            for (c, _, a, _) in fleet_client_memory(&drive.backend) {
                cached += c;
                anon += a;
            }
            pc = [
                hit,
                wb.evicted / MB,
                (wb.background_flushed + wb.synchronous_flushed) / MB,
                0.0,
                0.0,
                cached / MB,
                anon / MB,
            ];
        }
        _ => {}
    }
    for (name, value, unit) in [
        ("pagecache.hit_ratio", pc[0], "ratio"),
        ("pagecache.evicted_mb", pc[1], "MB"),
        ("pagecache.flushed_mb", pc[2], "MB"),
        ("pagecache.flusher_runs", pc[3], "count"),
        ("pagecache.blocks", pc[4], "count"),
        ("pagecache.cached_mb", pc[5], "MB"),
        ("pagecache.anon_mb", pc[6], "MB"),
        ("kemu.hit_ratio", ke[0], "ratio"),
        ("kemu.evicted_mb", ke[1], "MB"),
        ("kemu.writeback_mb", ke[2], "MB"),
        ("kemu.throttle_stall_s", ke[3], "s"),
        ("kemu.cached_mb", ke[4], "MB"),
        ("kemu.anon_mb", ke[5], "MB"),
    ] {
        m.push(name, value, unit);
    }
}

fn storage_net_metrics(m: &mut Metrics, drive: &Drive, probe: &Probe) {
    let layers = Layers::of(&drive.backend);
    let (disk_flows, disk_bytes) = channel_totals(&layers.disk);
    let (mem_flows, _) = channel_totals(&layers.memory);
    m.push("storage.disk_flows", disk_flows, "count");
    m.push("storage.disk_mb", disk_bytes / MB, "MB");
    m.push("storage.mem_flows", mem_flows, "count");
    m.push(
        "storage.peak_active_flows",
        probe.peak_flows.get() as f64,
        "count",
    );

    let (mut link_flows, mut link_bytes, mut retries, mut stale) = (0.0, 0.0, 0.0, 0.0);
    if let Some(fleet) = drive.backend.fleet() {
        let links: Vec<SharedResource> = (0..fleet.spec().servers)
            .filter_map(|i| fleet.fabric().link_channel(&server_link(i)))
            .collect();
        (link_flows, link_bytes) = channel_totals(&links);
        let net = fleet.net_report();
        retries = net.net_retries;
        stale = net.stale_reads;
    }
    m.push("net.link_flows", link_flows, "count");
    m.push("net.link_mb", link_bytes / MB, "MB");
    m.push("net.retries", retries, "count");
    m.push("net.stale_reads", stale, "count");
}

/// Runs the traced measurement: one `run_scenario` reference, then pairs of
/// untraced-twin and traced replayer runs for `seconds` of host time (at least
/// one pair), then one flow-sampling pass. Counters come from the last
/// traced run; host times are medians over the pairs.
pub fn per_layer(w: &Workload, seconds: f64) -> Result<Outcome, String> {
    let scenario = w.scenario();
    let start = Instant::now();
    let report = run_scenario(&scenario).map_err(|e| e.to_string())?;
    let e2e_s = start.elapsed().as_secs_f64();
    let (attempted, failed) = check_accounting(w, &report)?;
    let traffic = report
        .traffic
        .as_ref()
        .expect("checked by check_accounting");

    let window = Instant::now();
    let (mut twin_s, mut traced_s, mut pair_s) = (vec![], vec![], vec![]);
    let mut last: Option<(Drive, Rc<Probe>)> = None;
    loop {
        let pair = Instant::now();
        let twin_start = Instant::now();
        let twin = drive(w, None)?;
        twin_s.push(twin_start.elapsed().as_secs_f64());

        let probe = Rc::new(Probe::default());
        let traced_start = Instant::now();
        let traced = drive(w, Some(Rc::clone(&probe)))?;
        traced_s.push(traced_start.elapsed().as_secs_f64());
        pair_s.push(pair.elapsed().as_secs_f64());

        if traced.totals != twin.totals {
            return Err(format!(
                "tracing changed the simulation:\n traced {:?}\n twin   {:?}",
                traced.totals, twin.totals
            ));
        }
        if let Some((previous, _)) = &last {
            if previous.totals != traced.totals {
                return Err("two traced runs of one workload and seed differ".to_string());
            }
        }
        if let Some(violation) = probe.violation.borrow().as_ref() {
            return Err(format!("memory bound violated: {violation}"));
        }
        last = Some((traced, probe));
        let used = window.elapsed().as_secs_f64();
        if used + median(&pair_s) > seconds {
            break;
        }
    }
    let (traced, probe) = last.expect("at least one pair ran");
    let flows = Rc::new(Probe {
        sample_flows: true,
        ..Probe::default()
    });
    drive(w, Some(Rc::clone(&flows)))?;
    probe.peak_flows.set(flows.peak_flows.get());
    let t = &traced.totals;
    let requests = t.issued as f64;

    let mut m = Metrics::default();
    let io = probe.io.borrow();
    let task_s = probe.task_s.get();
    m.push("des.run_s", traced.run_s, "s");
    m.push("des.self_s", (traced.run_s - task_s).max(0.0), "s");
    m.push(
        "des.polls_per_req",
        probe.task_polls.get() as f64 / requests,
        "count",
    );
    m.push("des.sim_s", t.sim_s, "s");
    m.push("io.read.calls", io.read_s.len() as f64, "count");
    m.push("io.write.calls", io.write_s.len() as f64, "count");
    m.push(
        "io.read.host_us.p50",
        quantile(&io.read_s, 0.50) * 1e6,
        "us",
    );
    m.push(
        "io.read.host_us.p99",
        quantile(&io.read_s, 0.99) * 1e6,
        "us",
    );
    m.push(
        "io.write.host_us.p50",
        quantile(&io.write_s, 0.50) * 1e6,
        "us",
    );
    m.push(
        "io.write.host_us.p99",
        quantile(&io.write_s, 0.99) * 1e6,
        "us",
    );
    m.push("io.self_s", io.self_s, "s");
    m.push(
        "io.pending_per_call",
        io.pending as f64 / io.in_order.len().max(1) as f64,
        "count",
    );
    m.push("io.cost_growth", cost_growth(&io.in_order), "ratio");
    // Replayer code outside the back-end: request bookkeeping and planning.
    m.push("replay.self_s", (task_s - io.self_s).max(0.0), "s");
    cache_metrics(&mut m, &traced);
    m.push(
        "mem.overcommit_mb",
        probe.overcommit.get().max(0.0) / MB,
        "MB",
    );
    storage_net_metrics(&mut m, &traced, &probe);

    // Exact model outputs of the end-to-end report.
    let gens = &traffic.generators;
    let fold = |f: fn(&workflow::TrafficGenReport) -> f64| gens.iter().map(f).fold(0.0, f64::max);
    m.push("traffic.sim_read_p99_s", fold(|g| g.read_latency.p99), "s");
    m.push(
        "traffic.sim_write_p99_s",
        fold(|g| g.write_latency.p99),
        "s",
    );
    m.push(
        "traffic.peak_in_flight",
        fold(|g| g.peak_in_flight as f64),
        "count",
    );
    m.push("traffic.sim_s", report.simulated_duration, "s");

    // Trace fidelity: the replayer's totals beside run_scenario's.
    let e2e_read: f64 = gens.iter().map(|g| g.bytes_read).sum();
    let e2e_written: f64 = gens.iter().map(|g| g.bytes_written).sum();
    let e2e_hit = gens
        .iter()
        .map(|g| g.cache_hit_ratio * g.bytes_read)
        .sum::<f64>()
        / e2e_read;
    for (name, traced_value, e2e_value, unit) in [
        ("requests", requests, attempted as f64, "count"),
        ("read_mb", t.bytes_read / MB, e2e_read / MB, "MB"),
        ("write_mb", t.bytes_written / MB, e2e_written / MB, "MB"),
        (
            "hit_ratio",
            t.read_weighted_hits / t.bytes_read,
            e2e_hit,
            "ratio",
        ),
    ] {
        m.push(format!("fidelity.{name}.traced"), traced_value, unit);
        m.push(format!("fidelity.{name}.e2e"), e2e_value, unit);
    }
    let twin = median(&twin_s);
    let traced_host = median(&traced_s);
    m.push("trace.e2e_s", e2e_s, "s");
    m.push("trace.twin_s", twin, "s");
    m.push("trace.traced_s", traced_host, "s");
    m.push("trace.overhead", traced_host / twin, "ratio");
    m.push("trace.pairs", twin_s.len() as f64, "count");
    eprintln!(
        "{}: traced {:.3} s, untraced twin {:.3} s, run_scenario {:.3} s",
        w.name, traced_host, twin, e2e_s
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}
