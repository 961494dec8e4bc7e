//! The discrete-event execution engine.
//!
//! The engine owns a set of *processes* (plain Rust futures), a virtual clock,
//! and a hierarchical timer wheel. A process runs until it awaits something
//! that takes virtual time (a [`sleep`](crate::SimContext::sleep), a storage
//! transfer, a semaphore, ...). When no process is runnable, the clock jumps
//! to the next scheduled event. Execution is fully deterministic: processes
//! are resumed in FIFO order and simultaneous timers fire in the order they
//! were scheduled.
//!
//! This is the same execution model as SimGrid's actors, which the paper's
//! WRENCH-cache implementation relies on, reduced to what a page-cache /
//! storage simulation needs.
//!
//! ## The scheduler
//!
//! Timers live in a [`TimerWheel`](crate::scheduler::TimerWheel): six levels
//! of 64 slots over 2⁻²⁰ s ticks, an overflow heap for deadlines beyond the
//! wheel's ≈ 18-hour page, and a `(time, seq)`-ordered front heap restoring
//! exact sub-tick order. Scheduling and popping are O(1) amortized (the old
//! `BinaryHeap` paid O(log n) each) while firing order stays *bit-identical*
//! to the heap's `(time, seq)` contract — dense-timer workloads such as the
//! traffic tier's 20k+ concurrent sleepers no longer pay a 17-deep sift per
//! event. See the [`scheduler`](crate::scheduler) module docs for the level
//! layout, the cascade rule and the complexity table.
//!
//! ## Cancellation
//!
//! [`SimContext::cancel_timer`] revokes the timer's action (an O(1) map
//! removal) and tells the wheel, which reclaims dead keys eagerly: once
//! cancelled keys outnumber live ones the wheel compacts in one pass, so
//! timeout/hedge-heavy workloads (every `select2` loser drops a `Sleep`)
//! keep the scheduler's physical size bounded by ~2× the live timer count
//! instead of accumulating garbage until pop.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use std::sync::Mutex;

use crate::scheduler::{TimerKey, TimerWheel};
use crate::time::SimTime;

pub use crate::scheduler::TimerId;

/// Identifier of a spawned process. Encodes a slab slot index in the low 32
/// bits and a reuse generation in the high 32 bits, so a stale wake-up for a
/// completed task can never resume an unrelated process that recycled its
/// slot.
pub type TaskId = u64;

fn task_id(index: u32, generation: u32) -> TaskId {
    (generation as u64) << 32 | index as u64
}

fn task_index(id: TaskId) -> u32 {
    id as u32
}

fn task_generation(id: TaskId) -> u32 {
    (id >> 32) as u32
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// What to do when a timer fires.
pub(crate) enum TimerAction {
    /// Wake a future that is waiting on this timer.
    Wake(Waker),
    /// Run an arbitrary callback (used by the flow-level resource models to
    /// re-evaluate bandwidth shares at the next completion point).
    Callback(Box<dyn FnOnce(&SimContext)>),
}

/// One live process in the task slab: its future, its cached waker (created
/// once at spawn, cloned per poll — no per-poll allocation), and whether it
/// already sits in the ready queue (replaces the O(ready) `contains` dedup
/// scan with an O(1) bit check).
struct TaskSlot {
    fut: Option<LocalFuture>,
    waker: Waker,
    queued: bool,
}

struct Engine {
    now: SimTime,
    seq: u64,
    wheel: TimerWheel,
    /// Liveness authority: a timer is armed iff its action is here. The
    /// wheel's stored keys are validated against this map on peek/pop.
    timers: HashMap<TimerId, TimerAction>,
    /// Task slab: `slots[i]` is `Some` while task `i` is alive.
    slots: Vec<Option<TaskSlot>>,
    /// Reuse generation of each slot; bumped when a task completes so stale
    /// [`TaskId`]s (from wakers outliving their task) are recognised.
    generations: Vec<u32>,
    /// Indices of vacated slots available for reuse.
    free_slots: Vec<u32>,
    /// Number of live (spawned, not yet completed) tasks.
    live_tasks: usize,
    /// Slot indices of tasks ready to be polled, FIFO.
    ready: VecDeque<u32>,
    next_timer_id: u64,
    /// Tasks woken through a `Waker`; drained into `ready` by the run loop.
    wake_queue: Arc<Mutex<Vec<TaskId>>>,
    /// Spare buffer swapped with `wake_queue` on each drain, so the two
    /// vectors keep their capacity and a drain allocates nothing.
    woken: Vec<TaskId>,
}

impl Engine {
    fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            wheel: TimerWheel::new(),
            timers: HashMap::new(),
            slots: Vec::new(),
            generations: Vec::new(),
            free_slots: Vec::new(),
            live_tasks: 0,
            ready: VecDeque::new(),
            next_timer_id: 0,
            wake_queue: Arc::new(Mutex::new(Vec::new())),
            woken: Vec::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, action: TimerAction) -> TimerId {
        let id = TimerId::from_raw(self.next_timer_id);
        self.next_timer_id += 1;
        self.seq += 1;
        self.wheel.schedule(TimerKey {
            time: at.max(self.now),
            seq: self.seq,
            id,
        });
        self.timers.insert(id, action);
        id
    }

    /// Vacates a completed task's slot and bumps its generation so any
    /// outstanding wake-up for it becomes a recognised no-op.
    fn remove_task(&mut self, index: u32) {
        self.slots[index as usize] = None;
        self.generations[index as usize] = self.generations[index as usize].wrapping_add(1);
        self.free_slots.push(index);
        self.live_tasks -= 1;
    }
}

struct SimWaker {
    task: TaskId,
    queue: Arc<Mutex<Vec<TaskId>>>,
}

impl std::task::Wake for SimWaker {
    fn wake(self: Arc<Self>) {
        self.queue.lock().unwrap().push(self.task);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.lock().unwrap().push(self.task);
    }
}

/// A handle to the simulation usable from inside simulated processes.
///
/// Cloning is cheap (reference-counted). All interactions with virtual time —
/// reading the clock, sleeping, spawning further processes, scheduling
/// callbacks — go through this handle.
#[derive(Clone)]
pub struct SimContext {
    engine: Rc<RefCell<Engine>>,
}

impl SimContext {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.borrow().now
    }

    /// Returns a future that completes after `secs` seconds of virtual time.
    pub fn sleep(&self, secs: f64) -> Sleep {
        assert!(
            secs >= 0.0 && !secs.is_nan(),
            "sleep duration must be non-negative, got {secs}"
        );
        let deadline = self.now() + secs;
        Sleep {
            ctx: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Returns a future that completes at the given absolute virtual time
    /// (immediately if `deadline` is in the past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Yields to other runnable processes once, without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { polled: false }
    }

    /// Spawns a new simulated process and returns a handle to await its result.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
            finished: false,
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut s = state2.borrow_mut();
            s.result = Some(out);
            s.finished = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        };
        let id = {
            let mut eng = self.engine.borrow_mut();
            let index = match eng.free_slots.pop() {
                Some(i) => i,
                None => {
                    eng.slots.push(None);
                    eng.generations.push(0);
                    let i = (eng.slots.len() - 1) as u32;
                    assert!(i != u32::MAX, "task slab exhausted u32 index space");
                    i
                }
            };
            let id = task_id(index, eng.generations[index as usize]);
            // The task's one waker, shared by every poll of its lifetime.
            let waker = Waker::from(Arc::new(SimWaker {
                task: id,
                queue: Arc::clone(&eng.wake_queue),
            }));
            eng.slots[index as usize] = Some(TaskSlot {
                fut: Some(Box::pin(wrapped)),
                waker,
                queued: true,
            });
            eng.ready.push_back(index);
            eng.live_tasks += 1;
            id
        };
        JoinHandle { state, task: id }
    }

    /// Schedules `callback` to run at virtual time `at` (clamped to now if in
    /// the past). Returns a [`TimerId`] that can be cancelled.
    pub fn schedule_callback<F>(&self, at: SimTime, callback: F) -> TimerId
    where
        F: FnOnce(&SimContext) + 'static,
    {
        self.engine
            .borrow_mut()
            .schedule(at, TimerAction::Callback(Box::new(callback)))
    }

    /// Cancels a previously scheduled timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    ///
    /// The timer's action is revoked immediately; its key in the wheel is
    /// reclaimed eagerly once cancelled keys outnumber live ones, so
    /// cancel-heavy workloads (timeouts, hedged requests) cannot grow the
    /// scheduler without bound.
    pub fn cancel_timer(&self, id: TimerId) {
        let mut eng = self.engine.borrow_mut();
        let eng = &mut *eng;
        if eng.timers.remove(&id).is_some() {
            eng.wheel.note_cancel();
            if eng.wheel.should_compact() {
                let timers = &eng.timers;
                eng.wheel.compact(|t| timers.contains_key(&t));
            }
        }
    }

    fn schedule_wake(&self, at: SimTime, waker: Waker) -> TimerId {
        self.engine
            .borrow_mut()
            .schedule(at, TimerAction::Wake(waker))
    }

    fn replace_waker(&self, id: TimerId, waker: Waker) {
        if let Some(action) = self.engine.borrow_mut().timers.get_mut(&id) {
            *action = TimerAction::Wake(waker);
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Handle returned by [`SimContext::spawn`]; awaiting it yields the process'
/// result.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    task: TaskId,
}

impl<T> JoinHandle<T> {
    /// The identifier of the spawned process.
    pub fn id(&self) -> TaskId {
        self.task
    }

    /// Whether the process has completed.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }

    /// Takes the result if the process has completed, without awaiting.
    pub fn try_take_result(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if s.finished {
            Poll::Ready(s.result.take().expect("JoinHandle polled after completion"))
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`SimContext::sleep`].
pub struct Sleep {
    ctx: SimContext,
    deadline: SimTime,
    timer: Option<TimerId>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.ctx.now() >= self.deadline {
            if let Some(t) = self.timer.take() {
                self.ctx.cancel_timer(t);
            }
            return Poll::Ready(());
        }
        match self.timer {
            Some(t) => self.ctx.replace_waker(t, cx.waker().clone()),
            None => {
                let t = self.ctx.schedule_wake(self.deadline, cx.waker().clone());
                self.timer = Some(t);
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // A `Sleep` dropped before its deadline (e.g. the losing side of a
        // `select2` timeout race) must not leave its timer armed: a live
        // wake-up timer would still be "work" and drag the virtual clock to
        // the abandoned deadline. Cancelled timers are skipped by the engine
        // without advancing `now`, so cancellation here is free.
        if let Some(t) = self.timer.take() {
            self.ctx.cancel_timer(t);
        }
    }
}

/// Future returned by [`SimContext::yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// A complete simulation: the virtual clock, the processes, and the run loop.
pub struct Simulation {
    engine: Rc<RefCell<Engine>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            engine: Rc::new(RefCell::new(Engine::new())),
        }
    }

    /// Returns a context handle for spawning processes and reading the clock.
    pub fn context(&self) -> SimContext {
        SimContext {
            engine: Rc::clone(&self.engine),
        }
    }

    /// Spawns a root process. Equivalent to `self.context().spawn(fut)`.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.context().spawn(fut)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.borrow().now
    }

    /// Number of processes that have been spawned and not yet completed.
    pub fn pending_tasks(&self) -> usize {
        self.engine.borrow().live_tasks
    }

    /// Runs until no more work can make progress, returning the final virtual
    /// time. Processes still pending at that point are deadlocked (typically
    /// an infinite background loop such as the periodical flusher, which is
    /// expected and harmless).
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::from_secs(f64::INFINITY))
    }

    /// Runs until no more work can make progress or the clock would pass
    /// `horizon`. Returns the final virtual time (never beyond `horizon`).
    ///
    /// # Panics
    /// Panics if the simulation livelocks: tens of millions of events fire
    /// without virtual time advancing, which indicates a model bug (e.g. a
    /// process that re-schedules work at the current instant forever). A
    /// correct model always moves the clock forward eventually.
    pub fn run_until(&self, horizon: SimTime) -> SimTime {
        const LIVELOCK_THRESHOLD: u64 = 20_000_000;
        let mut last_time = self.now();
        let mut stagnant_steps: u64 = 0;
        loop {
            self.drain_wake_queue();
            loop {
                let next = self.engine.borrow_mut().ready.pop_front();
                match next {
                    Some(task) => {
                        self.poll_task(task);
                        self.drain_wake_queue();
                    }
                    None => break,
                }
            }
            if !self.advance(horizon) {
                break;
            }
            let now = self.now();
            if now > last_time {
                last_time = now;
                stagnant_steps = 0;
            } else {
                stagnant_steps += 1;
                assert!(
                    stagnant_steps < LIVELOCK_THRESHOLD,
                    "simulation livelock: {LIVELOCK_THRESHOLD} events fired at virtual time {now} without progress"
                );
            }
        }
        self.now()
    }

    fn drain_wake_queue(&self) {
        let mut eng = self.engine.borrow_mut();
        let mut woken = std::mem::take(&mut eng.woken);
        std::mem::swap(&mut woken, &mut *eng.wake_queue.lock().unwrap());
        for &task in &woken {
            let index = task_index(task);
            // Stale wake-ups (completed task, possibly recycled slot) are
            // recognised by the generation mismatch; duplicate wake-ups by
            // the queued bit — no scan of the ready queue.
            if eng.generations.get(index as usize) == Some(&task_generation(task)) {
                if let Some(slot) = eng.slots[index as usize].as_mut() {
                    if !slot.queued {
                        slot.queued = true;
                        eng.ready.push_back(index);
                    }
                }
            }
        }
        woken.clear();
        eng.woken = woken;
    }

    fn poll_task(&self, index: u32) {
        let (mut fut, waker) = {
            let mut eng = self.engine.borrow_mut();
            let Some(slot) = eng.slots[index as usize].as_mut() else {
                return; // already completed
            };
            slot.queued = false;
            let Some(fut) = slot.fut.take() else {
                return; // re-entrant poll; cannot happen single-threaded
            };
            // The cached waker: cloning is a refcount bump, not an allocation.
            (fut, slot.waker.clone())
        };
        let mut cx = Context::from_waker(&waker);
        let done = fut.as_mut().poll(&mut cx).is_ready();
        let mut eng = self.engine.borrow_mut();
        if done {
            eng.remove_task(index);
        } else if let Some(slot) = eng.slots[index as usize].as_mut() {
            slot.fut = Some(fut);
        }
    }

    /// Advances to the next timer event strictly necessary to make progress.
    /// Returns false when there is nothing left to do (or the horizon is hit).
    fn advance(&self, horizon: SimTime) -> bool {
        let action = {
            let mut eng = self.engine.borrow_mut();
            let eng = &mut *eng;
            // Peek discards cancelled keys on the way, so the head is always
            // a live timer — a timer left in place by a horizon stop keeps
            // its original (time, seq) position.
            let timers = &eng.timers;
            let Some(key) = eng.wheel.peek(|t| timers.contains_key(&t)) else {
                return false;
            };
            if key.time > horizon {
                eng.now = eng.now.max(horizon.min(key.time));
                return false;
            }
            let key = eng
                .wheel
                .pop(|t| timers.contains_key(&t))
                .expect("peeked key is present");
            eng.now = eng.now.max(key.time);
            eng.timers
                .remove(&key.id)
                .expect("live timer has an action")
        };
        match action {
            TimerAction::Wake(waker) => waker.wake(),
            TimerAction::Callback(cb) => cb(&self.context()),
        }
        true
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Break potential Rc cycles between the engine and callbacks/tasks
        // that capture SimContext handles. The contents are moved out and
        // dropped *after* the borrow is released: dropping a task future can
        // run `Drop` impls (e.g. `Sleep` cancelling its timer) that re-enter
        // the engine.
        let (timers, wheel, slots, ready) = {
            let mut eng = self.engine.borrow_mut();
            (
                std::mem::take(&mut eng.timers),
                std::mem::take(&mut eng.wheel),
                std::mem::take(&mut eng.slots),
                std::mem::take(&mut eng.ready),
            )
        };
        drop((timers, wheel, slots, ready));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Simulation::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn(async move {
            ctx.sleep(5.0).await;
            ctx.now()
        });
        sim.run();
        assert_eq!(h.try_take_result().unwrap().as_secs(), 5.0);
        assert_eq!(sim.now().as_secs(), 5.0);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn(async move {
            ctx.sleep(0.0).await;
            ctx.now().as_secs()
        });
        sim.run();
        assert_eq!(h.try_take_result().unwrap(), 0.0);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Simulation::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(1.0).await;
            ctx.sleep(2.0).await;
            ctx.sleep(3.0).await;
        });
        let end = sim.run();
        assert!((end.as_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_processes_interleave_in_virtual_time() {
        let sim = Simulation::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 2.0), ("a", 1.0), ("c", 3.0)] {
            let ctx = sim.context();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(delay).await;
                order.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now().as_secs(), 3.0);
    }

    #[test]
    fn spawn_returns_result_via_join_handle() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let handle = sim.spawn(async move {
            ctx.sleep(1.0).await;
            42
        });
        sim.run();
        assert!(handle.is_finished());
        assert_eq!(handle.try_take_result(), Some(42));
    }

    #[test]
    fn join_handle_can_be_awaited() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let outer = sim.spawn({
            let ctx = ctx.clone();
            async move {
                let inner = ctx.spawn({
                    let ctx = ctx.clone();
                    async move {
                        ctx.sleep(4.0).await;
                        "done"
                    }
                });
                let r = inner.await;
                (r, ctx.now().as_secs())
            }
        });
        sim.run();
        assert_eq!(outer.try_take_result(), Some(("done", 4.0)));
    }

    #[test]
    fn callbacks_fire_in_time_order_then_schedule_order() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (tag, t) in [("x", 2.0), ("y", 1.0), ("z", 2.0)] {
            let log = Rc::clone(&log);
            ctx.schedule_callback(SimTime::from_secs(t), move |c| {
                log.borrow_mut().push((tag, c.now().as_secs()));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![("y", 1.0), ("x", 2.0), ("z", 2.0)]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fired = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&fired);
        let id = ctx.schedule_callback(SimTime::from_secs(1.0), move |_| f2.set(true));
        ctx.cancel_timer(id);
        sim.run();
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Simulation::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(100.0).await;
        });
        let t = sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(t.as_secs(), 10.0);
        assert_eq!(sim.pending_tasks(), 1);
        // Resuming finishes the process.
        sim.run();
        assert_eq!(sim.now().as_secs(), 100.0);
        assert_eq!(sim.pending_tasks(), 0);
    }

    #[test]
    fn yield_now_lets_other_tasks_run_at_same_time() {
        let sim = Simulation::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let ctx = sim.context();
        {
            let log = Rc::clone(&log);
            let ctx = ctx.clone();
            sim.spawn(async move {
                log.borrow_mut().push(1);
                ctx.yield_now().await;
                log.borrow_mut().push(3);
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push(2);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn infinite_background_loop_leaves_pending_task() {
        let sim = Simulation::new();
        let ctx = sim.context();
        sim.spawn(async move {
            loop {
                ctx.sleep(5.0).await;
            }
        });
        // A bounded foreground process.
        let ctx2 = sim.context();
        sim.spawn(async move { ctx2.sleep(12.0).await });
        let t = sim.run_until(SimTime::from_secs(60.0));
        assert_eq!(t.as_secs(), 60.0);
        assert_eq!(sim.pending_tasks(), 1);
    }

    #[test]
    fn high_fan_out_timer_load_fires_in_order() {
        // An open-loop traffic generator spawns one task per request: tens
        // of thousands of timers live in the wheel at once. Spawn 20k
        // sleepers with scrambled durations and verify they fire in exact
        // virtual-time order with ties broken deterministically.
        const N: u64 = 20_000;
        let sim = Simulation::new();
        let fired = Rc::new(RefCell::new(Vec::with_capacity(N as usize)));
        let peak = Rc::new(Cell::new(0u64));
        let live = Rc::new(Cell::new(0u64));
        for i in 0..N {
            let ctx = sim.context();
            let fired = Rc::clone(&fired);
            let peak = Rc::clone(&peak);
            let live = Rc::clone(&live);
            // Scrambled, collision-heavy durations in [0.1, 500].
            let delay = ((i.wrapping_mul(2654435761)) % 5000 + 1) as f64 / 10.0;
            sim.spawn(async move {
                live.set(live.get() + 1);
                peak.set(peak.get().max(live.get()));
                ctx.sleep(delay).await;
                live.set(live.get() - 1);
                fired.borrow_mut().push((ctx.now().as_secs(), i));
            });
        }
        sim.run();
        let fired = fired.borrow();
        assert_eq!(fired.len(), N as usize);
        assert_eq!(peak.get(), N, "all sleepers were concurrently in flight");
        for pair in fired.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "timers fired out of order");
            if pair[0].0 == pair[1].0 {
                // Equal deadlines fire in spawn order: determinism under
                // heavy timer collisions.
                assert!(pair[0].1 < pair[1].1);
            }
        }
        assert_eq!(sim.now().as_secs(), 500.0);
    }

    #[test]
    fn cancel_storm_keeps_scheduler_size_bounded() {
        // Regression test for the cancelled-timer leak: the old engine left
        // every cancelled TimerKey in the heap until popped, so a timeout-
        // heavy workload (each `select2` loser drops a `Sleep` and cancels
        // its timer) accumulated unbounded garbage and paid O(log garbage)
        // per push. The wheel must reclaim cancelled slots eagerly.
        let sim = Simulation::new();
        let ctx = sim.context();
        let mut peak = 0usize;
        for round in 0..100 {
            let ids: Vec<TimerId> = (0..1000)
                .map(|i| {
                    ctx.schedule_callback(
                        SimTime::from_secs(1e6 + (round * 1000 + i) as f64),
                        |_| panic!("cancelled timer must not fire"),
                    )
                })
                .collect();
            for id in ids {
                ctx.cancel_timer(id);
            }
            peak = peak.max(sim.engine.borrow().wheel.len());
        }
        // 100k timers were scheduled and cancelled; the scheduler never held
        // more than a small multiple of one round's worth.
        assert!(peak <= 4096, "scheduler grew to {peak} physical keys");
        assert_eq!(sim.engine.borrow().wheel.live(), 0);
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn timer_scheduled_after_horizon_stop_fires_in_order() {
        // run_until leaves the far timer in the wheel with the cursor primed
        // past it; a timer scheduled afterwards at an *earlier* time must
        // still fire first (the wheel's front heap absorbs it).
        let sim = Simulation::new();
        let ctx = sim.context();
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&log);
            ctx.schedule_callback(SimTime::from_secs(100.0), move |c| {
                log.borrow_mut().push(("far", c.now().as_secs()));
            });
        }
        let t = sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(t.as_secs(), 10.0);
        {
            let log = Rc::clone(&log);
            ctx.schedule_callback(SimTime::from_secs(20.0), move |c| {
                log.borrow_mut().push(("near", c.now().as_secs()));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![("near", 20.0), ("far", 100.0)]);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        fn trace() -> Vec<(u32, f64)> {
            let sim = Simulation::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10u32 {
                let ctx = sim.context();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    ctx.sleep(((i * 7) % 5) as f64).await;
                    log.borrow_mut().push((i, ctx.now().as_secs()));
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(trace(), trace());
    }
}
