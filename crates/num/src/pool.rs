//! Process-lifetime parallel substrate: long-lived workers, deterministic
//! contiguous-chunk parallel-for, allocation-free steady-state dispatch.
//!
//! Every parallel stage of the solver stack — the fused (corner × ω)
//! preconditioner half-sweeps, the per-column Krylov stages, the
//! runner's direct corner fan-out — runs on **one** pool of workers
//! spawned once per process ([`global`]). The scoped-spawn
//! generation this replaces paid a fresh `std::thread::scope` (thread
//! creation, stack setup, join) per preconditioner half-sweep — hundreds
//! of spawns per robust iteration; pool dispatch costs a mutex hand-off
//! and a condvar wake instead, and performs **zero heap allocations**, so
//! it composes with the workspace discipline of the rest of the stack
//! (see `crates/fdfd/tests/zero_alloc.rs`).
//!
//! # Determinism contract
//!
//! **Worker count never changes results.** Callers decompose work into
//! *parts* (contiguous column chunks, independent jobs) whose content is
//! determined by the caller alone; the pool only decides *which thread*
//! executes each part. Every solver-stack task keeps parts data-disjoint
//! and order-independent, so any lane count — including the serial
//! fallback — is bit-identical. The `BOSON_THREADS` environment variable
//! (see [`env_threads`]) therefore only tunes throughput, never output.
//!
//! # Dispatch shape
//!
//! [`WorkPool::run`]`(parts, max_lanes, f)` executes `f(lane, part)` for
//! every `part < parts`, exactly once each. Participating lanes are the
//! caller (lane 0) plus up to `max_lanes − 1` workers; each lane pulls
//! parts off a shared atomic ticket, so uneven parts load-balance
//! dynamically while each *lane index* stays owned by exactly one OS
//! thread for the duration of the dispatch (what makes lane-indexed
//! scratch sound). The call blocks until every part has retired; panics
//! inside `f` are caught, the first is re-raised on the caller after the
//! dispatch drains — a loud failure, never a hung run.
//!
//! [`WorkPool::map_with`] is the safe form for callers outside this
//! module: inputs by value, one context per lane (a lane's private
//! scratch), results in input order.
//!
//! Dispatch is intentionally single-flight: a `run` issued while another
//! is in flight (or from inside a worker) executes inline on the calling
//! thread — by the determinism contract the results are identical, so
//! nesting degrades throughput, never correctness.
//!
//! # Examples
//!
//! ```
//! use boson_num::pool;
//!
//! // Square 8 numbers in parallel parts; any worker count gives the
//! // same result.
//! let mut data: Vec<u64> = (0..8).collect();
//! let pool = pool::global();
//! pool.chunks_with(&mut data, 2, &mut [(), (), (), ()], |_part, chunk, _ctx| {
//!     for v in chunk {
//!         *v *= *v;
//!     }
//! });
//! assert_eq!(data, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

// Sync primitives come through the facade so the `model-check` build can
// swap in `boson_check`'s scheduler-driven shims (see `crate::sync`).
use crate::sync::{spawn_named, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};

/// The published unit of one dispatch: the erased task closure plus its
/// part/lane budget. Copied into each participating lane.
#[derive(Clone, Copy)]
struct Job {
    /// Borrowed task with its lifetime erased; the dispatcher keeps the
    /// closure alive until every participant has left `run_parts`.
    task: *const (dyn Fn(usize, usize) + Sync),
    parts: usize,
    lanes: usize,
}

// SAFETY: the only non-Send field is the raw task pointer. Its pointee
// is `Sync` (concurrent calls from many lanes are its declared
// contract), it is only ever *called*, never mutated through, and the
// dispatcher keeps the borrow alive until every participant has left
// `run_parts` (see `WorkPool::run`), so shipping the pointer to worker
// threads cannot outlive or alias anything.
unsafe impl Send for Job {}

struct DispatchState {
    /// Bumped per dispatch so sleeping workers can tell a fresh job from
    /// the one they already finished.
    generation: u64,
    job: Option<Job>,
    /// First panic payload raised inside a part, re-raised by the
    /// dispatcher once the dispatch has drained.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<DispatchState>,
    /// Wakes sleeping workers when a job is published (or on shutdown).
    work_cv: Condvar,
    /// Wakes the dispatcher when the last part retires and the last
    /// worker leaves the dispatch.
    done_cv: Condvar,
    /// Next unclaimed part ticket of the current job.
    next: AtomicUsize,
    /// Parts published but not yet completed.
    remaining: AtomicUsize,
    /// Worker lanes currently inside `run_parts` (the caller is not
    /// counted — it cannot start the next dispatch early).
    active: AtomicUsize,
}

impl Inner {
    /// Locks the dispatch state; a poisoned lock is impossible to reach
    /// with work panics caught in `run_parts`, but recover anyway rather
    /// than hanging the solver on a secondary panic.
    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

thread_local! {
    /// Set on pool worker threads: a nested `run` from inside a part
    /// executes inline instead of deadlocking on its own pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A process-lifetime worker pool. Use [`global`] for the shared
/// instance; the solver stack assumes one pool per process.
pub struct WorkPool {
    inner: Arc<Inner>,
    /// Background worker threads (lanes `1..=workers`).
    workers: usize,
}

impl WorkPool {
    /// Spawns `threads − 1` background workers (the caller is always a
    /// lane). `threads == 1` spawns none: every dispatch runs inline.
    fn new(threads: usize) -> Self {
        let workers = threads.saturating_sub(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(DispatchState {
                generation: 0,
                job: None,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
        });
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            spawn_named(&format!("boson-pool-{}", w + 1), move || {
                worker_loop(&inner, w + 1)
            });
        }
        Self { inner, workers }
    }

    /// Builds a private pool with `threads` lanes (the caller plus
    /// `threads − 1` spawned workers). The solver stack always uses
    /// [`global`]; private instances exist for tests and for the model
    /// checker, which must construct a fresh pool inside every explored
    /// execution.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(threads)
    }

    /// Total lanes: the caller plus the background workers.
    pub fn lanes(&self) -> usize {
        self.workers + 1
    }

    /// Executes `f(lane, part)` for every `part < parts`, exactly once
    /// each, on up to `max_lanes` lanes (capped by [`WorkPool::lanes`]);
    /// lane 0 is the calling thread, which always participates. Blocks
    /// until every part has retired. Allocation-free on the steady path.
    ///
    /// Each lane index is owned by exactly one OS thread per dispatch, so
    /// `f` may safely address lane-indexed scratch; parts are claimed
    /// dynamically off a shared ticket, so part→lane assignment is *not*
    /// deterministic — only part content may determine results (the
    /// determinism contract above).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic that occurred inside `f`, after the
    /// dispatch has drained.
    pub fn run(&self, parts: usize, max_lanes: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if parts == 0 {
            return;
        }
        let lanes = max_lanes.min(self.lanes());
        if self.workers == 0 || lanes <= 1 || parts == 1 || IN_WORKER.with(Cell::get) {
            // Serial fallback: no workers, a degenerate shape, or a
            // nested dispatch from inside a part. Bit-identical by the
            // determinism contract.
            for part in 0..parts {
                f(0, part);
            }
            return;
        }
        // SAFETY: only the lifetime is erased — the pointee type is
        // unchanged. `run` does not return until `remaining` and
        // `active` both reach zero, i.e. until every lane has left
        // `run_parts`, so the borrow of `f` strictly outlives every
        // dereference of the erased pointer.
        let task: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Job { task, parts, lanes };
        {
            let mut st = self.inner.lock();
            if st.job.is_some() {
                // Another dispatch is in flight (concurrent runs sharing
                // the pool): run inline rather than queueing — identical
                // results, and the busy dispatch keeps its workers.
                drop(st);
                for part in 0..parts {
                    f(0, part);
                }
                return;
            }
            // Relaxed: both stores are published to workers by the
            // release of the state mutex below (the job is invisible
            // until `st.job` is set), so no extra ordering is needed.
            self.inner.next.store(0, Ordering::Relaxed);
            self.inner.remaining.store(parts, Ordering::Relaxed);
            st.generation = st.generation.wrapping_add(1);
            st.job = Some(job);
            self.inner.work_cv.notify_all();
        }
        // The caller is lane 0 and helps drain the ticket.
        run_parts(&self.inner, job, 0);
        let mut st = self.inner.lock();
        while self.inner.remaining.load(Ordering::Acquire) != 0
            || self.inner.active.load(Ordering::Acquire) != 0
        {
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let payload = st.panic.take();
        drop(st);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Deterministic contiguous-chunk parallel-for with per-part context:
    /// splits `data` into `⌈data.len() / chunk_len⌉` contiguous chunks
    /// (the last may be short) and executes `f(part, chunk, &mut
    /// ctx[part])` for each, in parallel on the pool. The chunk
    /// decomposition depends only on the arguments — never on the worker
    /// count — which is what keeps any lane count bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0` or `ctx` has fewer entries than chunks,
    /// and re-raises the first panic that occurred inside `f`.
    pub fn chunks_with<T: Send, C: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        ctx: &mut [C],
        f: impl Fn(usize, &mut [T], &mut C) + Sync,
    ) {
        assert!(chunk_len > 0, "chunks_with needs a positive chunk length");
        if data.is_empty() {
            return;
        }
        let parts = data.len().div_ceil(chunk_len);
        assert!(
            ctx.len() >= parts,
            "chunks_with: {} context slots for {parts} chunks",
            ctx.len()
        );
        if parts == 1 {
            f(0, data, &mut ctx[0]);
            return;
        }
        let dlen = data.len();
        let data = DisjointSlots::new(data);
        let ctx = DisjointSlots::new(ctx);
        self.run(parts, parts, &|_lane, part| {
            let start = part * chunk_len;
            let len = chunk_len.min(dlen - start);
            // SAFETY: chunk ranges `part * chunk_len ..` are pairwise
            // disjoint by construction, context slots are indexed by
            // `part`, and the pool executes every part exactly once —
            // so no two lanes ever touch the same element.
            unsafe { f(part, data.slice(start, len), data_ctx(&ctx, part)) }
        });
    }

    /// Ordered parallel map with one context per lane: executes
    /// `f(input, &mut ctx[lane])` for every input, one part each, on up
    /// to `ctx.len()` lanes, and returns the results in input order.
    /// Each lane's context is used by one thread at a time, so it may
    /// hold that lane's private scratch. Which lane runs which input is
    /// not deterministic: only the input may determine a result (the
    /// determinism contract above), and then any lane count gives the
    /// same results.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is non-empty and `ctx` is empty, and re-raises
    /// the first panic that occurred inside `f` after the dispatch has
    /// drained.
    pub fn map_with<T: Send, C: Send, R: Send>(
        &self,
        inputs: Vec<T>,
        ctx: &mut [C],
        f: impl Fn(T, &mut C) -> R + Sync,
    ) -> Vec<R> {
        let parts = inputs.len();
        assert!(
            parts == 0 || !ctx.is_empty(),
            "map_with needs at least one lane context"
        );
        let mut inputs: Vec<Option<T>> = inputs.into_iter().map(Some).collect();
        let mut out: Vec<Option<R>> = (0..parts).map(|_| None).collect();
        {
            let lanes = ctx.len();
            let ins = DisjointSlots::new(&mut inputs);
            let outs = DisjointSlots::new(&mut out);
            let ctx = DisjointSlots::new(ctx);
            self.run(parts, lanes, &|lane, part| {
                // SAFETY: the pool runs every part exactly once, so input
                // and output slot `part` have one user each; `run` never
                // hands out a lane index ≥ `lanes` = `ctx.len()`, and each
                // lane index is owned by exactly one OS thread per
                // dispatch, so context `lane` is never aliased.
                let (input, slot, c) = unsafe { (ins.get(part), outs.get(part), ctx.get(lane)) };
                *slot = Some(f(input.take().expect("each input is mapped once"), c));
            });
        }
        out.into_iter()
            .map(|r| r.expect("every part ran"))
            .collect()
    }
}

/// Helper keeping the unsafe context access one expression (borrowck
/// cannot see through the closure otherwise).
///
/// # Safety
///
/// `part` must be in bounds and accessed by at most one lane at a time.
// The &self -> &mut is the whole point of DisjointSlots: exclusivity
// comes from the caller's disjointness contract, not the borrow checker.
#[allow(clippy::mut_from_ref)]
#[track_caller]
unsafe fn data_ctx<'a, C>(ctx: &'a DisjointSlots<'_, C>, part: usize) -> &'a mut C {
    // SAFETY: forwarded contract — the caller guarantees `part` is in
    // bounds and lane-exclusive.
    unsafe { ctx.get(part) }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.shutdown = true;
        self.inner.work_cv.notify_all();
    }
}

/// One lane's share of a dispatch: pull part tickets until the job is
/// drained, catching panics so the dispatcher can re-raise them.
fn run_parts(inner: &Inner, job: Job, lane: usize) {
    // SAFETY: the dispatcher blocks in `WorkPool::run` until every lane
    // has left this function, so the erased closure borrow is live for
    // the whole loop (see the transmute in `run`).
    let task = unsafe { &*job.task };
    loop {
        // Relaxed: the ticket is a pure claim counter — each lane only
        // needs a unique part index, and the part data it guards was
        // published by the state-mutex release in `run`.
        let part = inner.next.fetch_add(1, Ordering::Relaxed);
        if part >= job.parts {
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| task(lane, part)));
        if let Err(payload) = outcome {
            let mut st = inner.lock();
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        if inner.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last part retired: wake the dispatcher (lock ordering with
            // its predicate check prevents a missed wakeup).
            let _guard = inner.lock();
            inner.done_cv.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner, lane: usize) {
    IN_WORKER.with(|w| w.set(true));
    let mut seen = 0u64;
    loop {
        let job = 'wait: {
            let mut st = inner.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job {
                    if st.generation != seen {
                        seen = st.generation;
                        if lane < job.lanes {
                            inner.active.fetch_add(1, Ordering::AcqRel);
                            break 'wait job;
                        }
                        // Over this dispatch's lane budget: sleep until
                        // the next generation.
                    }
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_parts(inner, job, lane);
        if inner.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = inner.lock();
            inner.done_cv.notify_all();
        }
    }
}

/// The process-wide pool, built on first use with
/// [`default_threads`] lanes and alive until process exit. Steady-state
/// solver iterations spawn **zero** threads: every parallel stage
/// dispatches here.
pub fn global() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| WorkPool::new(default_threads()))
}

/// Lane count of the process-wide pool: `BOSON_THREADS` when set (see
/// [`env_threads`]), the host's available parallelism otherwise.
pub fn default_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The `BOSON_THREADS` override: lane count for the process-wide pool
/// (and, through [`default_threads`], the default worker count of every
/// run configuration).
///
/// Worker count **never changes results** — every parallel decomposition
/// in the stack is bit-identical at any lane count — so this knob only
/// trades latency for cores. An unparseable or zero value is a loud
/// failure (panic), never a silent serial fallback: a typo'd
/// `BOSON_THREADS=O4` silently running serial would look exactly like a
/// performance regression.
///
/// # Panics
///
/// Panics if `BOSON_THREADS` is set but not an integer ≥ 1.
pub fn env_threads() -> Option<usize> {
    std::env::var("BOSON_THREADS")
        .ok()
        .map(|raw| parse_threads(&raw))
}

/// Parses a `BOSON_THREADS` value; split out of [`env_threads`] so the
/// loud-failure contract is testable without mutating the process
/// environment.
fn parse_threads(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(t) if t >= 1 => t,
        _ => panic!(
            "BOSON_THREADS must be an integer >= 1, got {raw:?} \
             (worker count never changes results -- it only sets how many \
             lanes the parallel substrate uses; unset it for the host's \
             available parallelism)"
        ),
    }
}

/// Raw per-index mutable access to a slice from multiple lanes — the
/// escape hatch parallel stages use to write disjoint columns/slots of a
/// shared buffer without partitioning it into Rust-visible sub-borrows.
///
/// Constructing one is safe (it holds the exclusive borrow); every
/// access is `unsafe` because the *caller* guarantees disjointness:
/// each index (or range) may be touched by at most one lane at a time.
///
/// In debug builds every access additionally records a claim
/// (`start..start + len`, claiming thread, call site) and panics —
/// reporting **both** claim sites — when a claim from a *different*
/// thread overlaps one already recorded, turning the contract into a
/// checked one. Claims persist for the object's lifetime (the stack
/// scopes one `DisjointSlots` per dispatch, where every slot is touched
/// at most once), so same-slot re-claims from the same thread are legal
/// and deduplicated, while cross-thread overlap — the actual data race —
/// fails loudly. Release builds carry no claim state and no cost.
pub struct DisjointSlots<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Debug-only claim log. `std::sync` deliberately, not the facade:
    /// the detector must not add model-checker branch points. The `Vec`
    /// is recycled through [`claim_log`] so steady-state dispatches
    /// allocate nothing even in debug builds.
    #[cfg(debug_assertions)]
    claims: std::sync::Mutex<Vec<Claim>>,
    _marker: PhantomData<&'a mut [T]>,
}

/// One recorded debug-mode access: which range, by which thread, from
/// which call site.
#[cfg(debug_assertions)]
struct Claim {
    start: usize,
    len: usize,
    thread: u64,
    site: &'static std::panic::Location<'static>,
}

/// Debug-only free list recycling claim logs across [`DisjointSlots`]
/// lifetimes: a dispatch's log capacity is paid once during warm-up and
/// reused by every later dispatch, so the detector honours the
/// steady-state zero-allocation contract even in debug builds (where
/// the counting-allocator suites also run).
#[cfg(debug_assertions)]
mod claim_log {
    use super::Claim;
    use std::sync::Mutex;

    static FREE: Mutex<Vec<Vec<Claim>>> = Mutex::new(Vec::new());

    pub(super) fn take() -> Vec<Claim> {
        FREE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    pub(super) fn give(mut log: Vec<Claim>) {
        log.clear();
        FREE.lock().unwrap_or_else(|e| e.into_inner()).push(log);
    }
}

/// Stable per-thread key for claim records (`std::thread::ThreadId`
/// cannot be turned into an integer on stable).
#[cfg(debug_assertions)]
fn claim_thread_id() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        // Relaxed: the counter only needs uniqueness, not ordering —
        // every thread gets a distinct value from the same RMW.
        static ID: u64 = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

// SAFETY: access is externally synchronised by the disjointness contract
// of the unsafe accessors (checked in debug builds by the claim log);
// `T: Send` because elements are mutated from whichever lane claims
// them. The raw pointer is the only reason these impls are not derived.
unsafe impl<T: Send> Sync for DisjointSlots<'_, T> {}
// SAFETY: as above — the wrapper owns an exclusive borrow and hands out
// element access only under the caller's disjointness contract.
unsafe impl<T: Send> Send for DisjointSlots<'_, T> {}

#[cfg(debug_assertions)]
impl<T> Drop for DisjointSlots<'_, T> {
    fn drop(&mut self) {
        let log = std::mem::take(self.claims.get_mut().unwrap_or_else(|e| e.into_inner()));
        claim_log::give(log);
    }
}

impl<'a, T> DisjointSlots<'a, T> {
    /// Wraps an exclusive slice borrow for lane-disjoint access.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            claims: std::sync::Mutex::new(claim_log::take()),
            _marker: PhantomData,
        }
    }

    /// Slot count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Debug-only overlap detector: panics (reporting both call sites)
    /// when `start..start + len` intersects a range claimed by another
    /// thread on this object.
    #[cfg(debug_assertions)]
    #[track_caller]
    fn claim(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let site = std::panic::Location::caller();
        let thread = claim_thread_id();
        let mut claims = self.claims.lock().unwrap_or_else(|e| e.into_inner());
        for c in claims.iter() {
            if c.thread != thread && start < c.start + c.len && c.start < start + len {
                panic!(
                    "DisjointSlots overlap: {start}..{} claimed at {site} \
                     collides with {}..{} claimed at {} by another thread",
                    start + len,
                    c.start,
                    c.start + c.len,
                    c.site,
                );
            }
        }
        // Dedup exact same-thread repeats (lane-indexed slots are
        // re-claimed once per part) so the log stays bounded.
        if !claims
            .iter()
            .any(|c| c.thread == thread && c.start == start && c.len == len)
        {
            claims.push(Claim {
                start,
                len,
                thread,
                site,
            });
        }
    }

    /// Exclusive access to slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and accessed by at most one lane at a time;
    /// no access may overlap a [`DisjointSlots::slice`] range containing
    /// `i`.
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    #[track_caller]
    pub unsafe fn get(&self, i: usize) -> &mut T {
        debug_assert!(
            i < self.len,
            "DisjointSlots::get: slot {i} out of bounds (len {})",
            self.len
        );
        #[cfg(debug_assertions)]
        self.claim(i, 1);
        // SAFETY: `i < len` puts the offset inside the wrapped
        // allocation, and the caller's disjointness contract (claim-
        // checked in debug builds) rules out an aliasing `&mut`.
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Exclusive access to the range `start..start + len`.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and disjoint from every range or slot
    /// concurrently accessed by other lanes.
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    #[track_caller]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(
            start <= self.len && len <= self.len - start,
            "DisjointSlots::slice: range {start} (+{len}) out of bounds (len {})",
            self.len
        );
        #[cfg(debug_assertions)]
        self.claim(start, len);
        // SAFETY: the range lies inside the wrapped allocation (checked
        // above in debug builds; guaranteed by the caller always), and
        // the disjointness contract rules out overlapping `&mut` slices.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A private multi-lane pool for tests (the global pool's size
    /// depends on the host/environment).
    fn pool(threads: usize) -> WorkPool {
        WorkPool::new(threads)
    }

    #[test]
    fn run_executes_every_part_exactly_once() {
        let p = pool(4);
        for parts in [1usize, 2, 3, 7, 64, 257] {
            let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
            p.run(parts, usize::MAX, &|_lane, part| {
                hits[part].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "parts = {parts}"
            );
        }
    }

    #[test]
    fn lane_indices_stay_within_budget() {
        let p = pool(8);
        let max_lane = AtomicUsize::new(0);
        p.run(64, 3, &|lane, _part| {
            max_lane.fetch_max(lane, Ordering::Relaxed);
            std::thread::yield_now();
        });
        assert!(max_lane.load(Ordering::Relaxed) < 3);
    }

    #[test]
    fn chunks_with_is_deterministic_at_any_worker_count() {
        let serial = {
            let mut data: Vec<u64> = (0..1000).collect();
            for v in &mut data {
                *v = v.wrapping_mul(*v) ^ 0x5bd1e995;
            }
            data
        };
        for threads in [1usize, 2, 8] {
            let p = pool(threads);
            let mut data: Vec<u64> = (0..1000).collect();
            let mut ctx = vec![(); 16];
            p.chunks_with(&mut data, 64, &mut ctx, |_part, chunk, _| {
                for v in chunk {
                    *v = v.wrapping_mul(*v) ^ 0x5bd1e995;
                }
            });
            assert_eq!(data, serial, "threads = {threads}");
        }
    }

    #[test]
    fn chunks_with_gives_each_part_its_own_context() {
        let p = pool(4);
        let mut data = vec![1u64; 90];
        let mut ctx = vec![0u64; 9];
        p.chunks_with(&mut data, 10, &mut ctx, |part, chunk, acc| {
            *acc += chunk.iter().sum::<u64>() + part as u64;
        });
        let expected: Vec<u64> = (0..9).map(|part| 10 + part).collect();
        assert_eq!(ctx, expected);
    }

    #[test]
    fn map_with_keeps_input_order_at_one_two_and_eight_lanes() {
        // Uneven per-input work, so parts retire out of input order.
        let work = |x: u64| (0..x % 7 * 50).fold(x, |a, i| std::hint::black_box(a ^ i));
        let inputs: Vec<u64> = (0..300).rev().collect();
        let serial: Vec<u64> = inputs.iter().map(|&x| work(x)).collect();
        for threads in [1usize, 2, 8] {
            // Lane contexts count their parts; the counts depend on the
            // schedule, the results must not.
            let mut ctx = vec![0usize; 8];
            let got = pool(threads).map_with(inputs.clone(), &mut ctx, |x, count| {
                *count += 1;
                work(x)
            });
            assert_eq!(got, serial, "threads = {threads}");
            assert_eq!(ctx.iter().sum::<usize>(), inputs.len());
        }
        assert!(pool(2)
            .map_with(Vec::<u64>::new(), &mut [(); 0], |x, _| x)
            .is_empty());
    }

    #[test]
    fn map_with_uses_each_lane_context_on_one_thread_at_a_time() {
        let p = pool(4);
        let in_use: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _round in 0..20 {
            // Each context: its lane's index and the thread that used it.
            let mut ctx: Vec<(usize, Option<std::thread::ThreadId>)> =
                (0..4).map(|lane| (lane, None)).collect();
            p.map_with((0..64u64).collect(), &mut ctx, |_, (lane, owner)| {
                let busy = in_use[*lane].fetch_add(1, Ordering::SeqCst);
                assert_eq!(busy, 0, "lane {lane}'s context used by two threads");
                let me = std::thread::current().id();
                assert_eq!(*owner.get_or_insert(me), me, "lane {lane} changed thread");
                std::thread::yield_now();
                in_use[*lane].fetch_sub(1, Ordering::SeqCst);
            });
        }
    }

    #[test]
    fn map_with_reraises_a_panic_after_the_dispatch_drains() {
        let p = pool(4);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.map_with((0..64u64).collect(), &mut [(); 4], |x, _| {
                assert_ne!(x, 13, "input 13 exploded");
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("input 13 exploded"), "{message}");
        // Every other part retired before the panic was re-raised.
        assert_eq!(ran.load(Ordering::SeqCst), 63);
        assert_eq!(p.map_with(vec![3u64], &mut [()], |x, _| x + 1), vec![4]);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let p = pool(4);
        let total = AtomicU64::new(0);
        p.run(4, usize::MAX, &|_lane, part| {
            // A dispatch from inside a part must not deadlock on the
            // (busy) pool; it runs inline.
            let inner_sum = AtomicU64::new(0);
            global().run(3, usize::MAX, &|_l, q| {
                inner_sum.fetch_add(q as u64, Ordering::Relaxed);
            });
            total.fetch_add(
                part as u64 + inner_sum.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        });
        // Outer parts contribute 0+1+2+3; each adds the inner sum 0+1+2.
        assert_eq!(total.load(Ordering::Relaxed), (1 + 2 + 3) + 4 * 3);
    }

    #[test]
    fn pool_survives_many_dispatch_generations() {
        let p = pool(3);
        let mut acc = vec![0u64; 32];
        for round in 0..200u64 {
            let slots = DisjointSlots::new(&mut acc);
            // SAFETY: each part touches only slot `part`, and parts run
            // exactly once each — accesses are disjoint across lanes.
            p.run(32, usize::MAX, &|_lane, part| unsafe {
                *slots.get(part) += round;
            });
        }
        let expected: u64 = (0..200).sum();
        assert!(acc.iter().all(|&v| v == expected));
    }

    #[test]
    #[should_panic(expected = "part 13 exploded")]
    fn part_panic_propagates_to_dispatcher() {
        let p = pool(4);
        p.run(32, usize::MAX, &|_lane, part| {
            if part == 13 {
                panic!("part 13 exploded");
            }
        });
    }

    #[test]
    fn pool_usable_after_a_panicked_dispatch() {
        let p = pool(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.run(8, usize::MAX, &|_lane, part| {
                if part == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        let count = AtomicUsize::new(0);
        p.run(8, usize::MAX, &|_lane, _part| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn serial_pool_runs_everything_on_the_caller() {
        let p = pool(1);
        let caller = std::thread::current().id();
        let ok = AtomicUsize::new(0);
        p.run(16, usize::MAX, &|lane, _part| {
            assert_eq!(lane, 0);
            assert_eq!(std::thread::current().id(), caller);
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), 1);
        assert_eq!(parse_threads(" 8 "), 8);
    }

    #[test]
    #[should_panic(expected = "BOSON_THREADS must be an integer >= 1")]
    fn parse_threads_rejects_zero_loudly() {
        parse_threads("0");
    }

    #[test]
    #[should_panic(expected = "BOSON_THREADS must be an integer >= 1")]
    fn parse_threads_rejects_garbage_loudly() {
        parse_threads("O4");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn disjoint_claims_from_distinct_threads_pass() {
        let mut data = vec![0u64; 8];
        {
            let slots = DisjointSlots::new(&mut data);
            std::thread::scope(|s| {
                let slots = &slots;
                s.spawn(move || {
                    // SAFETY: this thread touches only slots 0..4, the
                    // main thread only 4..8 — disjoint by construction.
                    unsafe {
                        *slots.get(0) = 1;
                        slots.slice(1, 3).fill(2);
                    }
                });
                // SAFETY: see above — 4..8 is disjoint from 0..4.
                unsafe {
                    *slots.get(4) = 3;
                    slots.slice(5, 3).fill(4);
                }
            });
        }
        assert_eq!(data, vec![1, 2, 2, 2, 3, 4, 4, 4]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "DisjointSlots overlap")]
    fn overlapping_claims_from_two_threads_are_detected() {
        let mut data = vec![0u64; 8];
        let slots = DisjointSlots::new(&mut data);
        std::thread::scope(|s| {
            let slots = &slots;
            s.spawn(move || {
                // SAFETY: sole access at this point; the claim (slot 2)
                // is what the main thread's range below must collide
                // with. The spawned thread is joined by the scope before
                // the colliding claim, so the accesses are temporally
                // disjoint — the detector is deliberately conservative:
                // claims persist for the object's lifetime.
                unsafe {
                    *slots.get(2) = 1;
                }
            });
        });
        // SAFETY: in-bounds; the cross-thread overlap with slot 2 is the
        // contract violation this test wants detected.
        unsafe {
            slots.slice(0, 4);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_fails_loudly_in_debug() {
        let mut data = vec![0u64; 4];
        let slots = DisjointSlots::new(&mut data);
        // SAFETY: never reached — the debug bounds check panics before
        // any raw-pointer arithmetic happens.
        unsafe {
            slots.get(4);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_fails_loudly_in_debug() {
        let mut data = vec![0u64; 4];
        let slots = DisjointSlots::new(&mut data);
        // SAFETY: never reached — the debug bounds check panics before
        // any raw-pointer arithmetic happens (including the `start + len`
        // overflow case, which the checked form rejects).
        unsafe {
            slots.slice(3, usize::MAX);
        }
    }
}
