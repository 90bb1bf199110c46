//! Deterministic index-ordered parallel map for replicated experiments
//! and the catalog walk, plus the process-wide thread budget that keeps
//! nested parallelism from oversubscribing the machine.
//!
//! [`run_sharded`] is the one map, on `std::thread::scope`: the caller's
//! thread and any extra workers take indices from one shared atomic
//! counter and write each result into its index's slot, so the output is
//! identical to the serial `(0..n).map(job)` regardless of thread count
//! or scheduling. Workers may carry state that is flushed once when they
//! finish; [`run_indexed`] is the stateless form the simulators use to
//! replicate runs.
//!
//! # Thread budget
//!
//! When several experiments run concurrently (the `swarm-lab`
//! orchestrator schedules whole experiments across a worker pool), each
//! one calling [`run_indexed`] with `available_parallelism()` threads
//! would oversubscribe the machine by a factor of the number of live
//! jobs. [`ThreadBudget`] is a process-wide allocator of core permits:
//! an orchestrator installs one with [`set_global_budget`], and every
//! [`run_sharded`] call then *leases* its extra worker threads from the
//! budget, degrading gracefully (down to a run on the caller's thread
//! alone) when the budget is exhausted. Because the map is deterministic
//! in its thread count, the clamping never changes results.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread tally of [`ThreadBudget::try_lease`] activity since the
/// last [`reset_lease_stats`]. Orchestrators reset before a job and
/// read with [`lease_stats`] after it to attribute budget pressure to
/// the job that ran on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStats {
    /// Number of `try_lease` calls.
    pub calls: u64,
    /// Total permits requested across calls.
    pub requested: u64,
    /// Total permits actually granted.
    pub granted: u64,
    /// Requested minus granted, summed (contention indicator).
    pub shortfall: u64,
    /// Largest single grant (peak extra threads a call obtained).
    pub max_granted: usize,
    /// Nanoseconds spent waiting on the budget lock.
    pub wait_ns: u64,
}

impl LeaseStats {
    const ZERO: LeaseStats = LeaseStats {
        calls: 0,
        requested: 0,
        granted: 0,
        shortfall: 0,
        max_granted: 0,
        wait_ns: 0,
    };
}

impl Default for LeaseStats {
    fn default() -> Self {
        LeaseStats::ZERO
    }
}

thread_local! {
    static LEASE_STATS: RefCell<LeaseStats> = const { RefCell::new(LeaseStats::ZERO) };
}

/// Zero this thread's [`LeaseStats`].
pub fn reset_lease_stats() {
    LEASE_STATS.with(|s| *s.borrow_mut() = LeaseStats::ZERO);
}

/// This thread's [`LeaseStats`] accumulated since the last reset.
pub fn lease_stats() -> LeaseStats {
    LEASE_STATS.with(|s| *s.borrow())
}

/// A process-wide budget of compute threads, shared by every
/// [`run_sharded`] call while installed via [`set_global_budget`].
///
/// Permits are handed out non-blockingly: a [`ThreadBudget::try_lease`]
/// grants *up to* the requested number of permits (possibly zero) and
/// the returned [`Lease`] gives them back on drop. The allocator never
/// grants more permits than remain, so the total number of outstanding
/// permits can never exceed the budget (proptest-checked in
/// `tests/proptests.rs`).
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
    available: Mutex<usize>,
    peak_leased: AtomicUsize,
}

impl ThreadBudget {
    /// A budget of `total` compute threads. A zero budget is legal and
    /// simply grants nothing: every [`run_sharded`] call degrades to a
    /// run on the caller's own thread.
    pub fn new(total: usize) -> Self {
        ThreadBudget {
            total,
            available: Mutex::new(total),
            peak_leased: AtomicUsize::new(0),
        }
    }

    /// The budget this allocator was created with.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Permits not currently leased.
    pub fn available(&self) -> usize {
        *self.available.lock().expect("budget lock")
    }

    /// High-water mark of simultaneously leased permits over this
    /// budget's lifetime.
    pub fn peak_leased(&self) -> usize {
        self.peak_leased.load(Ordering::Relaxed)
    }

    /// Grant up to `want` permits without blocking. The grant may be
    /// smaller than `want` — including empty — when the budget is
    /// (nearly) exhausted; callers fall back to running on the thread
    /// they already own.
    pub fn try_lease(self: &Arc<Self>, want: usize) -> Lease {
        let t0 = Instant::now();
        let mut avail = self.available.lock().expect("budget lock");
        let wait = t0.elapsed();
        let granted = want.min(*avail);
        *avail -= granted;
        let in_use = self.total - *avail;
        drop(avail);
        self.peak_leased.fetch_max(in_use, Ordering::Relaxed);
        let wait_ns = wait.as_nanos().min(u64::MAX as u128) as u64;
        LEASE_STATS.with(|s| {
            let mut s = s.borrow_mut();
            s.calls += 1;
            s.requested += want as u64;
            s.granted += granted as u64;
            s.shortfall += (want - granted) as u64;
            s.max_granted = s.max_granted.max(granted);
            s.wait_ns += wait_ns;
        });
        if swarm_obs::enabled() {
            swarm_obs::counter("stats.budget.leases").inc();
            swarm_obs::counter("stats.budget.granted").add(granted as u64);
            swarm_obs::counter("stats.budget.shortfall").add((want - granted) as u64);
            swarm_obs::counter("stats.budget.lease_wait_ns").add(wait_ns);
            swarm_obs::gauge("stats.budget.in_use").set_max(in_use as i64);
        }
        Lease {
            budget: Arc::clone(self),
            granted,
        }
    }
}

/// Permits held from a [`ThreadBudget`]; returned to the budget on drop.
#[derive(Debug)]
pub struct Lease {
    budget: Arc<ThreadBudget>,
    granted: usize,
}

impl Lease {
    /// How many permits this lease actually holds (`<=` what was asked).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut avail = self.budget.available.lock().expect("budget lock");
        *avail += self.granted;
    }
}

/// Cores this process may use: `available_parallelism()`, or 4 when it
/// cannot be read. Computed on the first call and cached, since each
/// query reads the cgroup files again.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

static GLOBAL_BUDGET: Mutex<Option<Arc<ThreadBudget>>> = Mutex::new(None);

/// Install (or, with `None`, remove) the process-wide budget consulted
/// by every [`run_sharded`] call. Returns the previously installed
/// budget so orchestrators can restore it when they finish.
pub fn set_global_budget(budget: Option<Arc<ThreadBudget>>) -> Option<Arc<ThreadBudget>> {
    std::mem::replace(
        &mut *GLOBAL_BUDGET.lock().expect("budget registry lock"),
        budget,
    )
}

/// The currently installed process-wide budget, if any.
pub fn global_budget() -> Option<Arc<ThreadBudget>> {
    GLOBAL_BUDGET.lock().expect("budget registry lock").clone()
}

/// Run `job(0..n)` on up to `threads` threads and return the results
/// in index order: [`run_sharded`] with no per-worker state.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_sharded(n, threads, |_| (), |(), i| job(i), |_, ()| ())
}

/// Run `job` over tasks `0..n` on up to `threads` workers and return
/// the results in index order, identical to the serial
/// `(0..n).map(...)` regardless of thread count or scheduling.
///
/// The caller's thread runs worker 0. While a global [`ThreadBudget`]
/// is installed that thread counts as already funded, and workers 1 and
/// up are leased from the budget, so the call may run with fewer
/// workers (down to the caller's thread alone) than asked for. Each
/// worker takes its next task from one shared counter and writes the
/// result straight into the task's slot, so a slow task holds up only
/// the worker running it.
///
/// Workers carry state: `init_shard(w)` builds it when worker `w`
/// starts, `job(&mut state, i)` may batch into it, and
/// `finish_shard(w, state)` runs when the counter passes `n`, the shard
/// barrier at which batched telemetry is flushed to the process-wide
/// registry. `finish_shard` is called exactly once per started worker.
pub fn run_sharded<T, S, IS, F, FS>(
    n: usize,
    threads: usize,
    init_shard: IS,
    job: F,
    finish_shard: FS,
) -> Vec<T>
where
    T: Send,
    IS: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    FS: Fn(usize, S) + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    let extra_wanted = threads.saturating_sub(1).min(n.saturating_sub(1));
    let lease = match global_budget() {
        Some(budget) if extra_wanted > 0 => Some(budget.try_lease(extra_wanted)),
        _ => None,
    };
    let workers = 1 + lease.as_ref().map_or(extra_wanted, Lease::granted);

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = |w: usize| {
        let mut state = init_shard(w);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = job(&mut state, i);
            slots.lock().expect("result slots")[i] = Some(result);
        }
        finish_shard(w, state);
    };
    std::thread::scope(|scope| {
        for w in 1..workers {
            let work = &work;
            scope.spawn(move || work(w));
        }
        work(0);
    });
    drop(lease);
    slots
        .into_inner()
        .expect("result slots")
        .into_iter()
        .map(|s| s.expect("every index was dispatched exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let serial = run_indexed(17, 1, |i| i * i);
        let parallel = run_indexed(17, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[4], 16);
    }

    #[test]
    fn more_threads_than_work() {
        assert_eq!(run_indexed(2, 8, |i| i), vec![0, 1]);
        assert_eq!(run_indexed(0, 3, |i| i), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        run_indexed(1, 0, |i| i);
    }

    #[test]
    fn lease_grants_at_most_available_and_returns_on_drop() {
        let budget = Arc::new(ThreadBudget::new(4));
        let a = budget.try_lease(3);
        assert_eq!(a.granted(), 3);
        assert_eq!(budget.available(), 1);
        let b = budget.try_lease(3);
        assert_eq!(b.granted(), 1, "grant clamps to what remains");
        assert_eq!(budget.available(), 0);
        let c = budget.try_lease(5);
        assert_eq!(c.granted(), 0, "exhausted budget grants nothing");
        drop(a);
        assert_eq!(budget.available(), 3);
        drop(b);
        drop(c);
        assert_eq!(budget.available(), budget.total());
    }

    #[test]
    fn budgeted_run_is_identical_and_releases_permits() {
        // Results under a tight global budget match the unbudgeted run,
        // and every leased permit is returned afterwards.
        let unbudgeted = run_indexed(23, 8, |i| 3 * i + 1);
        let budget = Arc::new(ThreadBudget::new(2));
        let prev = set_global_budget(Some(Arc::clone(&budget)));
        let budgeted = run_indexed(23, 8, |i| 3 * i + 1);
        set_global_budget(prev);
        assert_eq!(unbudgeted, budgeted);
        assert_eq!(budget.available(), budget.total());
    }

    #[test]
    fn zero_total_budget_grants_nothing() {
        // A zero budget used to be rejected outright; it is now a legal
        // "no extra threads anywhere" configuration. Leasing from it —
        // including the degenerate want = 0 — must neither underflow
        // the availability counter nor spin.
        let budget = Arc::new(ThreadBudget::new(0));
        assert_eq!(budget.total(), 0);
        assert_eq!(budget.available(), 0);
        let a = budget.try_lease(0);
        assert_eq!(a.granted(), 0);
        let b = budget.try_lease(5);
        assert_eq!(b.granted(), 0);
        drop(a);
        drop(b);
        assert_eq!(
            budget.available(),
            0,
            "returns must not inflate a zero budget"
        );
        assert_eq!(budget.peak_leased(), 0);
    }

    #[test]
    fn zero_want_lease_is_a_noop() {
        reset_lease_stats();
        let budget = Arc::new(ThreadBudget::new(3));
        let l = budget.try_lease(0);
        assert_eq!(l.granted(), 0);
        assert_eq!(budget.available(), 3);
        drop(l);
        assert_eq!(budget.available(), 3);
        let s = lease_stats();
        assert_eq!((s.calls, s.requested, s.granted, s.shortfall), (1, 0, 0, 0));
    }

    #[test]
    fn zero_budget_degrades_runs_to_inline() {
        let budget = Arc::new(ThreadBudget::new(0));
        let prev = set_global_budget(Some(Arc::clone(&budget)));
        let indexed = run_indexed(13, 8, |i| i * 2);
        let sharded = run_sharded(13, 8, |_| (), |_, i| i * 2, |_, _| ());
        set_global_budget(prev);
        assert_eq!(indexed, (0..13).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(sharded, indexed);
        assert_eq!(budget.available(), 0);
    }

    #[test]
    fn sharded_matches_serial_in_index_order() {
        let serial = run_sharded(29, 1, |_| (), |_, i| i * 7 + 1, |_, _| ());
        let parallel = run_sharded(29, 6, |_| (), |_, i| i * 7 + 1, |_, _| ());
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 22);
        assert_eq!(
            run_sharded(0, 4, |_| (), |_, i| i, |_, _| ()),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn shard_hooks_run_once_per_worker_and_see_all_tasks() {
        use std::sync::atomic::AtomicU64;
        let finished = AtomicU64::new(0);
        let task_total = AtomicU64::new(0);
        let out = run_sharded(
            40,
            4,
            |_w| 0u64,
            |acc, i| {
                *acc += i as u64;
                i
            },
            |_w, acc| {
                finished.fetch_add(1, Ordering::Relaxed);
                task_total.fetch_add(acc, Ordering::Relaxed);
            },
        );
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        // Shard-batched state, flushed at the barrier, must cover every
        // task exactly once no matter which worker ran it.
        assert_eq!(task_total.load(Ordering::Relaxed), (0..40u64).sum::<u64>());
        let f = finished.load(Ordering::Relaxed);
        assert!((1..=4).contains(&f), "one finish per started worker: {f}");
    }

    #[test]
    fn worker_zero_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let finished_on = Mutex::new(Vec::new());
        run_sharded(
            16,
            4,
            |_| (),
            |_, i| i,
            |w, _| {
                let on = std::thread::current().id();
                finished_on.lock().unwrap().push((w, on));
            },
        );
        let finished_on = finished_on.into_inner().unwrap();
        assert!(finished_on.contains(&(0, caller)));
        assert!(
            finished_on
                .iter()
                .all(|&(w, on)| (w == 0) == (on == caller)),
            "only worker 0 runs on the caller's thread: {finished_on:?}"
        );
    }

    #[test]
    fn budgeted_sharded_run_is_identical_and_releases_permits() {
        let unbudgeted = run_sharded(23, 8, |_| (), |_, i| 3 * i + 1, |_, _| ());
        let budget = Arc::new(ThreadBudget::new(2));
        let prev = set_global_budget(Some(Arc::clone(&budget)));
        let budgeted = run_sharded(23, 8, |_| (), |_, i| 3 * i + 1, |_, _| ());
        set_global_budget(prev);
        assert_eq!(unbudgeted, budgeted);
        assert_eq!(budget.available(), budget.total());
    }

    #[test]
    fn lease_stats_track_grants_and_peak() {
        reset_lease_stats();
        let budget = Arc::new(ThreadBudget::new(4));
        let a = budget.try_lease(3);
        let b = budget.try_lease(3);
        assert_eq!(budget.peak_leased(), 4, "3 then 1 more leased");
        drop(a);
        drop(b);
        assert_eq!(budget.peak_leased(), 4, "peak survives returns");
        let s = lease_stats();
        assert_eq!(s.calls, 2);
        assert_eq!(s.requested, 6);
        assert_eq!(s.granted, 4);
        assert_eq!(s.shortfall, 2);
        assert_eq!(s.max_granted, 3);
        reset_lease_stats();
        assert_eq!(lease_stats(), LeaseStats::default());
    }
}
