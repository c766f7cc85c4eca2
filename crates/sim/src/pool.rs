//! A minimal scoped work-stealing thread pool (std-only).
//!
//! [`run_scoped`] executes a set of jobs on a fixed number of worker
//! threads. Each worker owns a deque; it pops from its own deque first and
//! steals from siblings when empty. Jobs receive a [`Spawner`] and may
//! enqueue further jobs mid-flight — the mechanism [`crate::run_matrix`]
//! uses to fan a workload's per-defense runs out as soon as that
//! workload's baseline finishes, without waiting for the other baselines.
//!
//! Why not one thread per job: a sweep grid is (workloads × defenses)
//! jobs of wildly different costs; stealing keeps every core busy until the
//! global queue drains, and the thread count stays bounded by the host's
//! parallelism rather than the grid size.
//!
//! [`run_scoped_watched`] adds a per-job cooperative watchdog: a monitor
//! thread flags jobs running past a timeout ([`Spawner::watchdog_tripped`])
//! so stalled jobs — the resilience sweep injects exactly such stalls — can
//! abandon the wait, and the sweep completes instead of hanging.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A unit of work. Takes a [`Spawner`] so it can enqueue follow-up jobs.
pub type Job<'env> = Box<dyn for<'p> FnOnce(&Spawner<'env, 'p>) + Send + 'env>;

/// Boxes a closure as a [`Job`], pinning its environment lifetime.
///
/// Coercing a closure to [`Job`] directly tends to make inference quantify
/// over `'env` as well as the pool lifetime, which then demands `'static`
/// captures; routing through this helper fixes `'env` to the borrows the
/// closure actually holds.
pub fn job<'env, F>(f: F) -> Job<'env>
where
    F: for<'p> FnOnce(&Spawner<'env, 'p>) + Send + 'env,
{
    Box::new(f)
}

/// Per-job watchdog configuration (see [`run_scoped_watched`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A job running longer than this is *tripped*: counted in
    /// [`PoolReport::watchdog_trips`] and visible to the job itself through
    /// [`Spawner::watchdog_tripped`], so cooperative jobs can abandon a
    /// stalled wait and finish.
    pub timeout: Duration,
    /// How often the monitor thread re-examines running jobs.
    pub poll: Duration,
}

impl WatchdogConfig {
    /// A watchdog tripping after `timeout_ms` milliseconds, polling at a
    /// quarter of that (at least every millisecond).
    pub fn after_millis(timeout_ms: u64) -> Self {
        WatchdogConfig {
            timeout: Duration::from_millis(timeout_ms),
            poll: Duration::from_millis((timeout_ms / 4).max(1)),
        }
    }
}

/// What a pool run did — job count plus watchdog accounting.
///
/// `watchdog_trips` depends on wall-clock scheduling and is **not**
/// reproducible across runs; keep it out of any bit-reproducibility
/// comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// Jobs executed (spawned jobs included, panicked jobs included).
    pub jobs_completed: usize,
    /// Jobs the watchdog flagged as running past the timeout.
    pub watchdog_trips: u64,
}

/// Watchdog state shared between workers and the monitor thread.
struct WatchState {
    /// Per-worker start of the current job, in milliseconds since `epoch`
    /// **plus one** (0 means idle, so a job starting at the epoch itself is
    /// still visible).
    started: Vec<AtomicU64>,
    /// Per-worker flag: the current job overran the timeout.
    tripped: Vec<AtomicBool>,
    trips: AtomicU64,
    epoch: Instant,
    cfg: WatchdogConfig,
}

impl WatchState {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

struct Shared<'env> {
    /// One deque per worker; workers push/pop their own and steal others'.
    deques: Vec<Mutex<VecDeque<Job<'env>>>>,
    /// Jobs enqueued or currently executing. Workers exit when it reaches 0.
    pending: AtomicUsize,
    /// Jobs finished so far (including panicked ones), for the observer.
    completed: AtomicUsize,
    /// Called with the completed-job count after each job finishes — live
    /// sweep progress for telemetry. Must be cheap and panic-free.
    observer: Option<&'env (dyn Fn(usize) + Sync)>,
    /// Parking spot for workers that found every deque empty.
    idle: Mutex<()>,
    wakeup: Condvar,
    /// First panic payload caught from a job; re-thrown by [`run_scoped`]
    /// after the remaining jobs drain.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Present when the caller asked for a watchdog.
    watch: Option<WatchState>,
}

/// Handle through which a running job submits more jobs to the pool.
pub struct Spawner<'env, 'pool> {
    shared: &'pool Shared<'env>,
    /// The worker executing the current job; spawned jobs land on its own
    /// deque (depth-first, cache-warm) and get stolen if it stays busy.
    worker: usize,
}

impl<'env> Spawner<'env, '_> {
    /// Enqueues `job` for execution before the pool shuts down.
    pub fn spawn<F>(&self, job: F)
    where
        F: for<'p> FnOnce(&Spawner<'env, 'p>) + Send + 'env,
    {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.deques[self.worker]
            .lock()
            .expect("pool deque poisoned")
            .push_back(Box::new(job));
        self.shared.wakeup.notify_one();
    }

    /// True once the watchdog has flagged the *current* job as running past
    /// the timeout. Cooperative jobs poll this inside long waits (injected
    /// stalls, external polling loops) and bail out instead of holding a
    /// worker hostage. Always false when the pool runs without a watchdog.
    pub fn watchdog_tripped(&self) -> bool {
        self.shared.watch.as_ref().is_some_and(|w| w.tripped[self.worker].load(Ordering::SeqCst))
    }
}

/// Runs `initial` jobs (plus everything they spawn) to completion on
/// `threads` workers, blocking until the queue drains.
///
/// Jobs may borrow from the caller's environment (`'env`); results are
/// returned through whatever shared slots the jobs capture.
///
/// # Panics
///
/// Panics if `threads == 0`, or re-raises the **first** panic any job hit —
/// but only after the remaining jobs have run to completion. A panicking
/// job used to leave `pending` stuck above zero, parking every worker
/// forever (and poisoning the caller's result slots); now the worker
/// catches the unwind, finishes the queue, and the payload is re-thrown
/// from the calling thread.
pub fn run_scoped<'env>(threads: usize, initial: Vec<Job<'env>>) {
    run_scoped_observed(threads, initial, None);
}

/// [`run_scoped`] with a progress observer: after every job completes
/// (spawned jobs included, panicked jobs included), `observer` is called
/// with the total number of jobs finished so far. Callers use it to stream
/// live sweep progress into a telemetry sink. The observer runs on worker
/// threads and must be `Sync`, cheap, and panic-free.
///
/// # Panics
///
/// Same contract as [`run_scoped`].
pub fn run_scoped_observed<'env>(
    threads: usize,
    initial: Vec<Job<'env>>,
    observer: Option<&'env (dyn Fn(usize) + Sync)>,
) {
    run_scoped_watched(threads, initial, observer, None);
}

/// [`run_scoped_observed`] with an optional per-job watchdog.
///
/// When `watchdog` is set, a dedicated monitor thread checks every running
/// job against [`WatchdogConfig::timeout`]; an overrunning job is counted
/// in [`PoolReport::watchdog_trips`] and its [`Spawner::watchdog_tripped`]
/// flag flips, letting a cooperative job cut a stalled wait short so the
/// sweep still drains. The watchdog cannot preempt a job that never polls
/// the flag — it detects and reports, the job cooperates.
///
/// # Panics
///
/// Same contract as [`run_scoped`].
pub fn run_scoped_watched<'env>(
    threads: usize,
    initial: Vec<Job<'env>>,
    observer: Option<&'env (dyn Fn(usize) + Sync)>,
    watchdog: Option<WatchdogConfig>,
) -> PoolReport {
    assert!(threads > 0, "pool needs at least one worker");
    let mut shared = Shared {
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(initial.len()),
        completed: AtomicUsize::new(0),
        observer,
        idle: Mutex::new(()),
        wakeup: Condvar::new(),
        panic: Mutex::new(None),
        watch: watchdog.map(|cfg| WatchState {
            started: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            tripped: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            trips: AtomicU64::new(0),
            epoch: Instant::now(),
            cfg,
        }),
    };
    // Round-robin the seed jobs so workers start without stealing.
    for (i, job) in initial.into_iter().enumerate() {
        shared.deques[i % threads].get_mut().expect("fresh mutex").push_back(job);
    }
    std::thread::scope(|scope| {
        let shared = &shared;
        for worker in 0..threads {
            scope.spawn(move || worker_loop(shared, worker));
        }
        if shared.watch.is_some() {
            scope.spawn(move || watchdog_loop(shared));
        }
    });
    let report = PoolReport {
        jobs_completed: shared.completed.load(Ordering::SeqCst),
        watchdog_trips: shared.watch.as_ref().map_or(0, |w| w.trips.load(Ordering::SeqCst)),
    };
    if let Some(payload) = shared.panic.get_mut().expect("fresh mutex").take() {
        resume_unwind(payload);
    }
    report
}

/// The monitor: wakes every [`WatchdogConfig::poll`], flags any job running
/// past the timeout (once per job — the flag resets when the job ends), and
/// exits when the queue has drained.
fn watchdog_loop(shared: &Shared<'_>) {
    // invariant: watchdog_loop is only spawned when `watch` is Some.
    let watch = shared.watch.as_ref().expect("watchdog spawned with state");
    loop {
        if shared.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let now = watch.now_ms();
        let timeout_ms = watch.cfg.timeout.as_millis() as u64;
        for (started, tripped) in watch.started.iter().zip(&watch.tripped) {
            let s = started.load(Ordering::SeqCst);
            if s > 0
                && now.saturating_sub(s - 1) > timeout_ms
                && !tripped.swap(true, Ordering::SeqCst)
            {
                watch.trips.fetch_add(1, Ordering::SeqCst);
            }
        }
        std::thread::sleep(watch.cfg.poll);
    }
}

fn worker_loop<'env>(shared: &Shared<'env>, worker: usize) {
    let n = shared.deques.len();
    loop {
        // Own deque first (LIFO locality not needed — FIFO keeps baseline
        // jobs flowing before their spawned defense jobs pile up), then
        // sweep siblings for something to steal.
        let job = (0..n)
            .map(|off| (worker + off) % n)
            .find_map(|i| shared.deques[i].lock().expect("pool deque poisoned").pop_front());
        match job {
            Some(job) => {
                let spawner = Spawner { shared, worker };
                if let Some(watch) = &shared.watch {
                    watch.tripped[worker].store(false, Ordering::SeqCst);
                    watch.started[worker].store(watch.now_ms() + 1, Ordering::SeqCst);
                }
                // Catch the unwind so `pending` is decremented no matter
                // what: otherwise one panicking job parks every other
                // worker forever waiting for a count that never drains.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(&spawner))) {
                    let mut slot = shared.panic.lock().expect("pool panic slot poisoned");
                    // Keep the first payload; later ones are usually noise
                    // from the same root cause.
                    slot.get_or_insert(payload);
                }
                if let Some(watch) = &shared.watch {
                    watch.started[worker].store(0, Ordering::SeqCst);
                    watch.tripped[worker].store(false, Ordering::SeqCst);
                }
                let done = shared.completed.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(observer) = shared.observer {
                    observer(done);
                }
                if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // Last job out: wake everyone so they observe pending == 0.
                    shared.wakeup.notify_all();
                }
            }
            None => {
                if shared.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                // A job is still in flight and may spawn more. Park briefly;
                // the timeout guards against a wakeup racing the re-check.
                let guard = shared.idle.lock().expect("pool idle lock poisoned");
                let _ = shared
                    .wakeup
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("pool idle lock poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_initial_job() {
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let jobs: Vec<Job<'_>> = (0..100)
            .map(|_| {
                job(move |_| {
                    hits_ref.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        run_scoped(4, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_can_spawn_jobs() {
        // Each seed job fans out 10 children; children run before shutdown.
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let jobs: Vec<Job<'_>> = (0..8)
            .map(|_| {
                job(move |sp| {
                    for _ in 0..10 {
                        sp.spawn(move |_| {
                            hits_ref.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        run_scoped(3, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 80);
    }

    #[test]
    fn work_spawned_on_one_worker_is_stolen() {
        // A single seed job spawns everything from one worker's deque; with
        // several workers the children still all complete (and, on any
        // multicore box, finish while the spawner's own deque drains).
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let seed: Vec<Job<'_>> = vec![job(move |sp| {
            for _ in 0..64 {
                sp.spawn(move |_| {
                    hits_ref.fetch_add(1, Ordering::SeqCst);
                });
            }
        })];
        run_scoped(4, seed);
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn single_thread_pool_completes_nested_spawns() {
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let seed: Vec<Job<'_>> = vec![job(move |sp| {
            sp.spawn(move |sp2| {
                hits_ref.fetch_add(1, Ordering::SeqCst);
                sp2.spawn(move |_| {
                    hits_ref.fetch_add(1, Ordering::SeqCst);
                });
            });
        })];
        run_scoped(1, seed);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn empty_job_list_returns_immediately() {
        run_scoped(2, Vec::new());
    }

    #[test]
    fn observer_sees_every_completion_including_spawned() {
        let max_seen = AtomicU64::new(0);
        let observer = |done: usize| {
            max_seen.fetch_max(done as u64, Ordering::SeqCst);
        };
        let jobs: Vec<Job<'_>> = (0..5)
            .map(|_| {
                job(move |sp| {
                    sp.spawn(|_| {});
                })
            })
            .collect();
        run_scoped_observed(3, jobs, Some(&observer));
        // 5 seeds + 5 children all reported.
        assert_eq!(max_seen.load(Ordering::SeqCst), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        run_scoped(0, Vec::new());
    }

    #[test]
    fn panicking_job_does_not_hang_or_starve_others() {
        // Regression: a panicking job never decremented `pending`, so every
        // other worker parked forever and run_scoped never returned. Now the
        // surviving jobs all complete and the panic is re-raised afterwards.
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let mut jobs: Vec<Job<'_>> = (0..20)
            .map(|_| {
                job(move |_| {
                    hits_ref.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        jobs.insert(10, job(|_| panic!("boom in job 10")));
        let result = catch_unwind(AssertUnwindSafe(|| run_scoped(4, jobs)));
        let payload = result.expect_err("the job panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in job 10"));
        assert_eq!(hits.load(Ordering::SeqCst), 20, "surviving jobs must all run");
    }

    #[test]
    fn first_of_many_panics_wins() {
        let jobs: Vec<Job<'_>> = vec![job(|_| panic!("first")), job(|_| panic!("second"))];
        // Single worker makes the execution order deterministic.
        let payload =
            catch_unwind(AssertUnwindSafe(|| run_scoped(1, jobs))).expect_err("must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"first"));
    }

    #[test]
    fn watchdog_trips_a_stalled_job_and_the_pool_drains() {
        // A cooperative stall: the job spins in short sleeps until the
        // watchdog flags it, then finishes — the injected worker-stall shape
        // the resilience sweep uses. Without the trip this job would hold
        // its worker for 10 seconds; the pool must return long before that.
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let mut jobs: Vec<Job<'_>> = vec![job(|sp| {
            let start = Instant::now();
            while !sp.watchdog_tripped() && start.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(sp.watchdog_tripped(), "the watchdog must cut the stall short");
        })];
        jobs.extend((0..8).map(|_| {
            job(move |_| {
                hits_ref.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let report = run_scoped_watched(2, jobs, None, Some(WatchdogConfig::after_millis(20)));
        assert_eq!(report.jobs_completed, 9);
        assert!(report.watchdog_trips >= 1);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn fast_jobs_never_trip_the_watchdog() {
        let jobs: Vec<Job<'_>> = (0..16).map(|_| job(|_| {})).collect();
        let report = run_scoped_watched(4, jobs, None, Some(WatchdogConfig::after_millis(5_000)));
        assert_eq!(report.jobs_completed, 16);
        assert_eq!(report.watchdog_trips, 0);
    }

    #[test]
    fn unwatched_pool_reports_no_trips_and_flag_stays_false() {
        let jobs: Vec<Job<'_>> = vec![job(|sp| {
            assert!(!sp.watchdog_tripped());
        })];
        let report = run_scoped_watched(1, jobs, None, None);
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.watchdog_trips, 0);
    }

    #[test]
    fn panic_in_spawned_child_propagates() {
        let hits = AtomicU64::new(0);
        let hits_ref = &hits;
        let seed: Vec<Job<'_>> = vec![job(move |sp| {
            sp.spawn(|_| panic!("child panic"));
            sp.spawn(move |_| {
                hits_ref.fetch_add(1, Ordering::SeqCst);
            });
        })];
        let payload =
            catch_unwind(AssertUnwindSafe(|| run_scoped(2, seed))).expect_err("must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"child panic"));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
