//! The workspace's one parallel runtime: a process-wide persistent
//! worker pool that runs batches of index-pure jobs.
//!
//! Sweeps (`fpk_scenarios`) and the Langevin ensemble
//! (`fpk_core::montecarlo`) both submit their work here, so a process
//! pays thread-spawn cost once, not once per call:
//!
//! * **Lifecycle** — helper threads are spawned lazily the first time a
//!   batch needs them and then park on their job channel (`mpsc::recv`
//!   blocks on a condvar). They live for the rest of the process; the
//!   pool never joins them.
//! * **Worker-owned scratch** — each helper owns a `Scratch` cache
//!   (keyed by type) that persists across batches, so the `NetArena` a
//!   sweep worker uses is allocated once per worker, not once per sweep.
//!   The calling thread participates as stripe 0 with a thread-local
//!   scratch of its own.
//! * **Determinism** — a batch is split into `threads` stripes (stripe
//!   `w` takes jobs `w, w+T, w+2T, …`), one helper per stripe, and the
//!   stripes are interleaved back into job order. Because every job is a
//!   pure function of its index, output is bit-identical for any stripe
//!   count and any pool state.
//! * **Loud failure** — worker panics are caught per job, carried back
//!   with the failing job index, and re-raised on the calling thread
//!   naming both (the job index is the cell index for sweep batches, so
//!   a 10⁵-cell sweep names the one cell that died). Helpers survive job
//!   panics and keep serving later batches.
//!
//! [`thread_count`] is the default width: `FPK_THREADS` when set,
//! otherwise the machine's available parallelism. It only ever changes
//! wall-clock time, never results.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// Worker count: the `FPK_THREADS` override when set, otherwise the
/// machine's available parallelism.
///
/// # Panics
/// Panics when `FPK_THREADS` is set to anything but a positive integer
/// (unset or empty means "no override"). A typo'd determinism override
/// must fail loudly, not silently fall back to machine parallelism.
#[must_use]
pub fn thread_count() -> usize {
    // lint: allow(env-var) — FPK_THREADS is a designated config accessor (DESIGN §3h); worker count never feeds simulation results.
    match std::env::var("FPK_THREADS") {
        Err(std::env::VarError::NotPresent) => default_parallelism(),
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("FPK_THREADS must be a positive integer, got non-UTF-8 {raw:?}")
        }
        Ok(s) if s.is_empty() => default_parallelism(),
        Ok(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!(
                "FPK_THREADS must be a positive integer, got {s:?} \
                 (unset it for machine parallelism)"
            ),
        },
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run `n_jobs` independent jobs on `threads` pool workers and return
/// their results in job order. The output is bit-identical for any
/// `threads` as long as `f` is a pure function of the index.
///
/// # Panics
/// Re-raises a panicking job on the calling thread, naming the failing
/// job index alongside the original payload.
pub fn run_indexed<T, F>(n_jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    run_indexed_with(n_jobs, threads, || (), move |(), i| f(i))
}

/// [`run_indexed`] with per-worker scratch state: every worker obtains
/// a `C` (pool workers reuse the one cached from earlier batches — this
/// is how sweep replications share one `NetArena` per worker across
/// the whole process) and threads it through all of its jobs.
/// Determinism contract: `f` must be a pure function of the *index* —
/// the scratch state may cache allocations but must not leak
/// information between jobs.
///
/// The `'static` bounds exist because pool workers outlive the call;
/// move owned copies or `Arc`s of shared inputs into the closure.
///
/// # Panics
/// See [`run_indexed`].
pub fn run_indexed_with<T, C, I, F>(n_jobs: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    C: Any + Send,
    T: Send + 'static,
    I: Fn() -> C + Send + Sync + 'static,
    F: Fn(&mut C, usize) -> T + Send + Sync + 'static,
{
    pool().run_batch(n_jobs, threads, init, f)
}

/// Per-worker scratch cache, keyed by type: the first batch that asks
/// for a `NetArena` pays for its construction, every later batch on the
/// same worker reuses it (with whatever buffer capacity earlier runs
/// grew). Distinct scratch types coexist, so alternating sweep batches
/// (`NetArena`) with custom-evaluator batches (`()`) does not thrash.
#[derive(Default)]
struct Scratch(Vec<(TypeId, Box<dyn Any + Send>)>);

impl Scratch {
    /// The cached `C`, constructed via `init` on first use.
    fn get_or_insert_with<C: Any + Send>(&mut self, init: impl FnOnce() -> C) -> &mut C {
        let tid = TypeId::of::<C>();
        let pos = match self.0.iter().position(|(t, _)| *t == tid) {
            Some(pos) => pos,
            None => {
                self.0.push((tid, Box::new(init())));
                self.0.len() - 1
            }
        };
        self.0[pos]
            .1
            .downcast_mut::<C>()
            .expect("scratch slot holds the type it was keyed by")
    }
}

/// A job that panicked: which index died, and the original payload.
struct JobPanic {
    index: usize,
    payload: Box<dyn Any + Send>,
}

/// One stripe's outcome: the collected results (type-erased `Vec<T>`),
/// or the stripe's first panic.
type StripeOutcome = Result<Box<dyn Any + Send>, JobPanic>;

/// Type-erased batch: knows how to run one stripe of itself.
trait Stripe: Send + Sync {
    fn run(&self, scratch: &mut Scratch, stripe: usize) -> StripeOutcome;
}

struct Batch<C, T, I, F> {
    n_jobs: usize,
    stripes: usize,
    init: I,
    f: F,
    _types: std::marker::PhantomData<fn() -> (C, T)>,
}

impl<C, T, I, F> Stripe for Batch<C, T, I, F>
where
    C: Any + Send,
    T: Send + 'static,
    I: Fn() -> C + Send + Sync,
    F: Fn(&mut C, usize) -> T + Send + Sync,
{
    fn run(&self, scratch: &mut Scratch, stripe: usize) -> StripeOutcome {
        let ctx = scratch.get_or_insert_with(&self.init);
        let mut out: Vec<T> = Vec::with_capacity(self.n_jobs / self.stripes + 1);
        let mut i = stripe;
        // lint: hot-path arena(out)
        while i < self.n_jobs {
            // Catch per job so the failing index travels with the
            // payload and the worker survives to serve later batches.
            // `AssertUnwindSafe`: on panic the scratch may hold
            // half-reset buffers, but every run fully re-initialises the
            // state it reads (`NetArena::reset`), so reuse stays sound.
            match catch_unwind(AssertUnwindSafe(|| (self.f)(&mut *ctx, i))) {
                Ok(v) => out.push(v),
                Err(payload) => return Err(JobPanic { index: i, payload }),
            }
            i += self.stripes;
        }
        // lint: end
        Ok(Box::new(out))
    }
}

/// A job message: run `stripe` of `batch` and report on `results`.
struct Job {
    batch: Arc<dyn Stripe>,
    stripe: usize,
    results: Sender<(usize, StripeOutcome)>,
}

/// The process-wide persistent pool (see the module docs).
struct WorkerPool {
    /// Job channels of the spawned helpers; index `w` serves stripe
    /// `w + 1` of any batch wide enough to need it.
    helpers: Mutex<Vec<Sender<Job>>>,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

thread_local! {
    /// Stripe-0 scratch of whichever thread submits batches. Persists
    /// across sweeps exactly like a helper's scratch.
    static CALLER_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());

    /// True on pool helper threads. A helper that submits a nested
    /// batch must run it inline: enqueueing stripes onto the pool could
    /// land them in its own queue, which it cannot drain while blocked
    /// waiting for them.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `op` against the calling thread's persistent scratch, or a fresh
/// one when the thread-local is already borrowed (nested batches —
/// outputs never depend on scratch state).
fn with_caller_scratch<R>(op: impl FnOnce(&mut Scratch) -> R) -> R {
    CALLER_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => op(&mut scratch),
        Err(_) => op(&mut Scratch::default()),
    })
}

/// The process-wide pool, created on first use.
fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| WorkerPool {
        helpers: Mutex::new(Vec::new()),
    })
}

impl WorkerPool {
    /// Job senders for helpers `0..n`, spawning any that do not exist
    /// yet. Helpers are never torn down; a later batch that needs fewer
    /// simply leaves the rest parked.
    fn helper_senders(&self, n: usize) -> Vec<Sender<Job>> {
        let mut helpers = self.helpers.lock().expect("pool mutex");
        while helpers.len() < n {
            let (tx, rx) = channel::<Job>();
            let id = helpers.len();
            std::thread::Builder::new()
                .name(format!("fpk-pool-{id}"))
                .spawn(move || {
                    IN_POOL_WORKER.with(|f| f.set(true));
                    let mut scratch = Scratch::default();
                    while let Ok(job) = rx.recv() {
                        let outcome = job.batch.run(&mut scratch, job.stripe);
                        // A closed result channel means the caller
                        // already panicked on another stripe's failure;
                        // drop the result and keep serving.
                        let _ = job.results.send((job.stripe, outcome));
                    }
                })
                .expect("spawn pool worker");
            helpers.push(tx);
        }
        helpers[..n].to_vec()
    }

    /// Run `n_jobs` index-pure jobs as `threads` stripes and return the
    /// results in job order. Stripe 0 runs on the calling thread (with
    /// its thread-local scratch); stripes `1..threads` run on persistent
    /// helpers. Panics if a job panicked, naming the smallest failing
    /// job index and the original payload.
    fn run_batch<C, T, I, F>(&self, n_jobs: usize, threads: usize, init: I, f: F) -> Vec<T>
    where
        C: Any + Send,
        T: Send + 'static,
        I: Fn() -> C + Send + Sync + 'static,
        F: Fn(&mut C, usize) -> T + Send + Sync + 'static,
    {
        if n_jobs == 0 {
            return Vec::new();
        }
        let stripes = threads.clamp(1, n_jobs);
        // Single-stripe batches (and nested batches on a pool helper)
        // run entirely on the calling thread: no channel traffic, no
        // helper wake-ups — just the persistent caller scratch.
        if stripes == 1 || IN_POOL_WORKER.with(std::cell::Cell::get) {
            let batch = Batch::<C, T, I, F> {
                n_jobs,
                stripes: 1,
                init,
                f,
                _types: std::marker::PhantomData,
            };
            return match with_caller_scratch(|s| batch.run(s, 0)) {
                Ok(boxed) => *boxed
                    .downcast::<Vec<T>>()
                    .expect("stripe returns the batch result type"),
                Err(p) => resume_with_index(p),
            };
        }
        let batch: Arc<dyn Stripe> = Arc::new(Batch::<C, T, I, F> {
            n_jobs,
            stripes,
            init,
            f,
            _types: std::marker::PhantomData,
        });
        let (results_tx, results_rx) = channel();
        for (w, sender) in self.helper_senders(stripes - 1).into_iter().enumerate() {
            sender
                .send(Job {
                    batch: Arc::clone(&batch),
                    stripe: w + 1,
                    results: results_tx.clone(),
                })
                .expect("pool worker hung up");
        }
        drop(results_tx);
        // The caller works stripe 0 itself while the helpers run.
        let mine = with_caller_scratch(|s| batch.run(s, 0));
        let mut outcomes: Vec<Option<StripeOutcome>> = (0..stripes).map(|_| None).collect();
        outcomes[0] = Some(mine);
        for (stripe, outcome) in results_rx {
            outcomes[stripe] = Some(outcome);
        }
        let mut stripe_vecs: Vec<std::vec::IntoIter<T>> = Vec::with_capacity(stripes);
        let mut first_panic: Option<JobPanic> = None;
        for outcome in outcomes {
            match outcome.expect("every stripe reports") {
                Ok(boxed) => stripe_vecs.push(
                    boxed
                        .downcast::<Vec<T>>()
                        .expect("stripe returns the batch result type")
                        .into_iter(),
                ),
                Err(p) => {
                    if first_panic.as_ref().is_none_or(|q| p.index < q.index) {
                        first_panic = Some(p);
                    }
                    stripe_vecs.push(Vec::new().into_iter());
                }
            }
        }
        if let Some(p) = first_panic {
            resume_with_index(p);
        }
        (0..n_jobs)
            .map(|i| {
                stripe_vecs[i % stripes]
                    .next()
                    .expect("stripe covers its indices")
            })
            .collect()
    }
}

/// Re-raise a caught job panic on the calling thread, naming the failing
/// job index alongside the original payload.
fn resume_with_index(p: JobPanic) -> ! {
    let msg = p
        .payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    panic!("parallel job {} panicked: {}", p.index, msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_indexed_orders_results() {
        for threads in [1, 2, 7] {
            let out = run_indexed(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
        // More workers than jobs clamps cleanly.
        assert_eq!(run_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn thread_count_rejects_malformed_or_zero_override() {
        // The only test in this crate that touches `FPK_THREADS`; it
        // restores any externally-set value (CI pins `FPK_THREADS=1`).
        let prev = std::env::var_os("FPK_THREADS");
        for bad in ["zero", "0", "-3", "1.5"] {
            std::env::set_var("FPK_THREADS", bad);
            let caught = catch_unwind(thread_count);
            let msg = caught
                .expect_err("malformed FPK_THREADS must panic")
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(bad), "panic must quote the bad value: {msg}");
        }
        // Empty means "no override", like unset.
        std::env::set_var("FPK_THREADS", "");
        let empty = thread_count();
        std::env::set_var("FPK_THREADS", "3");
        let three = thread_count();
        match prev {
            Some(v) => std::env::set_var("FPK_THREADS", v),
            None => std::env::remove_var("FPK_THREADS"),
        }
        assert!(empty >= 1);
        assert_eq!(three, 3);
    }

    #[test]
    fn batches_return_results_in_job_order() {
        for threads in [1, 2, 3, 8] {
            let out = pool().run_batch(13, threads, || (), |(), i| 3 * i);
            assert_eq!(out, (0..13).map(|i| 3 * i).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = pool().run_batch(0, 4, || (), |(), i| i);
        assert!(empty.is_empty());
    }

    /// A scratch type no other test uses, so cross-test pool sharing
    /// cannot perturb the init count.
    struct CountedScratch;

    #[test]
    fn worker_scratch_persists_across_batches() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let init = || {
            INITS.fetch_add(1, Ordering::SeqCst);
            CountedScratch
        };
        let run = || {
            let out: Vec<usize> =
                pool().run_batch(9, 3, init, |_scratch: &mut CountedScratch, i| i * i);
            assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
        };
        run();
        let after_first = INITS.load(Ordering::SeqCst);
        assert!(
            after_first <= 3,
            "three stripes construct at most three scratches, got {after_first}"
        );
        run();
        run();
        assert_eq!(
            INITS.load(Ordering::SeqCst),
            after_first,
            "repeat batches must reuse the cached worker scratch"
        );
    }

    #[test]
    fn job_panics_name_the_failing_index_and_payload() {
        let caught = catch_unwind(|| {
            pool().run_batch(
                20,
                4,
                || (),
                |(), i| {
                    assert!(i != 13, "cell exploded");
                    i
                },
            )
        })
        .expect_err("the panicking job must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("job 13"), "missing index: {msg}");
        assert!(msg.contains("cell exploded"), "missing payload: {msg}");
        // The pool survives the panic and serves later batches.
        let out = pool().run_batch(5, 4, || (), |(), i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn earliest_failing_index_wins() {
        // Jobs 3 and 11 both panic; the re-raise must name job 3
        // regardless of which stripe finishes first.
        for _ in 0..8 {
            let caught = catch_unwind(|| {
                pool().run_batch(
                    16,
                    4,
                    || (),
                    |(), i| {
                        assert!(i != 3 && i != 11, "boom {i}");
                        i
                    },
                )
            })
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("job 3"), "wrong index: {msg}");
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let out = pool().run_batch(
            4,
            2,
            || (),
            |(), i| {
                let inner: Vec<usize> = pool().run_batch(3, 2, || (), move |(), j| i * 10 + j);
                inner.into_iter().sum::<usize>()
            },
        );
        assert_eq!(out, vec![3, 33, 63, 93]);
    }
}
