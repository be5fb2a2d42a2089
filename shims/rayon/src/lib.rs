//! Offline stand-in for the part of `rayon` 1.x this workspace uses:
//! [`scope`] with [`Scope::spawn`], and [`current_num_threads`].
//!
//! Execution model: spawned jobs go into one queue per [`scope`] call,
//! which helper threads (scoped `std::thread`s) drain. Each call starts
//! one helper, and a helper that takes a job starts the next one, up to
//! `current_num_threads() - 1` helpers, so a scope starts at most one
//! helper more than it has jobs. The calling
//! thread runs the scope's body, then helps drain the queue. `scope`
//! returns once every spawned job has finished, and then re-raises the
//! first panic of the body or of any job, as upstream rayon does. A job
//! starts only when a thread is free — with one thread, not before the
//! body returns — so a body must never wait for a spawned job to begin.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The number of threads a [`scope`] runs its jobs on: `RAYON_NUM_THREADS`
/// when it parses to a positive number (as upstream honours it; 0 or an
/// unparsable value falls back), else the detected parallelism.
pub fn current_num_threads() -> usize {
    if let Ok(raw) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

type Job<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// A fork-join scope: jobs [spawned](Scope::spawn) into it may borrow
/// anything that outlives `'scope`, and all of them have finished when
/// [`scope`] returns.
pub struct Scope<'scope> {
    state: Mutex<State<'scope>>,
    wake: Condvar,
}

struct State<'scope> {
    jobs: VecDeque<Job<'scope>>,
    /// Helper threads still allowed to start.
    spare_threads: usize,
    body_done: bool,
    panic: Option<Box<dyn Any + Send>>,
}

impl<'scope> Scope<'scope> {
    /// Queues `body` to run on the scope's threads.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.lock().jobs.push_back(Box::new(body));
        self.wake.notify_one();
    }

    fn lock(&self) -> MutexGuard<'_, State<'scope>> {
        // Jobs and the body run outside the lock, and their panics are
        // caught, so nothing can poison it.
        self.state.lock().expect("rayon shim: scope lock poisoned")
    }

    /// Runs queued jobs until the queue is empty — and, when
    /// `until_body_done`, until the body has also returned. Taking a job
    /// starts one more helper, if one is spare.
    fn work<'s>(&'s self, threads: &'s std::thread::Scope<'s, '_>, until_body_done: bool) {
        loop {
            let (job, grow) = {
                let mut state = self.lock();
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        let grow = state.spare_threads > 0;
                        if grow {
                            state.spare_threads -= 1;
                        }
                        break (job, grow);
                    }
                    if state.body_done || !until_body_done {
                        return;
                    }
                    state = self
                        .wake
                        .wait(state)
                        .expect("rayon shim: scope lock poisoned");
                }
            };
            if grow {
                threads.spawn(move || self.work(threads, true));
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(self))) {
                self.lock().panic.get_or_insert(payload);
            }
        }
    }
}

/// Runs `op` with a [`Scope`] that jobs can be spawned into, and returns
/// its result once every spawned job has finished. A panic in `op` or in
/// a job is re-raised here, after all jobs have ended.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let helpers = current_num_threads() - 1;
    let scope = Scope {
        state: Mutex::new(State {
            jobs: VecDeque::new(),
            spare_threads: helpers.saturating_sub(1),
            body_done: false,
            panic: None,
        }),
        wake: Condvar::new(),
    };
    let result = std::thread::scope(|threads| {
        if helpers > 0 {
            threads.spawn(|| scope.work(threads, true));
        }
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        let mut state = scope.lock();
        state.body_done = true;
        let value = match result {
            Ok(value) => Some(value),
            Err(payload) => {
                state.panic.get_or_insert(payload);
                None
            }
        };
        drop(state);
        scope.wake.notify_all();
        scope.work(threads, false);
        value
    });
    let state = scope
        .state
        .into_inner()
        .expect("rayon shim: scope lock poisoned");
    match state.panic {
        Some(payload) => resume_unwind(payload),
        None => result.expect("a body that did not panic returned a value"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_spawned_job_runs_before_scope_returns() {
        let ran = AtomicUsize::new(0);
        let value = scope(|s| {
            for _ in 0..20 {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            7
        });
        assert_eq!(value, 7);
        assert_eq!(ran.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn jobs_may_spawn_more_jobs() {
        let ran = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                for _ in 0..5 {
                    s.spawn(|_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(ran.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn a_job_panic_is_re_raised_with_its_payload() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| panic!("job boom"));
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            })
        }));
        let payload = caught.expect_err("the job's panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job boom"));
        assert_eq!(ran.load(Ordering::SeqCst), 1, "the other job still ran");
    }

    #[test]
    fn a_body_panic_is_re_raised_after_the_jobs_end() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                panic!("body boom");
            })
        }));
        let payload = caught.expect_err("the body's panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"body boom"));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
