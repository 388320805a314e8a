//! The threaded service plane (DESIGN.md §17).
//!
//! One [`Service`] owns the real [`Store`] behind an `RwLock` plus a
//! pool of worker threads draining a **bounded** request queue:
//!
//! * `Get`/`Query` take the store's **read** lock — real concurrent
//!   readers, which is safe because both paths are `&self` on `Store`
//!   and every shared structure they touch (block map, chunk cache,
//!   metrics) has interior synchronization;
//! * `Put`/`FailNode`/`RecoverNode` take the **write** lock;
//! * a full queue rejects with [`ErrorCode::Overloaded`] instead of
//!   buffering unboundedly — per-client backpressure lives in the
//!   transports, this is the service-wide cap;
//! * [`Service::shutdown`] drains: queued and in-flight requests finish,
//!   new ones are rejected with [`ErrorCode::ShuttingDown`], workers are
//!   joined;
//! * a panic inside one request is caught at the worker loop, turned
//!   into [`ErrorCode::Internal`], and poisons nothing — malformed or
//!   adversarial requests can never kill a worker thread.
//!
//! Conservation invariant (checked by the stress suite):
//! `requests == completed + rejected_overload + rejected_draining`, with
//! `completed` counting error responses too — every accepted request
//! produces exactly one response.

use crate::proto::{code_of, ErrorCode, FrameError, Request, Response};
use fusion_core::{PutOutcome, Store, StoreError};
use fusion_obs::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// Default bound on queued (not yet executing) requests.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Accepting requests.
    Running,
    /// Draining: queued work finishes, new work is rejected.
    Draining,
    /// Workers joined.
    Stopped,
}

/// One queued request and where its response goes. The sender end is the
/// per-request completion channel: workers push exactly one response.
struct Job {
    request: Request,
    reply: mpsc::Sender<Response>,
}

struct Queue {
    jobs: VecDeque<Job>,
    state: State,
    /// Requests currently executing on workers (for drain).
    in_flight: usize,
}

struct Shared {
    store: RwLock<Store>,
    queue: Mutex<Queue>,
    /// Signals workers (new job / state change) and the drain waiter.
    cv: Condvar,
    metrics: MetricsRegistry,
    /// Per-worker stop flags: `stop_worker(i)` halts one worker without
    /// touching the rest (the "node's worker stopped" failure mode of
    /// the equivalence suite).
    worker_stop: Vec<AtomicBool>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn read_store(&self) -> std::sync::RwLockReadGuard<'_, Store> {
        self.store
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_store(&self) -> std::sync::RwLockWriteGuard<'_, Store> {
        self.store
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The Fusion store as a real multi-threaded service. See module docs.
pub struct Service {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    queue_cap: usize,
}

impl Service {
    /// Starts `workers` threads over `store` with the default queue
    /// depth.
    pub fn start(store: Store, workers: usize) -> Service {
        Service::with_queue_depth(store, workers, DEFAULT_QUEUE_DEPTH)
    }

    /// Starts `workers` threads over `store`, queueing at most
    /// `queue_depth` requests before rejecting with `Overloaded`.
    pub fn with_queue_depth(store: Store, workers: usize, queue_depth: usize) -> Service {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            store: RwLock::new(store),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                state: State::Running,
                in_flight: 0,
            }),
            cv: Condvar::new(),
            metrics: MetricsRegistry::new(),
            worker_stop: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fusion-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        Service {
            shared,
            workers: Mutex::new(handles),
            queue_cap: queue_depth.max(1),
        }
    }

    /// The service metrics registry (`service.requests`,
    /// `service.completed`, `service.rejected_overload`,
    /// `service.rejected_draining`, `service.queue_depth`,
    /// `service.request_ns`, and per-worker `workerN.requests`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.worker_stop.len()
    }

    /// Submits a request; the returned receiver yields exactly one
    /// response. Rejections (`Overloaded`, `ShuttingDown`) come back
    /// through the same channel, so callers have one wait path.
    pub fn submit(&self, request: Request) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        let m = &self.shared.metrics;
        m.counter("service.requests").inc();
        let mut q = self.shared.lock_queue();
        match q.state {
            State::Running if q.jobs.len() < self.queue_cap => {
                q.jobs.push_back(Job { request, reply: tx });
                m.gauge("service.queue_depth").set(q.jobs.len() as i64);
                drop(q);
                self.shared.cv.notify_one();
            }
            State::Running => {
                drop(q);
                m.counter("service.rejected_overload").inc();
                // Receiver outlives us; a dropped receiver is fine.
                let _ = tx.send(Response::Err {
                    code: ErrorCode::Overloaded,
                    message: format!("request queue at capacity {}", self.queue_cap),
                });
            }
            State::Draining | State::Stopped => {
                drop(q);
                m.counter("service.rejected_draining").inc();
                let _ = tx.send(Response::Err {
                    code: ErrorCode::ShuttingDown,
                    message: "service is draining".into(),
                });
            }
        }
        rx
    }

    /// Submits and waits for the response (the loopback convenience).
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).recv().unwrap_or(Response::Err {
            code: ErrorCode::Internal,
            message: "service dropped the request".into(),
        })
    }

    /// Stops worker `i` after its current request: the queue keeps
    /// feeding the remaining workers. Returns false for an unknown
    /// index. Models one node's worker dying while the service lives on.
    pub fn stop_worker(&self, i: usize) -> bool {
        match self.shared.worker_stop.get(i) {
            Some(flag) => {
                flag.store(true, Ordering::Release);
                self.shared.cv.notify_all();
                true
            }
            None => false,
        }
    }

    /// Runs `f` on the underlying store (write-locked) — for test setup
    /// and out-of-band observation, not the request path.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut Store) -> R) -> R {
        f(&mut self.shared.write_store())
    }

    /// Graceful shutdown: stop accepting, let queued and in-flight
    /// requests finish, join every worker. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.lock_queue();
            if q.state == State::Stopped {
                return;
            }
            q.state = State::Draining;
        }
        self.shared.cv.notify_all();
        // Wait for the drain: queue empty and nothing executing.
        {
            let q = self.shared.lock_queue();
            let mut q = self
                .shared
                .cv
                .wait_while(q, |q| !q.jobs.is_empty() || q.in_flight > 0)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.state = State::Stopped;
        }
        self.shared.cv.notify_all();
        let handles = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for h in handles {
            // A worker that panicked outside request handling is a bug,
            // but shutdown still must not propagate the panic.
            let _ = h.join();
        }
    }

    /// Shuts down and returns the store (for post-run verification).
    /// `Service` implements `Drop`, so the shared state is cloned out
    /// first and the drop releases the service's own reference.
    pub fn into_store(self) -> Store {
        self.shutdown();
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared
                .store
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            Err(_) => panic!("service still shared; drop transports first"),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let requests = shared.metrics.counter(&format!("worker{index}.requests"));
    loop {
        let Job { request, reply } = {
            let q = shared.lock_queue();
            let mut q = shared
                .cv
                .wait_while(q, |q| {
                    q.jobs.is_empty()
                        && q.state == State::Running
                        && !shared.worker_stop[index].load(Ordering::Acquire)
                })
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if shared.worker_stop[index].load(Ordering::Acquire) {
                return;
            }
            match q.jobs.pop_front() {
                Some(job) => {
                    q.in_flight += 1;
                    shared
                        .metrics
                        .gauge("service.queue_depth")
                        .set(q.jobs.len() as i64);
                    job
                }
                // Empty queue in Draining/Stopped: done.
                None => return,
            }
        };
        requests.inc();
        let t0 = std::time::Instant::now();
        // A panicking request (a bug or adversarial input past the typed
        // checks) must cost only that request, not the worker. The store
        // locks recover from poisoning (see Shared), so the next request
        // proceeds. The request moves into the handler, so a PUT payload
        // goes to the store without a copy under the write lock.
        let response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(shared, request)))
                .unwrap_or_else(|_| Response::Err {
                    code: ErrorCode::Internal,
                    message: "request handler panicked".into(),
                });
        shared
            .metrics
            .histogram("service.request_ns")
            .record(t0.elapsed().as_nanos() as u64);
        shared.metrics.counter("service.completed").inc();
        // The client may have given up; a closed channel is not an error.
        let _ = reply.send(response);
        {
            let mut q = shared.lock_queue();
            q.in_flight -= 1;
        }
        // Wake the drain waiter (and idle peers) if this was the last.
        shared.cv.notify_all();
    }
}

fn err_of(e: &StoreError) -> Response {
    Response::Err {
        code: code_of(e),
        message: e.to_string(),
    }
}

fn handle(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Get { key, offset, len } => match shared.read_store().get(&key, offset, len) {
            Ok(data) => Response::Get(data),
            Err(e) => err_of(&e),
        },
        Request::Query { object, sql } => match shared.read_store().query_as(&object, &sql) {
            Ok(out) => Response::Query(out.result),
            Err(e) => err_of(&e),
        },
        Request::Put { key, data } => match shared.write_store().put(&key, data) {
            Ok(report) => Response::Put(PutOutcome::from(&report)),
            Err(e) => err_of(&e),
        },
        Request::FailNode(n) => match shared.write_store().fail_node(n as usize) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
        Request::RecoverNode(n) => match shared.write_store().recover_node(n as usize) {
            Ok(_) => Response::Ok,
            Err(e) => err_of(&e),
        },
        Request::Ping => Response::Pong,
    }
}

/// Decodes a request frame body, executes it, and encodes the response
/// body — the full untrusted-input path the transports share. Malformed
/// frames come back as [`ErrorCode::BadFrame`], never a worker death.
pub fn serve_frame(service: &Service, body: &[u8]) -> Vec<u8> {
    let response = match Request::decode(body) {
        Ok(request) => service.call(request),
        Err(e) => bad_frame(&e),
    };
    response.encode()
}

/// The error response for an undecodable request frame.
pub fn bad_frame(e: &FrameError) -> Response {
    Response::Err {
        code: ErrorCode::BadFrame,
        message: e.to_string(),
    }
}
