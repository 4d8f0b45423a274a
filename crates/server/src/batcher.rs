//! Server-side micro-batching: coalesce requests that arrive within a
//! small window into one [`QueryEngine::execute_batch`] fan-out.
//!
//! # Why batch at the serving edge
//!
//! The engine's batch entry point fans queries across worker threads and
//! amortizes per-call overhead (snapshot loads). Under
//! concurrent clients, requests naturally cluster in time; holding the
//! first request of a cluster for at most `window` lets the rest of the
//! cluster ride the same fan-out. The trade is explicit: up to `window`
//! of added latency on the *first* request of a batch, in exchange for
//! throughput on the rest. `window == 0` disables coalescing entirely and
//! the server calls the engine directly.
//!
//! # Mechanics
//!
//! One collector thread owns the engine calls. Connection handlers submit
//! jobs (request + reply channel) through an unbounded channel; the
//! collector blocks for the first job, then drains further jobs with
//! [`recv_timeout`](Receiver::recv_timeout) until the
//! window closes or `max_batch` jobs are in hand, executes them as one
//! batch, and answers each job through its private reply channel together
//! with the coalesced batch size. Dropping the [`Batcher`] disconnects
//! the channel; the collector drains what is queued and exits, so no
//! accepted request is ever dropped on shutdown.

use igq_core::{QueryEngine, QueryRequest, QueryResponse};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued request plus the channel its answer goes back through.
struct Job {
    request: QueryRequest,
    reply: SyncSender<(QueryResponse, u64)>,
}

/// A handle to the micro-batching collector. Submitting blocks the caller
/// until its answer is ready (the caller is a connection handler thread —
/// its client is waiting on the socket anyway).
pub struct Batcher {
    submit: Option<Sender<Job>>,
    collector: Option<JoinHandle<()>>,
    /// Fallback when the collector thread could not spawn (resource
    /// exhaustion): serve each request directly, unbatched, rather than
    /// refuse connections or panic the accept path.
    direct: Option<Arc<dyn QueryEngine>>,
}

impl Batcher {
    /// Starts the collector thread. `window` is the maximum time the first
    /// request of a batch waits for company; `max_batch` caps how many
    /// requests one engine call may carry. If the collector thread cannot
    /// spawn, the batcher degrades to direct (unbatched) serving instead
    /// of failing.
    pub fn new(engine: Arc<dyn QueryEngine>, window: Duration, max_batch: usize) -> Batcher {
        let (tx, rx) = mpsc::channel::<Job>();
        let max_batch = max_batch.max(1);
        let spawned = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("igq-batcher".into())
                .spawn(move || run_collector(&*engine, &rx, window, max_batch))
        };
        match spawned {
            Ok(collector) => Batcher {
                submit: Some(tx),
                collector: Some(collector),
                direct: None,
            },
            Err(e) => {
                eprintln!("igq-server: batcher thread failed to spawn ({e}); serving unbatched");
                Batcher {
                    submit: None,
                    collector: None,
                    direct: Some(engine),
                }
            }
        }
    }

    /// Executes one request through the coalescing window, blocking until
    /// its response is ready. Returns the response plus how many requests
    /// shared the fan-out (1 = served alone). `None` only if the collector
    /// is gone (server shutting down).
    pub fn execute(&self, request: QueryRequest) -> Option<(QueryResponse, u64)> {
        if let Some(engine) = &self.direct {
            return Some((engine.execute(&request), 1));
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.submit
            .as_ref()?
            .send(Job {
                request,
                reply: reply_tx,
            })
            .ok()?;
        reply_rx.recv().ok()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // Disconnect the submit channel; the collector drains and exits.
        drop(self.submit.take());
        if let Some(h) = self.collector.take() {
            let _ = h.join();
        }
    }
}

fn run_collector(engine: &dyn QueryEngine, rx: &Receiver<Job>, window: Duration, max_batch: usize) {
    // Block for the first job of each batch; disconnect = shutdown.
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        let close_at = Instant::now() + window;
        while jobs.len() < max_batch {
            let remaining = close_at.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match rx.recv_timeout(remaining) {
                Ok(job) => jobs.push(job),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let batched_with = jobs.len() as u64;
        let requests: Vec<QueryRequest> = jobs.iter().map(|j| j.request.clone()).collect();
        let responses = engine.execute_batch(&requests);
        debug_assert_eq!(responses.len(), jobs.len());
        for (job, response) in jobs.into_iter().zip(responses) {
            // A handler that died mid-request just drops its receiver;
            // the engine work is done either way.
            let _ = job.reply.send((response, batched_with));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_core::{IgqConfig, IgqEngine};
    use igq_graph::{graph_from, Graph, GraphStore};
    use igq_methods::{Ggsx, GgsxConfig};

    fn tiny_engine() -> Arc<dyn QueryEngine> {
        let store: Arc<GraphStore> = Arc::new(
            vec![
                graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
                graph_from(&[0, 1], &[(0, 1)]),
            ]
            .into_iter()
            .collect(),
        );
        let method = Ggsx::build(&store, GgsxConfig::default());
        Arc::new(IgqEngine::new(method, IgqConfig::default()).unwrap())
    }

    fn q() -> Graph {
        graph_from(&[0, 1], &[(0, 1)])
    }

    #[test]
    fn single_request_is_served_alone_after_window() {
        let engine = tiny_engine();
        let batcher = Batcher::new(Arc::clone(&engine), Duration::from_millis(1), 8);
        let (resp, batched_with) = batcher.execute(QueryRequest::new(q())).unwrap();
        assert_eq!(batched_with, 1);
        assert_eq!(resp.outcome.answers.len(), 2);
        // A lone request is not a coalesced batch.
        assert_eq!(engine.stats().batches_coalesced, 0);
    }

    #[test]
    fn concurrent_requests_coalesce_within_the_window() {
        let engine = tiny_engine();
        // A wide window so both submissions land in the same batch even on
        // a loaded CI machine.
        let batcher = Arc::new(Batcher::new(
            Arc::clone(&engine),
            Duration::from_millis(200),
            8,
        ));
        let mut sizes = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let b = Arc::clone(&batcher);
                    s.spawn(move || b.execute(QueryRequest::new(q())).unwrap())
                })
                .collect();
            for h in handles {
                let (resp, batched_with) = h.join().unwrap();
                assert_eq!(resp.outcome.answers.len(), 2);
                sizes.push(batched_with);
            }
        });
        assert_eq!(sizes, vec![2, 2], "both requests share one fan-out");
        assert_eq!(engine.stats().batches_coalesced, 1);
    }

    #[test]
    fn batch_cap_splits_oversized_windows() {
        let engine = tiny_engine();
        let batcher = Arc::new(Batcher::new(
            Arc::clone(&engine),
            Duration::from_millis(100),
            2,
        ));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&batcher);
                    s.spawn(move || b.execute(QueryRequest::new(q())).unwrap())
                })
                .collect();
            for h in handles {
                let (_, batched_with) = h.join().unwrap();
                assert!(batched_with <= 2, "cap respected, got {batched_with}");
            }
        });
        assert_eq!(engine.stats().requests_served, 4);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let engine = tiny_engine();
        let batcher = Batcher::new(engine, Duration::from_millis(1), 8);
        let (resp, _) = batcher.execute(QueryRequest::new(q())).unwrap();
        assert_eq!(resp.outcome.answers.len(), 2);
        drop(batcher); // must not hang
    }
}
