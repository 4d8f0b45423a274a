//! The base method's own answers, used as the oracle for every iGQ answer
//! and as the "without iGQ" side of the paper's two speedups.
//!
//! The base method keeps no state between queries, so each *distinct*
//! query graph is answered once (`filter` + `verify_batch`) and timed;
//! a stream's base pass is then the sum over its queries of their
//! distinct graph's cost. On a Zipf stream that is a fraction of the
//! work of replaying every repeat.

use crate::workloads::Inputs;
use igq_graph::canon::invariant_hash;
use igq_graph::{Graph, GraphId};
use igq_methods::SubgraphMethod;
use std::collections::HashMap;
use std::time::Instant;

/// What the base method says about one distinct query graph.
#[derive(Debug, Clone, Default)]
pub struct BaseAnswer {
    pub answers: Vec<GraphId>,
    /// Candidates verified: the base method's iso tests for this query.
    pub iso_tests: u64,
    pub time_ns: u64,
}

pub struct Oracle {
    pub distinct: Vec<BaseAnswer>,
    /// Per stream, per measured query: index into `distinct`.
    index: Vec<Vec<u32>>,
}

impl Oracle {
    /// Answers every distinct measured query of `inputs` on `threads`
    /// threads.
    pub fn build(inputs: &Inputs, threads: usize) -> Oracle {
        let mut graphs: Vec<&Graph> = Vec::new();
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        let index = inputs
            .streams
            .iter()
            .map(|stream| {
                stream
                    .measured
                    .iter()
                    .map(|q| {
                        let bucket = buckets.entry(invariant_hash(q)).or_default();
                        match bucket.iter().find(|&&i| graphs[i as usize] == q) {
                            Some(&i) => i,
                            None => {
                                graphs.push(q);
                                bucket.push(graphs.len() as u32 - 1);
                                graphs.len() as u32 - 1
                            }
                        }
                    })
                    .collect()
            })
            .collect();

        let method = &*inputs.method;
        let threads = threads.clamp(1, graphs.len().max(1));
        let mut distinct = vec![BaseAnswer::default(); graphs.len()];
        std::thread::scope(|scope| {
            // Interleaved shares, so every thread gets the same mix of
            // early (hot) and late (tail) queries.
            let mut shares: Vec<Vec<(&Graph, &mut BaseAnswer)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, pair) in graphs.iter().copied().zip(distinct.iter_mut()).enumerate() {
                shares[i % threads].push(pair);
            }
            for share in shares {
                scope.spawn(move || {
                    for (q, slot) in share {
                        let t = Instant::now();
                        let filtered = method.filter(q);
                        let outcomes =
                            method.verify_batch(q, &filtered.context, &filtered.candidates);
                        let time_ns = t.elapsed().as_nanos() as u64;
                        *slot = BaseAnswer {
                            answers: filtered
                                .candidates
                                .iter()
                                .zip(&outcomes)
                                .filter(|(_, o)| o.contains)
                                .map(|(&id, _)| id)
                                .collect(),
                            iso_tests: filtered.candidates.len() as u64,
                            time_ns,
                        };
                    }
                });
            }
        });
        Oracle { distinct, index }
    }

    /// The base answer for measured query `i` of stream `stream`.
    pub fn expect(&self, stream: usize, i: usize) -> &BaseAnswer {
        &self.distinct[self.index[stream][i] as usize]
    }

    /// `(seconds, iso tests)` the base method spends on the first `n`
    /// measured queries of `stream`, repeats included.
    pub fn base_pass(&self, stream: usize, n: usize) -> (f64, u64) {
        let (ns, tests) = (0..n)
            .map(|i| self.expect(stream, i))
            .fold((0u64, 0u64), |(ns, tests), a| {
                (ns + a.time_ns, tests + a.iso_tests)
            });
        (ns as f64 / 1e9, tests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{make_inputs, Workload};

    #[test]
    fn oracle_matches_the_method_on_every_query_and_dedupes_repeats() {
        let w = Workload::by_name("aids_zipf_inproc").unwrap().smoke();
        let inputs = make_inputs(&w, 3);
        let oracle = Oracle::build(&inputs, 2);
        assert!(
            oracle.distinct.len() < w.measured,
            "a zipf stream repeats queries"
        );
        for (i, q) in inputs.streams[0].measured.iter().enumerate().step_by(17) {
            let (answers, tests) = inputs.method.query(q);
            assert_eq!(oracle.expect(0, i).answers, answers);
            assert_eq!(oracle.expect(0, i).iso_tests, tests);
        }
        let (seconds, tests) = oracle.base_pass(0, w.measured);
        assert!(seconds > 0.0 && tests > 0);
    }
}
