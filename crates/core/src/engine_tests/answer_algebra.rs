//! The answer algebra and the hit credit against the two functions
//! [`prune_and_credit`] replaced, kept here verbatim as the oracle:
//! `prune` (formulas (3)–(5) over the sorted union of the known answers)
//! and `credit_hits` (each hit's intersection or difference recomputed,
//! then one cost sum per hit). Also the life of a resident's exact-hit
//! credit memo and the heap its answer bitset adds.

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::config::PersistenceConfig;
    use crate::policy::ReplacementPolicy;
    use crate::{GraphMeta, MemStore, SupergraphQueries};
    use igq_graph::{graph_from, GraphStore};
    use igq_methods::{
        intersect_into, intersect_sorted, subtract_into, subtract_sorted, Ggsx, GgsxConfig,
        NaiveMethod,
    };

    /// The formula (3)–(5) pass `prune_and_credit` replaced.
    fn prune<D: QueryDirection>(
        cache: &QueryCache,
        cs: &[GraphId],
        known_slots: &[usize],
        bound_slots: &[usize],
        o: &mut QueryOutcome,
    ) -> (Vec<GraphId>, Vec<GraphId>) {
        let mut known_answers: Vec<GraphId> = Vec::new();
        for &s in known_slots {
            known_answers.extend_from_slice(&cache.entry(s).answers);
        }
        known_answers.sort_unstable();
        known_answers.dedup();
        let mut known_in_cs = Vec::new();
        intersect_into(cs, &known_answers, &mut known_in_cs);
        let mut pruned = Vec::new();
        let mut spare = Vec::new();
        subtract_into(cs, &known_answers, &mut pruned);
        let known_pruned = cs.len() - pruned.len();

        let before_bound = pruned.len();
        for &s in bound_slots {
            intersect_into(&pruned, &cache.entry(s).answers, &mut spare);
            std::mem::swap(&mut pruned, &mut spare);
            if pruned.is_empty() {
                break;
            }
        }
        let bound_pruned = before_bound - pruned.len();
        if D::KNOWN_IS_ISUB {
            o.pruned_by_isub = known_pruned;
            o.pruned_by_isuper = bound_pruned;
        } else {
            o.pruned_by_isuper = known_pruned;
            o.pruned_by_isub = bound_pruned;
        }
        o.candidates_after = pruned.len();
        (pruned, known_in_cs)
    }

    /// The metadata credit `prune_and_credit` replaced; `cost_of` is the
    /// engine's former per-id cost sum.
    fn credit_hits(
        cache: &mut QueryCache,
        cost_of: impl Fn(&[GraphId]) -> LogValue,
        cs: &[GraphId],
        known_slots: &[usize],
        bound_slots: &[usize],
        bonus: Option<usize>,
    ) {
        for &s in known_slots {
            let prunes = intersect_sorted(cs, &cache.entry(s).answers);
            let cost = cost_of(&prunes);
            cache
                .entry_mut(s)
                .meta
                .record_hit(prunes.len() as u64, cost);
        }
        for &s in bound_slots {
            let prunes = subtract_sorted(cs, &cache.entry(s).answers);
            let cost = cost_of(&prunes);
            cache
                .entry_mut(s)
                .meta
                .record_hit(prunes.len() as u64, cost);
        }
        if let Some(slot) = bonus {
            let credit = cost_of(cs);
            cache
                .entry_mut(slot)
                .meta
                .record_hit(cs.len() as u64, credit);
        }
    }

    /// The former cost sum: one direct evaluation per id, added in order.
    fn direct_cost<D: QueryDirection>(
        labels: usize,
        n: usize,
        vertex_counts: &[u32],
        ids: &[GraphId],
    ) -> LogValue {
        ids.iter().fold(LogValue::ZERO, |total, id| {
            total.add(D::cost_ln(labels, n, vertex_counts[id.index()] as usize))
        })
    }

    /// splitmix64: a seeded stream for the generated cases.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }

        /// Ids of `0..graphs` kept with probability `percent`, plus the
        /// bitset word edges and the last graph with probability `edges`.
        fn ids(&mut self, graphs: usize, percent: u64, edges: u64) -> Vec<GraphId> {
            let mut out: Vec<usize> = (0..graphs).filter(|_| self.chance(percent)).collect();
            for edge in [63, 64, 65, 127, 128, graphs - 1] {
                if edge < graphs && self.chance(edges) {
                    out.push(edge);
                }
            }
            out.sort_unstable();
            out.dedup();
            out.into_iter().map(GraphId::from_index).collect()
        }

        /// A random selection of `slots`, in random order.
        fn slots(&mut self, slots: usize, percent: u64) -> Vec<usize> {
            let mut keyed = Vec::new();
            for s in 0..slots {
                if self.chance(percent) {
                    keyed.push((self.next(), s));
                }
            }
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, s)| s).collect()
        }
    }

    /// A resident answer set of one of the shapes the algebra must handle.
    fn answers(rng: &mut Stream, graphs: usize) -> Vec<GraphId> {
        let mut a = match rng.below(6) {
            0 => Vec::new(),
            1 => rng.ids(graphs, 3, 50),
            2 => rng.ids(graphs, 30, 50),
            3 => rng.ids(graphs, 90, 50),
            4 => (0..graphs).map(GraphId::from_index).collect(),
            _ => rng.ids(graphs, 0, 100),
        };
        // An id past the dataset matches no candidate (persisted answers
        // are not range-checked).
        if rng.chance(5) {
            a.push(GraphId::from_index(graphs + 3));
        }
        a
    }

    /// A candidate set: empty, inside or outside one resident's answers,
    /// small against dense answers, or random.
    fn candidates(rng: &mut Stream, graphs: usize, cache: &QueryCache) -> Vec<GraphId> {
        let slot = rng.below(cache.slot_count());
        let a = &cache.entry(slot).answers;
        let in_range = |id: &GraphId| id.index() < graphs;
        match rng.below(6) {
            0 => Vec::new(),
            1 => a
                .iter()
                .copied()
                .filter(in_range)
                .filter(|_| rng.chance(60))
                .collect(),
            2 => subtract_sorted(&rng.ids(graphs, 40, 50), a),
            3 => rng.ids(graphs, 2, 80),
            _ => {
                let percent = [10, 50, 95][rng.below(3)];
                rng.ids(graphs, percent, 50)
            }
        }
    }

    fn same_meta(got: &GraphMeta, want: &GraphMeta) -> bool {
        (got.hits, got.queries_seen, got.removed, got.last_hit_at)
            == (want.hits, want.queries_seen, want.removed, want.last_hit_at)
            && got.cost_alleviated.ln().to_bits() == want.cost_alleviated.ln().to_bits()
    }

    /// Runs rounds of random hits through both implementations, on two
    /// copies of one random cache, and compares everything they produce.
    fn oracle_case<D: QueryDirection>(seed: u64) {
        let mut rng = Stream(seed);
        let graphs = [1, 2, 63, 64, 65, 127, 128, 129, 200, 700][rng.below(10)];
        let vertex_counts: Vec<u32> = (0..graphs).map(|_| 1 + rng.below(30) as u32).collect();
        let labels = 1 + rng.below(5);
        let residents = 1 + rng.below(10);
        let mut cache = QueryCache::new(residents);
        cache.apply_window(
            (0..residents as u32)
                .map(|i| WindowEntry {
                    graph: Arc::new(graph_from(&[i], &[])),
                    answers: answers(&mut rng, graphs),
                    signature: None,
                    code: None,
                })
                .collect(),
        );
        let mut oracle = cache.clone();
        for round in 0..6 {
            let cs = candidates(&mut rng, graphs, &cache);
            let known = rng.slots(residents, 30);
            let bound = rng.slots(residents, 30);
            let bonus = rng.chance(20).then(|| rng.below(residents));
            let n = 1 + rng.below(12);
            let what = format!(
                "seed {seed} round {round}: graphs {graphs}, |CS| {}, known {known:?}, \
                 bound {bound:?}, bonus {bonus:?}",
                cs.len()
            );

            let mut costs = CostRow {
                cost_ln: D::cost_ln,
                labels,
                n,
                vertex_counts: &vertex_counts,
                cells: Vec::new(),
            };
            let mut got_o = QueryOutcome::default();
            let got =
                prune_and_credit(&mut cache, &mut costs, graphs, &cs, (&known, &bound), bonus)
                    .report::<D>(&mut got_o);

            let mut want_o = QueryOutcome::default();
            let want = prune::<D>(&oracle, &cs, &known, &bound, &mut want_o);
            let cost_of = |ids: &[GraphId]| direct_cost::<D>(labels, n, &vertex_counts, ids);
            credit_hits(&mut oracle, cost_of, &cs, &known, &bound, bonus);

            assert_eq!(got, want, "survivors and known_in_cs, {what}");
            assert_eq!(
                (
                    got_o.pruned_by_isub,
                    got_o.pruned_by_isuper,
                    got_o.candidates_after
                ),
                (
                    want_o.pruned_by_isub,
                    want_o.pruned_by_isuper,
                    want_o.candidates_after
                ),
                "{what}"
            );
            for (slot, e) in cache.iter() {
                let want = &oracle.entry(slot).meta;
                assert!(
                    same_meta(&e.meta, want),
                    "slot {slot}: {:?} != {want:?}, {what}",
                    e.meta
                );
            }
            // Between rounds every resident sees one more query.
            cache.tick_all();
            oracle.tick_all();
        }
    }

    #[test]
    fn matches_the_replaced_prune_and_credit() {
        for seed in 0..400 {
            oracle_case::<SubgraphQueries<NaiveMethod>>(seed);
            oracle_case::<SupergraphQueries>(seed);
        }
    }

    #[test]
    fn cost_row_agrees_with_direct() {
        let vertex_counts = [4, 300, 4, 2, 0];
        for n in [0, 2, 8] {
            let mut row = CostRow {
                cost_ln: SubgraphQueries::<NaiveMethod>::cost_ln,
                labels: 10,
                n,
                vertex_counts: &vertex_counts,
                cells: Vec::new(),
            };
            // Each id twice: computed, then read from its cell.
            for id in (0..5).chain(0..5).map(GraphId::from_index) {
                let direct = igq_iso::iso_cost_ln(n, vertex_counts[id.index()] as usize, 10);
                assert_eq!(row.cost(id).ln().to_bits(), direct.ln().to_bits());
            }
        }
    }

    #[test]
    fn bound_hits_count_their_bitsets_in_the_heap() {
        let graphs = 130;
        let mut cache = QueryCache::new(3);
        cache.apply_window(
            (0..3u32)
                .map(|i| WindowEntry {
                    graph: Arc::new(graph_from(&[i], &[])),
                    answers: (i..graphs).step_by(2).map(GraphId::new).collect(),
                    signature: None,
                    code: None,
                })
                .collect(),
        );
        let vertex_counts = vec![5; graphs as usize];
        let mut costs = CostRow {
            cost_ln: SubgraphQueries::<NaiveMethod>::cost_ln,
            labels: 3,
            n: 2,
            vertex_counts: &vertex_counts,
            cells: Vec::new(),
        };
        let cs: Vec<GraphId> = (0..graphs).step_by(3).map(GraphId::new).collect();
        let before = cache.heap_size_bytes();
        let bitset = (graphs as usize).div_ceil(64) * std::mem::size_of::<u64>();
        prune_and_credit(
            &mut cache,
            &mut costs,
            graphs as usize,
            &cs,
            (&[], &[0, 2]),
            None,
        );
        assert_eq!(cache.heap_size_bytes(), before + 2 * bitset as u64);
        // A known hit builds no bitset, and a built one is reused.
        prune_and_credit(
            &mut cache,
            &mut costs,
            graphs as usize,
            &cs,
            (&[1], &[2]),
            None,
        );
        assert_eq!(cache.heap_size_bytes(), before + 2 * bitset as u64);
        assert_eq!(
            cache
                .iter()
                .map(|(_, e)| e.memos_built().1)
                .collect::<Vec<_>>(),
            [true, false, true]
        );
    }

    /// 150 small graphs over four labels: answer sets span several bitset
    /// words.
    fn dataset() -> Arc<GraphStore> {
        Arc::new(
            (0..150u32)
                .map(|i| {
                    let len = 3 + i % 5;
                    let labels: Vec<u32> = (0..len).map(|v| (i * 7 + v * 3) % 4).collect();
                    let mut edges: Vec<(u32, u32)> = (1..len).map(|v| (v - 1, v)).collect();
                    if i % 3 == 0 {
                        edges.push((0, len - 1));
                    }
                    graph_from(&labels, &edges)
                })
                .collect(),
        )
    }

    /// Distinct one- and two-edge queries over the dataset's labels.
    fn queries() -> Vec<Graph> {
        let mut out = Vec::new();
        for a in 0..4 {
            for b in a..4 {
                out.push(graph_from(&[a, b], &[(0, 1)]));
                out.push(graph_from(&[a, b, a], &[(0, 1), (1, 2)]));
            }
        }
        out
    }

    /// FIFO replacement, so a flip evicts the oldest resident whatever its
    /// credit.
    fn config() -> IgqConfig {
        IgqConfig {
            cache_capacity: 4,
            window: 2,
            policy: ReplacementPolicy::Fifo,
            persistence: PersistenceConfig::manual(),
            ..Default::default()
        }
    }

    fn open(s: &Arc<GraphStore>, mem: &Arc<MemStore>) -> IgqEngine<Ggsx> {
        let method = Ggsx::build(s, GgsxConfig::default());
        IgqEngine::open(
            method,
            config(),
            Arc::clone(mem) as Arc<dyn crate::CacheStore>,
        )
        .expect("open")
    }

    /// The exact credit of `slot`'s resident, summed afresh over its answers.
    fn fresh_credit(e: &IgqEngine<Ggsx>, slot: usize) -> LogValue {
        let st = e.lock_read();
        let entry = st.cache.entry(slot);
        let store = SubgraphQueries::<Ggsx>::store(&e.method);
        entry.answers.iter().fold(LogValue::ZERO, |total, &id| {
            total.add(SubgraphQueries::<Ggsx>::cost_ln(
                e.identity.labels,
                entry.graph.vertex_count(),
                store.get(id).vertex_count(),
            ))
        })
    }

    /// `slot`'s memoized exact credit, which must have been built already.
    fn memo(e: &IgqEngine<Ggsx>, slot: usize) -> LogValue {
        e.lock_read()
            .cache
            .entry(slot)
            .exact_credit(|_| panic!("slot {slot}: exact credit not memoized"))
    }

    /// Every resident: no memo survives a restore, and an exact hit builds
    /// one equal to a fresh sum.
    fn restored_memos_are_rebuilt(e: &IgqEngine<Ggsx>) {
        let residents: Vec<(usize, Graph)> = {
            let st = e.lock_read();
            st.cache
                .iter()
                .map(|(slot, c)| {
                    assert_eq!(c.memos_built(), (false, false), "slot {slot}");
                    (slot, c.graph.as_ref().clone())
                })
                .collect()
        };
        assert!(!residents.is_empty());
        for (slot, g) in residents {
            assert_eq!(e.query(&g).resolution, Resolution::ExactHit);
            assert_eq!(
                memo(e, slot).ln().to_bits(),
                fresh_credit(e, slot).ln().to_bits()
            );
        }
    }

    #[test]
    fn exact_credit_memo_lives_and_dies_with_its_slot() {
        let s = dataset();
        let mem = Arc::new(MemStore::new());
        let primary = open(&s, &mem);
        let qs = queries();
        // The edge 0–3 is in most of the dataset.
        let q = &qs[6];
        let _ = primary.query(q);
        let _ = primary.query(&qs[0]);
        let slot_of = |e: &IgqEngine<Ggsx>, g: &Graph| {
            let code = canonical_code(g).expect("small graphs have codes");
            e.lock_read().cache.slot_with_code(&code)
        };
        let slot = slot_of(&primary, q).expect("admitted by the flip");
        let (before, answers) = {
            let st = primary.lock_read();
            let entry = st.cache.entry(slot);
            assert!(entry.answers.len() > 64, "answers span bitset words");
            assert!(!entry.memos_built().0);
            (entry.meta, entry.answers.len() as u64)
        };

        // k exact hits add k ticks and k credits of the one memoized value.
        for _ in 0..3 {
            assert_eq!(primary.query(q).resolution, Resolution::ExactHit);
        }
        let credit = memo(&primary, slot);
        assert_eq!(
            credit.ln().to_bits(),
            fresh_credit(&primary, slot).ln().to_bits()
        );
        let mut want = before;
        for _ in 0..3 {
            want.tick();
            want.record_hit(answers, credit);
        }
        let got = primary.lock_read().cache.entry(slot).meta;
        assert!(same_meta(&got, &want), "{got:?} != {want:?}");

        // FIFO flips evict the resident and hand its slot to a newcomer,
        // which starts without a memo.
        let reused = qs[1..].iter().any(|g| {
            let _ = primary.query(g);
            slot_of(&primary, q) != Some(slot) && primary.lock_read().cache.get(slot).is_some()
        });
        assert!(reused, "the slot is reused");
        let occupant = {
            let st = primary.lock_read();
            let entry = st.cache.entry(slot);
            assert!(!entry.memos_built().0, "a reused slot starts afresh");
            entry.graph.as_ref().clone()
        };
        assert_eq!(primary.query(&occupant).resolution, Resolution::ExactHit);
        assert_eq!(
            memo(&primary, slot).ln().to_bits(),
            fresh_credit(&primary, slot).ln().to_bits()
        );

        // Restores start every resident afresh: `Engine::open`, a follower
        // opened from a snapshot, and one re-bootstrapped in place.
        primary.flush_window();
        primary.checkpoint().expect("checkpoint");
        let reopened = open(&s, &mem);
        restored_memos_are_rebuilt(&reopened);

        let snapshot = |e: &IgqEngine<Ggsx>| match e.subscribe_replication(None) {
            Subscription::Snapshot { checkpoint, .. } => checkpoint,
            Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
        };
        let method = Ggsx::build(&s, GgsxConfig::default());
        let follower =
            IgqEngine::open_follower(method, config(), &snapshot(&reopened)).expect("follower");
        restored_memos_are_rebuilt(&follower);
        follower
            .install_snapshot(&snapshot(&reopened))
            .expect("re-bootstrap");
        restored_memos_are_rebuilt(&follower);
    }
}
