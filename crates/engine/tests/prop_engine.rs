//! Property tests for the storage engine: the B+tree against a model, the
//! slotted page under random churn, the row codec, and the SQL parser's
//! total behaviour.

use std::collections::BTreeMap;

use cb_engine::btree::{AccessLog, BTree};
use cb_engine::slotted::Slotted;
use cb_engine::sql::parse;
use cb_engine::{Row, Value};
use cb_store::{PageBuf, PageStore};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum MvccOp {
    /// Commit a new image of the key at the current instant.
    Write(i64, u8),
    /// Commit a delete of the key (no-op when absent).
    Delete(i64),
    /// Snapshot-read the key at a fraction of the live `[watermark, now]`
    /// window.
    Read(i64, u8),
    /// Advance the GC watermark to a fraction of the same window and prune.
    Gc(u8),
}

#[derive(Clone, Debug)]
enum Op {
    Insert(i64, Vec<u8>),
    Update(i64, Vec<u8>),
    Delete(i64),
    Get(i64),
    Scan(i64, i64),
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    let key = 0..key_space;
    let payload = prop::collection::vec(any::<u8>(), 1..64);
    prop_oneof![
        (key.clone(), payload.clone()).prop_map(|(k, p)| Op::Insert(k, p)),
        (key.clone(), payload).prop_map(|(k, p)| Op::Update(k, p)),
        key.clone().prop_map(Op::Delete),
        key.clone().prop_map(Op::Get),
        (key, 0i64..60).prop_map(|(lo, span)| Op::Scan(lo, span)),
    ]
}

/// Values of every variant over the full key and text domains.
fn wide_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Value::Text),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

/// Values of every variant over tiny domains, so equal rows, rows equal but
/// for one variant tag (`Int(1)` vs `Timestamp(1)`), and rows of different
/// arity sharing a prefix all come up often.
fn narrow_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1i64..2).prop_map(Value::Int),
        "[ab]{0,2}".prop_map(Value::Text),
        (-1i64..2).prop_map(Value::Timestamp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B+tree agrees with a BTreeMap under arbitrary operation mixes,
    /// including the final full-scan content.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(op_strategy(300), 1..400)) {
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let mut alog = AccessLog::new();
        for op in ops {
            match op {
                Op::Insert(k, p) => {
                    let r = tree.insert(&mut store, k, &p, &mut alog);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(r.is_ok());
                        e.insert(p);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::Update(k, p) => {
                    let r = tree.update(&mut store, k, &p, &mut alog);
                    prop_assert_eq!(r, model.contains_key(&k));
                    if r { model.insert(k, p); }
                }
                Op::Delete(k) => {
                    let r = tree.delete(&mut store, k, &mut alog);
                    prop_assert_eq!(r, model.remove(&k));
                }
                Op::Get(k) => {
                    // The borrowed read path must return byte-identical
                    // payloads straight off the page — compared as slices,
                    // no copy on either side.
                    prop_assert_eq!(tree.get(&store, k, &mut alog), model.get(&k).map(Vec::as_slice));
                    prop_assert_eq!(tree.contains(&store, k, &mut alog), model.contains_key(&k));
                }
                Op::Scan(lo, span) => {
                    let hi = lo + span;
                    let mut got: Vec<(i64, Vec<u8>)> = Vec::new();
                    tree.scan_range(&store, lo, hi, &mut alog, |k, p| {
                        got.push((k, p.to_vec()));
                        true
                    });
                    let want: Vec<(i64, Vec<u8>)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                    prop_assert_eq!(got, want);
                }
            }
            alog.clear();
        }
        let mut scanned = Vec::new();
        tree.scan_range(&store, i64::MIN, i64::MAX, &mut alog, |k, p| {
            scanned.push((k, p.to_vec()));
            true
        });
        prop_assert_eq!(scanned, model.into_iter().collect::<Vec<_>>());
    }

    /// Secondary-index maintenance agrees with a model of posting sets:
    /// lookups return exactly the model's primary keys, ascending, through
    /// the borrowed tree read path.
    #[test]
    fn secondary_index_matches_model(
        ops in prop::collection::vec((0i64..40, 0i64..200, prop::bool::ANY), 1..300),
    ) {
        use cb_engine::secondary::SecondaryIndex;
        use std::collections::BTreeSet;
        let mut store = PageStore::new();
        let mut idx = SecondaryIndex::create(&mut store, 1);
        let mut model: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
        let mut alog = AccessLog::new();
        for (value, pk, remove) in ops {
            let present = model.get(&value).is_some_and(|s| s.contains(&pk));
            if remove {
                if present {
                    idx.remove(&mut store, value, pk, &mut alog);
                    let set = model.get_mut(&value).expect("present implies entry");
                    set.remove(&pk);
                    if set.is_empty() { model.remove(&value); }
                }
            } else if !present {
                idx.add(&mut store, value, pk, &mut alog);
                model.entry(value).or_default().insert(pk);
            }
            prop_assert_eq!(
                idx.lookup(&store, value, &mut alog),
                model.get(&value).map(|s| s.iter().copied().collect::<Vec<_>>()).unwrap_or_default()
            );
            alog.clear();
        }
        for (value, set) in &model {
            prop_assert_eq!(
                idx.lookup(&store, *value, &mut alog),
                set.iter().copied().collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(idx.distinct_values(&store), model.len() as u64);
        prop_assert_eq!(idx.lookup(&store, 1_000_000, &mut alog), Vec::<i64>::new());
    }

    /// Slotted pages keep keys sorted and payloads intact under churn.
    #[test]
    fn slotted_page_churn(ops in prop::collection::vec((0i64..64, 1usize..120, prop::bool::ANY), 1..200)) {
        let mut page = PageBuf::zeroed();
        let mut s = Slotted::init(&mut page, 16);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (k, len, delete) in ops {
            if delete {
                if let Ok(idx) = s.find(k) {
                    s.remove(idx);
                    model.remove(&k);
                }
            } else {
                let payload = vec![(k as u8).wrapping_mul(31); len];
                match s.find(k) {
                    Ok(idx) => {
                        if s.update(idx, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                    Err(_) => {
                        if s.insert(k, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                }
            }
            // Invariants after every step.
            prop_assert_eq!(s.len(), model.len());
            for i in 1..s.len() {
                prop_assert!(s.key_at(i - 1) < s.key_at(i), "keys sorted");
            }
        }
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(s.key_at(i), *k);
            prop_assert_eq!(s.payload_at(i), v.as_slice());
        }
    }

    /// Compaction reclaims every garbage byte while preserving the exact
    /// set of live records (keys, payloads, and sorted order).
    #[test]
    fn slotted_compact_preserves_live_records(
        ops in prop::collection::vec((0i64..64, 1usize..120, prop::bool::ANY), 1..200),
    ) {
        let mut page = PageBuf::zeroed();
        let mut s = Slotted::init(&mut page, 16);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (k, len, delete) in ops {
            if delete {
                if let Ok(idx) = s.find(k) {
                    s.remove(idx);
                    model.remove(&k);
                }
            } else {
                let payload = vec![(k as u8).wrapping_mul(17); len];
                match s.find(k) {
                    Ok(idx) => {
                        if s.update(idx, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                    Err(_) => {
                        if s.insert(k, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                }
            }
        }
        let free_before = s.total_free();
        s.compact();
        // Compaction reclaims all garbage into the contiguous region and
        // never loses (or invents) free space.
        prop_assert_eq!(s.total_free(), free_before);
        prop_assert_eq!(s.contiguous_free(), free_before);
        // Every live record survives, in key order, bytes intact.
        prop_assert_eq!(s.len(), model.len());
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(s.key_at(i), *k);
            prop_assert_eq!(s.payload_at(i), v.as_slice());
        }
        // Compacting an already-compact page is a no-op.
        s.compact();
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(s.key_at(i), *k);
            prop_assert_eq!(s.payload_at(i), v.as_slice());
        }
    }

    /// The multi-version read path agrees with a full-history model. The
    /// model is `BTreeMap<(key, commit_ts), Option<image>>` — every image a
    /// key ever had, stamped with the instant it became current (`None` =
    /// deleted). A snapshot read of `k` at `ts` must equal the model's
    /// newest entry at or before `(k, ts)`; the implementation resolves it
    /// through `VersionStore::visible` backed by the live B+tree. GC to a
    /// watermark `g` prunes dead versions, after which every read at
    /// `ts >= g` must *still* match the unpruned model — the direct
    /// statement of GC-watermark correctness.
    #[test]
    fn mvcc_reads_match_history_model(
        ops in prop::collection::vec(
            prop_oneof![
                (0i64..24, 1u8..255).prop_map(|(k, b)| MvccOp::Write(k, b)),
                (0i64..24).prop_map(MvccOp::Delete),
                (0i64..24, 0u8..101).prop_map(|(k, f)| MvccOp::Read(k, f)),
                (0u8..101).prop_map(MvccOp::Gc),
            ],
            1..300,
        ),
    ) {
        use cb_engine::{VersionStore, Visibility};
        use cb_sim::SimTime;

        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut alog = AccessLog::new();
        let mut versions = VersionStore::new();
        // Full, never-pruned history: (key, commit_ts) -> image after it.
        let mut model: BTreeMap<(i64, u64), Option<Vec<u8>>> = BTreeMap::new();
        // Base data exists "since forever" (commit_ts 0), unpublished —
        // exactly how a seeded Database starts.
        for k in 0..8i64 {
            let img = vec![k as u8; 4];
            tree.insert(&mut store, k, &img, &mut alog).unwrap();
            model.insert((k, 0), Some(img));
        }
        let mut now: u64 = 0;
        let mut wm: u64 = 0;

        let read_check = |tree: &BTree,
                          store: &PageStore,
                          versions: &VersionStore,
                          model: &BTreeMap<(i64, u64), Option<Vec<u8>>>,
                          alog: &mut AccessLog,
                          k: i64,
                          ts: u64|
         -> (Option<Vec<u8>>, Option<Vec<u8>>) {
            let got = match versions.visible((cb_store::TableId(0), k), SimTime::from_nanos(ts)) {
                Visibility::Latest => tree.get(store, k, alog).map(|p| p.to_vec()),
                Visibility::Image(img) => Some(img.to_vec()),
                Visibility::Absent => None,
            };
            let want = model
                .range((k, 0)..=(k, ts))
                .next_back()
                .and_then(|(_, img)| img.clone());
            (got, want)
        };

        for op in ops {
            now += 1;
            match op {
                MvccOp::Write(k, b) => {
                    let img = vec![b; 6];
                    let pre = tree.get(&store, k, &mut alog).map(|p| p.to_vec());
                    if pre.is_some() {
                        tree.update(&mut store, k, &img, &mut alog);
                    } else {
                        tree.insert(&mut store, k, &img, &mut alog).unwrap();
                    }
                    versions.publish(
                        (cb_store::TableId(0), k),
                        pre.as_deref(),
                        SimTime::from_nanos(now),
                    );
                    model.insert((k, now), Some(img));
                }
                MvccOp::Delete(k) => {
                    if let Some(pre) = tree.delete(&mut store, k, &mut alog) {
                        versions.publish(
                            (cb_store::TableId(0), k),
                            Some(&pre),
                            SimTime::from_nanos(now),
                        );
                        model.insert((k, now), None);
                    }
                }
                MvccOp::Read(k, frac) => {
                    // A snapshot anywhere in the live window [wm, now].
                    let ts = wm + (now - wm) * frac as u64 / 100;
                    let (got, want) =
                        read_check(&tree, &store, &versions, &model, &mut alog, k, ts);
                    prop_assert_eq!(got, want, "key {} at ts {} (now {})", k, ts, now);
                }
                MvccOp::Gc(frac) => {
                    let g = wm + (now - wm) * frac as u64 / 100;
                    versions.gc(SimTime::from_nanos(g));
                    wm = wm.max(g);
                    // GC must never disturb any read at or above the
                    // watermark: check the whole key space at both edges
                    // of the surviving window.
                    for k in 0..24i64 {
                        for ts in [wm, now] {
                            let (got, want) =
                                read_check(&tree, &store, &versions, &model, &mut alog, k, ts);
                            prop_assert_eq!(
                                got, want,
                                "post-GC(g={}) key {} at ts {} (now {})", g, k, ts, now
                            );
                        }
                    }
                }
            }
            alog.clear();
        }
        // Closing sweep: reads at `now` see exactly the tree's live state.
        for k in 0..24i64 {
            let (got, want) = read_check(&tree, &store, &versions, &model, &mut alog, k, now);
            prop_assert_eq!(got.as_deref(), want.as_deref(), "final key {}", k);
            prop_assert_eq!(got.as_deref(), tree.get(&store, k, &mut alog), "tree is latest {}", k);
        }
    }

    /// `Value`'s total order is consistent with equality and with the
    /// natural order of the underlying data: comparison of two values
    /// agrees with comparison of what they contain.
    #[test]
    fn value_ordering_matches_comparison(
        a in any::<i64>(),
        b in any::<i64>(),
        sa in "[a-z]{0,8}",
        sb in "[a-z]{0,8}",
    ) {
        use std::cmp::Ordering;
        // Same-type ordering delegates to the payload's order.
        prop_assert_eq!(Value::Int(a).cmp(&Value::Int(b)), a.cmp(&b));
        prop_assert_eq!(Value::Timestamp(a).cmp(&Value::Timestamp(b)), a.cmp(&b));
        prop_assert_eq!(
            Value::Text(sa.clone()).cmp(&Value::Text(sb.clone())),
            sa.as_str().cmp(sb.as_str())
        );
        // Consistency with equality and antisymmetry.
        let vals = [
            Value::Int(a),
            Value::Int(b),
            Value::Text(sa),
            Value::Text(sb),
            Value::Timestamp(a),
            Value::Timestamp(b),
        ];
        for x in &vals {
            for y in &vals {
                prop_assert_eq!(x.cmp(y) == Ordering::Equal, x == y);
                prop_assert_eq!(x.cmp(y).reverse(), y.cmp(x));
            }
        }
        // Sorting is deterministic (a total order admits exactly one sorted
        // arrangement of distinct values; ties are resolved by equality).
        let mut once = vals.to_vec();
        once.sort();
        let mut twice = once.clone();
        twice.sort();
        prop_assert_eq!(&once, &twice);
        for w in once.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Row images round-trip for arbitrary value mixes.
    #[test]
    fn row_codec_round_trip(
        key in any::<i64>(),
        texts in prop::collection::vec("[a-zA-Z0-9 ]{0,40}", 0..5),
        ints in prop::collection::vec(any::<i64>(), 0..5),
    ) {
        let mut values = vec![Value::Int(key)];
        for t in texts { values.push(Value::Text(t)); }
        for i in ints { values.push(Value::Timestamp(i)); }
        let row = Row::new(values);
        prop_assert_eq!(Row::decode(&row.encode()), row);
    }

    /// Every `Value` variant round-trips in any column position.
    #[test]
    fn row_codec_round_trips_every_variant(values in prop::collection::vec(wide_value(), 0..8)) {
        let row = Row::new(values);
        prop_assert_eq!(Row::decode(&row.encode()), row);
    }

    /// The row encoding is injective: two rows share an image exactly when
    /// they are equal. The chaos state oracle compares images instead of
    /// decoded rows and relies on this.
    #[test]
    fn row_encoding_is_injective(
        a in prop::collection::vec(narrow_value(), 0..4),
        b in prop::collection::vec(narrow_value(), 0..4),
    ) {
        let (a, b) = (Row::new(a), Row::new(b));
        prop_assert_eq!(a.encode() == b.encode(), a == b);
    }

    /// The SQL parser is total: arbitrary input never panics, and either
    /// parses or reports a positioned error.
    #[test]
    fn parser_never_panics(input in "[ -~]{0,80}") {
        match parse(&input) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.pos <= input.len()),
        }
    }
}
