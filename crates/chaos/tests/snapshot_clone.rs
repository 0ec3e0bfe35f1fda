//! The chaos harness restores its base snapshot by cloning the database as
//! loaded instead of regenerating the dataset. These tests pin that the
//! clone *is* the base snapshot: equal to `Deployment::base_database()` on
//! every profile at the chaos shape, independent of the database it was
//! cloned from, and an identical starting point for parallel redo.

use cb_chaos::ChaosOptions;
use cb_engine::{Database, ExecCtx, Value};
use cb_sim::{DetRng, SimTime};
use cb_store::{Lsn, WalRecord};
use cb_sut::SutProfile;
use cloudybench::Deployment;

/// `a` and `b` hold the same tables, rows, counters and (empty) log.
fn assert_same(a: &Database, b: &Database, what: &str) {
    assert_eq!(a.tables().len(), b.tables().len(), "{what}");
    for (x, y) in a.tables().iter().zip(b.tables()) {
        assert_eq!(x.name(), y.name(), "{what}");
        assert_eq!(x.rows(), y.rows(), "{what}: {} rows", x.name());
        assert_eq!(x.next_auto_key(), y.next_auto_key(), "{what}: {}", x.name());
        assert_eq!(
            a.dump_table(x.id()),
            b.dump_table(y.id()),
            "{what}: {} content",
            x.name()
        );
    }
    assert_eq!(a.log().head(), b.log().head(), "{what}: log head");
    assert_eq!(a.log().retained(), b.log().retained(), "{what}: log size");
}

/// `n` committed write transactions (insert, update, delete) against `db`,
/// charged to `dep`'s primary pool and storage.
fn write_txns(db: &mut Database, dep: &mut Deployment, n: u64, seed: u64) {
    let tables = dep.tables;
    let orders_hi = dep.shape.orders as i64;
    let mut rng = DetRng::seeded(seed);
    let mut ctx = ExecCtx::new(
        SimTime::from_secs(1),
        &mut dep.nodes[0].pool,
        None,
        &mut dep.storage,
        &dep.profile.cost_model,
    );
    for i in 0..n {
        let mut txn = db.begin();
        let o_id = rng.range_inclusive(1, orders_hi);
        db.update(&mut ctx, &mut txn, tables.orders, o_id, |r| {
            r.values[2] = Value::Text(format!("S{i}"));
        })
        .expect("orders schema is stable");
        db.insert_auto(
            &mut ctx,
            &mut txn,
            tables.orderline,
            vec![
                Value::Int(o_id),
                Value::Int(7),
                Value::Int(1),
                Value::Int(500),
            ],
        )
        .expect("auto keys never collide");
        let hi = db.table(tables.orderline).next_auto_key() - 1;
        let _ = db.delete(
            &mut ctx,
            &mut txn,
            tables.orderline,
            rng.range_inclusive(1, hi),
        );
        db.commit(&mut ctx, txn);
    }
}

#[test]
fn snapshot_clone_is_the_base_snapshot() {
    let sim_scale = ChaosOptions::default().sim_scale;
    for profile in SutProfile::all() {
        let name = profile.name;
        let mut dep = Deployment::new(profile, 1, sim_scale, 1, 7);
        let snapshot = dep.db.clone();
        let base = dep.base_database();
        assert_same(&snapshot, &base, name);

        // Mutating the clone leaves the original untouched.
        let mut scratch = snapshot.clone();
        write_txns(&mut scratch, &mut dep, 20, 1);
        assert!(
            scratch.log().retained() > 0,
            "{name}: the clone took writes"
        );
        assert_same(&dep.db, &base, name);
        assert_same(&snapshot, &base, name);

        // ... and the other way round: the live database moves on, the
        // snapshot stays the base.
        let mut live = std::mem::take(&mut dep.db);
        write_txns(&mut live, &mut dep, 40, 2);
        dep.db = live;
        assert_same(&snapshot, &base, name);

        // Redo onto a clone of the snapshot equals redo onto a regenerated
        // base, and both equal the live database.
        let archive: Vec<WalRecord> = dep.db.log().records_after(Lsn::ZERO).cloned().collect();
        let refs: Vec<&WalRecord> = archive.iter().collect();
        let mut onto_clone = snapshot.clone();
        let mut onto_base = dep.base_database();
        let a = cloudybench::redo_committed_parallel(&mut onto_clone, &refs, 2);
        let b = cloudybench::redo_committed_parallel(&mut onto_base, &refs, 2);
        assert_eq!(a, b, "{name}: redone record counts");
        assert!(a > 0, "{name}: redo applied the workload");
        for t in dep.db.tables() {
            let live = dep.db.dump_table(t.id());
            assert_eq!(
                onto_clone.dump_table(t.id()),
                onto_base.dump_table(t.id()),
                "{name}"
            );
            assert_eq!(onto_clone.dump_table(t.id()), live, "{name}: {}", t.name());
        }
        assert_same(&snapshot, &base, name);
    }
}
