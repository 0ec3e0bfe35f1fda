//! The database facade: tables, transactions, WAL, checkpoints.
//!
//! A [`Database`] owns the canonical durable state of one cluster — page
//! store, log store, catalog — while per-node concerns (buffer pools, CPU)
//! are passed in through an [`ExecCtx`] per operation. Transactions follow
//! strict WAL discipline: every DML appends a logical record with before/
//! after images at operation time, commit appends a commit record and pays
//! the durable log append, abort applies undo images in reverse.

use cb_sim::SimTime;
use cb_store::{LogStore, Lsn, PageStore, StorageService, TableId, TxnId, WalOp, WalRecord};

use crate::btree::{AccessLog, BTree};
use crate::bufferpool::BufferPool;
use crate::exec::ExecCtx;
use crate::locks::{LockTable, RowKey};
use crate::mvcc::{VersionStore, Visibility};
use crate::secondary::SecondaryIndex;
use crate::value::{Row, Schema, SchemaError, Value};

/// Engine-level errors surfaced to the benchmark driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Insert of an existing primary key.
    Duplicate {
        /// Target table.
        table: TableId,
        /// Conflicting key.
        key: i64,
    },
    /// Row violates the table schema.
    Schema(SchemaError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Duplicate { table, key } => {
                write!(f, "duplicate key {key} in table {table:?}")
            }
            EngineError::Schema(e) => write!(f, "schema violation: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Schema(e)
    }
}

/// One table: schema + clustered B+tree + counters + secondary indexes.
#[derive(Clone)]
pub struct TableMeta {
    id: TableId,
    name: String,
    schema: Schema,
    tree: BTree,
    secondaries: Vec<SecondaryIndex>,
    /// Next auto-assigned key for `DEFAULT` inserts.
    auto_key: i64,
    rows: u64,
}

impl TableMeta {
    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The key the next `DEFAULT` insert will receive.
    pub fn next_auto_key(&self) -> i64 {
        self.auto_key
    }

    /// Columns covered by a secondary index.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.secondaries.iter().map(|s| s.column()).collect()
    }

    /// True if `column` has a secondary index.
    pub fn has_index(&self, column: usize) -> bool {
        self.secondaries.iter().any(|s| s.column() == column)
    }
}

/// An open transaction: its undo log and write set.
pub struct TxnHandle {
    id: TxnId,
    /// Row keys written (for lock registration by the driver).
    writes: Vec<RowKey>,
    /// Undo actions, applied in reverse on abort.
    undo: Vec<WalRecord>,
    /// Bytes of WAL generated (paid as one durable append at commit).
    wal_bytes: u64,
    begun: bool,
    finished: bool,
}

impl TxnHandle {
    /// Transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Row keys written so far.
    pub fn writes(&self) -> &[RowKey] {
        &self.writes
    }

    /// WAL bytes generated so far.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }
}

/// The outcome of a commit, for the driver to finish bookkeeping.
pub struct Committed {
    /// LSN of the commit record.
    pub lsn: Lsn,
    /// Row keys to lock until the commit's virtual completion time.
    pub writes: Vec<RowKey>,
    /// The transaction's undo records, moved out of the handle so the
    /// driver can publish version-chain pre-images once it knows the
    /// commit's virtual completion time (see
    /// [`Database::publish_versions`]). Free for READ COMMITTED runs: the
    /// records were already cloned for abort handling; this only changes
    /// where they are dropped.
    pub undo: Vec<WalRecord>,
}

/// The canonical database of one simulated cluster.
///
/// `Clone` is a deep copy: every page buffer, log segment, lock, version
/// chain and table tree is duplicated, so a clone taken before any
/// transaction runs is an independent base snapshot to recover onto.
#[derive(Clone)]
pub struct Database {
    pages: PageStore,
    log: LogStore,
    locks: LockTable,
    versions: VersionStore,
    tables: Vec<TableMeta>,
    next_txn: u64,
    last_checkpoint: Lsn,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            pages: PageStore::new(),
            log: LogStore::new(),
            locks: LockTable::new(),
            versions: VersionStore::new(),
            tables: Vec::new(),
            next_txn: 1,
            last_checkpoint: Lsn::ZERO,
        }
    }

    /// Create a table; returns its id. Names must be unique.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> TableId {
        assert!(self.table_id(name).is_none(), "table {name} already exists");
        let id = TableId(self.tables.len() as u16);
        let tree = BTree::create(&mut self.pages);
        self.tables.push(TableMeta {
            id,
            name: name.to_string(),
            schema,
            tree,
            secondaries: Vec::new(),
            auto_key: 1,
            rows: 0,
        });
        id
    }

    /// Look up a table id by name (case-insensitive).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
            .map(|t| t.id)
    }

    /// Table metadata.
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.0 as usize]
    }

    /// All tables.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// The lock table (driver-managed virtual-time 2PL).
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// The version overlay (snapshot reads, chain stats).
    pub fn versions(&self) -> &VersionStore {
        &self.versions
    }

    /// Mutable version-overlay access (GC, tests).
    pub fn versions_mut(&mut self) -> &mut VersionStore {
        &mut self.versions
    }

    /// The WAL.
    pub fn log(&self) -> &LogStore {
        &self.log
    }

    /// Mutable WAL access (cluster-level truncation).
    pub fn log_mut(&mut self) -> &mut LogStore {
        &mut self.log
    }

    /// The page store (size accounting, recovery).
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// LSN of the last checkpoint.
    pub fn last_checkpoint(&self) -> Lsn {
        self.last_checkpoint
    }

    /// Create a secondary index over an `Int` column (not the primary key),
    /// back-filling it from existing rows. Panics on misuse — index
    /// declarations are programmer decisions, not user input.
    pub fn create_index(&mut self, table: TableId, column: &str) {
        let t = &mut self.tables[table.0 as usize];
        let col = t
            .schema
            .column_index(column)
            .unwrap_or_else(|| panic!("no column {column} in table {}", t.name));
        assert!(col != 0, "the primary key is already the clustered index");
        assert_eq!(
            t.schema.columns()[col].ty,
            crate::value::DataType::Int,
            "secondary indexes cover Int columns"
        );
        assert!(!t.has_index(col), "column {column} is already indexed");
        let mut idx = SecondaryIndex::create(&mut self.pages, col);
        // Back-fill from the clustered tree.
        let mut alog = AccessLog::new();
        let mut entries = Vec::new();
        t.tree
            .scan_range(&self.pages, i64::MIN, i64::MAX, &mut alog, |pk, img| {
                let row = Row::decode(img);
                entries.push((row.values[col].expect_int(), pk));
                true
            });
        for (value, pk) in entries {
            idx.add(&mut self.pages, value, pk, &mut alog);
        }
        t.secondaries.push(idx);
    }

    fn index_add(
        pages: &mut PageStore,
        t: &mut TableMeta,
        row: &Row,
        pk: i64,
        alog: &mut AccessLog,
    ) {
        for idx in &mut t.secondaries {
            idx.add(pages, row.values[idx.column()].expect_int(), pk, alog);
        }
    }

    fn index_remove(
        pages: &mut PageStore,
        t: &mut TableMeta,
        row: &Row,
        pk: i64,
        alog: &mut AccessLog,
    ) {
        for idx in &mut t.secondaries {
            idx.remove(pages, row.values[idx.column()].expect_int(), pk, alog);
        }
    }

    fn index_transition(
        pages: &mut PageStore,
        t: &mut TableMeta,
        before: &Row,
        after: &Row,
        pk: i64,
        alog: &mut AccessLog,
    ) {
        for idx in &mut t.secondaries {
            let col = idx.column();
            let old = before.values[col].expect_int();
            let new = after.values[col].expect_int();
            if old != new {
                idx.remove(pages, old, pk, alog);
                idx.add(pages, new, pk, alog);
            }
        }
    }

    /// Fetch all rows whose indexed `column` equals `value`, in primary-key
    /// order, charging `ctx` for the index probe and each row fetch.
    pub fn index_lookup(
        &self,
        ctx: &mut ExecCtx<'_>,
        table: TableId,
        column: usize,
        value: i64,
    ) -> Vec<Row> {
        let t = &self.tables[table.0 as usize];
        let idx = t
            .secondaries
            .iter()
            .find(|s| s.column() == column)
            .unwrap_or_else(|| panic!("column {column} of {} is not indexed", t.name));
        let mut alog = AccessLog::new();
        ctx.charge_stmt();
        let pks = idx.lookup(&self.pages, value, &mut alog);
        let mut rows = Vec::with_capacity(pks.len());
        for pk in pks {
            if let Some(img) = t.tree.get(&self.pages, pk, &mut alog) {
                rows.push(Row::decode(img));
            }
        }
        Self::charge_access_log(ctx, &alog);
        ctx.charge_rows(rows.len() as u64);
        rows
    }

    /// Begin a transaction. The `Begin` WAL record is written lazily before
    /// the first DML so read-only transactions leave no trace in the log.
    pub fn begin(&mut self) -> TxnHandle {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        TxnHandle {
            id,
            writes: Vec::new(),
            undo: Vec::new(),
            wal_bytes: 0,
            begun: false,
            finished: false,
        }
    }

    fn ensure_begun(&mut self, txn: &mut TxnHandle) {
        if !txn.begun {
            txn.begun = true;
            let lsn = self.log.append(txn.id, WalOp::Begin);
            txn.wal_bytes += self.log.get(lsn).expect("just appended").approx_bytes();
        }
    }

    /// Bulk-load rows without WAL or cost accounting (initial data
    /// generation — the paper's "data generator" phase is not measured).
    pub fn load_bulk(&mut self, table: TableId, rows: impl IntoIterator<Item = Row>) -> u64 {
        let mut log = AccessLog::new();
        let mut n = 0u64;
        // One scratch image buffer for the whole load: dataset generation
        // encodes millions of rows, and this loop is its only allocation-free
        // path (Value::encode_into appends; no per-row Vec). The ingest
        // cursor makes the (typically ascending-key) generated stream skip
        // the per-row root-to-leaf descent.
        let mut image = Vec::new();
        let mut cur = crate::btree::BatchIngest::new();
        for row in rows {
            let t = &mut self.tables[table.0 as usize];
            t.schema.validate(&row).expect("bulk rows must fit schema");
            let key = row.key();
            image.clear();
            row.encode_into(&mut image);
            t.tree
                .insert_sorted(&mut self.pages, &mut cur, key, &image, &mut log)
                .expect("bulk load keys must be unique");
            Self::index_add(&mut self.pages, t, &row, key, &mut log);
            t.rows += 1;
            t.auto_key = t.auto_key.max(key + 1);
            n += 1;
            log.clear();
        }
        n
    }

    fn charge_access_log(ctx: &mut ExecCtx<'_>, log: &AccessLog) {
        for (page, write) in log {
            ctx.charge_page(*page, *write);
        }
    }

    /// Insert `row` with an explicit key (column 0).
    pub fn insert(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        row: Row,
    ) -> Result<i64, EngineError> {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let t = &mut self.tables[table.0 as usize];
        t.schema.validate(&row)?;
        let key = row.key();
        let image = row.encode();
        let mut alog = AccessLog::new();
        ctx.charge_stmt();
        match t.tree.insert(&mut self.pages, key, &image, &mut alog) {
            Ok(()) => {}
            Err(_) => {
                Self::charge_access_log(ctx, &alog);
                return Err(EngineError::Duplicate { table, key });
            }
        }
        Self::index_add(&mut self.pages, t, &row, key, &mut alog);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
        Self::charge_access_log(ctx, &alog);
        ctx.charge_rows(1);
        let op = WalOp::Insert {
            table,
            key,
            row: image,
        };
        let lsn = self.log.append(txn.id, op);
        txn.wal_bytes += self.log.get(lsn).expect("just appended").approx_bytes();
        txn.writes.push((table, key));
        txn.undo
            .push(self.log.get(lsn).expect("just appended").clone());
        Ok(key)
    }

    /// Insert with an auto-assigned key (`INSERT ... VALUES (DEFAULT, ...)`);
    /// `rest` are the non-key columns.
    pub fn insert_auto(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        rest: Vec<Value>,
    ) -> Result<i64, EngineError> {
        let key = self.tables[table.0 as usize].auto_key;
        let mut values = Vec::with_capacity(rest.len() + 1);
        values.push(Value::Int(key));
        values.extend(rest);
        self.insert(ctx, txn, table, Row::new(values))
    }

    /// Point lookup. Under a versioned isolation level the read resolves
    /// against the snapshot at `ctx.now`: the common case (the row's latest
    /// image committed at-or-before the snapshot) is one overlay probe and
    /// then the unchanged zero-copy tree path; otherwise the in-memory
    /// version chain serves the historical image directly — no page
    /// traffic, no lock-table contact, never blocking. READ COMMITTED
    /// bypasses the overlay entirely and is bit-identical to the
    /// single-version engine.
    pub fn get(&self, ctx: &mut ExecCtx<'_>, table: TableId, key: i64) -> Option<Row> {
        if ctx.isolation.is_versioned() {
            match self.versions.visible((table, key), ctx.now) {
                Visibility::Latest => {}
                Visibility::Image(img) => {
                    ctx.charge_stmt();
                    ctx.charge_rows(1);
                    return Some(Row::decode(img));
                }
                Visibility::Absent => {
                    ctx.charge_stmt();
                    return None;
                }
            }
        }
        let t = &self.tables[table.0 as usize];
        let mut alog = AccessLog::new();
        ctx.charge_stmt();
        let image = t.tree.get(&self.pages, key, &mut alog);
        Self::charge_access_log(ctx, &alog);
        image.map(|img| {
            ctx.charge_rows(1);
            Row::decode(img)
        })
    }

    /// Snapshot point read at `ts` with no cost accounting: the overlay
    /// resolves visibility, falling through to the tree's latest image.
    /// For oracles, tests, and microbenches — served reads go through
    /// [`Database::get`].
    pub fn get_at(&self, table: TableId, key: i64, ts: SimTime) -> Option<Row> {
        match self.versions.visible((table, key), ts) {
            Visibility::Latest => {
                let t = &self.tables[table.0 as usize];
                let mut alog = AccessLog::new();
                t.tree.get(&self.pages, key, &mut alog).map(Row::decode)
            }
            Visibility::Image(img) => Some(Row::decode(img)),
            Visibility::Absent => None,
        }
    }

    /// Read-modify-write a row in place. Returns `false` if absent.
    pub fn update(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        key: i64,
        f: impl FnOnce(&mut Row),
    ) -> Result<bool, EngineError> {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let t = &mut self.tables[table.0 as usize];
        let mut alog = AccessLog::new();
        ctx.charge_stmt();
        // The WAL before-image must outlive the page mutation below, so this
        // is a genuine ownership boundary: copy the borrowed payload once.
        let Some(before_img) = t.tree.get(&self.pages, key, &mut alog).map(<[u8]>::to_vec) else {
            Self::charge_access_log(ctx, &alog);
            return Ok(false);
        };
        let before_row = Row::decode(&before_img);
        let mut row = before_row.clone();
        f(&mut row);
        t.schema.validate(&row)?;
        assert_eq!(row.key(), key, "updates must not change the primary key");
        let after_img = row.encode();
        let updated = t.tree.update(&mut self.pages, key, &after_img, &mut alog);
        debug_assert!(updated, "row existed moments ago");
        Self::index_transition(&mut self.pages, t, &before_row, &row, key, &mut alog);
        Self::charge_access_log(ctx, &alog);
        ctx.charge_rows(1);
        let op = WalOp::Update {
            table,
            key,
            before: before_img,
            after: after_img,
        };
        let lsn = self.log.append(txn.id, op);
        txn.wal_bytes += self.log.get(lsn).expect("just appended").approx_bytes();
        txn.writes.push((table, key));
        txn.undo
            .push(self.log.get(lsn).expect("just appended").clone());
        Ok(true)
    }

    /// Delete a row. Returns `false` if absent.
    pub fn delete(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        key: i64,
    ) -> bool {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let t = &mut self.tables[table.0 as usize];
        let mut alog = AccessLog::new();
        ctx.charge_stmt();
        let removed = t.tree.delete(&mut self.pages, key, &mut alog);
        Self::charge_access_log(ctx, &alog);
        let Some(before) = removed else {
            return false;
        };
        Self::index_remove(&mut self.pages, t, &Row::decode(&before), key, &mut alog);
        t.rows -= 1;
        ctx.charge_rows(1);
        let op = WalOp::Delete { table, key, before };
        let lsn = self.log.append(txn.id, op);
        txn.wal_bytes += self.log.get(lsn).expect("just appended").approx_bytes();
        txn.writes.push((table, key));
        txn.undo
            .push(self.log.get(lsn).expect("just appended").clone());
        true
    }

    /// Range scan, charging pages and rows to `ctx`. Under a versioned
    /// isolation level each key resolves against the snapshot at `ctx.now`
    /// exactly like [`Database::get`]: rows whose latest image committed
    /// after the snapshot serve their chain image instead, rows inserted
    /// after it are skipped, and rows deleted after it are resurrected from
    /// their chains. READ COMMITTED keeps the original single-version walk
    /// bit-identical.
    pub fn scan_range(
        &self,
        ctx: &mut ExecCtx<'_>,
        table: TableId,
        lo: i64,
        hi: i64,
        mut f: impl FnMut(i64, &Row) -> bool,
    ) {
        let mut alog = AccessLog::new();
        ctx.charge_stmt();
        let rows = if ctx.isolation.is_versioned() {
            self.scan_range_versioned(table, lo, hi, ctx.now, &mut alog, f)
        } else {
            let t = &self.tables[table.0 as usize];
            let mut rows = 0u64;
            t.tree.scan_range(&self.pages, lo, hi, &mut alog, |k, img| {
                rows += 1;
                f(k, &Row::decode(img))
            });
            rows
        };
        Self::charge_access_log(ctx, &alog);
        ctx.charge_rows(rows);
    }

    /// Snapshot range scan at `ts` with no cost accounting — the range
    /// analogue of [`Database::get_at`], for oracles, tests, and
    /// microbenches. Served scans go through [`Database::scan_range`].
    pub fn scan_range_at(
        &self,
        table: TableId,
        lo: i64,
        hi: i64,
        ts: SimTime,
        f: impl FnMut(i64, &Row) -> bool,
    ) {
        let mut alog = AccessLog::new();
        self.scan_range_versioned(table, lo, hi, ts, &mut alog, f);
    }

    /// The shared snapshot-scan merge: walk the tree and the version
    /// overlay over `[lo, hi]` side by side, resolving every key's
    /// visibility at `ts`. Overlay keys missing from the tree are rows
    /// deleted after `ts` whose chain still holds the visible image.
    /// Returns the number of rows emitted.
    fn scan_range_versioned(
        &self,
        table: TableId,
        lo: i64,
        hi: i64,
        ts: SimTime,
        alog: &mut AccessLog,
        mut f: impl FnMut(i64, &Row) -> bool,
    ) -> u64 {
        let t = &self.tables[table.0 as usize];
        let mut overlay = self.versions.overlay_keys(table, lo, hi).peekable();
        let mut rows = 0u64;
        let mut stop = false;
        t.tree.scan_range(&self.pages, lo, hi, alog, |k, img| {
            // Overlay keys sorting before `k` have no tree row any more:
            // deleted after `ts`, resurrected from the chain if visible.
            while let Some(&(_, ok)) = overlay.peek() {
                if ok >= k {
                    break;
                }
                overlay.next();
                if let Visibility::Image(older) = self.versions.visible((table, ok), ts) {
                    rows += 1;
                    if !f(ok, &Row::decode(older)) {
                        stop = true;
                        return false;
                    }
                }
            }
            if overlay.peek() == Some(&(table, k)) {
                overlay.next();
            }
            match self.versions.visible((table, k), ts) {
                Visibility::Latest => {
                    rows += 1;
                    if !f(k, &Row::decode(img)) {
                        stop = true;
                        return false;
                    }
                }
                Visibility::Image(older) => {
                    rows += 1;
                    if !f(k, &Row::decode(older)) {
                        stop = true;
                        return false;
                    }
                }
                // Inserted after the snapshot: invisible, keep walking.
                Visibility::Absent => {}
            }
            true
        });
        if !stop {
            // Deleted-row tail past the last tree key in range.
            for (_, ok) in overlay {
                if let Visibility::Image(older) = self.versions.visible((table, ok), ts) {
                    rows += 1;
                    if !f(ok, &Row::decode(older)) {
                        break;
                    }
                }
            }
        }
        rows
    }

    /// Two-phase commit, phase one: append this participant's `Prepare`
    /// vote for global transaction `gid` and pay the durable flush of the
    /// transaction's WAL up to and including it. The transaction stays open
    /// — the caller finishes it with [`Database::commit`] (coordinator
    /// decided commit) or [`Database::abort`] (decided abort), which then
    /// pays only the decision record. A crash after the prepare flushed but
    /// before the decision record leaves the transaction *in doubt*:
    /// recovery holds it until the coordinator's decision resolves it, and
    /// presumes abort when no decision survives (see
    /// [`crate::recovery::in_doubt_txns`]).
    pub fn prepare(&mut self, ctx: &mut ExecCtx<'_>, txn: &mut TxnHandle, gid: u64) -> Lsn {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let lsn = self.log.append(txn.id, WalOp::Prepare { gid });
        let bytes = txn.wal_bytes + self.log.get(lsn).expect("just appended").approx_bytes();
        ctx.charge_commit(bytes);
        // The prepare made everything so far durable; the decision record
        // is the only WAL the commit/abort still has to pay for.
        txn.wal_bytes = 0;
        lsn
    }

    /// Commit: append the commit record, pay the durable commit — through
    /// the group-commit pipeline when the context carries one, else a
    /// per-commit flush. The driver must then register `writes` in the lock
    /// table with the transaction's virtual completion time.
    pub fn commit(&mut self, ctx: &mut ExecCtx<'_>, mut txn: TxnHandle) -> Committed {
        debug_assert!(!txn.finished);
        txn.finished = true;
        if !txn.begun {
            // Read-only: nothing to make durable.
            return Committed {
                lsn: self.log.head(),
                writes: Vec::new(),
                undo: Vec::new(),
            };
        }
        let lsn = self.log.append(txn.id, WalOp::Commit);
        let bytes = txn.wal_bytes + self.log.get(lsn).expect("just appended").approx_bytes();
        ctx.charge_commit(bytes);
        Committed {
            lsn,
            writes: std::mem::take(&mut txn.writes),
            undo: std::mem::take(&mut txn.undo),
        }
    }

    /// Publish the version-chain pre-images of a committed transaction,
    /// visible from `commit_ts` (the commit's virtual completion time —
    /// group-commit ack or commit-latency end). Only the *first* undo
    /// record per row matters: it carries the image the row had before the
    /// transaction touched it. Must be called atomically with the logical
    /// execution (the tree already holds the post-images), so snapshot
    /// readers between now and `commit_ts` resolve to the pre-image.
    pub fn publish_versions(&mut self, committed: &Committed, commit_ts: SimTime) {
        let mut seen: Vec<RowKey> = Vec::with_capacity(committed.undo.len());
        for rec in &committed.undo {
            let (key, pre): (RowKey, Option<&[u8]>) = match &rec.op {
                WalOp::Insert { table, key, .. } => ((*table, *key), None),
                WalOp::Update {
                    table, key, before, ..
                } => ((*table, *key), Some(before)),
                WalOp::Delete { table, key, before } => ((*table, *key), Some(before)),
                _ => continue,
            };
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            self.versions.publish(key, pre, commit_ts);
        }
    }

    /// Abort: apply undo images in reverse, append the abort record.
    pub fn abort(&mut self, ctx: &mut ExecCtx<'_>, mut txn: TxnHandle) {
        debug_assert!(!txn.finished);
        txn.finished = true;
        let mut alog = AccessLog::new();
        for rec in txn.undo.iter().rev() {
            match &rec.op {
                WalOp::Insert { table, key, row } => {
                    let t = &mut self.tables[table.0 as usize];
                    let removed = t.tree.delete(&mut self.pages, *key, &mut alog);
                    debug_assert!(removed.is_some(), "undo of insert: row must exist");
                    Self::index_remove(&mut self.pages, t, &Row::decode(row), *key, &mut alog);
                    t.rows -= 1;
                }
                WalOp::Update {
                    table,
                    key,
                    before,
                    after,
                } => {
                    let t = &mut self.tables[table.0 as usize];
                    let ok = t.tree.update(&mut self.pages, *key, before, &mut alog);
                    debug_assert!(ok, "undo of update: row must exist");
                    Self::index_transition(
                        &mut self.pages,
                        t,
                        &Row::decode(after),
                        &Row::decode(before),
                        *key,
                        &mut alog,
                    );
                }
                WalOp::Delete { table, key, before } => {
                    let t = &mut self.tables[table.0 as usize];
                    t.tree
                        .insert(&mut self.pages, *key, before, &mut alog)
                        .expect("undo of delete: key must be free");
                    Self::index_add(&mut self.pages, t, &Row::decode(before), *key, &mut alog);
                    t.rows += 1;
                }
                other => unreachable!("non-DML in undo chain: {other:?}"),
            }
            ctx.charge_rows(1);
        }
        Self::charge_access_log(ctx, &alog);
        if txn.begun {
            self.log.append(txn.id, WalOp::Abort);
        }
    }

    /// Take a checkpoint on behalf of the node owning `pool`: flush its
    /// dirty pages through `storage`, record the checkpoint in the WAL.
    /// Returns the number of pages flushed (the caller derives timing from
    /// the charged I/O).
    pub fn checkpoint(
        &mut self,
        pool: &mut BufferPool,
        storage: &mut StorageService,
        now: SimTime,
    ) -> (Lsn, u64, cb_sim::SimDuration) {
        let dirty = pool.flush_dirty();
        let mut io = cb_sim::SimDuration::ZERO;
        for _ in &dirty {
            io += storage.page_write_cost(now + io);
        }
        let lsn = self.log.append(
            TxnId(0),
            WalOp::Checkpoint {
                dirty_pages: dirty.len() as u64,
            },
        );
        self.last_checkpoint = lsn;
        (lsn, dirty.len() as u64, io)
    }

    /// Crash simulation: wipe all volatile coordination state (the lock
    /// table and the version overlay — both live in node memory and die
    /// with the process) and return the WAL head at the instant of the
    /// crash. Page/log/catalog state is left exactly as it was: the caller
    /// decides how much of the log tail survived (see
    /// [`LogStore::discard_after`]) and what recovery path to run. A
    /// recovered database serves every row at `SimTime::ZERO` — versions
    /// collapse to the latest committed image, which keeps net-effect
    /// parallel redo byte-identical across lanes.
    pub fn simulate_crash(&mut self) -> Lsn {
        self.locks.clear();
        self.versions.clear();
        self.log.head()
    }

    /// Ensure future [`Database::begin`] calls assign transaction ids
    /// strictly greater than `beyond`. Used when a recovered database
    /// replaces a crashed one: the archive still holds records from the old
    /// incarnation, and reusing a TxnId would make an old loser's DML look
    /// committed to a later replay.
    pub fn fast_forward_txns(&mut self, beyond: TxnId) {
        self.next_txn = self.next_txn.max(beyond.0 + 1);
    }

    /// Recovery/replication internal: apply an insert image directly (no
    /// WAL, no cost charging). Panics on duplicate keys — replay from a
    /// consistent base never sees one.
    pub fn apply_insert_raw(
        &mut self,
        table: TableId,
        key: i64,
        image: &[u8],
        alog: &mut AccessLog,
    ) {
        let t = &mut self.tables[table.0 as usize];
        Self::insert_raw_inner(&mut self.pages, t, key, image, alog);
    }

    /// [`apply_insert_raw`](Self::apply_insert_raw) through a [`BatchIngest`]
    /// cursor: sorted redo/replay streams amortize the B-tree descent. The
    /// cursor is only valid for consecutive inserts into `table`; callers
    /// must invalidate it around any other mutation of the same tree.
    pub fn apply_insert_raw_batched(
        &mut self,
        table: TableId,
        key: i64,
        image: &[u8],
        cur: &mut crate::btree::BatchIngest,
        alog: &mut AccessLog,
    ) {
        let t = &mut self.tables[table.0 as usize];
        t.tree
            .insert_sorted(&mut self.pages, cur, key, image, alog)
            .expect("redo insert must not collide");
        Self::index_add(&mut self.pages, t, &Row::decode(image), key, alog);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
    }

    fn insert_raw_inner(
        pages: &mut PageStore,
        t: &mut TableMeta,
        key: i64,
        image: &[u8],
        alog: &mut AccessLog,
    ) {
        t.tree
            .insert(pages, key, image, alog)
            .expect("redo insert must not collide");
        Self::index_add(pages, t, &Row::decode(image), key, alog);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
    }

    /// Recovery/replication internal: apply an update image directly.
    pub fn apply_update_raw(
        &mut self,
        table: TableId,
        key: i64,
        image: &[u8],
        alog: &mut AccessLog,
    ) {
        let t = &mut self.tables[table.0 as usize];
        Self::update_raw_inner(&mut self.pages, t, key, image, alog);
    }

    fn update_raw_inner(
        pages: &mut PageStore,
        t: &mut TableMeta,
        key: i64,
        image: &[u8],
        alog: &mut AccessLog,
    ) {
        // Decode the before-row up front: the borrowed image must be
        // released before the tree mutates the page it lives in.
        let before_row = Row::decode(
            t.tree
                .get(pages, key, alog)
                .unwrap_or_else(|| panic!("redo update of missing key {key}")),
        );
        let ok = t.tree.update(pages, key, image, alog);
        assert!(ok, "redo update of missing key {key}");
        Self::index_transition(pages, t, &before_row, &Row::decode(image), key, alog);
    }

    /// Recovery/replication internal: apply a delete directly.
    pub fn apply_delete_raw(&mut self, table: TableId, key: i64, alog: &mut AccessLog) {
        let t = &mut self.tables[table.0 as usize];
        Self::delete_raw_inner(&mut self.pages, t, key, alog);
    }

    fn delete_raw_inner(pages: &mut PageStore, t: &mut TableMeta, key: i64, alog: &mut AccessLog) {
        let removed = t.tree.delete(pages, key, alog);
        let Some(before) = removed else {
            panic!("redo delete of missing key {key}");
        };
        Self::index_remove(pages, t, &Row::decode(&before), key, alog);
        t.rows -= 1;
    }

    /// Recovery internal: ensure `table`'s next auto-assigned key is past
    /// `key`. Net-effect replay applies only each key's final image, so
    /// inserts that were later deleted never reach [`apply_insert_raw`];
    /// this keeps the auto-key watermark identical to sequential redo.
    pub fn bump_auto_key(&mut self, table: TableId, key: i64) {
        let t = &mut self.tables[table.0 as usize];
        t.auto_key = t.auto_key.max(key + 1);
    }

    /// ARIES undo pass over this database's *own* log tail, in place and
    /// clone-free: the walk borrows records straight out of the segmented
    /// log (disjoint from the page/catalog state being repaired) instead of
    /// copying the WAL first. Semantics match
    /// [`undo_losers_durable`](crate::recovery::undo_losers_durable) with
    /// `records = log.records_after(after)`: the first `durable_len` of
    /// those records reached stable storage; later `Commit` records never
    /// became durable, so their transactions roll back. Returns the number
    /// of records undone.
    pub fn undo_losers_in_place(&mut self, after: Lsn, durable_len: usize) -> u64 {
        let Database {
            pages, log, tables, ..
        } = self;
        let records: Vec<&WalRecord> = log.records_after(after).collect();
        Self::undo_over(
            pages,
            tables,
            &records,
            durable_len,
            &std::collections::HashSet::new(),
        )
    }

    /// Shared undo-walk implementation over borrowed records (also the
    /// backing for `recovery::undo_losers_durable`, which undoes an
    /// externally captured crash tail into a database).
    pub(crate) fn undo_refs(&mut self, records: &[&WalRecord], durable_len: usize) -> u64 {
        Self::undo_over(
            &mut self.pages,
            &mut self.tables,
            records,
            durable_len,
            &std::collections::HashSet::new(),
        )
    }

    /// [`undo_refs`](Self::undo_refs) with a set of externally-resolved
    /// commits: in-doubt (prepared) transactions whose coordinator decided
    /// commit keep their effects even though their own `Commit` record is
    /// not durable (backing for
    /// `recovery::undo_losers_durable_resolved`).
    pub(crate) fn undo_refs_resolved(
        &mut self,
        records: &[&WalRecord],
        durable_len: usize,
        resolved_commits: &std::collections::HashSet<TxnId>,
    ) -> u64 {
        Self::undo_over(
            &mut self.pages,
            &mut self.tables,
            records,
            durable_len,
            resolved_commits,
        )
    }

    fn undo_over(
        pages: &mut PageStore,
        tables: &mut [TableMeta],
        records: &[&WalRecord],
        durable_len: usize,
        resolved_commits: &std::collections::HashSet<TxnId>,
    ) -> u64 {
        use std::collections::HashSet;
        let durable_len = durable_len.min(records.len());
        let finished: HashSet<TxnId> = records[..durable_len]
            .iter()
            .filter(|r| matches!(r.op, WalOp::Commit))
            .chain(records.iter().filter(|r| matches!(r.op, WalOp::Abort)))
            .map(|r| r.txn)
            .chain(resolved_commits.iter().copied())
            .collect();
        let mut alog = AccessLog::new();
        let mut undone = 0u64;
        for r in records.iter().rev() {
            if !r.op.is_dml() || finished.contains(&r.txn) {
                continue;
            }
            match &r.op {
                WalOp::Insert { table, key, .. } => {
                    Self::delete_raw_inner(pages, &mut tables[table.0 as usize], *key, &mut alog);
                }
                WalOp::Update {
                    table, key, before, ..
                } => {
                    Self::update_raw_inner(
                        pages,
                        &mut tables[table.0 as usize],
                        *key,
                        before,
                        &mut alog,
                    );
                }
                WalOp::Delete { table, key, before } => {
                    Self::insert_raw_inner(
                        pages,
                        &mut tables[table.0 as usize],
                        *key,
                        before,
                        &mut alog,
                    );
                }
                _ => unreachable!("is_dml filtered"),
            }
            undone += 1;
        }
        undone
    }

    /// Total data size in bytes (for storage cost accounting).
    pub fn data_bytes(&self) -> u64 {
        self.pages.size_bytes()
    }

    /// Walk every row of `table` in key order as `(key, encoded image)`,
    /// borrowing each image straight off its leaf page — no decode, no
    /// per-row allocation, no cost accounting. `f` returns `false` to stop.
    /// The recovery oracles compare these images against expected rows.
    pub fn for_each_image(&self, table: TableId, f: impl FnMut(i64, &[u8]) -> bool) {
        let t = &self.tables[table.0 as usize];
        let mut alog = AccessLog::new();
        t.tree
            .scan_range(&self.pages, i64::MIN, i64::MAX, &mut alog, f);
    }

    /// Collect the full contents of a table (tests and recovery checks).
    pub fn dump_table(&self, table: TableId) -> Vec<Row> {
        let mut out = Vec::new();
        self.for_each_image(table, |_, img| {
            out.push(Row::decode(img));
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CostModel;
    use crate::value::{ColumnDef, DataType};
    use cb_sim::{Device, DeviceKind, SimDuration};
    use cb_store::StorageArch;

    fn storage() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn orders_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("O_ID", DataType::Int),
            ColumnDef::new("O_STATUS", DataType::Text),
            ColumnDef::new("O_TOTAL", DataType::Int),
        ])
    }

    fn order_row(id: i64, status: &str, total: i64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Text(status.into()),
            Value::Int(total),
        ])
    }

    struct Env {
        pool: BufferPool,
        storage: StorageService,
        model: CostModel,
    }

    impl Env {
        fn new() -> Self {
            Env {
                pool: BufferPool::new(1024),
                storage: storage(),
                model: CostModel::default(),
            }
        }

        fn ctx(&mut self) -> ExecCtx<'_> {
            ExecCtx::new(
                SimTime::ZERO,
                &mut self.pool,
                None,
                &mut self.storage,
                &self.model,
            )
        }
    }

    #[test]
    fn insert_get_commit_cycle() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 100))
            .unwrap();
        let c = db.commit(&mut ctx, txn);
        assert_eq!(c.writes, vec![(orders, 1)]);
        assert!(ctx.cpu > SimDuration::ZERO);
        assert!(ctx.io > SimDuration::ZERO, "commit pays a durable append");
        let got = db.get(&mut ctx, orders, 1).unwrap();
        assert_eq!(got, order_row(1, "NEW", 100));
        assert_eq!(db.table(orders).rows(), 1);
    }

    #[test]
    fn auto_increment_keys() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=10).map(|i| order_row(i, "NEW", i * 10)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let k = db
            .insert_auto(
                &mut ctx,
                &mut txn,
                orders,
                vec![Value::Text("NEW".into()), Value::Int(7)],
            )
            .unwrap();
        assert_eq!(k, 11, "auto key continues after bulk load");
        db.commit(&mut ctx, txn);
    }

    #[test]
    fn duplicate_insert_surfaces_error() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 1))
            .unwrap();
        let err = db
            .insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 2))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Duplicate {
                table: orders,
                key: 1
            }
        );
        db.commit(&mut ctx, txn);
    }

    #[test]
    fn update_read_modify_write() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, [order_row(5, "NEW", 100)]);
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let hit = db
            .update(&mut ctx, &mut txn, orders, 5, |row| {
                row.values[1] = Value::Text("PAID".into());
                row.values[2] = Value::Int(row.values[2].expect_int() + 50);
            })
            .unwrap();
        assert!(hit);
        let miss = db.update(&mut ctx, &mut txn, orders, 99, |_| {}).unwrap();
        assert!(!miss);
        db.commit(&mut ctx, txn);
        assert_eq!(
            db.get(&mut ctx, orders, 5).unwrap(),
            order_row(5, "PAID", 150)
        );
    }

    #[test]
    fn delete_and_row_count() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=3).map(|i| order_row(i, "NEW", i)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        assert!(db.delete(&mut ctx, &mut txn, orders, 2));
        assert!(!db.delete(&mut ctx, &mut txn, orders, 2));
        db.commit(&mut ctx, txn);
        assert_eq!(db.table(orders).rows(), 2);
        assert!(db.get(&mut ctx, orders, 2).is_none());
    }

    #[test]
    fn abort_undoes_everything_in_reverse() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, [order_row(1, "NEW", 100), order_row(2, "NEW", 200)]);
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(3, "NEW", 300))
            .unwrap();
        db.update(&mut ctx, &mut txn, orders, 1, |r| {
            r.values[1] = Value::Text("PAID".into());
        })
        .unwrap();
        db.delete(&mut ctx, &mut txn, orders, 2);
        // Touch the same row twice to exercise ordered undo.
        db.update(&mut ctx, &mut txn, orders, 1, |r| {
            r.values[2] = Value::Int(999);
        })
        .unwrap();
        db.abort(&mut ctx, txn);
        assert_eq!(
            db.dump_table(orders),
            vec![order_row(1, "NEW", 100), order_row(2, "NEW", 200)]
        );
        assert_eq!(db.table(orders).rows(), 2);
    }

    #[test]
    fn scan_range_charges_rows() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=100).map(|i| order_row(i, "NEW", i)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut seen = 0;
        db.scan_range(&mut ctx, orders, 10, 19, |_, _| {
            seen += 1;
            true
        });
        assert_eq!(seen, 10);
        assert_eq!(ctx.stats.rows, 10);
    }

    #[test]
    fn snapshot_scan_hides_future_versions_and_resurrects_deletes() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=5).map(|i| order_row(i, "NEW", i * 10)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.update(&mut ctx, &mut txn, orders, 2, |r| {
            r.values[1] = Value::Text("PAID".into());
        })
        .unwrap();
        db.delete(&mut ctx, &mut txn, orders, 3);
        db.insert(&mut ctx, &mut txn, orders, order_row(6, "NEW", 60))
            .unwrap();
        let c = db.commit(&mut ctx, txn);
        // The commit's ack lands at t=100ms; until then a snapshot must see
        // the pre-image world.
        db.publish_versions(&c, SimTime::from_millis(100));

        let collect_at = |db: &Database, ts: SimTime| {
            let mut got = Vec::new();
            db.scan_range_at(orders, 1, 10, ts, |k, row| {
                got.push((k, row.values[1].clone()));
                true
            });
            got
        };
        // Before the ack: update invisible, delete resurrected, insert absent.
        assert_eq!(
            collect_at(&db, SimTime::from_millis(50)),
            vec![
                (1, Value::Text("NEW".into())),
                (2, Value::Text("NEW".into())),
                (3, Value::Text("NEW".into())),
                (4, Value::Text("NEW".into())),
                (5, Value::Text("NEW".into())),
            ]
        );
        // At the ack instant the snapshot collapses to the tree.
        assert_eq!(
            collect_at(&db, SimTime::from_millis(100)),
            vec![
                (1, Value::Text("NEW".into())),
                (2, Value::Text("PAID".into())),
                (4, Value::Text("NEW".into())),
                (5, Value::Text("NEW".into())),
                (6, Value::Text("NEW".into())),
            ]
        );
        // The versioned ctx scan path agrees with the oracle path.
        let mut env2 = Env::new();
        let mut vctx = env2.ctx();
        vctx.isolation = crate::mvcc::IsolationLevel::Snapshot;
        vctx.now = SimTime::from_millis(50);
        let mut seen = Vec::new();
        db.scan_range(&mut vctx, orders, 1, 10, |k, _| {
            seen.push(k);
            true
        });
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(vctx.stats.rows, 5);
    }

    #[test]
    fn snapshot_scan_early_stop_spans_resurrected_rows() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=6).map(|i| order_row(i, "NEW", i * 10)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.delete(&mut ctx, &mut txn, orders, 2);
        db.delete(&mut ctx, &mut txn, orders, 6);
        let c = db.commit(&mut ctx, txn);
        db.publish_versions(&c, SimTime::from_millis(100));
        // Stop after two rows: the resurrected key 2 must count.
        let mut got = Vec::new();
        db.scan_range_at(orders, 1, 10, SimTime::from_millis(10), |k, _| {
            got.push(k);
            got.len() < 2
        });
        assert_eq!(got, vec![1, 2]);
        // Stop inside the overlay tail past the last tree key.
        let mut tail = Vec::new();
        db.scan_range_at(orders, 5, 10, SimTime::from_millis(10), |k, _| {
            tail.push(k);
            true
        });
        assert_eq!(tail, vec![5, 6], "deleted tail row must be resurrected");
    }

    #[test]
    fn checkpoint_flushes_and_records() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        {
            let mut ctx = env.ctx();
            let mut txn = db.begin();
            for i in 1..=50 {
                db.insert(&mut ctx, &mut txn, orders, order_row(i, "NEW", i))
                    .unwrap();
            }
            db.commit(&mut ctx, txn);
        }
        assert!(env.pool.dirty_count() > 0);
        let (lsn, flushed, io) = db.checkpoint(&mut env.pool, &mut env.storage, SimTime::ZERO);
        assert!(flushed > 0);
        assert!(io > SimDuration::ZERO);
        assert_eq!(db.last_checkpoint(), lsn);
        assert_eq!(env.pool.dirty_count(), 0);
    }

    #[test]
    fn wal_records_full_transaction_story() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 1))
            .unwrap();
        db.commit(&mut ctx, txn);
        let ops: Vec<_> = db
            .log()
            .records_after(Lsn::ZERO)
            .map(|r| std::mem::discriminant(&r.op))
            .collect();
        assert_eq!(ops.len(), 3); // Begin, Insert, Commit
        let kinds: Vec<_> = db.log().records_after(Lsn::ZERO).map(|r| &r.op).collect();
        assert!(matches!(kinds[0], WalOp::Begin));
        assert!(matches!(kinds[1], WalOp::Insert { key: 1, .. }));
        assert!(matches!(kinds[2], WalOp::Commit));
    }
}
