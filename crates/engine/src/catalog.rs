//! The system catalog: tables, indexes and registered functions.
//!
//! Mirrors the registration model of the paper's prototype: CLR
//! assemblies register scalar UDFs, TVFs and UDAs with the server; here
//! they are `Arc<dyn ...>` objects registered with the [`Catalog`].
//! Built-ins (`COUNT`, `CHARINDEX`, ...) live in the same registries as
//! user extensions.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use seqdb_types::{DbError, Result, Row, Schema, Value};

use seqdb_storage::rowfmt::{self, Compression};
use seqdb_storage::{btree, keycode};
use seqdb_storage::{BTree, BufferPool, HeapFile};

use crate::udx::{Aggregate, ScalarUdf, TableFunction};

/// The header of the catalog snapshots this version writes: `v2`, whose
/// index roots are B+-trees of slotted nodes.
const CATALOG_V2: &str = "seqdb-catalog v2";
/// The header of the snapshots written before B+-tree nodes were slotted.
const CATALOG_V1: &str = "seqdb-catalog v1";

/// Refuse, with [`DbError::Unsupported`], a catalog snapshot whose
/// indexes this version cannot read: a `v1` snapshot that lists an index,
/// whose tree is in the node format before slotted nodes. There is no
/// upgrade path. A `v1` snapshot of heaps alone is accepted — the heap
/// format is unchanged — and the next checkpoint writes it as `v2`. The
/// reopen of a database directory and the restore of a backup set both
/// pass through here, before any page is read.
pub fn check_snapshot_format(text: &str) -> Result<()> {
    let mut lines = text.lines();
    if lines.next() != Some(CATALOG_V1) {
        return Ok(());
    }
    match lines.find_map(|line| line.strip_prefix("index\t")) {
        Some(index) => {
            let name = index.split('\t').next().unwrap_or_default();
            Err(DbError::Unsupported(format!(
                "catalog snapshot is {CATALOG_V1}: its index {name} is a B+-tree in the \
                 node format before {CATALOG_V2}, which this version neither reads nor upgrades"
            )))
        }
        None => Ok(()),
    }
}

/// A secondary (or clustered-key) B+-tree index over a table.
pub struct TableIndex {
    pub name: String,
    /// Positions of the key columns in the table schema.
    pub columns: Vec<usize>,
    pub unique: bool,
    pub btree: BTree,
    /// The next suffix of a non-unique index's keys (see [`Self::add`]).
    /// It only grows: a suffix freed by a delete is never handed out again.
    seq: AtomicU64,
}

impl TableIndex {
    /// An index over `btree`; the suffix sequence of a non-unique one
    /// resumes after the largest suffix the tree holds.
    fn new(name: String, columns: Vec<usize>, unique: bool, btree: BTree) -> Result<TableIndex> {
        let mut seq = 0;
        if !unique && !btree.is_empty() {
            let mut entries = btree.range(Bound::Unbounded, Bound::Unbounded)?;
            while let Some(entry) = entries.next_entry() {
                if let Some(suffix) = entry?.0.last_chunk::<8>() {
                    seq = seq.max(u64::from_be_bytes(*suffix) + 1);
                }
            }
        }
        Ok(TableIndex {
            name,
            columns,
            unique,
            btree,
            seq: AtomicU64::new(seq),
        })
    }

    /// Encode the index key for a row.
    pub fn key_of(&self, row: &Row) -> Vec<u8> {
        let vals: Vec<Value> = self.columns.iter().map(|&c| row[c].clone()).collect();
        keycode::encode_key(&vals)
    }

    /// Refuse a row whose entry — `key`, a non-unique index's 8-byte
    /// suffix (see [`Self::add`]) and the `encoded` row — no node holds.
    fn check_entry(&self, key: &[u8], encoded: &[u8]) -> Result<()> {
        let suffix = if self.unique { 0 } else { size_of::<u64>() };
        btree::check_entry(key.len() + suffix + encoded.len())
    }

    /// Store a row's encoded bytes under its `key_of` key.
    fn add(&self, mut key: Vec<u8>, encoded: &[u8]) -> Result<()> {
        if !self.unique {
            // Disambiguate duplicate keys with a sequence suffix so
            // non-unique indexes keep every row.
            key.extend_from_slice(&self.seq.fetch_add(1, Ordering::Relaxed).to_be_bytes());
        }
        self.btree.insert(&key, encoded).map(drop)
    }
}

/// A table: heap storage plus any indexes.
pub struct Table {
    pub name: String,
    pub schema: Arc<Schema>,
    pub heap: Arc<HeapFile>,
    /// Positions of the declared PRIMARY KEY columns (if any). The PK is
    /// backed by the first index in `indexes`.
    pub primary_key: Option<Vec<usize>>,
    pub indexes: RwLock<Vec<Arc<TableIndex>>>,
}

impl Table {
    /// Insert one row, maintaining all indexes and PK uniqueness.
    pub fn insert(&self, row: &Row) -> Result<()> {
        let mut row = row.clone();
        self.schema.coerce_row(&mut row);
        self.schema.check_row(&row)?;
        let indexes = self.indexes.read();
        // Each key once; entry sizes and uniqueness checked before any
        // mutation, so a refused row leaves nothing behind.
        let keys: Vec<Vec<u8>> = indexes.iter().map(|idx| idx.key_of(&row)).collect();
        let encoded = rowfmt::encode_row(&self.schema, &row, Compression::Row, None);
        for (idx, key) in indexes.iter().zip(&keys) {
            idx.check_entry(key, &encoded)?;
            if idx.unique && idx.btree.contains_key(key)? {
                return Err(DbError::Constraint(format!(
                    "duplicate key in unique index {} of table {}",
                    idx.name, self.name
                )));
            }
        }
        self.heap.insert(&row)?;
        for (idx, key) in indexes.iter().zip(keys) {
            idx.add(key, &encoded)?;
        }
        Ok(())
    }

    /// Bulk insert.
    pub fn insert_many<'a>(&self, rows: impl IntoIterator<Item = &'a Row>) -> Result<u64> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Replace row `rid`, holding `old`, with `new`: a delete and an
    /// insert that leave `old` in place when `new` is refused. `new` is
    /// coerced and checked before anything changes; an insert refused
    /// after the delete (a duplicate key, an oversized index entry) puts
    /// `old` back, under a new record id, before the error is returned.
    pub fn update(&self, rid: seqdb_storage::RecordId, old: &Row, new: &Row) -> Result<()> {
        let mut new = new.clone();
        self.schema.coerce_row(&mut new);
        self.schema.check_row(&new)?;
        self.delete_row(rid, old)?;
        if let Err(e) = self.insert(&new) {
            self.insert(old)?;
            return Err(e);
        }
        Ok(())
    }

    /// Delete one row (by its record id and current contents),
    /// maintaining all indexes. Non-unique index entries are located by
    /// a prefix scan over the key and matched on the encoded row.
    pub fn delete_row(&self, rid: seqdb_storage::RecordId, row: &Row) -> Result<()> {
        let mut row = row.clone();
        self.schema.coerce_row(&mut row);
        if !self.heap.delete(rid)? {
            return Err(DbError::NotFound(format!(
                "record {rid:?} in table {}",
                self.name
            )));
        }
        let encoded = rowfmt::encode_row(&self.schema, &row, Compression::Row, None);
        let indexes = self.indexes.read();
        for idx in indexes.iter() {
            let mut key = idx.key_of(&row);
            if !idx.unique {
                // Prefix scan: suffixed duplicates share the prefix.
                let hi = [key.as_slice(), &[0xff]].concat();
                let matching = idx
                    .btree
                    .range(Bound::Included(&key), Bound::Excluded(&hi))?
                    .find(|e| e.as_ref().map_or(true, |(_, v)| *v == encoded));
                let Some(entry) = matching else { continue };
                key = entry?.0;
            }
            idx.btree.delete(&key)?;
        }
        Ok(())
    }

    /// Delete all rows matching `pred`; returns the number removed.
    pub fn delete_where(&self, pred: impl Fn(&Row) -> Result<bool>) -> Result<u64> {
        let victims: Vec<(seqdb_storage::RecordId, Row)> = self
            .heap
            .scan()
            .filter_map(|item| match item {
                Ok((rid, row)) => match pred(&row) {
                    Ok(true) => Some(Ok((rid, row))),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                },
                Err(e) => Some(Err(e)),
            })
            .collect::<Result<_>>()?;
        for (rid, row) in &victims {
            self.delete_row(*rid, row)?;
        }
        Ok(victims.len() as u64)
    }

    pub fn row_count(&self) -> u64 {
        self.heap.row_count()
    }

    /// Find an index whose key columns *start with* `cols` (enabling
    /// ordered scans and merge joins on a prefix of the key).
    pub fn index_with_prefix(&self, cols: &[usize]) -> Option<Arc<TableIndex>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.columns.len() >= cols.len() && i.columns[..cols.len()] == *cols)
            .cloned()
    }

    pub fn index_named(&self, name: &str) -> Option<Arc<TableIndex>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
            .cloned()
    }
}

/// The catalog of one database.
pub struct Catalog {
    pool: Arc<BufferPool>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    scalar_fns: RwLock<HashMap<String, Arc<dyn ScalarUdf>>>,
    table_fns: RwLock<HashMap<String, Arc<dyn TableFunction>>>,
    aggregates: RwLock<HashMap<String, Arc<dyn Aggregate>>>,
}

impl Catalog {
    pub fn new(pool: Arc<BufferPool>) -> Arc<Catalog> {
        Arc::new(Catalog {
            pool,
            tables: RwLock::new(HashMap::new()),
            scalar_fns: RwLock::new(HashMap::new()),
            table_fns: RwLock::new(HashMap::new()),
            aggregates: RwLock::new(HashMap::new()),
        })
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a table. `primary_key` columns get a unique index
    /// `PK_<table>` automatically (the "clustered index" of the paper's
    /// physical designs).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        compression: Compression,
        primary_key: Option<Vec<usize>>,
    ) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(DbError::Schema(format!("table {name} already exists")));
        }
        if let Some(pk) = &primary_key {
            for &c in pk {
                if c >= schema.len() {
                    return Err(DbError::Schema(format!(
                        "primary key column #{c} out of range"
                    )));
                }
            }
        }
        let schema = Arc::new(schema);
        let heap = Arc::new(HeapFile::create(
            self.pool.clone(),
            schema.clone(),
            compression,
        )?);
        let mut indexes = Vec::new();
        if let Some(pk) = &primary_key {
            indexes.push(Arc::new(TableIndex::new(
                format!("PK_{name}"),
                pk.clone(),
                true,
                BTree::create(self.pool.clone())?,
            )?));
        }
        let table = Arc::new(Table {
            name: name.to_string(),
            schema,
            heap,
            primary_key,
            indexes: RwLock::new(indexes),
        });
        tables.insert(key, table.clone());
        Ok(table)
    }

    /// Create a secondary index and backfill it from existing rows.
    pub fn create_index(
        &self,
        table: &str,
        index_name: &str,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<Arc<TableIndex>> {
        let table = self.table(table)?;
        let idx = Arc::new(TableIndex::new(
            index_name.to_string(),
            columns,
            unique,
            BTree::create(self.pool.clone())?,
        )?);
        for item in table.heap.scan() {
            let (_, row) = item?;
            let key = idx.key_of(&row);
            if idx.unique && idx.btree.contains_key(&key)? {
                return Err(DbError::Constraint(format!(
                    "duplicate key while building unique index {index_name}"
                )));
            }
            let encoded = rowfmt::encode_row(&table.schema, &row, Compression::Row, None);
            idx.add(key, &encoded)?;
        }
        table.indexes.write().push(idx.clone());
        Ok(idx)
    }

    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .tables
            .read()
            .values()
            .map(|t| t.name.clone())
            .collect();
        v.sort();
        v
    }

    // -- durable table metadata ---------------------------------------

    /// Serialize every table's metadata — schema, compression, primary
    /// key, heap first page and index roots — as a text snapshot. Written
    /// to `catalog.seqdb` at checkpoint time (metadata durability follows
    /// data durability: a table created after the last checkpoint is as
    /// volatile as its rows) and captured into backup sets, so a restored
    /// or reopened directory can rebuild its tables with
    /// [`Catalog::load_tables`].
    pub fn serialize_tables(&self) -> String {
        let mut out = format!("{CATALOG_V2}\n");
        let tables = self.tables.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        for key in names {
            let t = &tables[key];
            let pk = match &t.primary_key {
                Some(cols) if !cols.is_empty() => cols
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "table\t{}\t{}\t{}\t{}\n",
                t.name,
                t.heap.compression().sql_name(),
                pk,
                t.heap.first_page()
            ));
            for col in t.schema.columns() {
                out.push_str(&format!(
                    "col\t{}\t{}\t{}\t{}\n",
                    col.name,
                    col.dtype.sql_name(),
                    u8::from(col.nullable),
                    u8::from(col.filestream)
                ));
            }
            for idx in t.indexes.read().iter() {
                let cols = idx
                    .columns
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!(
                    "index\t{}\t{}\t{}\t{}\n",
                    idx.name,
                    cols,
                    u8::from(idx.unique),
                    idx.btree.root_page()
                ));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Rebuild tables from a [`Catalog::serialize_tables`] snapshot by
    /// reopening each heap chain and index tree at its recorded root.
    /// Returns the number of tables loaded plus the `(name, first_page)`
    /// of any table whose pages could not be walked (rotted at rest
    /// since the snapshot): those are skipped so one bad table cannot
    /// brick the whole database — the caller fences them in the
    /// quarantine. Fails with [`DbError::Corruption`] on a malformed
    /// snapshot — a reopened database must not come up silently missing
    /// tables.
    pub fn load_tables(&self, text: &str) -> Result<(usize, Vec<(String, u64)>)> {
        let bad = |m: &str| DbError::Corruption(format!("catalog snapshot: {m}"));
        check_snapshot_format(text)?;
        let mut lines = text.lines();
        if !matches!(lines.next(), Some(CATALOG_V1 | CATALOG_V2)) {
            return Err(bad("missing or unrecognized header"));
        }
        // Parse into per-table groups first so a malformed snapshot loads
        // nothing rather than half the tables.
        struct Pending {
            name: String,
            compression: Compression,
            primary_key: Option<Vec<usize>>,
            first_page: u64,
            columns: Vec<seqdb_types::Column>,
            indexes: Vec<(String, Vec<usize>, bool, u64)>,
        }
        let parse_cols = |s: &str| -> Result<Vec<usize>> {
            s.split(',')
                .map(|c| {
                    c.parse::<usize>()
                        .map_err(|_| bad(&format!("bad column list {s:?}")))
                })
                .collect()
        };
        let mut pending: Vec<Pending> = Vec::new();
        let mut saw_end = false;
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["table", name, comp, pk, first] => {
                    let compression = match *comp {
                        "NONE" => Compression::None,
                        "ROW" => Compression::Row,
                        "PAGE" => Compression::Page,
                        other => return Err(bad(&format!("unknown compression {other:?}"))),
                    };
                    let primary_key = if *pk == "-" {
                        None
                    } else {
                        Some(parse_cols(pk)?)
                    };
                    let first_page = first
                        .parse::<u64>()
                        .map_err(|_| bad(&format!("bad heap page {first:?}")))?;
                    pending.push(Pending {
                        name: name.to_string(),
                        compression,
                        primary_key,
                        first_page,
                        columns: Vec::new(),
                        indexes: Vec::new(),
                    });
                }
                ["col", name, dtype, nullable, fs] => {
                    let t = pending.last_mut().ok_or_else(|| bad("col before table"))?;
                    let dtype = seqdb_types::DataType::from_sql_name(dtype)
                        .ok_or_else(|| bad(&format!("unknown type {dtype:?}")))?;
                    let mut col = seqdb_types::Column::new(name.to_string(), dtype);
                    col.nullable = *nullable == "1";
                    col.filestream = *fs == "1";
                    t.columns.push(col);
                }
                ["index", name, cols, unique, root] => {
                    let t = pending
                        .last_mut()
                        .ok_or_else(|| bad("index before table"))?;
                    let root = root
                        .parse::<u64>()
                        .map_err(|_| bad(&format!("bad index root {root:?}")))?;
                    t.indexes
                        .push((name.to_string(), parse_cols(cols)?, *unique == "1", root));
                }
                ["end"] => {
                    saw_end = true;
                    break;
                }
                _ => return Err(bad(&format!("unrecognized line {line:?}"))),
            }
        }
        if !saw_end {
            return Err(bad("truncated snapshot (no end marker)"));
        }
        let mut count = 0usize;
        let mut unreadable: Vec<(String, u64)> = Vec::new();
        for p in pending {
            let schema = Arc::new(Schema::new(p.columns));
            let rebuild = || -> Result<Arc<Table>> {
                let heap = Arc::new(HeapFile::open(
                    self.pool.clone(),
                    schema.clone(),
                    p.compression,
                    p.first_page,
                )?);
                let mut indexes = Vec::new();
                for (name, columns, unique, root) in &p.indexes {
                    indexes.push(Arc::new(TableIndex::new(
                        name.clone(),
                        columns.clone(),
                        *unique,
                        BTree::open(self.pool.clone(), *root)?,
                    )?));
                }
                Ok(Arc::new(Table {
                    name: p.name.clone(),
                    schema: schema.clone(),
                    heap,
                    primary_key: p.primary_key.clone(),
                    indexes: RwLock::new(indexes),
                }))
            };
            match rebuild() {
                Ok(table) => {
                    self.tables
                        .write()
                        .insert(p.name.to_ascii_lowercase(), table);
                    count += 1;
                }
                Err(_) => unreadable.push((p.name, p.first_page)),
            }
        }
        Ok((count, unreadable))
    }

    // -- function registries ------------------------------------------

    pub fn register_scalar(&self, f: Arc<dyn ScalarUdf>) {
        self.scalar_fns
            .write()
            .insert(f.name().to_ascii_uppercase(), f);
    }

    pub fn register_table_fn(&self, f: Arc<dyn TableFunction>) {
        self.table_fns
            .write()
            .insert(f.name().to_ascii_uppercase(), f);
    }

    pub fn register_aggregate(&self, f: Arc<dyn Aggregate>) {
        self.aggregates
            .write()
            .insert(f.name().to_ascii_uppercase(), f);
    }

    pub fn scalar_fn(&self, name: &str) -> Option<Arc<dyn ScalarUdf>> {
        self.scalar_fns
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
    }

    pub fn table_fn(&self, name: &str) -> Option<Arc<dyn TableFunction>> {
        self.table_fns
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
    }

    pub fn aggregate(&self, name: &str) -> Option<Arc<dyn Aggregate>> {
        self.aggregates
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb_storage::MemPager;
    use seqdb_types::{Column, DataType};

    fn catalog() -> Arc<Catalog> {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 1024);
        Catalog::new(pool)
    }

    fn read_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("seq", DataType::Text),
        ])
    }

    #[test]
    fn create_insert_and_pk_enforcement() {
        let cat = catalog();
        let t = cat
            .create_table("Read", read_schema(), Compression::Row, Some(vec![0]))
            .unwrap();
        t.insert(&Row::new(vec![Value::Int(1), Value::text("ACGT")]))
            .unwrap();
        let dup = t.insert(&Row::new(vec![Value::Int(1), Value::text("GGGG")]));
        assert!(matches!(dup, Err(DbError::Constraint(_))));
        assert_eq!(t.row_count(), 1);
        // Case-insensitive lookup.
        assert!(cat.table("READ").is_ok());
        assert!(cat.table("nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let cat = catalog();
        cat.create_table("t", read_schema(), Compression::None, None)
            .unwrap();
        assert!(cat
            .create_table("T", read_schema(), Compression::None, None)
            .is_err());
    }

    #[test]
    fn secondary_index_backfills_and_orders() {
        let cat = catalog();
        let t = cat
            .create_table("t", read_schema(), Compression::Row, None)
            .unwrap();
        for i in [5i64, 3, 9, 1] {
            t.insert(&Row::new(vec![Value::Int(i), Value::text("X")]))
                .unwrap();
        }
        let idx = cat.create_index("t", "ix_id", vec![0], false).unwrap();
        let keys: Vec<i64> = idx
            .btree
            .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .unwrap()
            .map(|e| {
                let (_, v) = e.unwrap();
                let row = rowfmt::decode_row(&t.schema, &v, Compression::Row, None).unwrap();
                row[0].as_int().unwrap()
            })
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert!(t.index_with_prefix(&[0]).is_some());
        assert!(t.index_with_prefix(&[1]).is_none());
    }

    #[test]
    fn non_unique_index_keeps_duplicates() {
        let cat = catalog();
        let t = cat
            .create_table("t", read_schema(), Compression::Row, None)
            .unwrap();
        cat.create_index("t", "ix_seq", vec![1], false).unwrap();
        for _ in 0..5 {
            t.insert(&Row::new(vec![Value::Int(1), Value::text("SAME")]))
                .unwrap();
        }
        let idx = t.index_named("ix_seq").unwrap();
        assert_eq!(idx.btree.len(), 5);
    }

    #[test]
    fn delete_maintains_indexes() {
        let cat = catalog();
        let t = cat
            .create_table("t", read_schema(), Compression::Row, Some(vec![0]))
            .unwrap();
        cat.create_index("t", "ix_seq", vec![1], false).unwrap();
        for i in 0..50i64 {
            t.insert(&Row::new(vec![
                Value::Int(i),
                Value::text(format!("S{}", i % 5)),
            ]))
            .unwrap();
        }
        let n = t.delete_where(|r| Ok(r[0].as_int()? % 2 == 0)).unwrap();
        assert_eq!(n, 25);
        assert_eq!(t.row_count(), 25);
        // PK index reflects the deletions.
        let pk = t.index_with_prefix(&[0]).unwrap();
        assert_eq!(pk.btree.len(), 25);
        // Non-unique secondary index too.
        let ix = t.index_named("ix_seq").unwrap();
        assert_eq!(ix.btree.len(), 25);
        // Deleted keys can be reinserted (index entries truly gone).
        t.insert(&Row::new(vec![Value::Int(0), Value::text("S0")]))
            .unwrap();
        assert_eq!(t.row_count(), 26);
    }

    #[test]
    fn non_unique_index_keeps_every_row_after_a_delete() {
        let cat = catalog();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("grp", DataType::Int),
        ]);
        let t = cat
            .create_table("t", schema, Compression::Row, Some(vec![0]))
            .unwrap();
        cat.create_index("t", "ix_grp", vec![1], false).unwrap();
        let insert = |t: &Table, id: i64| t.insert(&Row::new(vec![Value::Int(id), Value::Int(5)]));
        let ids_by_grp = |t: &Arc<Table>| -> Vec<i64> {
            let scan = crate::exec::scan::IndexScanIter::new(
                t,
                t.index_named("ix_grp").unwrap(),
                crate::exec::scan::KeyRange::prefix(&[Value::Int(5)]),
                None,
                None,
            )
            .unwrap();
            let rows = crate::exec::collect(Box::new(scan), 1024).unwrap();
            rows.iter().map(|r| r[0].as_int().unwrap()).collect()
        };
        insert(&t, 1).unwrap();
        insert(&t, 2).unwrap();
        // Deleting row 1 frees its suffix; the entry count falls to 1,
        // which is the suffix row 2 holds.
        assert_eq!(t.delete_where(|r| Ok(r[0] == Value::Int(1))).unwrap(), 1);
        insert(&t, 3).unwrap();
        assert_eq!(ids_by_grp(&t), vec![2, 3]);
        assert_eq!(t.index_named("ix_grp").unwrap().btree.len(), 2);
        // A reopened index resumes after the largest suffix it holds.
        let reopened = Catalog::new(cat.pool().clone());
        reopened.load_tables(&cat.serialize_tables()).unwrap();
        let t = reopened.table("t").unwrap();
        assert_eq!(t.delete_where(|r| Ok(r[0] == Value::Int(2))).unwrap(), 1);
        insert(&t, 4).unwrap();
        insert(&t, 5).unwrap();
        assert_eq!(ids_by_grp(&t), vec![3, 4, 5]);
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn function_registries_are_case_insensitive() {
        let cat = catalog();
        for f in crate::builtins::all_builtins() {
            cat.register_scalar(f);
        }
        assert!(cat.scalar_fn("charindex").is_some());
        assert!(cat.scalar_fn("CHARINDEX").is_some());
        assert!(cat.scalar_fn("nosuch").is_none());
    }
}
