//! Spill-accounted temporary storage for blocking operators.
//!
//! §5.3.3 of the paper observes that the conceptually-clean pivot/group
//! consensus plan "produce\[s\] a huge intermediate result on the temporary
//! tablespace ... and large amounts of disk writes for the intermediate
//! results. Hence it is not practical." To *measure* that claim rather
//! than assert it, every blocking operator in seqdb (external sort, hash
//! aggregate, hash join) writes its spills through a [`TempSpace`], which
//! counts bytes. The consensus benchmark reports the counter for both
//! plans. Every spill is the same kind of file: its waits are `SPILL_IO`,
//! and the tallies it is created with say which query and operator
//! wrote it.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use seqdb_types::{DbError, Result};

use crate::counters::{
    emit_storage_event, storage_counters, waits, SpillTally, StorageEvent, WaitClass,
};
use crate::fault::FaultClock;

/// A directory of temporary spill files with global byte accounting.
pub struct TempSpace {
    dir: PathBuf,
    seq: AtomicU64,
    bytes_written: AtomicU64,
    spill_count: AtomicU64,
    fault: Mutex<Option<Arc<FaultClock>>>,
}

impl TempSpace {
    /// Create a temp space under `dir` (created if missing). Spill files
    /// left behind by a hard crash — writers delete on drop, but a killed
    /// process never drops — are swept here and counted in the
    /// `startup_orphans_removed` counter. Temp dirs are per-database, so
    /// anything present at open time is garbage by construction.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Arc<TempSpace>> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("spill-")
                && name.ends_with(".tmp")
                && fs::remove_file(&path).is_ok()
            {
                storage_counters()
                    .startup_orphans_removed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(Arc::new(TempSpace {
            dir,
            seq: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            spill_count: AtomicU64::new(0),
            fault: Mutex::new(None),
        }))
    }

    /// Share a [`FaultClock`] so spill-file I/O participates in the same
    /// seeded fault schedule as the data file and WAL (spill writes are raw
    /// file I/O that bypasses the pager, like the FileStream store).
    pub fn set_fault_clock(&self, clock: Option<Arc<FaultClock>>) {
        *self.fault.lock() = clock;
    }

    /// Consult the attached fault clock as a write: spill creation and
    /// writes are both on the shared op schedule and the first things a
    /// filling disk starves.
    fn inject_write(&self) -> Result<()> {
        if let Some(clock) = self.fault.lock().as_ref() {
            clock.inject_write()?;
        }
        Ok(())
    }

    /// Create a new spill file for writing.
    pub fn create_spill(self: &Arc<Self>) -> Result<SpillWriter> {
        self.create_spill_tallied(Vec::new())
    }

    /// Create a new spill file whose traffic is also attributed to each of
    /// `tallies` (per-query and per-operator spill accounting for
    /// `EXPLAIN ANALYZE` and the DMVs). The space's own counters and the
    /// global registry are always updated regardless.
    pub fn create_spill_tallied(
        self: &Arc<Self>,
        tallies: Vec<Arc<SpillTally>>,
    ) -> Result<SpillWriter> {
        self.inject_write()?;
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("spill-{n}.tmp"));
        let file = File::create(&path).map_err(DbError::io_write)?;
        self.spill_count.fetch_add(1, Ordering::Relaxed);
        storage_counters()
            .spill_files
            .fetch_add(1, Ordering::Relaxed);
        for tally in &tallies {
            tally.add_file();
        }
        emit_storage_event(StorageEvent::SpillFile);
        Ok(SpillWriter {
            space: Arc::clone(self),
            path,
            writer: Some(BufWriter::new(file)),
            tallies,
            frame: Vec::new(),
        })
    }

    /// Total bytes ever written to spill files (monotonic).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of spill files ever created (monotonic).
    pub fn spill_count(&self) -> u64 {
        self.spill_count.load(Ordering::Relaxed)
    }

    /// Reset the counters (between benchmark runs).
    pub fn reset_counters(&self) {
        self.bytes_written.store(0, Ordering::Relaxed);
        self.spill_count.store(0, Ordering::Relaxed);
    }

    /// Directory this temp space writes into.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Number of spill files currently on disk. Spill files delete
    /// themselves when their writer/reader drops, so after a query ends —
    /// normally or aborted — this must return to its pre-query value;
    /// leak tests assert exactly that.
    pub fn live_files(&self) -> Result<usize> {
        Ok(fs::read_dir(&self.dir)?.count())
    }
}

/// Write half of a spill file. Call [`SpillWriter::finish`] to flip it
/// into a reader; dropping it instead deletes the file.
pub struct SpillWriter {
    space: Arc<TempSpace>,
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    tallies: Vec<Arc<SpillTally>>,
    /// Reused by [`SpillWriter::write_frame`], so the steady state
    /// allocates nothing per record.
    frame: Vec<u8>,
}

impl SpillWriter {
    /// Append one record as a frame: a `u32` little-endian length, then
    /// the bytes `fill` appends. [`SpillReader::read_frame`] reads it
    /// back.
    pub fn write_frame(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.extend_from_slice(&[0; 4]);
        fill(&mut frame);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        let res = self.write_all(&frame);
        self.frame = frame;
        res
    }

    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.space.inject_write()?;
        let start = Instant::now();
        self.writer
            .as_mut()
            .expect("writer live until finish")
            .write_all(buf)
            .map_err(DbError::io_write)?;
        let waited = start.elapsed();
        waits().record(WaitClass::SpillIo, waited);
        for tally in &self.tallies {
            tally.add_wait_nanos(waited.as_nanos() as u64);
        }
        self.space
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        storage_counters()
            .spill_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        for tally in &self.tallies {
            tally.add_bytes(buf.len() as u64);
        }
        Ok(())
    }

    /// Flush and reopen for reading from the start.
    pub fn finish(mut self) -> Result<SpillReader> {
        let mut w = self.writer.take().expect("writer live until finish");
        w.flush()?;
        drop(w);
        let file = File::open(&self.path)?;
        Ok(SpillReader {
            path: std::mem::take(&mut self.path),
            reader: BufReader::with_capacity(64 * 1024, file),
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if self.writer.take().is_some() {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Read half of a spill file; the file is deleted on drop.
pub struct SpillReader {
    path: PathBuf,
    reader: BufReader<File>,
}

impl SpillReader {
    /// Read the next frame written by [`SpillWriter::write_frame`] into
    /// `buf`, replacing its contents. `false` at the end of the file; a
    /// frame cut short is a [`DbError::Storage`] error.
    pub fn read_frame(&mut self, buf: &mut Vec<u8>) -> Result<bool> {
        let mut len = [0u8; 4];
        if !self.read_exact(&mut len)? {
            return Ok(false);
        }
        buf.resize(u32::from_le_bytes(len) as usize, 0);
        if !self.read_exact(buf)? {
            return Err(DbError::Storage("truncated spill frame".into()));
        }
        Ok(true)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<bool> {
        let start = Instant::now();
        let res = match self.reader.read_exact(buf) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(e.into()),
        };
        waits().record(WaitClass::SpillIo, start.elapsed());
        res
    }
}

impl Drop for SpillReader {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A temp space in a directory of its own, removed when it drops.
    struct Scratch(Arc<TempSpace>);

    impl std::ops::Deref for Scratch {
        type Target = Arc<TempSpace>;
        fn deref(&self) -> &Arc<TempSpace> {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(self.0.dir());
        }
    }

    fn scratch(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("seqdb-ts-{name}-{}", std::process::id()));
        Scratch(TempSpace::open(dir).unwrap())
    }

    #[test]
    fn spill_roundtrip_and_accounting() {
        let ts = scratch("roundtrip");
        let mut w = ts.create_spill().unwrap();
        w.write_frame(|b| b.extend_from_slice(b"hello ")).unwrap();
        w.write_frame(|b| b.extend_from_slice(b"spill")).unwrap();
        assert_eq!(ts.bytes_written(), 4 + 6 + 4 + 5);
        assert_eq!(ts.spill_count(), 1);
        let mut r = w.finish().unwrap();
        let mut buf = Vec::new();
        for rec in [&b"hello "[..], b"spill"] {
            assert!(r.read_frame(&mut buf).unwrap());
            assert_eq!(buf, rec);
        }
    }

    #[test]
    fn files_are_cleaned_up() {
        let dir = std::env::temp_dir().join(format!("seqdb-ts-clean-{}", std::process::id()));
        let ts = TempSpace::open(&dir).unwrap();
        {
            let mut w = ts.create_spill().unwrap();
            w.write_all(b"abandoned").unwrap();
            // dropped without finish
        }
        {
            let mut w = ts.create_spill().unwrap();
            w.write_all(b"read then dropped").unwrap();
            let mut r = w.finish().unwrap();
            let mut buf = [0u8; 4];
            assert!(r.read_exact(&mut buf).unwrap());
        }
        let leftovers = fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0, "spill files must not leak");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tallied_spills_attribute_files_and_bytes() {
        let ts = scratch("tally");
        let per_query = Arc::new(SpillTally::default());
        let per_node = Arc::new(SpillTally::default());
        let mut w = ts
            .create_spill_tallied(vec![Arc::clone(&per_query), Arc::clone(&per_node)])
            .unwrap();
        w.write_all(&[0u8; 300]).unwrap();
        w.write_all(&[1u8; 100]).unwrap();
        for tally in [&per_query, &per_node] {
            assert_eq!(tally.files(), 1);
            assert_eq!(tally.bytes(), 400);
        }
        let waited = waits().count(WaitClass::SpillIo);
        assert!(waited >= 2, "spill writes must record SPILL_IO waits");
    }

    #[test]
    fn fault_clock_injects_into_spill_writes() {
        use crate::fault::{FaultClock, FaultPlan};
        let dir = std::env::temp_dir().join(format!("seqdb-ts-fault-{}", std::process::id()));
        let ts = TempSpace::open(&dir).unwrap();
        ts.set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(3),
            ..FaultPlan::none()
        })));
        let mut w = ts.create_spill().unwrap(); // op 1
        w.write_all(b"ok").unwrap(); // op 2
        let err = w.write_all(b"boom").unwrap_err(); // op 3 fails
        assert!(matches!(err, seqdb_types::DbError::Io(_)), "{err}");
        drop(w);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "no leaked files");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_orphaned_spill_files() {
        let dir = std::env::temp_dir().join(format!("seqdb-ts-sweep-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("spill-0.tmp"), b"orphan").unwrap();
        fs::write(dir.join("spill-7.tmp"), b"orphan").unwrap();
        fs::write(dir.join("unrelated.dat"), b"keep").unwrap();
        let before = storage_counters()
            .startup_orphans_removed
            .load(Ordering::Relaxed);
        let ts = TempSpace::open(&dir).unwrap();
        assert_eq!(ts.live_files().unwrap(), 1, "only the orphans go");
        assert!(dir.join("unrelated.dat").exists());
        assert!(
            storage_counters()
                .startup_orphans_removed
                .load(Ordering::Relaxed)
                >= before + 2
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frames_roundtrip_and_a_cut_frame_is_an_error() {
        let ts = scratch("frames");
        let mut w = ts.create_spill().unwrap();
        for rec in [&b"first"[..], b"", b"third record"] {
            w.write_frame(|b| b.extend_from_slice(rec)).unwrap();
        }
        w.write_all(&[9, 0, 0, 0, 1]).unwrap(); // claims 9 bytes, holds 1
        let mut r = w.finish().unwrap();
        let mut buf = Vec::new();
        for rec in [&b"first"[..], b"", b"third record"] {
            assert!(r.read_frame(&mut buf).unwrap());
            assert_eq!(buf, rec);
        }
        assert!(matches!(r.read_frame(&mut buf), Err(DbError::Storage(_))));
        let mut w = ts.create_spill().unwrap();
        w.write_frame(|b| b.push(7)).unwrap();
        let mut r = w.finish().unwrap();
        assert!(r.read_frame(&mut buf).unwrap());
        assert!(!r.read_frame(&mut buf).unwrap(), "clean end of file");
    }
}
