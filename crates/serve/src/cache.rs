//! The persistent content-addressed result cache behind the daemon.
//!
//! Layout: one sweep-journal file per *experiment universe* under the
//! cache directory —
//!
//! ```text
//! <cache_dir>/<universe fnv64 hex>.jsonl
//! ```
//!
//! — where the universe is [`universe_of`]: the lab's
//! `journal_universe()` with the **spec fingerprint stripped**. The
//! offline resume path folds the spec's own fingerprint into the
//! universe so a journal can never be resumed under an edited spec
//! file; the serve cache deliberately drops that one component, and
//! only it, because cell bytes depend solely on the lowered lab state
//! plus the config fingerprint in the cell key. Two different specs
//! (say `fig2` and a superset of it) that lower to the same lab state
//! therefore *share* cells — the content-addressing that makes
//! overlapping requests cache hits — while any knob that can change a
//! cell byte (seed, budgets, warm-up, machine, fault plans, retry
//! watchdogs) still forces a different shard file.
//!
//! Shards are the exact PR-6 journal format, opened through
//! [`Journal::open`]: a restarted daemon pointed at the same directory
//! comes back warm, and a damaged record is a typed
//! [`JournalError::Corrupt`] — served to the client as a
//! `journal-corrupt` error, never as silently recomputed-or-wrong
//! bytes. Alongside the on-disk shards the cache keeps the warm
//! normalization tables per universe in memory, so a request for an
//! already-normalized universe skips phase 1 entirely.

use smtsim_rob2::journal::fingerprint_str;
use smtsim_rob2::{Journal, JournalError, Lab, NormTable};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The serve-cache universe of a lowered lab: `journal_universe()`
/// with the spec fingerprint excluded (see the module docs for why
/// that is sound and necessary). Restores the lab unchanged.
pub fn universe_of(lab: &mut Lab) -> String {
    let fp = lab.spec_fingerprint.take();
    let universe = lab.journal_universe();
    lab.spec_fingerprint = fp;
    universe
}

/// A directory of per-universe journal shards plus warm in-memory
/// normalization tables. Cheap to share (`Arc` it inside the server).
pub struct ResultCache {
    dir: PathBuf,
    /// Open shard handles, one per universe seen since daemon start.
    /// Keeping them open means all requests in one universe append to
    /// one shared [`Journal`] whose in-memory view is live.
    shards: Mutex<BTreeMap<String, Arc<Journal>>>,
    /// Warm phase-1 tables per universe, merged across requests.
    norms: Mutex<BTreeMap<String, NormTable>>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory. Shards are
    /// opened lazily per universe on first request.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            shards: Mutex::new(BTreeMap::new()),
            norms: Mutex::new(BTreeMap::new()),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of the shard for `universe`. The file name is a
    /// second content hash of the universe string so arbitrary
    /// fingerprints can never escape the directory.
    pub fn shard_path(&self, universe: &str) -> PathBuf {
        self.dir
            .join(format!("{}.jsonl", fingerprint_str(universe)))
    }

    /// The shared journal shard for `universe`, opening (and
    /// validating) the on-disk file on first use. Corruption and
    /// universe mismatches surface typed.
    pub fn shard(&self, universe: &str) -> Result<Arc<Journal>, JournalError> {
        let mut shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(j) = shards.get(universe) {
            return Ok(j.clone());
        }
        let journal = Arc::new(Journal::open(&self.shard_path(universe), universe)?);
        shards.insert(universe.to_string(), journal.clone());
        Ok(journal)
    }

    /// Drops the open handle for `universe` so the next request
    /// re-reads the file from disk — the hook the recovery tests use
    /// to exercise reopen-after-crash inside one process.
    pub fn evict_shard(&self, universe: &str) {
        self.shards
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(universe);
    }

    /// Seeds `lab`'s single-thread normalization cache from the warm
    /// table held for `universe`, if any.
    pub fn seed_lab(&self, universe: &str, lab: &mut Lab) {
        let norms = self.norms.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(table) = norms.get(universe) {
            lab.seed_norm_cache(table);
        }
    }

    /// Folds a freshly computed normalization table into the warm
    /// store for `universe`.
    pub fn store_norm(&self, universe: &str, table: &NormTable) {
        let mut norms = self.norms.lock().unwrap_or_else(|e| e.into_inner());
        norms
            .entry(universe.to_string())
            .and_modify(|warm| warm.merge(table))
            .or_insert_with(|| table.clone());
    }

    /// Number of warm normalization entries held for `universe`
    /// (observability for tests and metrics).
    pub fn warm_norm_entries(&self, universe: &str) -> usize {
        self.norms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(universe)
            .map_or(0, NormTable::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_rob2::RobConfig;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smtsim-serve-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A small-budget lab so unit tests stay fast.
    fn small_lab(seed: u64) -> Lab {
        Lab::new(seed).with_budgets(2_000, 2_000).with_warmup(1_000)
    }

    #[test]
    fn universe_strips_only_the_spec_fingerprint() {
        let mut a = small_lab(42).with_spec_fingerprint(Some("spec-A".into()));
        let mut b = small_lab(42).with_spec_fingerprint(Some("spec-B".into()));
        let mut plain = small_lab(42);
        let ua = universe_of(&mut a);
        assert_eq!(
            ua,
            universe_of(&mut b),
            "spec identity must not shard the cache"
        );
        assert_eq!(ua, universe_of(&mut plain));
        assert_eq!(
            a.spec_fingerprint.as_deref(),
            Some("spec-A"),
            "lab restored"
        );
        // ...but a byte-affecting knob still does.
        let mut other_seed = small_lab(43);
        assert_ne!(ua, universe_of(&mut other_seed));
        // And the stripped universe still matches what a journal-armed
        // figure run would use when it has no spec fingerprint at all.
        assert_eq!(ua, plain.journal_universe());
    }

    #[test]
    fn shards_are_shared_reopened_and_evictable() {
        let dir = scratch("shard");
        let cache = ResultCache::open(&dir).unwrap();
        let mut lab = small_lab(42);
        let uni = universe_of(&mut lab);
        let j1 = cache.shard(&uni).unwrap();
        let j2 = cache.shard(&uni).unwrap();
        assert!(Arc::ptr_eq(&j1, &j2), "one live handle per universe");
        assert!(j1.path().is_some_and(|p| p.starts_with(&dir)));

        // A *different universe* maps to a different shard file.
        let mut lab2 = small_lab(7);
        let uni2 = universe_of(&mut lab2);
        assert_ne!(cache.shard_path(&uni), cache.shard_path(&uni2));

        let norm = lab.norm_table(&[1]);
        let (run, attempts) = lab.run_cell_with_retries(1, RobConfig::Baseline(32), &norm);
        j1.record("1|test", &run.expect("cell runs"), attempts)
            .unwrap();

        // Evict, reopen from disk: the record survives the round trip.
        cache.evict_shard(&uni);
        let j3 = cache.shard(&uni).unwrap();
        assert!(!Arc::ptr_eq(&j1, &j3));
        assert!(j3.lookup("1|test").is_some(), "warm after reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_norms_merge_and_seed() {
        let dir = scratch("norm");
        let cache = ResultCache::open(&dir).unwrap();
        let mut lab = small_lab(42);
        let uni = universe_of(&mut lab);
        assert_eq!(cache.warm_norm_entries(&uni), 0);
        let t1 = lab.norm_table(&[1]);
        cache.store_norm(&uni, &t1);
        let n1 = cache.warm_norm_entries(&uni);
        assert!(n1 > 0);
        let t2 = lab.norm_table(&[2]);
        cache.store_norm(&uni, &t2);
        assert!(
            cache.warm_norm_entries(&uni) > n1,
            "tables merge, not replace"
        );
        // A fresh same-universe lab seeded from the warm table covers
        // both mixes without re-running any phase-1 work.
        let mut fresh = small_lab(42);
        cache.seed_lab(&uni, &mut fresh);
        let before = fresh.cached_norm_runs();
        let again = fresh.norm_table(&[1, 2]);
        assert_eq!(again.len(), t1.len() + t2.len());
        assert_eq!(
            fresh.cached_norm_runs(),
            before,
            "phase 1 fully served from the warm table"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
