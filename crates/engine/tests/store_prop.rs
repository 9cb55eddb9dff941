//! Corruption fuzz suite for the persistent memo store.
//!
//! The properties, under a seeded corruption schedule (`BAGCQ_STORE_SEED`
//! pins the seed; the CI crash-recovery job runs a matrix of them):
//!
//! * recovery NEVER panics, whatever bytes are on disk;
//! * recovery NEVER returns a wrong count — every fingerprint resolves to
//!   `None` (quarantined/lost, recomputed on demand) or to the exact
//!   value originally written (differential against an in-memory map);
//! * corruption is always *accounted*: if any record was lost, the
//!   [`RecoveryReport`] quarantine/truncation counters say so;
//! * a warm engine restart over a store answers previously computed
//!   counts from disk, bit-identically, with zero recomputation.

use bagcq_arith::Nat;
use bagcq_engine::{
    EngineConfig, EvalEngine, Job, MemoStore, Outcome, RecoveryReport, StoreOptions,
};
use bagcq_obs::SplitMix64;
use bagcq_query::{cycle_query, path_query, star_query, Query};
use bagcq_structure::{Fingerprint, Schema, Structure, StructureGen};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A deterministic SplitMix64 stream keyed by `BAGCQ_STORE_SEED` and `salt`.
fn seeded_rng(salt: u64) -> SplitMix64 {
    let seed = std::env::var("BAGCQ_STORE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42u64);
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bagcq-storeprop-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn key(n: u64) -> Fingerprint {
    Fingerprint { hi: n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD, lo: n }
}

/// A value whose limb count varies with `n`, so records have mixed sizes.
fn value(n: u64) -> Nat {
    if n % 3 == 0 {
        Nat::from_limbs(vec![n, n.wrapping_mul(7), 1])
    } else {
        Nat::from_u64(n * 1_000_003)
    }
}

/// Writes `n` records (several segments, no compaction) and returns the
/// ground-truth map.
fn populate(dir: &Path, n: u64) -> HashMap<Fingerprint, Nat> {
    let store = MemoStore::open_opts(
        dir,
        StoreOptions {
            max_segment_bytes: 512,
            flush_every: 3,
            compact_on_open: false,
            ..Default::default()
        },
    )
    .unwrap();
    let mut truth = HashMap::new();
    for i in 0..n {
        let v = value(i);
        store.put(key(i), &Outcome::Count(v.clone())).unwrap();
        truth.insert(key(i), v);
    }
    drop(store); // flushes
    truth
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    files.sort();
    files
}

/// Offsets at which truncating a segment leaves a *well-formed* shorter
/// file: 0 (empty torn prefix), the magic, and every record boundary.
/// Truncation at such an offset is indistinguishable from "fewer records
/// were ever written" — the one loss an append-only log cannot flag.
fn silent_truncation_points(path: &Path) -> Vec<u64> {
    let bytes = fs::read(path).unwrap();
    let mut points = vec![0, 16];
    let mut offset = 16usize;
    while offset + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        if offset + 8 + len > bytes.len() {
            break;
        }
        offset += 8 + len;
        points.push(offset as u64);
    }
    points
}

/// The core differential check: every key yields either `None` or the
/// exact original value, and any loss is visible in the recovery report —
/// except when `silent_loss_possible` (the corruption schedule truncated a
/// segment exactly at a record boundary, which no append-only log can
/// distinguish from a shorter history).
fn check_recovery(
    dir: &Path,
    truth: &HashMap<Fingerprint, Nat>,
    label: &str,
    silent_loss_possible: bool,
) {
    let store =
        MemoStore::open_opts(dir, StoreOptions { compact_on_open: false, ..Default::default() })
            .unwrap_or_else(|e| panic!("{label}: recovery must not fail hard: {e}"));
    let report = store.recovery();
    let mut lost = 0usize;
    for (k, want) in truth {
        match store.get(k) {
            None => lost += 1,
            Some(outcome) => {
                let got = outcome
                    .as_count()
                    .unwrap_or_else(|| panic!("{label}: stored outcome for {k} is not a count"));
                assert_eq!(got, want, "{label}: WRONG COUNT recovered for {k}");
            }
        }
    }
    assert_eq!(
        truth.len() - lost,
        report.records_live,
        "{label}: live-count accounting ({report})"
    );
    if lost > 0 && !silent_loss_possible {
        assert!(
            !report.is_clean(),
            "{label}: {lost} records lost but recovery reported clean ({report})"
        );
    }
}

#[test]
fn bit_flip_fuzz_never_panics_never_lies() {
    let mut rng = seeded_rng(1);
    for round in 0..12u64 {
        let dir = temp_dir(&format!("bitflip-{round}"));
        let truth = populate(&dir, 40);
        let files = segment_files(&dir);
        // Flip 1..=6 random bits across random segments.
        for _ in 0..=rng.below(6) {
            let path = &files[rng.below(files.len() as u64) as usize];
            let mut bytes = fs::read(path).unwrap();
            if bytes.is_empty() {
                continue;
            }
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
            fs::write(path, &bytes).unwrap();
        }
        check_recovery(&dir, &truth, &format!("bitflip round {round}"), false);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncation_fuzz_never_panics_never_lies() {
    let mut rng = seeded_rng(2);
    for round in 0..12u64 {
        let dir = temp_dir(&format!("trunc-{round}"));
        let truth = populate(&dir, 40);
        let files = segment_files(&dir);
        // Truncate a random segment to a random length (including 0),
        // simulating a crash mid-append or a torn sector at the tail.
        let path = &files[rng.below(files.len() as u64) as usize];
        let len = fs::metadata(path).unwrap().len();
        let new_len = rng.below(len + 1);
        let silent = silent_truncation_points(path).contains(&new_len);
        fs::OpenOptions::new().write(true).open(path).unwrap().set_len(new_len).unwrap();
        check_recovery(&dir, &truth, &format!("trunc round {round} to {new_len}"), silent);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn combined_corruption_fuzz() {
    let mut rng = seeded_rng(3);
    for round in 0..8u64 {
        let dir = temp_dir(&format!("combo-{round}"));
        let truth = populate(&dir, 60);
        let files = segment_files(&dir);
        let mut silent = false;
        for path in &files {
            match rng.below(4) {
                0 => {
                    // Bit flips.
                    let mut bytes = fs::read(path).unwrap();
                    for _ in 0..rng.below(4) {
                        let at = rng.below(bytes.len() as u64) as usize;
                        bytes[at] ^= 0xFF;
                    }
                    fs::write(path, &bytes).unwrap();
                }
                1 => {
                    // Truncation.
                    let len = fs::metadata(path).unwrap().len();
                    let new_len = rng.below(len + 1);
                    silent |= silent_truncation_points(path).contains(&new_len);
                    let f = fs::OpenOptions::new().write(true).open(path).unwrap();
                    f.set_len(new_len).unwrap();
                }
                2 => {
                    // Garbage appended past the last record (framing junk).
                    let mut bytes = fs::read(path).unwrap();
                    for _ in 0..rng.below(24) + 1 {
                        bytes.push(rng.next_u64() as u8);
                    }
                    fs::write(path, &bytes).unwrap();
                }
                _ => {} // untouched
            }
        }
        check_recovery(&dir, &truth, &format!("combo round {round}"), silent);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn exclusive_recovery_then_verify_is_clean() {
    // Whatever mess recovery walked into, after an exclusive open (torn
    // tails truncated) + compaction the store verifies clean.
    let mut rng = seeded_rng(4);
    let dir = temp_dir("heal");
    let truth = populate(&dir, 30);
    for path in &segment_files(&dir) {
        let len = fs::metadata(path).unwrap().len();
        if rng.below(2) == 0 && len > 4 {
            let f = fs::OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(len - rng.below(4) - 1).unwrap();
        }
    }
    let store = MemoStore::open(&dir).unwrap(); // exclusive: truncates + may compact
    store.compact().unwrap();
    let survivors = store.len();
    drop(store);
    let report = MemoStore::verify(&dir).unwrap();
    assert!(report.is_clean(), "post-heal verify must be clean: {report}");
    assert_eq!(report.records_live, survivors);
    assert!(survivors <= truth.len());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Engine integration: warm restart over a store
// ---------------------------------------------------------------------------

fn workload() -> (Vec<Query>, Arc<Structure>) {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let db = Arc::new(
        StructureGen { extra_vertices: 5, density: 0.4, ..StructureGen::default() }
            .sample(&schema, 7),
    );
    let queries = vec![
        path_query(&schema, "E", 2),
        path_query(&schema, "E", 3),
        cycle_query(&schema, "E", 3),
        star_query(&schema, "E", 3),
    ];
    (queries, db)
}

#[test]
fn warm_engine_restart_skips_recomputation_bit_identically() {
    let dir = temp_dir("warm-engine");
    let (queries, db) = workload();

    // Cold run: compute everything, persist through the write-behind tier.
    let cold: Vec<Nat> = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let engine = EvalEngine::new(EngineConfig {
            workers: 2,
            store: Some(Arc::clone(&store)),
            ..EngineConfig::default()
        });
        let outcomes: Vec<Nat> = queries
            .iter()
            .map(|q| {
                let h = engine.submit(Job::count(q.clone(), Arc::clone(&db)));
                h.wait().as_count().expect("count completes").clone()
            })
            .collect();
        let snap = engine.metrics();
        assert_eq!(snap.cache_misses, queries.len() as u64, "cold run computes everything");
        assert_eq!(snap.store_hits, 0);
        let drained = engine.drain(std::time::Duration::from_secs(5));
        assert_eq!(drained.stragglers, 0);
        outcomes
    };

    // Warm run: a NEW engine + NEW store handle over the same directory
    // answers every count from disk — zero cache misses, bit-identical.
    {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        assert_eq!(store.len(), queries.len(), "every count was persisted");
        assert!(store.recovery().is_clean());
        let engine = EvalEngine::new(EngineConfig {
            workers: 2,
            store: Some(Arc::clone(&store)),
            ..EngineConfig::default()
        });
        for (q, want) in queries.iter().zip(&cold) {
            let h = engine.submit(Job::count(q.clone(), Arc::clone(&db)));
            let got = h.wait();
            assert_eq!(got.as_count(), Some(want), "warm count must be bit-identical");
        }
        let snap = engine.metrics();
        assert_eq!(snap.cache_misses, 0, "warm run must not recompute: {}", snap.render());
        assert_eq!(snap.store_hits, queries.len() as u64);
        let stats = snap.store.clone().expect("store stats surface in the snapshot");
        assert_eq!(stats.lookups_hit, queries.len() as u64);
        let rendered = snap.render();
        assert!(rendered.contains("store_hits=4"), "{rendered}");
        assert!(rendered.contains("  store    records=4"), "{rendered}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_corruption_under_a_live_engine() {
    // An engine over a store whose directory was corrupted still serves
    // correct (recomputed) counts: quarantine costs time, never truth.
    let dir = temp_dir("corrupt-engine");
    let (queries, db) = workload();
    let cold: Vec<Nat> = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let engine = EvalEngine::new(EngineConfig {
            workers: 1,
            store: Some(store),
            ..EngineConfig::default()
        });
        let got = queries
            .iter()
            .map(|q| {
                engine
                    .submit(Job::count(q.clone(), Arc::clone(&db)))
                    .wait()
                    .as_count()
                    .unwrap()
                    .clone()
            })
            .collect();
        engine.drain(std::time::Duration::from_secs(5));
        got
    };
    // Trash every segment byte-by-byte.
    let mut rng = seeded_rng(5);
    for path in &segment_files(&dir) {
        let mut bytes = fs::read(path).unwrap();
        for _ in 0..8 {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u64() as u8;
        }
        fs::write(path, &bytes).unwrap();
    }
    let store = Arc::new(MemoStore::open(&dir).unwrap());
    let report: RecoveryReport = store.recovery();
    let engine =
        EvalEngine::new(EngineConfig { workers: 1, store: Some(store), ..EngineConfig::default() });
    for (q, want) in queries.iter().zip(&cold) {
        let got = engine.submit(Job::count(q.clone(), Arc::clone(&db))).wait();
        assert_eq!(
            got.as_count(),
            Some(want),
            "post-corruption counts must match the cold run (recovery: {report})"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
