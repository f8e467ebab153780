//! The persistent result cache beyond its sessions in the matrix: a
//! cache primed by one engine warms every other (the segments are
//! engine-agnostic memo images); a *changed* fingerprint — proposals,
//! options, symmetry mode — is loudly ignored and, read-write, replaced;
//! a *damaged* or old-version segment never panics, crashes or corrupts
//! a result: the run falls back to a cold walk, and a read-write run
//! heals the cache.

use std::path::{Path, PathBuf};

use twostep_model::WideValue;
use twostep_modelcheck::{
    validate_segment_file, CacheConfig, ExploreOptions, ExploreReport, SpillError, Symmetry,
};

use crate::kit::{assert_same, crw, crw_unanimous, reference, TempDir};
use crate::matrix::named;

/// A serial walk of CRW (4, 2) over `cache`.
fn crw42_cached(cache: CacheConfig) -> ExploreReport<WideValue> {
    crw(4, 2)
        .explore(ExploreOptions::serial().with_cache(Some(cache)))
        .unwrap()
}

/// The one segment a committed cache at `dir` holds.
fn the_segment(dir: &Path) -> PathBuf {
    let files = std::fs::read_dir(dir).unwrap().flatten().map(|e| e.path());
    let mut segments = files.filter(|p| p.extension().is_some_and(|e| e == "seg"));
    segments.next().expect("committed cache holds one segment")
}

/// A cache primed by the serial walk warms every other engine shape
/// read-only: threads, a spilling memo, partitioned workers.
#[test]
fn cache_is_engine_agnostic() {
    let workload = crw(4, 3);
    let serial = reference(&workload);
    let dir = TempDir::new("xengine");
    let primed = ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path())));
    assert_same(&serial, &workload.explore(primed).unwrap(), "primed");
    for (label, engine) in named(&[
        "serial",
        "threads-4/8-shards",
        "spill-16",
        "partitioned-2/ram-serial",
    ]) {
        let warm = engine.with_cache(Some(CacheConfig::read(dir.path())));
        let warm = warm.run(&workload).unwrap();
        assert_same(&serial, &warm, &format!("cross-engine {label}"));
        assert_eq!(warm.cache_hits, warm.distinct_states, "{label}");
    }
}

/// A changed fingerprint (different proposals here) ignores the cache —
/// the run matches its own cold report, reports zero hits, and in
/// ReadWrite mode replaces the stale cache with its own image.
#[test]
fn stale_fingerprint_is_ignored_and_replaced() {
    let dir = TempDir::new("stale");
    let cached = || ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path())));

    // Prime under proposals A (alternating bits).
    crw(4, 2).explore(cached()).unwrap();
    // An unrelated segment-format file in the same directory (say, an
    // archived worker export) must survive every commit and GC below.
    let bystander = dir.path().join("archived-worker0.seg");
    std::fs::write(&bystander, b"not the cache's file").unwrap();

    // Run under proposals B (all the same bit): different fingerprint.
    let b = crw_unanimous(4, 2);
    let baseline_b = reference(&b);
    let mismatched = b.explore(cached()).unwrap();
    assert_same(&baseline_b, &mismatched, "stale cache ignored");
    assert_eq!(
        mismatched.cache_hits, 0,
        "a stale cache contributes nothing"
    );

    // ...and the ReadWrite run replaced the stale cache: a further run
    // under B is now fully warm.
    let warm_b = b.explore(cached()).unwrap();
    assert_same(&baseline_b, &warm_b, "replaced cache warms B");
    assert_eq!(warm_b.cache_hits, warm_b.distinct_states);

    // The changed *options* fingerprint is also honored: same proposals,
    // different round cap → no hits, correct self-consistent result.
    let mut tighter = b.clone();
    tighter.config.max_rounds += 1;
    let other_config = tighter.explore(cached()).unwrap();
    assert_eq!(
        other_config.cache_hits, 0,
        "config changes invalidate the cache"
    );
    assert_eq!(
        std::fs::read(&bystander).unwrap(),
        b"not the cache's file",
        "cache GC must never delete files it did not write"
    );
}

/// The symmetry mode is part of the run fingerprint: a cache committed
/// under `Symmetry::PartialValue` must be **loudly replaced** — never
/// silently reused — by a `Symmetry::Off` run, and vice versa.  The two
/// modes memoize different key spaces (orbit representatives vs raw
/// configurations), so reusing either image for the other would corrupt
/// `distinct_states` and the census even where the verdicts agree.
#[test]
fn symmetry_mode_changes_the_cache_fingerprint() {
    let dir = TempDir::new("symmetry-mode");
    let run = |symmetry: Symmetry| {
        let cache = Some(CacheConfig::read_write(dir.path()));
        let options = ExploreOptions::serial().with_cache(cache);
        crw(4, 2).under(symmetry).explore(options).unwrap()
    };
    let pv_baseline = reference(&crw(4, 2).under(Symmetry::PartialValue));
    let off_baseline = reference(&crw(4, 2));

    // Prime the cache under partial+value.
    let pv_cold = run(Symmetry::PartialValue);
    assert_same(&pv_baseline, &pv_cold, "partial+value cold");
    assert_eq!(pv_cold.cache_hits, 0);

    // An Off run sees a foreign fingerprint: zero hits, its own correct
    // cold report, and (ReadWrite) it replaces the partial+value image.
    assert!(
        pv_baseline.distinct_states < off_baseline.distinct_states,
        "the two modes must actually key different state spaces here"
    );
    let off_over_pv = run(Symmetry::Off);
    assert_same(&off_baseline, &off_over_pv, "off over partial+value cache");
    assert_eq!(
        off_over_pv.cache_hits, 0,
        "a partial+value cache must never warm an Off-mode run"
    );
    let off_warm = run(Symmetry::Off);
    assert_same(&off_baseline, &off_warm, "off warm");
    assert_eq!(
        off_warm.cache_hits, off_warm.distinct_states,
        "the replacement image warms its own mode"
    );

    // And the other direction: the Off image is foreign to partial+value.
    let pv_over_off = run(Symmetry::PartialValue);
    assert_same(&pv_baseline, &pv_over_off, "partial+value over off cache");
    assert_eq!(
        pv_over_off.cache_hits, 0,
        "an Off-mode cache must never warm a partial+value run"
    );
    let pv_warm = run(Symmetry::PartialValue);
    assert_same(&pv_baseline, &pv_warm, "partial+value warm");
    assert_eq!(pv_warm.cache_hits, pv_warm.distinct_states);
}

/// A damaged cache segment is detected (CRC / framing / record count),
/// classified as Corrupt by the standalone validator, and the
/// exploration **discards the whole seed** and runs cold — a partial
/// image must never shrink the report's aggregates (a seeded parent
/// would hide its missing descendants from `distinct_states`).  A
/// ReadWrite run then heals the cache with its own full image.
#[test]
fn corrupted_cache_segment_degrades_to_cold_run() {
    let baseline = reference(&crw(4, 2));

    // Flip a byte at several positions through the segment body; each
    // damaged copy must classify as Corrupt and still explore correctly.
    let dir = TempDir::new("corrupt-src");
    crw42_cached(CacheConfig::read_write(dir.path()));
    let segment = the_segment(dir.path());
    let pristine = std::fs::read(&segment).unwrap();
    assert!(
        validate_segment_file(&segment).is_ok(),
        "pristine validates"
    );

    for position in [24usize, 40, pristine.len() / 2, pristine.len() - 2] {
        let mut damaged = pristine.clone();
        damaged[position] ^= 0x10;
        std::fs::write(&segment, &damaged).unwrap();
        let err =
            validate_segment_file(&segment).expect_err("a flipped body byte must not validate");
        assert!(
            matches!(err, SpillError::Corrupt { .. }),
            "flip at {position}: expected Corrupt, got {err:?}"
        );

        let report = crw42_cached(CacheConfig::read(dir.path()));
        assert_same(
            &baseline,
            &report,
            &format!("corrupt cache, flip at {position}"),
        );
        assert_eq!(
            report.cache_hits, 0,
            "flip at {position}: a broken cache is discarded whole, not partially used"
        );
    }

    // A ReadWrite run on the (still damaged) cache explores cold and
    // replaces the broken image; the next run is fully warm again.
    let healing = crw42_cached(CacheConfig::read_write(dir.path()));
    assert_same(&baseline, &healing, "healing run");
    assert_eq!(healing.cache_hits, 0);
    let healed = crw42_cached(CacheConfig::read_write(dir.path()));
    assert_same(&baseline, &healed, "healed cache warms again");
    assert_eq!(healed.cache_hits, healed.distinct_states);
}

/// A cache whose segment is a file of an **earlier format version** —
/// v3 (the pre-byte-key record layout) or v4 (whose compression flag v5
/// dropped) — must be classified foreign and discarded whole, never
/// silently reused, and a ReadWrite run must loudly replace it with a
/// fresh image of the current version.
#[test]
fn v3_segment_cache_is_foreign_and_replaced() {
    let baseline = reference(&crw(4, 2));

    for version in [3u32, 4] {
        // Prime a valid cache, then rewrite its segment as a sealed,
        // empty file of the old version: 8-byte magic, version, zero
        // records, the v4 compression flag.  The manifest still matches
        // this run's fingerprint, so the segment itself is what the seed
        // import must reject.
        let dir = TempDir::new(&format!("v{version}-cache"));
        crw42_cached(CacheConfig::read_write(dir.path()));
        let segment = the_segment(dir.path());
        let mut old_header = Vec::new();
        old_header.extend_from_slice(b"TWOSPILL");
        old_header.extend_from_slice(&version.to_le_bytes());
        old_header.extend_from_slice(&0u64.to_le_bytes());
        old_header.push(1); // the v4 compression flag
        old_header.extend_from_slice(&[0u8; 3]);
        assert_eq!(old_header.len(), 24, "segment header is 24 bytes");
        std::fs::write(&segment, &old_header).unwrap();
        let err = validate_segment_file(&segment).expect_err("an old version must not validate");
        assert!(
            matches!(err, SpillError::Foreign { .. }),
            "v{version}: expected Foreign, got {err:?}"
        );

        // Read-only: the old cache is ignored, the run is cold and
        // correct.
        let cold = crw42_cached(CacheConfig::read(dir.path()));
        assert_same(&baseline, &cold, &format!("v{version} cache ignored"));
        assert_eq!(
            cold.cache_hits, 0,
            "no record of a v{version} segment is ever reused"
        );

        // ReadWrite: the broken cache is replaced; the next run warms
        // fully from the fresh image.
        let replacing = crw42_cached(CacheConfig::read_write(dir.path()));
        assert_same(&baseline, &replacing, "replacing run");
        assert_eq!(replacing.cache_hits, 0);
        let warmed = crw42_cached(CacheConfig::read_write(dir.path()));
        assert_same(&baseline, &warmed, "replaced cache warms again");
        assert_eq!(warmed.cache_hits, warmed.distinct_states);
    }
}

/// A cache of **v5 segments** — fixed-width integers inside, varints
/// since v6 — is foreign and replaced.  The segment here is a real
/// primed one with only its header's version set back to 5: every
/// record is whole and CRC-valid, so the version alone must refuse it,
/// or every record would be reused and `cache_hits` would show it.
#[test]
fn v5_segment_cache_is_foreign_and_replaced() {
    let baseline = reference(&crw(4, 2));
    let dir = TempDir::new("v5-cache");
    crw42_cached(CacheConfig::read_write(dir.path()));
    let segment = the_segment(dir.path());
    let version_of = |path: &Path| {
        let bytes = std::fs::read(path).unwrap();
        u32::from_le_bytes(bytes[8..12].try_into().unwrap())
    };
    assert_eq!(version_of(&segment), 6, "a fresh segment is v6");
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes[8..12].copy_from_slice(&5u32.to_le_bytes());
    std::fs::write(&segment, &bytes).unwrap();
    match validate_segment_file(&segment) {
        Err(SpillError::Foreign { detail }) => {
            assert!(detail.contains("format version 5"), "{detail}")
        }
        other => panic!("v5: expected Foreign, got {other:?}"),
    }

    let cold = crw42_cached(CacheConfig::read(dir.path()));
    assert_same(&baseline, &cold, "v5 cache ignored");
    assert_eq!(cold.cache_hits, 0, "no record of a v5 segment is reused");

    let replacing = crw42_cached(CacheConfig::read_write(dir.path()));
    assert_same(&baseline, &replacing, "replacing run");
    assert_eq!(replacing.cache_hits, 0);
    assert_eq!(version_of(&the_segment(dir.path())), 6, "replaced by v6");
    let warmed = crw42_cached(CacheConfig::read_write(dir.path()));
    assert_same(&baseline, &warmed, "replaced cache warms again");
    assert_eq!(warmed.cache_hits, warmed.distinct_states);
}
