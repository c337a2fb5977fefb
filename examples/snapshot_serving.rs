//! Checkpointing and snapshot serving: pay the catalog count once, reopen
//! it everywhere.
//!
//! A "serving process" for active alignment wants to answer anchor-update
//! and scoring traffic for many tenants without paying the expensive part
//! of a session — the full 31-template meta-diagram count — per process
//! start or per tenant. This example walks the whole story:
//!
//! 1. **Checkpoint**: build one `Counted` session (the expensive step,
//!    timed), save it with `session::snapshot::save` — a versioned,
//!    checksummed binary file (see `docs/SNAPSHOT_FORMAT.md`).
//! 2. **Reopen**: `session::snapshot::open` restores the session
//!    bit-identically (timed — this is what a fresh process pays instead
//!    of the count).
//! 3. **Serve**: a `SessionPool` opens one slot per tenant from that
//!    tenant's own copy of the snapshot (a pooled slot journals its
//!    updates beside its base, so each needs a base of its own), applies
//!    a batch of anchor updates per tenant, and featurizes a clone of one
//!    tenant's session for scoring — while every slot's `stats()` proves
//!    nobody ever recounted.
//!
//! ```sh
//! cargo run --release --example snapshot_serving
//! ```

use social_align::prelude::*;
use std::time::Instant;

fn main() {
    let world = datagen::generate(&datagen::presets::small(42));
    let links = world.truth().links().to_vec();
    let train = links[..links.len() / 2].to_vec();

    // 1. Checkpoint: one full count, persisted.
    let t = Instant::now();
    let counted = SessionBuilder::new(world.left(), world.right())
        .anchors(train)
        .count()
        .expect("generated networks share attribute universes");
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let dir = std::env::temp_dir().join(format!("snapshot-serving-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("demo temp dir");
    let path = dir.join("demo.snap");
    let t = Instant::now();
    snapshot::save(&counted, &path).expect("save snapshot");
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("build (full catalog count): {build_ms:7.2} ms");
    println!("save checkpoint:            {save_ms:7.2} ms  ({bytes} bytes)");

    // 2. Reopen — what a fresh process pays instead of the count.
    let t = Instant::now();
    let reopened = snapshot::open(&path).expect("open snapshot");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "open from checkpoint:       {open_ms:7.2} ms  ({:.1}× faster than rebuild)",
        build_ms / open_ms.max(1e-9)
    );
    assert_eq!(reopened.stats().full_counts, 1, "reopen never recounts");

    // 3. Serve: one slot per tenant, each from its own copy of the
    // snapshot — the pool refuses two live slots on one base.
    let n_tenants = 4;
    let mut pool = SessionPool::new();
    let t = Instant::now();
    let ids: Vec<_> = (0..n_tenants)
        .map(|t| {
            let tenant = dir.join(format!("tenant-{t}.snap"));
            std::fs::copy(&path, &tenant).expect("copy tenant base");
            pool.open(&tenant).expect("open tenant slot")
        })
        .collect();
    println!(
        "pool: opened {n_tenants} tenant sessions in {:.2} ms",
        t.elapsed().as_secs_f64() * 1e3
    );

    // Each tenant confirms a different batch of anchors; every update is
    // journaled beside that tenant's base before it applies.
    let held_out = &links[links.len() / 2..];
    let t = Instant::now();
    for (&id, edges) in ids.iter().zip(held_out.chunks(held_out.len() / n_tenants)) {
        let applied = pool.update_anchors(id, edges).expect("update");
        println!(
            "  {id}: merged {applied}/{} anchors → {} total, full_counts still {}",
            edges.len(),
            pool.n_anchors(id).unwrap(),
            pool.stats(id).unwrap().full_counts
        );
    }
    let update_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("pool: {n_tenants} tenant updates in {update_ms:.2} ms");

    // One tenant scores: a featurized clone of its session, taken under
    // the slot lock; the pooled slot stays counted and keeps journaling.
    let candidates: Vec<(UserId, UserId)> = links.iter().map(|l| (l.left, l.right)).collect();
    let scoring = pool
        .with_counted(ids[0], |s| s.clone().featurize(candidates))
        .expect("tenant 0 is live");
    println!(
        "tenant {} featurized: {} features over {} candidates; its slot stays counted",
        ids[0],
        scoring.features().n_features(),
        links.len()
    );
    assert_eq!(scoring.stats().full_counts, 1, "featurizing never recounts");

    std::fs::remove_dir_all(&dir).ok();
}
