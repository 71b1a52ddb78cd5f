//! Unit tests for the sectored DRAM cache (kept in a sibling file to
//! keep the module under the size ceiling).

use super::*;

fn cache() -> SectoredDramCache {
    // 4 MB cache, 4 KB sectors, 4 ways -> 256 sets.
    SectoredDramCache::new(4 << 20, 4096, 4, DramConfig::hbm_102(), 4000.0, true)
}

#[test]
fn geometry() {
    let c = cache();
    assert_eq!(c.blocks_per_sector(), 64);
    assert_eq!(c.sets(), 256);
    assert_eq!(c.sector_of(64 * 5 + 3).0, 5);
    assert_eq!(c.sector_of(64 * 5 + 3).1, 3);
}

#[test]
fn miss_then_fill_then_hit() {
    let mut c = cache();
    let block = 0x1234;
    assert_eq!(c.state(block), BlockState::Miss);
    let alloc = c.allocate(block, 0);
    assert_eq!(
        alloc.fetch.collect::<Vec<_>>(),
        vec![block],
        "cold footprint = demand block"
    );
    assert_eq!(alloc.victim_dirty.len(), 0);
    assert!(c.write_data(block, 0, false));
    assert_eq!(c.state(block), BlockState::CleanHit);
}

#[test]
fn dirty_write_marks_dirty() {
    let mut c = cache();
    let block = 0x40;
    c.allocate(block, 0);
    c.write_data(block, 0, true);
    assert_eq!(c.state(block), BlockState::DirtyHit);
    c.invalidate_block(block);
    assert_eq!(c.state(block), BlockState::Miss);
}

#[test]
fn sector_present_blocks_still_miss_individually() {
    let mut c = cache();
    c.allocate(0x40, 0);
    c.write_data(0x40, 0, false);
    assert!(c.sector_present(0x41));
    assert_eq!(
        c.state(0x41),
        BlockState::Miss,
        "same sector, unfetched block"
    );
}

#[test]
fn footprint_replay_on_reallocation() {
    let mut c = cache();
    // Touch blocks 0 and 3 of sector 7, then evict it by filling the set
    // with conflicting sectors, then re-allocate: footprint should ask
    // for both blocks again.
    let base = 7 << 6;
    c.allocate(base, 0);
    c.write_data(base, 0, false);
    c.write_data(base + 3, 0, false);
    c.read_data(base, 0);
    c.read_data(base + 3, 0);
    // 4 ways: insert 4 conflicting sectors (same set: sector % 256 == 7).
    for k in 1..=4u64 {
        let sector = 7 + 256 * k;
        c.allocate(sector << 6, 0);
    }
    assert_eq!(c.state(base), BlockState::Miss, "sector 7 must be evicted");
    let fetch: Vec<u64> = c.allocate(base + 1, 0).fetch.collect();
    assert!(fetch.contains(&base), "footprint block 0");
    assert!(fetch.contains(&(base + 3)), "footprint block 3");
    assert!(fetch.contains(&(base + 1)), "demand block");
}

#[test]
fn eviction_reports_dirty_blocks() {
    let mut c = cache();
    let base = 9u64 << 6;
    c.allocate(base, 0);
    c.write_data(base, 0, true);
    c.write_data(base + 5, 0, true);
    c.write_data(base + 6, 0, false);
    let mut victim_dirty = Vec::new();
    for k in 1..=4u64 {
        let a = c.allocate((9 + 256 * k) << 6, 0);
        victim_dirty.extend(a.victim_dirty);
    }
    assert_eq!(victim_dirty, vec![base, base + 5]);
}

#[test]
fn tag_cache_miss_costs_metadata_cas() {
    let mut c = cache();
    let p1 = c.probe_metadata(0x40, 0);
    assert!(!p1.tag_cache_hit);
    assert_eq!(p1.metadata_cas, 1);
    assert!(p1.resolved_at > 5, "metadata read takes DRAM latency");
    let p2 = c.probe_metadata(0x40, p1.resolved_at);
    assert!(p2.tag_cache_hit);
    assert_eq!(p2.metadata_cas, 0);
    assert_eq!(p2.resolved_at, p1.resolved_at + 5);
}

#[test]
fn no_tag_cache_always_reads_metadata() {
    let mut c = SectoredDramCache::new(4 << 20, 4096, 4, DramConfig::hbm_102(), 4000.0, false);
    let p = c.probe_metadata(0x40, 0);
    assert_eq!(p.metadata_cas, 1);
    let p = c.probe_metadata(0x40, p.resolved_at);
    assert_eq!(
        p.metadata_cas, 1,
        "every probe reads metadata without a tag cache"
    );
}

#[test]
fn flush_set_returns_dirty_blocks() {
    let mut c = cache();
    let base = 11u64 << 6; // sector 11 -> set 11
    c.allocate(base, 0);
    c.write_data(base + 2, 0, true);
    let dirty = c.flush_set(11);
    assert_eq!(dirty, vec![base + 2]);
    assert_eq!(c.state(base + 2), BlockState::Miss);
}

#[test]
fn write_data_to_absent_sector_refuses() {
    let mut c = cache();
    assert!(!c.write_data(0x9999, 0, true));
}

#[test]
fn fully_dirty_victim_evicts_all_64_blocks_in_order() {
    let mut c = cache();
    let base = 13u64 << 6;
    c.allocate(base, 0);
    for i in 0..64 {
        assert!(c.write_data(base + i, 0, true));
    }
    let mut victim_dirty = Vec::new();
    for k in 1..=4u64 {
        let a = c.allocate((13 + 256 * k) << 6, 0);
        victim_dirty.extend(a.victim_dirty);
    }
    assert_eq!(victim_dirty, (base..base + 64).collect::<Vec<_>>());
}

#[test]
fn clean_sector_returns_and_clears_the_dirty_blocks() {
    let mut c = cache();
    let base = 21u64 << 6;
    c.allocate(base, 0);
    c.write_data(base + 63, 0, true);
    c.write_data(base + 4, 0, true);
    c.write_data(base + 5, 0, false);
    assert_eq!(
        c.clean_sector(21).collect::<Vec<_>>(),
        vec![base + 4, base + 63]
    );
    assert_eq!(c.state(base + 63), BlockState::CleanHit);
    assert_eq!(c.clean_sector(21).len(), 0);
    assert_eq!(c.clean_sector(99).len(), 0, "absent sector");
}
