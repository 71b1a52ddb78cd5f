//! Differential test of [`MshrTable`] against `HashMap<u64, Cycle>`, the
//! map the hierarchy's miss-status table used before.
//!
//! Both are driven with the same seeded streams of `get`, `insert` (new
//! blocks and overwrites of present ones) and `retain` (keeping none,
//! some or all entries). After every operation the operated block's
//! lookup and `len` must agree; periodically every key the reference
//! holds, plus a sample of absent ones, is compared as well. The streams
//! cross several capacity doublings and mix in three kinds of block:
//! runs of adjacent addresses, sparse random ones, and clusters that
//! share one home slot under the table's Fibonacci hash, one of them
//! homed on the last slot so its probe run wraps to slot 0.

use std::collections::HashMap;

use mem_sim::cache::MshrTable;
use mem_sim::clock::Cycle;
use workloads::rng::SplitMix64;

/// The table's hash multiplier, `⌊2^64 / φ⌋`.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Block addresses stay below 2^58 (byte addresses over 64-byte blocks).
const BLOCK_LIMIT: u64 = 1 << 58;

/// The inverse of an odd `a` modulo 2^64 (Newton's iteration doubles the
/// correct low bits each step: 3, 6, 12, 24, 48, 96).
fn inverse(a: u64) -> u64 {
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    assert_eq!(a.wrapping_mul(x), 1);
    x
}

/// `n` block addresses whose hash products share their top 24 bits with
/// `top`, so they share one home slot in every table of up to 2^24 slots.
fn colliding(top: u64, n: usize) -> Vec<u64> {
    let inv = inverse(FIB);
    (0u64..)
        .map(|j| ((top << 40) | j).wrapping_mul(inv))
        .filter(|&block| block < BLOCK_LIMIT)
        .take(n)
        .collect()
}

/// The blocks one stream draws from.
struct Pool {
    blocks: Vec<u64>,
}

impl Pool {
    fn new(rng: &mut SplitMix64) -> Self {
        let mut blocks = Vec::new();
        // Runs of adjacent blocks, as streaming misses produce.
        for _ in 0..24 {
            let base = rng.below(BLOCK_LIMIT - 4096);
            blocks.extend(base..base + 1024 + rng.below(1024));
        }
        // Sparse random blocks.
        blocks.extend((0..8_000).map(|_| rng.below(BLOCK_LIMIT)));
        // Home-slot clusters: the first slot, the last slot (its probe
        // run wraps) and one in between.
        for top in [0, (1 << 24) - 1, 0x5A_5A5A] {
            blocks.extend(colliding(top, 96));
        }
        Self { blocks }
    }

    fn pick(&self, rng: &mut SplitMix64) -> u64 {
        self.blocks[rng.index(self.blocks.len())]
    }
}

/// One seeded stream: `ops` operations, inserting with probability
/// `p_insert` and retaining with probability `p_retain` (the rest are
/// lookups); a retain that keeps nothing is drawn only if `clears`.
/// Returns the distinct table capacities the stream passed.
fn run(seed: u64, ops: usize, p_insert: f64, p_retain: f64, clears: bool) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let pool = Pool::new(&mut rng);
    let mut table = MshrTable::new();
    let mut reference: HashMap<u64, Cycle> = HashMap::new();
    let mut capacities = vec![table.capacity()];
    // The last 256 blocks inserted: drawing from them makes overwrites
    // and hits of present blocks common.
    let mut recent = Vec::new();
    let mut now: Cycle = 0;
    for op in 0..ops {
        now += rng.below(4);
        let block = if !recent.is_empty() && rng.chance(0.3) {
            recent[rng.index(recent.len())]
        } else {
            pool.pick(&mut rng)
        };
        let r = rng.next_f64();
        if r < p_insert {
            let done = now + rng.below(2_000);
            table.insert(block, done);
            reference.insert(block, done);
            if recent.len() < 256 {
                recent.push(block);
            } else {
                recent[op % 256] = block;
            }
        } else if r < p_insert + p_retain {
            match rng.below(if clears { 4 } else { 3 }) {
                0 => {
                    table.retain(|_, _| true);
                    reference.retain(|_, _| true);
                }
                1 => {
                    // The hierarchy's own predicate: drop what completed.
                    let t = now + rng.below(1_000);
                    table.retain(|_, c| c > t);
                    reference.retain(|_, &mut c| c > t);
                }
                2 => {
                    table.retain(|b, _| b % 3 != 0);
                    reference.retain(|&b, _| b % 3 != 0);
                }
                _ => {
                    table.retain(|_, _| false);
                    reference.retain(|_, _| false);
                }
            }
        }
        assert_eq!(
            table.get(block),
            reference.get(&block).copied(),
            "seed {seed} op {op}: block {block:#x}"
        );
        assert_eq!(table.len(), reference.len(), "seed {seed} op {op}: len");
        assert_eq!(table.is_empty(), reference.is_empty());
        if op % 2_048 == 0 || op + 1 == ops {
            for (&b, &c) in &reference {
                assert_eq!(table.get(b), Some(c), "seed {seed} op {op}: {b:#x}");
            }
            for _ in 0..256 {
                let b = pool.pick(&mut rng);
                assert_eq!(table.get(b), reference.get(&b).copied());
            }
        }
        if capacities.last() != Some(&table.capacity()) {
            capacities.push(table.capacity());
        }
    }
    capacities
}

#[test]
fn matches_a_hash_map_while_growing() {
    // Insert-heavy with rare retains that never clear the table: it
    // must double repeatedly.
    for seed in [1, 2] {
        let capacities = run(seed, 60_000, 0.8, 0.0005, false);
        assert!(
            capacities.len() >= 5,
            "seed {seed}: only {capacities:?} slot counts"
        );
        assert!(capacities.windows(2).all(|w| w[1] == 2 * w[0]));
    }
}

#[test]
fn matches_a_hash_map_under_churn() {
    // Balanced inserts, lookups and frequent retains of every kind.
    for seed in [3, 4, 5] {
        run(seed, 40_000, 0.45, 0.01, true);
    }
}

#[test]
fn colliding_blocks_share_a_home_and_the_last_cluster_wraps() {
    let mut table = MshrTable::new();
    let last = colliding((1 << 24) - 1, 200);
    let first = colliding(0, 200);
    for (i, &b) in last.iter().chain(&first).enumerate() {
        table.insert(b, i as Cycle);
    }
    assert_eq!(table.len(), 400);
    for (i, &b) in last.iter().chain(&first).enumerate() {
        assert_eq!(table.get(b), Some(i as Cycle));
    }
    // Overwrites keep the length; retain drops exactly the rejected half.
    for &b in &last {
        table.insert(b, 1_000);
    }
    assert_eq!(table.len(), 400);
    table.retain(|_, c| c < 1_000);
    assert_eq!(table.len(), 200);
    assert!(last.iter().all(|&b| table.get(b).is_none()));
    assert!(first
        .iter()
        .enumerate()
        .all(|(i, &b)| table.get(b) == Some(200 + i as Cycle)));
}
