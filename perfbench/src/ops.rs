//! Seeded op lists. Every input a workload feeds the program is generated
//! here from the workload seed before timing starts, so one seed always
//! yields the same ops.
//!
//! Compute ops draw their seeds from fixed pools whose outputs are pinned
//! in [`crate::pins`]; the workload seed chooses which pool entries run
//! and in what order.

use std::collections::HashSet;

/// SplitMix64: the benchmark's own generator, independent of the
/// workspace's RNG code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Builtin scenarios of the grid (registry order).
pub const GRID_SCENARIOS: [&str; 3] = ["cell_sorting", "ring_formation", "mixing_null"];
/// Measure families every sweep op evaluates.
pub const MEASURES: [&str; 5] = ["ksg", "kde", "binned", "discrete", "gaussian"];
/// Seed pool of `grid_cold` (each seed runs every grid scenario). A run
/// at the benchmark's `run_seconds` takes the whole pool in a seeded
/// order, so every workload seed measures the same ensembles: ensemble
/// cost varies by seed more than the host does, and a drawn subset moved
/// the median ensemble time by ±10% between workload seeds.
pub const GRID_POOL: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
/// Seed pool of `figures_fast` passes.
pub const FIGURE_POOL: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
/// Seed pool of `xl_cell`.
pub const XL_POOL: [u64; 3] = [1, 2, 3];
/// Hot set of `serve_cache`: fast-scale (scenario, seed) ensembles that
/// are in the cache before timing starts.
pub const HOT_SET: [(&str, u64); 6] = [
    ("cell_sorting", 101),
    ("ring_formation", 101),
    ("mixing_null", 101),
    ("cell_sorting", 102),
    ("ring_formation", 102),
    ("mixing_null", 102),
];
/// Fresh `serve_cache` seeds start here; the hot set never reaches it.
pub const FRESH_SEED_BASE: u64 = 1_000_000;
/// One in this many `serve_cache` requests asks for a fresh cell.
pub const MISS_EVERY: usize = 10;
/// Fewest requests a `serve_cache` run sends: enough hits that the p90
/// has ten samples beyond it.
pub const MIN_REQUESTS: usize = 200;

/// `count` seeds from `pool` in a seeded order: a shuffled pass over the
/// pool, then further shuffled passes if `count` exceeds it.
pub fn pool_seeds(seed: u64, pool: &[u64], count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut pass = pool.to_vec();
        rng.shuffle(&mut pass);
        out.extend(pass.into_iter().take(count - out.len()));
    }
    out
}

/// Whether a `serve_cache` request re-asks a hot cell or asks a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Index into [`HOT_SET`].
    Hit(usize),
    /// A seed the hot set never uses, at tiny scale.
    Miss,
}

/// One `POST /sweep` body and what the cache should make of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub body: String,
    pub kind: Kind,
}

fn measures_json() -> String {
    let quoted: Vec<String> = MEASURES.iter().map(|m| format!("\"{m}\"")).collect();
    quoted.join(",")
}

/// The request body that re-asks hot ensemble `hot`.
pub fn hit_body(hot: usize) -> String {
    let (scenario, seed) = HOT_SET[hot];
    format!(
        "{{\"scenarios\":[\"{scenario}\"],\"measures\":[{}],\"seeds\":[{seed}],\"fast\":true,\"threads\":1}}",
        measures_json()
    )
}

fn miss_body(scenario: &str, seed: u64) -> String {
    format!(
        "{{\"scenarios\":[\"{scenario}\"],\"measures\":[{}],\"seeds\":[{seed}],\"samples\":20,\"t_max\":10,\"threads\":1}}",
        measures_json()
    )
}

/// `count` (at least [`MIN_REQUESTS`]) request bodies: one in
/// [`MISS_EVERY`] asks a distinct fresh seed, the rest re-ask random hot
/// ensembles, in a seeded order.
pub fn serve_requests(seed: u64, count: usize) -> Vec<Request> {
    let count = count.max(MIN_REQUESTS);
    let mut rng = Rng::new(seed);
    let misses = count / MISS_EVERY;
    let mut kinds: Vec<Kind> = (0..count)
        .map(|i| {
            if i < misses {
                Kind::Miss
            } else {
                Kind::Hit(rng.below(HOT_SET.len()))
            }
        })
        .collect();
    rng.shuffle(&mut kinds);
    let mut used = HashSet::new();
    kinds
        .into_iter()
        .map(|kind| {
            let body = match kind {
                Kind::Hit(h) => hit_body(h),
                Kind::Miss => {
                    let fresh = loop {
                        let s = FRESH_SEED_BASE + (rng.next_u64() >> 24);
                        if used.insert(s) {
                            break s;
                        }
                    };
                    miss_body(GRID_SCENARIOS[rng.below(GRID_SCENARIOS.len())], fresh)
                }
            };
            Request { body, kind }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_op_lists() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(
                pool_seeds(seed, &GRID_POOL, 10),
                pool_seeds(seed, &GRID_POOL, 10)
            );
            assert_eq!(serve_requests(seed, 500), serve_requests(seed, 500));
        }
        assert_ne!(pool_seeds(1, &GRID_POOL, 10), pool_seeds(2, &GRID_POOL, 10));
        assert_ne!(serve_requests(1, 500), serve_requests(2, 500));
    }

    #[test]
    fn pool_picks_are_distinct_until_the_pool_runs_out() {
        let picks = pool_seeds(7, &GRID_POOL, GRID_POOL.len());
        let distinct: HashSet<u64> = picks.iter().copied().collect();
        assert_eq!(distinct.len(), GRID_POOL.len());
        let more = pool_seeds(7, &XL_POOL, 7);
        assert_eq!(more.len(), 7);
        assert!(more.iter().all(|s| XL_POOL.contains(s)));
    }

    #[test]
    fn serve_mix_has_fresh_distinct_misses() {
        let reqs = serve_requests(3, 1000);
        let misses: Vec<&Request> = reqs.iter().filter(|r| r.kind == Kind::Miss).collect();
        assert_eq!(misses.len(), 100);
        let bodies: HashSet<&str> = misses.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(bodies.len(), misses.len(), "every miss asks a new cell");
        for r in &misses {
            assert!(r.body.contains("\"samples\":20") && !r.body.contains("\"fast\""));
        }
        let hits = reqs.iter().filter(|r| r.kind != Kind::Miss).count();
        assert_eq!(hits, 900);
        assert_eq!(serve_requests(3, 1).len(), MIN_REQUESTS);
    }
}
