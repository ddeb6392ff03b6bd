//! Bit-level fingerprint of the exact (virtual-time) pricing path.
//!
//! `execute_at` prices each tuple of a multi-row SELECT after the tuples
//! before it have been recorded, so a statement's delay depends on the
//! order of pricing and recording inside it, not only on the state before
//! it. These tests replay one seeded mix of point, range and
//! `ORDER BY … LIMIT` reads interleaved with INSERT, UPDATE and DELETE,
//! hash every charged delay's bits, and compare against constants pinned
//! from a known-good build. Any refactor of the pricing pipeline that
//! moves a single bit of any delay fails here.

use delayguard_core::{
    AccessDelayPolicy, ChargingModel, DelayShaping, GuardConfig, GuardPolicy, GuardedDatabase,
    UpdateDelayPolicy,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64: a tiny deterministic generator, so the mix never depends
/// on another crate's RNG.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const ROWS: u64 = 64;
const STATEMENTS: usize = 1500;

/// Run the seeded mix under `config` and fingerprint every non-empty
/// charge: the tuple count and the bits of the statement's delay.
fn fingerprint(config: GuardConfig) -> u64 {
    let db = GuardedDatabase::new(config);
    db.execute_at("CREATE TABLE items (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX items_pk ON items (id)", 0.0)
        .unwrap();
    for i in 0..ROWS {
        db.execute_at(&format!("INSERT INTO items VALUES ({i}, 'row-{i}')"), 0.0)
            .unwrap();
    }
    let mut rng = Mix(0x005E_ED0F_DE1A);
    let mut next_id = ROWS;
    let mut h = FNV_OFFSET;
    for step in 0..STATEMENTS {
        let now = 1.0 + step as f64 * 0.25;
        // Skewed keys so popularity (and therefore delay) varies.
        let hot = |rng: &mut Mix| {
            let r = rng.below(next_id);
            r * r / next_id
        };
        let sql = match rng.below(20) {
            0..=8 => format!("SELECT * FROM items WHERE id = {}", hot(&mut rng)),
            9..=11 => {
                let lo = rng.below(next_id);
                let len = 1 + rng.below(12);
                format!("SELECT * FROM items WHERE id >= {lo} AND id < {}", lo + len)
            }
            12..=13 => {
                let lo = rng.below(next_id);
                let dir = if rng.below(2) == 0 { "ASC" } else { "DESC" };
                format!(
                    "SELECT * FROM items WHERE id >= {lo} ORDER BY id {dir} LIMIT {}",
                    1 + rng.below(8)
                )
            }
            14..=15 => {
                let id = next_id;
                next_id += 1;
                format!("INSERT INTO items VALUES ({id}, 'new-{id}')")
            }
            16..=18 => format!(
                "UPDATE items SET body = 'u{step}' WHERE id = {}",
                hot(&mut rng)
            ),
            _ => format!("DELETE FROM items WHERE id = {}", rng.below(next_id)),
        };
        let r = db.execute_at(&sql, now).unwrap();
        if r.tuples_charged > 0 {
            h = fnv(h, r.tuples_charged as u64);
            h = fnv(h, r.delay_secs.to_bits());
        }
    }
    h
}

// Pinned from a known-good build; each must stay bit-for-bit unchanged.
const PER_TUPLE_SUM_WITH_DECAY: u64 = 9_596_866_401_621_865_694;
const PER_QUERY_MAX: u64 = 4_771_530_523_267_763_448;
const HYBRID: u64 = 12_701_473_248_229_063_786;
const SHAPED: u64 = 821_213_796_598_323_687;

fn base() -> GuardConfig {
    GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0),
        ))
        .with_access_decay(1.001)
}

#[test]
fn per_tuple_sum_with_decay_fingerprint() {
    assert_eq!(fingerprint(base()), PER_TUPLE_SUM_WITH_DECAY);
}

#[test]
fn per_query_max_fingerprint() {
    assert_eq!(
        fingerprint(base().with_charging(ChargingModel::PerQueryMax)),
        PER_QUERY_MAX
    );
}

#[test]
fn hybrid_fingerprint() {
    let config = base().with_policy(GuardPolicy::Hybrid(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0),
        UpdateDelayPolicy::new(0.3).with_cap(30.0),
    ));
    assert_eq!(fingerprint(config), HYBRID);
}

#[test]
fn shaped_fingerprint() {
    let config = base().with_shaping(DelayShaping::new(3600.0, 8.0, 0.25, 0xFACE));
    assert_eq!(fingerprint(config), SHAPED);
}
