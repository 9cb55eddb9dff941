//! Replay pins: hard-coded expected values for every seeded stream that
//! CI chaos seeds, archived falsify fixtures and the benchmark's request
//! lists depend on. The other determinism tests only check that a stream
//! repeats within one build; these check it against fixed numbers, so a
//! refactor of the shared primitives cannot silently change any replay.
//!
//! Long streams are pinned as `(events, digest)` pairs, where the digest
//! is a polynomial fold over every value of the stream: any single
//! changed value changes the digest.

use bagcq_serve::chaos::ALL_NET_KINDS;
use bagcq_serve::{NetFaultInjector, NetFaultPlan, RetryPolicy, SplitMix64};

fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0u64, |h, v| h.wrapping_mul(1_000_003).wrapping_add(v))
}

/// `(faulted connections, digest over (sequence, kind, offset, mask))` of
/// the first 512 draws on `side`.
fn net_stream(seed: u64, side: &str) -> (u64, u64) {
    let inj = NetFaultInjector::new(NetFaultPlan::seeded(seed).with_max_faults(0));
    let mut values = Vec::new();
    for n in 0..512u64 {
        if let Some(f) = inj.draw(side) {
            let kind = ALL_NET_KINDS.iter().position(|k| *k == f.kind).unwrap() as u64;
            values.extend([n, kind, f.offset, u64::from(f.mask)]);
        }
    }
    (inj.injected(), digest(values))
}

#[test]
fn net_fault_draws_are_pinned() {
    let expected = [
        (1, "accept", (124, 0x0052_d1f3_afae_9ff2)),
        (1, "connect", (136, 0x042f_8156_0193_a238)),
        (7, "accept", (123, 0xf219_c72d_f045_45fa)),
        (7, "connect", (122, 0x01c5_0e82_49a2_2893)),
        (42, "accept", (134, 0x7771_8924_76eb_6730)),
        (42, "connect", (113, 0xd12b_a93a_cb49_279d)),
    ];
    for (seed, side, want) in expected {
        assert_eq!(net_stream(seed, side), want, "seed {seed} side {side}");
    }
}

#[test]
fn splitmix_streams_are_pinned() {
    // (seed, first output, digest of 256 `next_u64`, digest of 256
    // `below(1000)`), each stream drawn from a fresh `SplitMix64::new`.
    let expected = [
        (1, 0x910a_2dec_8902_5cc1, 0x3280_d7ce_23c9_adea, 0xcae1_8b3a_e9c2_9812),
        (7, 0x63cb_e1e4_5932_0dd7, 0x1cc6_587a_821b_837e, 0x9929_1ef5_f171_40b6),
        (42, 0xbdd7_3226_2feb_6e95, 0x61bb_811f_40fb_b819, 0x1091_befa_f1f6_1571),
    ];
    for (seed, first, raw, below) in expected {
        assert_eq!(SplitMix64::new(seed).next_u64(), first, "seed {seed}");
        let mut rng = SplitMix64::new(seed);
        assert_eq!(digest((0..256).map(|_| rng.next_u64())), raw, "seed {seed}");
        let mut rng = SplitMix64::new(seed);
        assert_eq!(digest((0..256).map(|_| rng.below(1000))), below, "seed {seed}");
    }
}

#[test]
fn retry_backoff_grid_is_pinned() {
    // Microseconds of `RetryPolicy::default().backoff(attempt, salt)`:
    // one row per attempt, one column per salt.
    let salts = [0u64, 1, 7, 42, 0xDEAD_BEEF, u64::MAX];
    let expected: [[u64; 6]; 5] = [
        [1673, 1291, 1202, 1272, 1603, 1351],
        [2673, 3304, 3612, 3301, 3936, 3351],
        [6673, 4457, 4682, 4085, 5648, 7351],
        [14673, 9280, 13454, 14931, 10196, 15351],
        [30673, 24556, 21510, 30695, 20882, 31351],
    ];
    let policy = RetryPolicy::default();
    for (attempt, row) in expected.iter().enumerate() {
        for (&salt, &want) in salts.iter().zip(row) {
            let got = policy.backoff(attempt as u32, salt).as_micros() as u64;
            assert_eq!(got, want, "attempt {attempt} salt {salt:#x}");
        }
    }
}
