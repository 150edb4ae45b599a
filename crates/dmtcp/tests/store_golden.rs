//! Golden bytes of the delta-checkpoint store.
//!
//! A fixed, generated image sequence (a full base, then deltas, then a
//! base rollover) is committed into a fresh store, and every epoch's
//! `blocks.bin` and `manifest.bin` must hash to the digests recorded
//! below. The sections cover the shapes the encoder treats differently:
//! `f64` lattice data (the byte-shuffle filter wins), pseudorandom bytes
//! (stored raw), constant runs (plain LZ4 and intra-epoch dedup), tiny
//! sections below 8 bytes and below the compression threshold, and
//! lengths that are not multiples of 8.
//!
//! This pins the on-disk chain format: a change to chunking, hashing,
//! codec selection, block placement or the manifest encoding shows up
//! here as a digest mismatch. Update the table only for a deliberate
//! format change.

use dmtcp_sim::{DeltaStore, RankImage, StoreConfig, WorldImage};

const RANKS: usize = 3;
const EPOCHS: u64 = 7;

/// FNV-1a 64 over a whole file, local to this test so the digest does
/// not depend on the store's own hash kernels.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// xorshift64* byte stream.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// A smooth `f64` field (what a stencil code checkpoints), followed by
/// `tail` stray bytes so the length is not a multiple of 8. Epoch `e`
/// advances the field only in its middle third.
fn lattice(rank: usize, epoch: u64, points: usize, tail: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(points * 8 + tail);
    for i in 0..points {
        let x = i as f64 / points as f64 + rank as f64;
        let t = if (points / 3..2 * points / 3).contains(&i) {
            epoch as f64 * 0.01
        } else {
            0.0
        };
        out.extend_from_slice(&(x * 3.0 + t).sin().to_le_bytes());
    }
    out.extend((0..tail).map(|k| (k as u8).wrapping_mul(37) ^ rank as u8));
    out
}

fn world(epoch: u64) -> WorldImage {
    let ranks = (0..RANKS)
        .map(|r| {
            let mut img = RankImage::new(r, RANKS, epoch);
            img.put_section("lattice", lattice(r, epoch, 1500 + 37 * r, 5));
            // Rank-seeded random data; every other epoch inserts bytes
            // near the front so content-defined boundaries must realign.
            let mut random = random_bytes(r as u64 + 11, 6001);
            if epoch.is_multiple_of(2) {
                random.splice(100..100, random_bytes(epoch, 17));
            }
            img.put_section("random", random);
            img.put_section("constant", vec![0xA5; 4099]);
            img.put_section("tiny", vec![r as u8, epoch as u8, 7]);
            img.put_section("empty", Vec::new());
            // A hinted section that changes only at epoch 4: dirty
            // tracking re-references it on the other deltas.
            let gen = if epoch < 4 { 1 } else { 2 };
            img.put_section_hinted("static", random_bytes(100 + gen + r as u64, 2053), gen);
            img
        })
        .collect();
    WorldImage::new(
        if epoch.is_multiple_of(2) {
            "Open MPI"
        } else {
            "MPICH"
        }
        .to_string(),
        ranks,
    )
}

/// `(epoch, file, length, digest)` of every file in the chain after the
/// whole sequence is committed.
const GOLDEN: &[(u64, &str, u64, u64)] = &[
    (1, "blocks.bin", 46293, 0xa5883c15b927c1a9),
    (1, "manifest.bin", 9329, 0x6a184177cb1b45a5),
    (2, "blocks.bin", 12087, 0x7348f73dd7486134),
    (2, "manifest.bin", 9332, 0xe9477498d7f2859d),
    (3, "blocks.bin", 11612, 0x551dda9097f763d1),
    (3, "manifest.bin", 9509, 0x5b7611ed2080eb8f),
    (4, "blocks.bin", 14876, 0xd197e86c8db0c994),
    (4, "manifest.bin", 9692, 0xb49d4e171631c84f),
    (5, "blocks.bin", 46488, 0xe3146120e1e92ad0),
    (5, "manifest.bin", 10274, 0x6db8e0f9eadab36d),
    (6, "blocks.bin", 12167, 0x9e7e3ed8acec3a2f),
    (6, "manifest.bin", 9467, 0x0a4fc659ff856347),
    (7, "blocks.bin", 11600, 0xaf0fddd7382a5138),
    (7, "manifest.bin", 9779, 0x315ccf1a956dc96c),
];

#[test]
fn committed_chain_matches_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("stool_store_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        block_size: 256,
        retain_epochs: EPOCHS as usize,
        max_chain: 3,
        writer_threads: 2,
        ..StoreConfig::default()
    };
    let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
    for e in 1..=EPOCHS {
        store.commit(&world(e)).unwrap();
    }
    let fulls: Vec<bool> = store.stats().iter().map(|s| s.full).collect();
    assert_eq!(fulls, [true, false, false, false, true, false, false]);
    for e in 1..=EPOCHS {
        assert_eq!(store.load_epoch(e).unwrap(), world(e), "epoch {e} reloads");
    }

    let mut seen = Vec::new();
    for e in 1..=EPOCHS {
        for file in ["blocks.bin", "manifest.bin"] {
            let bytes = std::fs::read(dir.join(format!("epoch_{e:06}")).join(file)).unwrap();
            seen.push((e, file, bytes.len() as u64, digest(&bytes)));
        }
    }
    let table: String = seen
        .iter()
        .map(|(e, f, len, d)| format!("    ({e}, {f:?}, {len}, {d:#018x}),\n"))
        .collect();
    assert_eq!(seen, GOLDEN, "chain bytes changed; observed:\n{table}");
    std::fs::remove_dir_all(&dir).unwrap();
}
