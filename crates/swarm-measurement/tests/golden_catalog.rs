//! Cross-commit output pin for the synthetic catalog.
//!
//! `catalog_is_seed_deterministic_and_hermetic` compares two catalogs
//! inside one binary, so it cannot see an output change between commits.
//! This test pins a digest of every field of every swarm at two
//! configurations: id, category, title, the bits of the six `f64`
//! parameters, the super-collection link, and each file's extension and
//! size bits. The catalog is the root of every §2 experiment and of the
//! sharded runtime's per-swarm RNG streams, so a change meant to keep
//! the RNG draws and their order must leave both digests as they are.
//! The swarms `for_each_swarm` streams must match the same digests,
//! since `generate_catalog` is only their collection.

use swarm_measurement::{for_each_swarm, generate_catalog, CatalogConfig, Category, Swarm};

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Swarm count and digest of a sequence of swarms, fed one at a time.
struct Fingerprint {
    swarms: usize,
    h: Fnv,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            swarms: 0,
            h: Fnv(0xcbf2_9ce4_8422_2325),
        }
    }

    fn add(&mut self, s: &Swarm) {
        self.swarms += 1;
        let h = &mut self.h;
        h.u64(s.id);
        let category = Category::ALL.iter().position(|&c| c == s.category);
        h.u64(category.expect("every category is listed") as u64);
        h.str(&s.title);
        for v in [
            s.age_days,
            s.demand,
            s.publisher_rate,
            s.publisher_residence,
            s.altruist_rate,
            s.altruist_residence,
        ] {
            h.f64(v);
        }
        match s.subset_of {
            Some(sup) => {
                h.u64(1);
                h.u64(sup);
            }
            None => h.u64(0),
        }
        h.u64(s.files.len() as u64);
        for f in &s.files {
            h.str(f.extension.as_str());
            h.f64(f.size_kb);
        }
    }

    fn get(&self) -> (usize, u64) {
        (self.swarms, self.h.0)
    }
}

#[test]
fn catalog_matches_pinned_digests() {
    // (scale, seed, swarms, digest). The first is swarmbench's `catalog`
    // input and the experiments' default; the second is a smoke size.
    let pinned = [
        (0.01, 42, 10_879, 0x9947_0af6_89dc_236c),
        (0.001, 7, 1_087, 0x0393_4399_feeb_b0aa),
    ];
    for (scale, seed, swarms, digest) in pinned {
        let cfg = CatalogConfig { scale, seed };
        let mut collected = Fingerprint::new();
        generate_catalog(&cfg).iter().for_each(|s| collected.add(s));
        let mut streamed = Fingerprint::new();
        for_each_swarm(&cfg, |s| streamed.add(&s));
        for (input, got) in [("catalog", collected.get()), ("stream", streamed.get())] {
            assert_eq!(
                got,
                (swarms, digest),
                "{input} at scale {scale}, seed {seed}: got (swarms, digest) = ({}, {:#018x})",
                got.0,
                got.1
            );
        }
    }
}
