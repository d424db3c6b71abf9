//! Batched counter-based RNG for the sampling hot loops — reverse BFS in
//! this crate, and (via the `atpm-diffusion` dependency on it) the
//! forward-cascade engine's randomized walks, which draw from the same
//! lanes so the two directions share one stream discipline.
//!
//! The per-coin sampler called `rng.gen::<f32>()` once per in-edge — one
//! serially-dependent xoshiro step plus an int→float conversion per coin.
//! [`CounterRng`] replaces that with a splitmix64-style *counter* stream:
//! lane `i` is a pure finalizer hash of `(key, counter + i)`, so a refill
//! fills a 64-word buffer with no loop-carried dependency (the finalizers
//! pipeline across lanes) and the per-draw cost collapses to a buffered
//! read. 32-bit coin draws consume half a lane each, so one refill funds
//! 128 edge coins.
//!
//! The refill is dispatched at runtime. On x86-64 CPUs with AVX-512F and
//! AVX-512DQ (checked with `is_x86_feature_detected!`, whose answer the
//! standard library caches per process) the same lane loop runs from a
//! `#[target_feature]` copy that computes eight lanes per instruction with
//! the 64-bit vector multiply `vpmullq`. Every other CPU runs the scalar
//! loop, which stays the reference: both write bit-identical lanes, and a
//! unit test checks one against the other wherever the vector path can run.
//!
//! The construction is the same counter→finalizer scheme the possible-world
//! machinery already trusts (`HashedRealization` in `atpm-diffusion`):
//! splitmix64 with the worker key as stream offset, which passes BigCrush.
//! Streams are deterministic per key — `generate_batch` remains a pure
//! function of `(view, count, seed, threads)` — but they are *different*
//! streams than the shim `StdRng` draws, so swapping the sampler's RNG
//! redraws every sampled world (deliberate; the statistical-equivalence
//! suite pins the distributions instead of the streams).
//!
//! Everything lives in fixed-size arrays: creating or refilling a
//! [`CounterRng`] never heap-allocates, which the `alloc_discipline` test
//! asserts through the sampling paths.

use rand::{RngCore, SeedableRng};

/// Maps a raw 64-bit draw to a uniform in the *open* interval `(0, 1)` —
/// the geometric-skip paths (reverse BFS in this crate, forward cascades
/// in `atpm-diffusion`) take `ln(u)`, which must never see 0.
///
/// 52 bits, offset by half a lattice step: the extremes map to `2^-53` and
/// `1 − 2^-53`, both exactly representable (53 bits would round the top
/// value to 1.0 and `ln` would return an exact 0).
#[inline]
pub fn unit_open(x: u64) -> f64 {
    ((x >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// Lane-buffer length, in 64-bit words.
const LANES: usize = 64;

/// A buffered counter RNG: 64-word refills, splitmix64 lanes.
pub struct CounterRng {
    /// Stream identity (derived from the worker seed).
    key: u64,
    /// Next counter value to bake into a lane.
    counter: u64,
    /// Refilled lane buffer; `pos` words consumed so far.
    buf: [u64; LANES],
    pos: usize,
    /// Unconsumed upper half of the last 32-bit draw's lane.
    spare: u32,
    has_spare: bool,
}

/// The splitmix64 finalizer over the keyed counter: lane `c` of stream
/// `key` is `fin(key + c·golden)`.
#[inline]
fn lane(key: u64, c: u64) -> u64 {
    let mut z = key.wrapping_add(c.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl CounterRng {
    /// A fresh stream for `seed` (typically a `workspace::worker_seed`).
    pub fn new(seed: u64) -> Self {
        CounterRng {
            // One finalizer round decorrelates adjacent worker seeds before
            // they become stream offsets.
            key: lane(0xD6E8FEB86659FD93, seed),
            counter: 0,
            buf: [0; LANES],
            pos: LANES,
            spare: 0,
            has_spare: false,
        }
    }

    #[cold]
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // SAFETY: the CPU supports both features the function enables.
            unsafe { fill_lanes_avx512(&mut self.buf, self.key, self.counter) };
        } else {
            fill_lanes(&mut self.buf, self.key, self.counter);
        }
        #[cfg(not(target_arch = "x86_64"))]
        fill_lanes(&mut self.buf, self.key, self.counter);
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.pos = 0;
    }
}

/// Fills `buf` with lanes `base, base + 1, …` of stream `key` — the
/// reference refill, and the one every CPU without AVX-512 runs.
#[inline(always)]
fn fill_lanes(buf: &mut [u64; LANES], key: u64, base: u64) {
    for (i, slot) in buf.iter_mut().enumerate() {
        *slot = lane(key, base.wrapping_add(i as u64));
    }
}

/// Whether this CPU can run [`fill_lanes_avx512`].
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
}

/// [`fill_lanes`] compiled for AVX-512: the same loop, which the compiler
/// vectorizes eight lanes at a time (`vpmullq` needs AVX-512DQ).
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_lanes_avx512(buf: &mut [u64; LANES], key: u64, base: u64) {
    fill_lanes(buf, key, base);
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == LANES {
            self.refill();
        }
        let x = self.buf[self.pos];
        self.pos += 1;
        x
    }

    /// Coin draws split lanes in half instead of discarding 32 bits per
    /// coin — the edge-coin path is the whole reason this type exists.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.has_spare {
            self.has_spare = false;
            return self.spare;
        }
        let x = self.next_u64();
        self.spare = (x >> 32) as u32;
        self.has_spare = true;
        x as u32
    }
}

impl SeedableRng for CounterRng {
    fn seed_from_u64(state: u64) -> Self {
        CounterRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let mut a = CounterRng::new(7);
        let mut b = CounterRng::new(7);
        for _ in 0..300 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = CounterRng::new(8);
        let agree = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(agree, 0, "adjacent seeds must not share a stream");
    }

    #[test]
    fn u32_draws_consume_both_lane_halves() {
        let mut whole = CounterRng::new(3);
        let mut halves = CounterRng::new(3);
        for _ in 0..200 {
            let x = whole.next_u64();
            assert_eq!(halves.next_u32(), x as u32);
            assert_eq!(halves.next_u32(), (x >> 32) as u32);
        }
    }

    /// FNV-1a over 64-bit words.
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
    }

    /// A stream for `seed` whose next refill starts at `counter`.
    fn at_counter(seed: u64, counter: u64) -> CounterRng {
        let mut rng = CounterRng::new(seed);
        rng.counter = counter;
        rng
    }

    /// Draw `i` of the mixed sequence is a `next_u64` when this is true,
    /// else a `next_u32`. The pattern is irregular, so `next_u64` calls
    /// land both with and without a pending spare half, and a pending
    /// spare half can outlive a refill.
    fn wide(i: u64) -> bool {
        (i.wrapping_mul(0x9E37_79B9) >> 7).is_multiple_of(3)
    }

    /// Digest of a 5000-draw mixed `next_u32`/`next_u64` sequence.
    fn mixed_digest(rng: &mut CounterRng) -> u64 {
        (0..5000u64).fold(0xCBF2_9CE4_8422_2325, |h, i| {
            mix(
                h,
                if wide(i) {
                    rng.next_u64()
                } else {
                    rng.next_u32() as u64
                },
            )
        })
    }

    const SEEDS: [u64; 5] = [0, 1, 7, 0xDEAD_BEEF, u64::MAX];
    const COUNTERS: [u64; 4] = [0, u64::MAX - 100, u64::MAX - 63, u64::MAX];
    /// Row per seed, column per counter.
    const PINNED_DIGESTS: [u64; 20] = [
        1000947946645816694,
        11703506616179545214,
        17072191198055081396,
        14641263449923454962,
        14002852104763095424,
        4935113473890826083,
        16298637221705719893,
        8157529962641806,
        8030971602554560982,
        5898578974494462217,
        14583264649875784197,
        851227504671549706,
        13239306196683396807,
        16587381386443596787,
        4076068692104416225,
        12048838723444081501,
        13710280448443984648,
        4529262513801461585,
        8616541604075208372,
        18208852155743816522,
    ];

    /// Stream values captured before refill gained its vector path: the
    /// first lanes of two streams, and mixed-sequence digests for every
    /// seed/counter pair, including counters that wrap past `u64::MAX`
    /// inside a refill.
    #[test]
    fn stream_values_are_pinned_across_counter_wrap() {
        let mut rng = CounterRng::new(7);
        assert_eq!(
            [rng.next_u64(), rng.next_u64()],
            [36787230348520799, 9217159852263289666]
        );
        let mut rng = at_counter(1, u64::MAX - 1);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [
                8985042376358256509,
                12916763431872655347,
                4765749642061415807
            ]
        );
        let digests: Vec<u64> = SEEDS
            .iter()
            .flat_map(|&s| {
                COUNTERS
                    .iter()
                    .map(move |&c| mixed_digest(&mut at_counter(s, c)))
            })
            .collect();
        assert_eq!(digests, PINNED_DIGESTS);
    }

    /// The stream as the scalar reference defines it: lane after lane,
    /// 32-bit draws taking the low half first and keeping the high half
    /// pending across `next_u64` calls.
    struct Reference {
        key: u64,
        counter: u64,
        spare: Option<u32>,
    }

    impl Reference {
        fn next_u64(&mut self) -> u64 {
            let x = lane(self.key, self.counter);
            self.counter = self.counter.wrapping_add(1);
            x
        }

        fn next_u32(&mut self) -> u32 {
            self.spare.take().unwrap_or_else(|| {
                let x = self.next_u64();
                self.spare = Some((x >> 32) as u32);
                x as u32
            })
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_refill_matches_scalar_refill() {
        if !has_avx512() {
            eprintln!("no AVX-512 on this CPU: the vector refill is not exercised");
            return;
        }
        for seed in SEEDS {
            for base in COUNTERS {
                let key = CounterRng::new(seed).key;
                let (mut simd, mut scalar) = ([0; LANES], [0; LANES]);
                // SAFETY: both features were detected above.
                unsafe { fill_lanes_avx512(&mut simd, key, base) };
                fill_lanes(&mut scalar, key, base);
                assert_eq!(simd, scalar, "seed {seed}, counter {base}");

                // The dispatching refill (vector here) against the model,
                // draw for draw through a mixed sequence.
                let mut rng = at_counter(seed, base);
                let mut model = Reference {
                    key,
                    counter: base,
                    spare: None,
                };
                for i in 0..5000u64 {
                    if wide(i) {
                        assert_eq!(rng.next_u64(), model.next_u64(), "draw {i}");
                    } else {
                        assert_eq!(rng.next_u32(), model.next_u32(), "draw {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn draws_are_uniformish() {
        let mut rng = CounterRng::new(11);
        let n = 100_000u64;
        let mut ones = 0u64;
        let mut sum = 0.0f64;
        for _ in 0..n {
            ones += rng.next_u64().count_ones() as u64;
            sum += rng.gen::<f64>();
        }
        let bit_rate = ones as f64 / (n as f64 * 64.0);
        assert!((bit_rate - 0.5).abs() < 0.005, "bit rate {bit_rate}");
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "unit mean {mean}");
    }

    #[test]
    fn gen_range_works_through_the_shim_trait() {
        let mut rng = CounterRng::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 5_000.0).abs() < 500.0,
                "bucket {i}: {c} draws far from uniform"
            );
        }
    }
}
