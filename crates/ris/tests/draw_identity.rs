//! Draw-for-draw pins of the reverse sampler.
//!
//! `sampling_equivalence` pins the *distribution* of RR sets; this suite
//! pins the *stream*: the exact sets a seed produces, so a kernel rewrite
//! that reorders, adds or drops a single coin fails here even when the
//! distribution is unchanged. The graph mixes every in-span shape the
//! kernel distinguishes:
//!
//! * short uniform spans (length 1, 4, 7 and 16 below the skip cutoff),
//!   including certain spans (`thr == u32::MAX`);
//! * geometric-skip spans (uniform, `q ≤ 1/4`, degree ≥ 8);
//! * mixed-threshold spans that read the per-edge array;
//!
//! and a residual view kills a quarter of the nodes, so spans carry dead
//! sources (whose coins the short-span path still draws).
//!
//! The digests were captured before the short-span path drew its coins into
//! an accept bitmask; any change to them means a changed stream.

use atpm_graph::{Graph, GraphBuilder, GraphView, Node, ResidualGraph};
use atpm_ris::{generate_batch, CounterRng, RrSampler};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const N: usize = 120;

/// In-degree cycle (by `v % 8`) and probability kind (by `(v / 8) % 5`).
const DEGREES: [usize; 8] = [1, 7, 16, 4, 1, 7, 16, 10];

fn prob(v: usize, j: usize) -> f32 {
    match (v / 8) % 5 {
        0 => 1.0,
        1 => 0.5,
        2 => 0.3,
        3 => 0.15 + 0.05 * (j % 4) as f32,
        _ => 0.1,
    }
}

fn graph() -> Graph {
    let mut b = GraphBuilder::new(N);
    for v in 0..N {
        for j in 0..DEGREES[v % 8] {
            // Offsets 1..=110 are distinct per `v` and never `v` itself.
            let w = (v + 1 + j * 7 + (v * 3) % 5) % N;
            b.add_edge(w as Node, v as Node, prob(v, j)).unwrap();
        }
    }
    b.build()
}

fn residual(g: &Graph) -> ResidualGraph<'_> {
    let mut r = ResidualGraph::new(g);
    r.remove_all((0..N as Node).filter(|v| v % 4 == 3));
    r
}

/// FNV-1a over 64-bit words.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn digest_set(h: u64, set: &[Node]) -> u64 {
    set.iter()
        .fold(mix(h, set.len() as u64), |h, &u| mix(h, u as u64))
}

/// `(digest, total members, next raw draw)` of `sets` consecutive samples.
fn sample_digest<V: GraphView, R: RngCore>(
    view: &V,
    rng: &mut R,
    sets: usize,
    skip: bool,
) -> (u64, usize, u64) {
    let mut sampler = RrSampler::new();
    let mut buf = Vec::new();
    let mut h = FNV_OFFSET;
    let mut members = 0;
    for _ in 0..sets {
        let ok = if skip {
            sampler.sample_into(view, rng, &mut buf)
        } else {
            sampler.sample_into_threshold(view, rng, &mut buf)
        };
        assert!(ok);
        members += buf.len();
        h = digest_set(h, &buf);
    }
    (h, members, rng.next_u64())
}

#[test]
fn fixture_covers_every_span_shape() {
    let g = graph();
    let sv = g.sample_view();
    let short_uniform = |v: usize| {
        let m = g.in_meta(v as Node);
        m.inv.is_nan() && m.thr != 0
    };
    for d in [1, 7, 16] {
        assert!(
            (0..N).any(|v| DEGREES[v % 8] == d && short_uniform(v) && prob(v, 0) < 1.0),
            "no probabilistic short uniform span of length {d}"
        );
        assert!(
            (0..N).any(|v| DEGREES[v % 8] == d && g.in_meta(v as Node).thr == u32::MAX),
            "no certain span of length {d}"
        );
    }
    assert!((0..N).any(|v| g.in_skip_inv(v as Node) < 0.0));
    assert!((0..N).any(|v| DEGREES[v % 8] > 1 && g.in_meta(v as Node).thr == 0));
    let r = residual(&g);
    for v in 0..N as Node {
        let (lo, hi, _, _) = sv.in_meta(v);
        let dead = sv
            .sources(lo, hi)
            .iter()
            .filter(|&&w| !r.is_alive(w))
            .count();
        if DEGREES[v as usize % 8] >= 7 {
            assert!(dead > 0, "span of {v} has no dead source");
        }
    }
}

#[test]
fn residual_sets_are_pinned() {
    let g = graph();
    let r = residual(&g);
    assert_eq!(
        sample_digest(&r, &mut CounterRng::new(0x5EED), 3000, true),
        (11209331829186013969, 136436, 937697774755050017)
    );
    assert_eq!(
        sample_digest(&r, &mut CounterRng::new(0x5EED), 3000, false),
        (9796876561551102862, 138719, 18086767778708139366)
    );
    assert_eq!(
        sample_digest(&r, &mut StdRng::seed_from_u64(0x5EED), 1000, true),
        (5792658302081268447, 43835, 500340871289780235)
    );
}

#[test]
fn full_graph_sets_are_pinned() {
    let g = graph();
    assert_eq!(
        sample_digest(&&g, &mut CounterRng::new(41), 3000, true),
        (5142088146526423445, 250606, 16861411019737023837)
    );
}

#[test]
fn batch_sets_are_pinned() {
    let g = graph();
    let r = residual(&g);
    let coll = generate_batch(&r, 4000, 17, 2);
    let h = (0..coll.len()).fold(FNV_OFFSET, |h, i| digest_set(h, coll.set(i)));
    assert_eq!((h, coll.total_members()), (54485240348234352, 186608));
}
