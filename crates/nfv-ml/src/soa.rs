//! Structure-of-arrays tree-ensemble engine: the packed form of
//! [`DecisionTree`] ensembles that the coalition hot path evaluates.
//!
//! The arena-of-structs layout ([`crate::tree::TreeNode`] is 48 bytes)
//! costs a scattered cache line per node visit. [`SoaForest`] flattens every tree of an ensemble
//! into parallel arrays —
//!
//! - `thresh: Vec<f64>` — split thresholds (f64 because bit-identity with
//!   [`DecisionTree::output`] requires comparing the *exact* fitted value),
//! - `meta: Vec<u64>` — the split feature index (validated to fit u16; an
//!   ensemble over more than 65 536 features is rejected loudly at build
//!   time rather than truncated) packed with the node's **child-pair
//!   base**: `feat << 48 | pair_base`,
//! - `value: Vec<f64>` — node outputs (leaf payloads),
//!
//! where each internal node's children occupy **adjacent slots**
//! `[right, left]` starting at `pair_base`. A descent step is then pure
//! arithmetic: `next = pair_base + (x[feat] <= thresh)`. This matters
//! enormously: any formulation with a *select* in it — `if`, `cmov`,
//! `select_unpredictable`, an integer xor-blend — gets rewritten by
//! LLVM's x86 cmov-conversion pass into a data-dependent branch, and a
//! tree split mispredicts ~50%, which measured **8× slower** than this
//! compare-and-add form. Leaves route to a dedicated two-slot *sink pair*
//! holding the leaf value in both slots, so a fixed-pass-count descent
//! needs no `is_leaf` test at all — parked lanes cycle harmlessly inside
//! the sink until the pass loop ends (and NaN inputs, which fail `<=`,
//! land in the sink's right slot exactly like the reference walk sends
//! NaN right).
//!
//! One kernel walks this layout: interleaved register-resident descent
//! chains, `SCALAR_CHUNK` rows per fully-unrolled chunk, tree-major so
//! each tree's arrays stay cache-hot across the whole block. Rows past the
//! last full chunk take the per-row reference descent. Vector kernels
//! (AVX2 gathers, lane-major AVX2, AVX-512) over the same layout were
//! measured and removed: none beat this one at any measured forest shape
//! (DESIGN.md §9.2).
//!
//! Bit-identity to walking [`DecisionTree::output`] per tree and
//! accumulating in tree order holds on both paths: comparisons and sums
//! stay in f64, the accumulation order is unchanged, and the step uses the
//! reference walk's own `v <= threshold` (so NaN goes right in both).

// The only unsafe in the workspace: the scalar kernel's unchecked loads
// from the node arrays and the row block. Node indices come only from
// `roots` and `meta`, which the builder keeps inside the arena, and packed
// feature indices are `< n_features`, so every row load stays inside the
// block extent `predict_block_into` asserts on entry.
#![allow(unsafe_code)]

use crate::model::Regressor;
use crate::tree::DecisionTree;
use crate::MlError;

/// The child-pair base index occupies the low 32 bits of the meta word
/// (bits 32..48 are zero, the split feature sits at 48..64).
const PAIR_MASK: u64 = 0xFFFF_FFFF;

/// Rows per register-resident chunk in the scalar kernel: enough
/// independent descent chains to hide the three-load step latency, small
/// enough that the fully-unrolled chunk state stays in registers.
const SCALAR_CHUNK: usize = 8;

/// Row count above which packing an ensemble on the fly pays for itself
/// for a one-shot [`Regressor::predict_block`] call: the `O(nodes)` build
/// amortizes across `rows × trees × depth` traversal steps. Measured on
/// the d=14, 50-tree reference forest, packing costs ~400µs while blocked
/// traversal saves ~0.4µs/row over the interleaved path — breakeven near
/// 1000 rows. Below that, repacking per call is a net loss (it turned the
/// 64×12-coalition block into a wash). Callers with any reuse should keep
/// a cached [`SoaForest`] and skip the rebuild entirely, as `nfv-serve`'s
/// registry does.
pub const PACK_MIN_ROWS: usize = 1024;

/// How the per-row sum of tree outputs becomes the model prediction.
/// Mirrors the scalar ensembles bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnsemblePost {
    /// Random forest: `sum / n_trees`.
    Mean,
    /// GBDT regression margin: `base + rate * sum`.
    Margin {
        /// Initial prediction (mean target / prior log-odds).
        base: f64,
        /// Shrinkage applied to the tree sum.
        rate: f64,
    },
    /// GBDT classification probability: `sigmoid(base + rate * sum)`.
    Proba {
        /// Prior log-odds.
        base: f64,
        /// Shrinkage applied to the tree sum.
        rate: f64,
    },
}

impl EnsemblePost {
    #[inline]
    fn apply(&self, sum: f64, n_trees: usize) -> f64 {
        match *self {
            EnsemblePost::Mean => sum / n_trees as f64,
            EnsemblePost::Margin { base, rate } => base + rate * sum,
            EnsemblePost::Proba { base, rate } => crate::linear::sigmoid(base + rate * sum),
        }
    }
}

/// A packed, immutable ensemble ready for blocked traversal. Build once
/// (at model registration / fixture setup) with [`SoaForest::from_forest`]
/// or [`SoaForest::from_gbdt`] and reuse; construction is `O(total nodes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaForest {
    /// Split thresholds, one per node across all trees.
    thresh: Vec<f64>,
    /// `feat << 48 | pair_base` per slot: the node's children live at the
    /// adjacent slots `[pair_base] = right`, `[pair_base + 1] = left`, so
    /// the descent step is `pair_base + (x[feat] <= thresh)` — no select.
    /// A leaf's pair is a two-slot sink holding its value twice, with the
    /// sink's own meta pointing back at itself; parked lanes cycle there.
    meta: Vec<u64>,
    /// Node output values (leaf payloads at the end of a descent).
    value: Vec<f64>,
    /// Root index of each tree in the flat arrays.
    roots: Vec<u32>,
    /// Fixed pass count (max depth) of each tree.
    depth: Vec<u32>,
    /// Feature count the ensemble was trained on.
    n_features: usize,
    /// Prediction post-processing.
    post: EnsemblePost,
}

/// Name of the SoA traversal kernel, as reported in serve stats. There is
/// one kernel, so this is always `"scalar"`.
pub fn active_kernel_name() -> &'static str {
    "scalar"
}

impl SoaForest {
    /// Packs an arbitrary tree list with an explicit post-processing rule.
    pub fn from_trees(trees: &[DecisionTree], post: EnsemblePost) -> Result<SoaForest, MlError> {
        let Some(first) = trees.first() else {
            return Err(MlError::Shape("cannot pack an empty ensemble".into()));
        };
        let n_features = first.n_features;
        if n_features == 0 {
            return Err(MlError::Shape("ensemble has zero features".into()));
        }
        // u16 feature indices: widen-or-fail, never truncate. Feature ids
        // up to 65 535 pack losslessly; beyond that the layout cannot
        // represent the ensemble and packing must refuse.
        if n_features > u16::MAX as usize + 1 {
            return Err(MlError::Shape(format!(
                "SoA layout stores u16 feature indices; {n_features} features exceed {}",
                u16::MAX as usize + 1
            )));
        }
        let total: usize = trees.iter().map(|t| t.nodes.len()).sum();
        if total == 0 {
            return Err(MlError::Shape("ensemble has no nodes".into()));
        }
        // Every source node allocates one two-slot pair (children for
        // internal nodes, the value sink for leaves) plus one root slot
        // per tree.
        let total_slots = trees.len() + 2 * total;
        if total_slots > PAIR_MASK as usize {
            return Err(MlError::Shape(format!(
                "ensemble needs {total_slots} arena slots; packed pair bases are u32 (max {PAIR_MASK})"
            )));
        }
        let mut f = SoaForest {
            thresh: Vec::with_capacity(total_slots),
            meta: Vec::with_capacity(total_slots),
            value: Vec::with_capacity(total_slots),
            roots: Vec::with_capacity(trees.len()),
            depth: Vec::with_capacity(trees.len()),
            n_features,
            post,
        };
        for tree in trees {
            if tree.n_features != n_features {
                return Err(MlError::Shape(format!(
                    "mixed feature counts in ensemble: {} vs {n_features}",
                    tree.n_features
                )));
            }
            if tree.nodes.is_empty() {
                return Err(MlError::Shape("tree with no nodes".into()));
            }
            let start = f.thresh.len();
            let n_slots = 1 + 2 * tree.nodes.len();
            f.thresh.resize(start + n_slots, 0.0);
            f.meta.resize(start + n_slots, 0);
            f.value.resize(start + n_slots, 0.0);
            f.roots.push(start as u32);
            f.depth.push(tree.depth() as u32);
            // DFS emission: each node is written into the slot its parent
            // reserved for it (the root into the tree's first slot), and
            // reserves the next free pair for its own children / sink.
            let mut next_free = start + 1;
            let mut emitted = 0usize;
            let mut stack = vec![(0usize, start)];
            while let Some((n, s)) = stack.pop() {
                emitted += 1;
                if emitted > tree.nodes.len() {
                    // More emissions than nodes means a child is reachable
                    // twice: the arena is not a tree.
                    return Err(MlError::Shape("tree node graph is not a tree".into()));
                }
                let node = &tree.nodes[n];
                let p = next_free;
                next_free += 2;
                if node.is_leaf {
                    // Sink pair: both outcomes of the (meaningless) leaf
                    // compare land on the leaf's value, and the sink's own
                    // pair points back at itself.
                    for slot in [s, p, p + 1] {
                        f.thresh[slot] = 0.0;
                        f.meta[slot] = p as u64;
                        f.value[slot] = node.value;
                    }
                } else {
                    if node.feature >= n_features {
                        return Err(MlError::Shape(format!(
                            "node split feature {} out of range (d = {n_features})",
                            node.feature
                        )));
                    }
                    let l = node.left as usize;
                    let r = node.right as usize;
                    if l >= tree.nodes.len() || r >= tree.nodes.len() {
                        return Err(MlError::Shape("child index out of arena".into()));
                    }
                    f.thresh[s] = node.threshold;
                    f.meta[s] = (node.feature as u64) << 48 | p as u64;
                    f.value[s] = node.value;
                    stack.push((r, p));
                    stack.push((l, p + 1));
                }
            }
            debug_assert_eq!(next_free, start + n_slots);
        }
        Ok(f)
    }

    /// Packs a random forest (mean post-processing). Predictions are
    /// bit-identical to [`crate::forest::RandomForest::output`].
    pub fn from_forest(forest: &crate::forest::RandomForest) -> Result<SoaForest, MlError> {
        Self::from_trees(&forest.trees, EnsemblePost::Mean)
    }

    /// Packs a GBDT. Regression tasks reproduce [`crate::gbdt::Gbdt::margin`];
    /// classification reproduces the sigmoid-squashed probability, matching
    /// `Gbdt`'s [`Regressor::predict`] either way.
    pub fn from_gbdt(gbdt: &crate::gbdt::Gbdt) -> Result<SoaForest, MlError> {
        let post = match gbdt.task {
            nfv_data::dataset::Task::Regression => EnsemblePost::Margin {
                base: gbdt.base_score,
                rate: gbdt.learning_rate,
            },
            nfv_data::dataset::Task::BinaryClassification => EnsemblePost::Proba {
                base: gbdt.base_score,
                rate: gbdt.learning_rate,
            },
        };
        Self::from_trees(&gbdt.trees, post)
    }

    /// Number of packed trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total arena slots across all trees (≈ `2 × source nodes + 1` per
    /// tree: one slot per node placement plus the two-slot leaf sinks).
    pub fn n_nodes(&self) -> usize {
        self.thresh.len()
    }

    /// The post-processing rule applied to per-row tree sums.
    pub fn post(&self) -> EnsemblePost {
        self.post
    }

    /// Scalar descent of tree `t` for one row (the reference schedule: the
    /// same loads and compares as [`DecisionTree::output`]).
    #[inline]
    fn tree_output(&self, t: usize, x: &[f64]) -> f64 {
        let mut i = self.roots[t] as usize;
        for _ in 0..self.depth[t] {
            let m = self.meta[i];
            let le = (x[(m >> 48) as usize] <= self.thresh[i]) as usize;
            i = (m & PAIR_MASK) as usize + le;
        }
        self.value[i]
    }

    /// Evaluates a contiguous row-major block: `flat` holds `out.len()`
    /// rows of `d = n_features` values; `out[i]` receives the prediction
    /// for row `i`. This is the zero-allocation hot path the coalition
    /// evaluator calls.
    pub fn predict_block_into(&self, flat: &[f64], out: &mut [f64]) {
        let d = self.n_features;
        assert_eq!(
            flat.len(),
            out.len() * d,
            "flat block must hold out.len() rows of n_features values"
        );
        out.fill(0.0);
        self.accumulate_block_scalar(flat, out);
        self.finish(out);
    }

    #[inline]
    fn finish(&self, out: &mut [f64]) {
        let n_trees = self.roots.len();
        for v in out.iter_mut() {
            *v = self.post.apply(*v, n_trees);
        }
    }

    /// The traversal kernel: adds each tree's output for every row into
    /// `out`, which the caller zeroed. Interleaved scalar lanes over the
    /// SoA arrays, tree-major so each (small) tree's arrays stay cache-hot
    /// across the whole block. Rows advance in fixed chunks of
    /// `SCALAR_CHUNK` whose descent indices live entirely in registers: the
    /// chunk loop has constant bounds, so it fully unrolls and
    /// scalar-replaces the index array — no per-step spill/reload. Three
    /// unchecked loads per lane-step (`meta`, `thresh`, row value); the
    /// step itself is compare-and-add (see the module docs for why it must
    /// not contain a select). Safety: every node index comes from
    /// `roots`/`meta`, which the builder constrains to the arena, and the
    /// packed feature index is `< n_features` for internal nodes (sinks use
    /// feature 0), so `row_base + feat` stays inside the asserted
    /// `out.len() * d` extent of `flat`.
    fn accumulate_block_scalar(&self, flat: &[f64], out: &mut [f64]) {
        let d = self.n_features;
        let n_rows = out.len();
        let thresh = self.thresh.as_ptr();
        let meta = self.meta.as_ptr();
        let value = self.value.as_ptr();
        let flat_p = flat.as_ptr();
        for t in 0..self.roots.len() {
            let root = self.roots[t] as usize;
            let passes = self.depth[t];
            let mut start = 0usize;
            while start + SCALAR_CHUNK <= n_rows {
                let mut idx = [root; SCALAR_CHUNK];
                let base = start * d;
                for _ in 0..passes {
                    for (l, il) in idx.iter_mut().enumerate() {
                        let i = *il;
                        // Safety: see method docs — indices are arena- and
                        // block-bounded by construction.
                        unsafe {
                            let m = *meta.add(i);
                            let v = *flat_p.add(base + l * d + (m >> 48) as usize);
                            let le = (v <= *thresh.add(i)) as usize;
                            *il = (m & PAIR_MASK) as usize + le;
                        }
                    }
                }
                for (l, i) in idx.into_iter().enumerate() {
                    // Safety: descent indices stay inside the arena.
                    out[start + l] += unsafe { *value.add(i) };
                }
                start += SCALAR_CHUNK;
            }
            // Ragged tail: the per-row reference descent (identical
            // arithmetic, so still bit-exact).
            for r in start..n_rows {
                out[r] += self.tree_output(t, &flat[r * d..(r + 1) * d]);
            }
        }
    }
}

impl Regressor for SoaForest {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut sum = 0.0;
        for t in 0..self.roots.len() {
            sum += self.tree_output(t, x);
        }
        self.post.apply(sum, self.roots.len())
    }

    /// Copies the (possibly scattered) rows into one contiguous block and
    /// runs the packed traversal.
    fn predict_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        let d = self.n_features;
        let mut flat = Vec::with_capacity(rows.len() * d);
        for r in rows {
            flat.extend_from_slice(&r[..d]);
        }
        let mut out = vec![0.0f64; rows.len()];
        self.predict_block_into(&flat, &mut out);
        out
    }

    fn predict_block(&self, flat: &[f64], d: usize, out: &mut [f64]) {
        assert_eq!(d, self.n_features, "block width must match n_features");
        self.predict_block_into(flat, out);
    }

    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestParams, RandomForest};
    use crate::gbdt::{Gbdt, GbdtParams};
    use crate::tree::{DecisionTree, TreeNode, TreeParams};
    use nfv_data::dataset::Task;
    use nfv_data::prelude::*;

    fn leaf(value: f64) -> TreeNode {
        TreeNode {
            feature: 0,
            threshold: 0.0,
            left: 0,
            right: 0,
            value,
            cover: 1.0,
            is_leaf: true,
        }
    }

    fn split(feature: usize, threshold: f64, left: u32, right: u32) -> TreeNode {
        TreeNode {
            feature,
            threshold,
            left,
            right,
            value: 0.0,
            cover: 2.0,
            is_leaf: false,
        }
    }

    fn tree(nodes: Vec<TreeNode>, d: usize) -> DecisionTree {
        DecisionTree {
            nodes,
            n_features: d,
            task: Task::Regression,
        }
    }

    /// Deterministic pseudo-random rows covering negatives, zeros, and
    /// values straddling thresholds.
    fn rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        (s >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
                    })
                    .collect()
            })
            .collect()
    }

    /// Builds a small random synthetic ensemble with *ragged* shapes:
    /// branches terminate early with probability 1/3 and per-tree depth
    /// caps vary up to `max_depth`, so packed pass counts differ per
    /// tree and lanes park in leaf sinks at different passes. Covers
    /// depth 0 (leaf-only) upward without paying a fit per case.
    fn synth_trees(n_trees: usize, max_depth: usize, d: usize, seed: u64) -> Vec<DecisionTree> {
        fn xs(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        }
        fn unit(s: &mut u64) -> f64 {
            (xs(s) >> 11) as f64 / (1u64 << 53) as f64
        }
        fn build(nodes: &mut Vec<TreeNode>, dd: usize, cap: usize, d: usize, s: &mut u64) -> u32 {
            let i = nodes.len() as u32;
            if dd >= cap || (dd > 0 && xs(s).is_multiple_of(3)) {
                nodes.push(leaf(unit(s) * 10.0 - 5.0));
                return i;
            }
            nodes.push(leaf(0.0)); // placeholder until the children exist
            let feature = (xs(s) as usize) % d;
            let threshold = unit(s) * 4.0 - 2.0;
            let l = build(nodes, dd + 1, cap, d, s);
            let r = build(nodes, dd + 1, cap, d, s);
            nodes[i as usize] = split(feature, threshold, l, r);
            i
        }
        let mut s = seed | 1;
        (0..n_trees)
            .map(|_| {
                let cap = if n_trees > 1 {
                    (xs(&mut s) as usize) % (max_depth + 1)
                } else {
                    max_depth
                };
                let mut nodes = Vec::new();
                build(&mut nodes, 0, cap, d, &mut s);
                tree(nodes, d)
            })
            .collect()
    }

    /// Inputs the reference walk routes by IEEE comparison: NaN fails every
    /// `<=` and goes right, the infinities are the ordered extremes, and
    /// −0.0 compares equal to 0.0.
    const SPECIALS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];

    fn assert_block_matches_scalar(trees: &[DecisionTree], post: EnsemblePost, d: usize) {
        let soa = SoaForest::from_trees(trees, post).unwrap();
        // 67 rows: eight full SCALAR_CHUNK chunks and a 3-row tail.
        let mut xs = rows(67, d, trees.len() as u64 + d as u64);
        // Every third row carries special values on half its features:
        // rows 0..=63 sit in full chunks, row 66 in the tail.
        for (r, x) in xs.iter_mut().enumerate().step_by(3) {
            for (f, v) in x.iter_mut().enumerate() {
                if (r + f) % 2 == 0 {
                    *v = SPECIALS[(r / 3 + f) % SPECIALS.len()];
                }
            }
        }
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut out = vec![0.0; xs.len()];
        soa.predict_block_into(&flat, &mut out);
        for (x, got) in xs.iter().zip(&out) {
            let sum: f64 = trees.iter().map(|t| t.output(x)).sum();
            let want = post.apply(sum, trees.len());
            assert_eq!(got.to_bits(), want.to_bits(), "x={x:?}");
            assert_eq!(
                soa.predict(x).to_bits(),
                want.to_bits(),
                "scalar predict path"
            );
        }
    }

    #[test]
    fn leaf_only_tree_packs_and_evaluates() {
        let t = tree(vec![leaf(3.25)], 4);
        assert_eq!(t.depth(), 0);
        assert_block_matches_scalar(&[t], EnsemblePost::Mean, 4);
    }

    #[test]
    fn depth_one_tree_packs_and_evaluates() {
        let t = tree(vec![split(2, 0.5, 1, 2), leaf(-1.0), leaf(7.0)], 4);
        assert_eq!(t.depth(), 1);
        assert_block_matches_scalar(&[t], EnsemblePost::Mean, 4);
    }

    #[test]
    fn unused_features_are_harmless() {
        // d = 6 but the tree only ever splits feature 5.
        let t = tree(vec![split(5, 0.0, 1, 2), leaf(1.0), leaf(2.0)], 6);
        assert_block_matches_scalar(&[t], EnsemblePost::Mean, 6);
    }

    #[test]
    fn feature_indices_beyond_255_widen_not_truncate() {
        // Splitting on feature 300 must survive the u16 packing: a u8
        // layout would silently alias it to feature 44.
        let d = 400;
        let t = tree(vec![split(300, 0.0, 1, 2), leaf(-5.0), leaf(5.0)], d);
        let soa = SoaForest::from_trees(std::slice::from_ref(&t), EnsemblePost::Mean).unwrap();
        let mut x = vec![0.0; d];
        x[300] = 1.0; // feature 300 high → right leaf
        x[44] = -1.0; // the u8-aliased index low → would pick left
        assert_eq!(soa.predict(&x), 5.0);
        let mut out = [0.0];
        soa.predict_block_into(&x, &mut out);
        assert_eq!(out[0], 5.0);
        assert_eq!(t.output(&x), 5.0);
    }

    #[test]
    fn too_many_features_fail_loudly() {
        let d = u16::MAX as usize + 2;
        let t = tree(vec![split(d - 1, 0.0, 1, 2), leaf(0.0), leaf(1.0)], d);
        let err = SoaForest::from_trees(&[t], EnsemblePost::Mean).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("u16"), "unexpected error: {msg}");
    }

    #[test]
    fn empty_and_inconsistent_ensembles_rejected() {
        assert!(SoaForest::from_trees(&[], EnsemblePost::Mean).is_err());
        let a = tree(vec![leaf(1.0)], 3);
        let b = tree(vec![leaf(1.0)], 4);
        assert!(SoaForest::from_trees(&[a, b], EnsemblePost::Mean).is_err());
    }

    #[test]
    fn fitted_forest_is_bit_identical() {
        let s = friedman1(400, 9, 0.3, 31).unwrap();
        let f = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees: 20,
                ..ForestParams::default()
            },
            3,
            1,
        )
        .unwrap();
        let soa = SoaForest::from_forest(&f).unwrap();
        let xs = rows(50, 9, 5)
            .into_iter()
            .chain((0..20).map(|i| s.data.row(i).to_vec()));
        for x in xs {
            assert_eq!(soa.predict(&x).to_bits(), f.output(&x).to_bits());
        }
        assert_block_matches_scalar(&f.trees, EnsemblePost::Mean, 9);
    }

    #[test]
    fn fitted_gbdt_is_bit_identical_both_tasks() {
        let s = friedman1(400, 7, 0.3, 33).unwrap();
        let g = Gbdt::fit(
            &s.data,
            &GbdtParams {
                n_rounds: 25,
                ..GbdtParams::default()
            },
            1,
        )
        .unwrap();
        let soa = SoaForest::from_gbdt(&g).unwrap();
        for x in rows(40, 7, 9) {
            assert_eq!(soa.predict(&x).to_bits(), g.predict(&x).to_bits());
        }
        let c = interaction_xor(500, 3, 17).unwrap();
        let gc = Gbdt::fit(
            &c.data,
            &GbdtParams {
                n_rounds: 15,
                ..GbdtParams::default()
            },
            2,
        )
        .unwrap();
        let soac = SoaForest::from_gbdt(&gc).unwrap();
        for x in rows(40, c.data.n_features(), 11) {
            assert_eq!(soac.predict(&x).to_bits(), gc.predict(&x).to_bits());
        }
    }

    #[test]
    fn max_feature_index_survives_packing() {
        // d at the u16 cap with a split on the last feature: the
        // `meta >> 48` unpack must recover 65 535 exactly.
        let d = u16::MAX as usize + 1;
        let t = tree(vec![split(d - 1, 0.0, 1, 2), leaf(-3.0), leaf(9.0)], d);
        let reference = t.clone();
        let soa = SoaForest::from_trees(&[t], EnsemblePost::Mean).unwrap();
        // 11 rows: one full SCALAR_CHUNK chunk plus a 3-row tail.
        let mut xs = rows(11, d, 3);
        for (i, x) in xs.iter_mut().enumerate() {
            x[d - 1] = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut out = vec![0.0; xs.len()];
        soa.predict_block_into(&flat, &mut out);
        for (x, got) in xs.iter().zip(&out) {
            assert_eq!(got.to_bits(), reference.output(x).to_bits());
        }
    }

    #[test]
    fn predict_batch_matches_block_and_regressor_contract() {
        let s = friedman1(300, 6, 0.2, 51).unwrap();
        let f = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees: 8,
                ..ForestParams::default()
            },
            5,
            1,
        )
        .unwrap();
        let soa = SoaForest::from_forest(&f).unwrap();
        assert_eq!(Regressor::n_features(&soa), 6);
        assert_eq!(soa.n_trees(), 8);
        assert!(soa.n_nodes() >= 8);
        let xs = rows(21, 6, 13);
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let batch = soa.predict_batch(&refs);
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut block = vec![0.0; xs.len()];
        soa.predict_block(&flat, 6, &mut block);
        for ((b, blk), x) in batch.iter().zip(&block).zip(&xs) {
            assert_eq!(b.to_bits(), blk.to_bits());
            assert_eq!(b.to_bits(), f.output(x).to_bits());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn fitted() -> &'static (
            crate::forest::RandomForest,
            crate::gbdt::Gbdt,
            crate::gbdt::Gbdt,
        ) {
            static MODELS: OnceLock<(
                crate::forest::RandomForest,
                crate::gbdt::Gbdt,
                crate::gbdt::Gbdt,
            )> = OnceLock::new();
            MODELS.get_or_init(|| {
                let s = friedman1(300, 8, 0.3, 77).unwrap();
                let forest = RandomForest::fit(
                    &s.data,
                    &ForestParams {
                        n_trees: 10,
                        ..ForestParams::default()
                    },
                    5,
                    1,
                )
                .unwrap();
                let greg = Gbdt::fit(
                    &s.data,
                    &GbdtParams {
                        n_rounds: 12,
                        ..GbdtParams::default()
                    },
                    9,
                )
                .unwrap();
                let c = interaction_xor(300, 6, 23).unwrap();
                let gcls = Gbdt::fit(
                    &c.data,
                    &GbdtParams {
                        n_rounds: 10,
                        ..GbdtParams::default()
                    },
                    11,
                )
                .unwrap();
                (forest, greg, gcls)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The packed descent reproduces the reference per-tree walk
            /// bit-for-bit over ragged random forests, with `n_rows`
            /// spanning 1..44 so blocks end in a partial chunk or none.
            #[test]
            fn ragged_forests_bit_identical(
                n_trees in 1usize..5,
                depth in 0usize..6,
                d in 1usize..24,
                n_rows in 1usize..44,
                seed in 1u64..u64::MAX,
            ) {
                let trees = synth_trees(n_trees, depth, d, seed);
                let soa = SoaForest::from_trees(&trees, EnsemblePost::Mean).unwrap();
                let xs = rows(n_rows, d, seed ^ 0x5EED);
                let flat: Vec<f64> = xs.iter().flatten().copied().collect();
                let mut out = vec![0.0; n_rows];
                soa.predict_block_into(&flat, &mut out);
                for (x, got) in xs.iter().zip(&out) {
                    let sum: f64 = trees.iter().map(|t| t.output(x)).sum();
                    let want = sum / trees.len() as f64;
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }

            #[test]
            fn fitted_models_bit_identical(
                n_rows in 1usize..33,
                seed in 1u64..u64::MAX,
            ) {
                let (forest, greg, gcls) = fitted();
                let fsoa = SoaForest::from_forest(forest).unwrap();
                let rsoa = SoaForest::from_gbdt(greg).unwrap();
                let csoa = SoaForest::from_gbdt(gcls).unwrap();
                for (soa, d, want_of) in [
                    (&fsoa, 8usize, &(|x: &[f64]| forest.output(x)) as &dyn Fn(&[f64]) -> f64),
                    (&rsoa, 8, &|x: &[f64]| greg.predict(x)),
                    (&csoa, 8, &|x: &[f64]| gcls.predict(x)),
                ] {
                    let xs = rows(n_rows, d, seed);
                    let flat: Vec<f64> = xs.iter().flatten().copied().collect();
                    let mut out = vec![0.0; n_rows];
                    soa.predict_block_into(&flat, &mut out);
                    for (x, got) in xs.iter().zip(&out) {
                        prop_assert_eq!(got.to_bits(), want_of(x).to_bits());
                        prop_assert_eq!(soa.predict(x).to_bits(), want_of(x).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn fit_on_single_row_yields_leaf_only_forest() {
        // Degenerate training data (one effective row) → every tree is a
        // single leaf; the packed form must round-trip it.
        let data = nfv_data::dataset::Dataset::new(
            vec!["a".into(), "b".into()],
            vec![1.0, 2.0, 1.0, 2.0],
            vec![3.0, 3.0],
            Task::Regression,
        )
        .unwrap();
        let t = DecisionTree::fit(&data, &TreeParams::default(), 0).unwrap();
        assert_eq!(t.depth(), 0);
        let soa = SoaForest::from_trees(&[t], EnsemblePost::Mean).unwrap();
        assert_eq!(soa.predict(&[9.0, 9.0]), 3.0);
    }
}
