//! The statistical (Markov-random-field) denoiser back-end.
//!
//! Stands in for the paper's 250-GPU-hour U-Net (see DESIGN.md). Per
//! style, it fits the table `P(x₀ = 1 | 8-neighbour context)` over all
//! 3×3 windows of the training topologies (256 contexts). At inference it
//! runs a few mean-field sweeps that combine the fitted local prior with
//! the exact diffusion-channel likelihood of the observed noisy bit:
//!
//! `P(x₀ | x_k, ctx) ∝ P(x₀ | ctx) · q(x_k | x₀)`
//!
//! which is precisely the `p_θ(x₀ | x_k, c)` interface the reverse
//! process needs. Conditioning: one table per style id; `None` uses the
//! pooled (union-dataset) table — the "mixed training without
//! conditions" configuration whose style conflict the paper warns about.

use crate::{Denoiser, NoiseSchedule};
use cp_squish::Topology;

const CONTEXTS: usize = 256;

/// A fitted neighbourhood-statistics denoiser.
#[derive(Debug, Clone)]
pub struct MrfDenoiser {
    /// One table per condition id, `tables[cond][ctx] = P(x0=1 | ctx)`.
    tables: Vec<[f64; CONTEXTS]>,
    /// Condition ids aligned with `tables`.
    condition_ids: Vec<u32>,
    /// Pooled table used when sampling unconditionally.
    pooled: [f64; CONTEXTS],
    /// Training marginal density per condition (aligned with `tables`).
    marginals: Vec<f64>,
    /// Pooled marginal density.
    pooled_marginal: f64,
    /// Mean-field sweeps per prediction.
    sweeps: usize,
    /// Coarse-grid factor (1 = full resolution). Mimics the U-Net's
    /// downsampling path: structure is predicted on a `factor`-times
    /// coarser grid and replicated back up, which keeps the per-scan-line
    /// shape count of samples at training-data levels.
    coarse: usize,
    native_size: usize,
}

impl MrfDenoiser {
    /// Fits per-style neighbourhood tables with `smoothing` pseudo-counts.
    ///
    /// Unseen contexts are smoothed toward the *style's marginal density*
    /// rather than 0.5 — during early reverse steps most contexts come
    /// from near-uniform noise and have never been observed, and pulling
    /// them toward the marginal is what makes generated density track the
    /// training distribution per style.
    ///
    /// `datasets` pairs each condition id with its training topologies.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty or any dataset has no topologies.
    #[must_use]
    pub fn fit(datasets: &[(u32, &[Topology])], smoothing: f64) -> MrfDenoiser {
        MrfDenoiser::fit_coarse(datasets, smoothing, 2)
    }

    /// [`MrfDenoiser::fit`] with an explicit coarse-grid factor
    /// (`coarse = 1` disables the coarse path; the default is 2).
    ///
    /// Tables are fitted on majority-downsampled training topologies and
    /// predictions are made on the coarse grid, then replicated back up.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty, any dataset has no topologies, or
    /// `coarse == 0`.
    #[must_use]
    pub fn fit_coarse(
        datasets: &[(u32, &[Topology])],
        smoothing: f64,
        coarse: usize,
    ) -> MrfDenoiser {
        assert!(!datasets.is_empty(), "need at least one dataset");
        assert!(coarse >= 1, "coarse factor must be at least 1");
        let downsampled: Vec<(u32, Vec<Topology>)> = datasets
            .iter()
            .map(|(cond, topos)| {
                (
                    *cond,
                    topos
                        .iter()
                        .map(|t| downsample_majority(t, coarse))
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<(u32, &[Topology])> = downsampled
            .iter()
            .map(|(cond, v)| (*cond, v.as_slice()))
            .collect();
        let mut fitted = MrfDenoiser::fit_full_resolution(&refs, smoothing);
        fitted.coarse = coarse;
        // Native size refers to the full-resolution window.
        fitted.native_size *= coarse;
        fitted
    }

    /// Fits tables at the given resolution with no coarse path.
    fn fit_full_resolution(datasets: &[(u32, &[Topology])], smoothing: f64) -> MrfDenoiser {
        assert!(!datasets.is_empty(), "need at least one dataset");
        let mut tables = Vec::with_capacity(datasets.len());
        let mut condition_ids = Vec::with_capacity(datasets.len());
        let mut marginals = Vec::with_capacity(datasets.len());
        let mut pooled_ones = [0.0f64; CONTEXTS];
        let mut pooled_total = [0.0f64; CONTEXTS];
        let mut pooled_set_cells = 0.0f64;
        let mut pooled_cells = 0.0f64;
        let mut native_size = 0usize;
        for &(cond, topologies) in datasets {
            assert!(
                !topologies.is_empty(),
                "dataset for condition {cond} is empty"
            );
            let mut ones = [0.0f64; CONTEXTS];
            let mut total = [0.0f64; CONTEXTS];
            let mut set_cells = 0.0f64;
            let mut cells = 0.0f64;
            for t in topologies {
                native_size = native_size.max(t.rows().min(t.cols()));
                for r in 0..t.rows() {
                    for c in 0..t.cols() {
                        let ctx = context_of(t, r, c);
                        let bit = t.get(r, c);
                        total[ctx] += 1.0;
                        pooled_total[ctx] += 1.0;
                        cells += 1.0;
                        pooled_cells += 1.0;
                        if bit {
                            ones[ctx] += 1.0;
                            pooled_ones[ctx] += 1.0;
                            set_cells += 1.0;
                            pooled_set_cells += 1.0;
                        }
                    }
                }
            }
            let marginal = set_cells / cells.max(1.0);
            marginals.push(marginal);
            let mut table = [0.5f64; CONTEXTS];
            for ctx in 0..CONTEXTS {
                table[ctx] = (ones[ctx] + smoothing * marginal) / (total[ctx] + smoothing);
            }
            tables.push(table);
            condition_ids.push(cond);
        }
        let pooled_marginal = pooled_set_cells / pooled_cells.max(1.0);
        let mut pooled = [0.5f64; CONTEXTS];
        for ctx in 0..CONTEXTS {
            pooled[ctx] =
                (pooled_ones[ctx] + smoothing * pooled_marginal) / (pooled_total[ctx] + smoothing);
        }
        MrfDenoiser {
            tables,
            condition_ids,
            pooled,
            marginals,
            pooled_marginal,
            sweeps: 3,
            coarse: 1,
            native_size,
        }
    }

    /// Training marginal density for a condition (`None` = pooled).
    #[must_use]
    pub fn marginal(&self, condition: Option<u32>) -> f64 {
        match condition {
            Some(cond) => self
                .condition_ids
                .iter()
                .position(|&c| c == cond)
                .map_or(self.pooled_marginal, |i| self.marginals[i]),
            None => self.pooled_marginal,
        }
    }

    /// Overrides the number of mean-field sweeps (default 3).
    #[must_use]
    pub fn with_sweeps(mut self, sweeps: usize) -> MrfDenoiser {
        assert!(sweeps >= 1, "at least one sweep");
        self.sweeps = sweeps;
        self
    }

    /// Condition ids the denoiser was fitted for.
    #[must_use]
    pub fn condition_ids(&self) -> &[u32] {
        &self.condition_ids
    }

    /// The fitted `P(x₀=1 | ctx)` for a condition (`None` = pooled).
    #[must_use]
    pub fn table(&self, condition: Option<u32>) -> &[f64; CONTEXTS] {
        match condition {
            Some(cond) => self
                .condition_ids
                .iter()
                .position(|&c| c == cond)
                .map_or(&self.pooled, |i| &self.tables[i]),
            None => &self.pooled,
        }
    }
}

/// 8-neighbour context byte of cell `(r, c)`; out-of-bounds neighbours
/// read as 0 (patterns sit in empty surroundings).
fn context_of(t: &Topology, r: usize, c: usize) -> usize {
    let mut ctx = 0usize;
    let mut bit = 0;
    for dr in -1i32..=1 {
        for dc in -1i32..=1 {
            if dr == 0 && dc == 0 {
                continue;
            }
            let rr = r as i32 + dr;
            let cc = c as i32 + dc;
            let set = rr >= 0
                && cc >= 0
                && (rr as usize) < t.rows()
                && (cc as usize) < t.cols()
                && t.get(rr as usize, cc as usize);
            if set {
                ctx |= 1 << bit;
            }
            bit += 1;
        }
    }
    ctx
}

/// Thresholds beliefs and enforces the minimum-feature structure of
/// Manhattan layout data: single-cell gaps inside runs are filled,
/// single-cell runs removed (first along rows, then along columns), and
/// connected fragments below four cells are dropped — the minimum-area
/// analogue. This is what keeps the scan-line complexity and fragment
/// count of samples in the legalizable range, mirroring what the paper's
/// U-Net learns from DRC-clean training data.
fn regularize_min_feature(
    beliefs: &[f64],
    rows: usize,
    cols: usize,
    target_density: f64,
) -> Vec<bool> {
    // Quantile threshold: the binary map starts at exactly the training
    // density, so thresholding artefacts cannot inflate or deflate it.
    // Exactly the top-k cells are kept (ties broken by index) — a plain
    // `>= threshold` comparison would keep every tied cell and saturate
    // degenerate belief maps.
    let keep = ((beliefs.len() as f64) * target_density).round() as usize;
    let mut order: Vec<usize> = (0..beliefs.len()).collect();
    order.sort_by(|&a, &b| beliefs[b].partial_cmp(&beliefs[a]).expect("finite beliefs"));
    let mut bits = vec![false; beliefs.len()];
    for &i in order.iter().take(keep.min(beliefs.len())) {
        bits[i] = true;
    }
    // Iterate the fill/remove passes to a (bounded) fixpoint so collinear
    // fragments consolidate into long runs instead of oscillating.
    for _ in 0..3 {
        let before = bits.clone();
        regularize_once(&mut bits, rows, cols);
        if bits == before {
            break;
        }
    }
    drop_small_components(&mut bits, rows, cols, 6);
    bits
}

fn regularize_once(bits: &mut [bool], rows: usize, cols: usize) {
    for pass in 0..2 {
        let horizontal = pass == 0;
        let (outer, inner) = if horizontal {
            (rows, cols)
        } else {
            (cols, rows)
        };
        for o in 0..outer {
            let idx = |i: usize| {
                if horizontal {
                    o * cols + i
                } else {
                    i * cols + o
                }
            };
            // Fill single-cell gaps (1 0 1 → 1 1 1).
            for i in 1..inner.saturating_sub(1) {
                if !bits[idx(i)] && bits[idx(i - 1)] && bits[idx(i + 1)] {
                    bits[idx(i)] = true;
                }
            }
            // Remove single-cell runs (0 1 0 → 0 0 0) unless the cell
            // continues a perpendicular run (part of a thin wire the
            // perpendicular pass is responsible for).
            for i in 0..inner {
                let prev = i > 0 && bits[idx(i - 1)];
                let next = i + 1 < inner && bits[idx(i + 1)];
                if !bits[idx(i)] || prev || next {
                    continue;
                }
                let (r, c) = if horizontal { (o, i) } else { (i, o) };
                let perpendicular_run = if horizontal {
                    (r > 0 && bits[(r - 1) * cols + c])
                        || (r + 1 < rows && bits[(r + 1) * cols + c])
                } else {
                    (c > 0 && bits[r * cols + c - 1]) || (c + 1 < cols && bits[r * cols + c + 1])
                };
                if !perpendicular_run {
                    bits[idx(i)] = false;
                }
            }
        }
    }
}

/// Clears 4-connected components with fewer than `min_cells` cells.
fn drop_small_components(bits: &mut [bool], rows: usize, cols: usize, min_cells: usize) {
    let mut labels = vec![usize::MAX; bits.len()];
    let mut component = 0usize;
    let mut stack = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    for start in 0..bits.len() {
        if !bits[start] || labels[start] != usize::MAX {
            continue;
        }
        members.clear();
        stack.push(start);
        labels[start] = component;
        while let Some(i) = stack.pop() {
            members.push(i);
            let (r, c) = (i / cols, i % cols);
            let mut visit = |j: usize| {
                if bits[j] && labels[j] == usize::MAX {
                    labels[j] = component;
                    stack.push(j);
                }
            };
            if r > 0 {
                visit(i - cols);
            }
            if r + 1 < rows {
                visit(i + cols);
            }
            if c > 0 {
                visit(i - 1);
            }
            if c + 1 < cols {
                visit(i + 1);
            }
        }
        if members.len() < min_cells {
            for &i in &members {
                bits[i] = false;
            }
        }
        component += 1;
    }
}

/// Context from a float belief map (threshold 0.5), used inside sweeps.
fn context_of_beliefs(beliefs: &[f64], rows: usize, cols: usize, r: usize, c: usize) -> usize {
    let mut ctx = 0usize;
    let mut bit = 0;
    for dr in -1i32..=1 {
        for dc in -1i32..=1 {
            if dr == 0 && dc == 0 {
                continue;
            }
            let rr = r as i32 + dr;
            let cc = c as i32 + dc;
            let set = rr >= 0
                && cc >= 0
                && (rr as usize) < rows
                && (cc as usize) < cols
                && beliefs[rr as usize * cols + cc as usize] > 0.5;
            if set {
                ctx |= 1 << bit;
            }
            bit += 1;
        }
    }
    ctx
}

/// Per-(step, condition) constants of one [`MrfDenoiser`] prediction.
///
/// The noise schedule and the channel likelihoods depend only on
/// `(k, total_steps)` and the observed bit — never on the cell — so
/// they are computed once per prediction and every cell reads the same
/// values.
struct GridContext<'a> {
    /// The fitted `P(x₀=1 | ctx)` table for the condition.
    table: &'a [f64; CONTEXTS],
    /// `channel_likelihood(k, bit, x₀)` indexed `[bit][x₀]`.
    like: [[f64; 2]; 2],
    /// Initial belief per observed bit (channel posterior, flat prior).
    init: [f64; 2],
    /// Calibration target: the style's training marginal density.
    target: f64,
    /// Regularization blend weight for this step.
    w: f64,
}

impl MrfDenoiser {
    /// Builds the shared per-step constants for a prediction at step
    /// `k` of a `total_steps` chain under `condition`.
    fn grid_context(
        &self,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> GridContext<'_> {
        // Channel likelihoods from the schedule position: reconstruct the
        // cumulative flip probability for step k of a K-step default
        // schedule (the schedule endpoints are fixed project-wide).
        let schedule = NoiseSchedule::scaled_default(total_steps.max(1));
        let k = k.min(total_steps.max(1));
        let mut like = [[0.0f64; 2]; 2];
        let mut init = [0.0f64; 2];
        for (index, bit) in [false, true].into_iter().enumerate() {
            let like_one = schedule.channel_likelihood(k.max(1), bit, true);
            let like_zero = schedule.channel_likelihood(k.max(1), bit, false);
            like[index] = [like_zero, like_one];
            init[index] = like_one / (like_one + like_zero);
        }
        let target = self.marginal(condition).clamp(1e-4, 1.0 - 1e-4);
        let total = total_steps.max(1) as f64;
        let w = (1.0 - 3.0 * (k as f64 - 1.0) / total).clamp(0.0, 1.0);
        GridContext {
            table: self.table(condition),
            like,
            init,
            target,
            w,
        }
    }

    /// Prediction at the table's own grid resolution.
    fn predict_grid_with(&self, x_k: &Topology, gc: &GridContext<'_>) -> Vec<f32> {
        let (rows, cols) = x_k.shape();
        // Initial beliefs: channel posterior under a flat prior.
        let mut beliefs: Vec<f64> = x_k
            .as_bytes()
            .iter()
            .map(|&b| gc.init[usize::from(b != 0)])
            .collect();
        // Mean-field sweeps: local fitted prior × channel likelihood.
        for _ in 0..self.sweeps {
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    let ctx = context_of_beliefs(&beliefs, rows, cols, r, c);
                    let prior = gc.table[ctx].clamp(1e-6, 1.0 - 1e-6);
                    let bit = usize::from(x_k.as_bytes()[i] != 0);
                    let numerator = prior * gc.like[bit][1];
                    let denominator = numerator + (1.0 - prior) * gc.like[bit][0];
                    beliefs[i] = numerator / denominator;
                }
            }
        }
        self.finish_grid(beliefs, rows, cols, gc)
    }

    /// Calibration + regularization tail of a grid prediction.
    fn finish_grid(
        &self,
        mut beliefs: Vec<f64>,
        rows: usize,
        cols: usize,
        gc: &GridContext<'_>,
    ) -> Vec<f32> {
        // Marginal calibration: mean-field on dense tables can run away
        // toward saturation; shift the belief odds so the mean prediction
        // matches the style's training density (a denoiser trained to
        // convergence is calibrated by construction).
        let target = gc.target;
        let mean: f64 = beliefs.iter().sum::<f64>() / beliefs.len() as f64;
        if mean > 1e-6 && mean < 1.0 - 1e-6 {
            let ratio = (target / (1.0 - target)) / (mean / (1.0 - mean));
            for b in &mut beliefs {
                let clamped = b.clamp(1e-9, 1.0 - 1e-9);
                let odds = clamped / (1.0 - clamped) * ratio;
                *b = odds / (1.0 + odds);
            }
        }
        // Feature-size regularization over the final third of the chain:
        // Manhattan layout data has no single-cell features, and a
        // denoiser trained on it predicts clean minimum-width-respecting
        // shapes near the end of the chain. Earlier steps keep the raw
        // beliefs — blending the regularized map into mid-chain feedback
        // ratchets density upward, so the weight stays zero there.
        let binary = regularize_min_feature(&beliefs, rows, cols, target);
        let w = gc.w;
        beliefs
            .iter()
            .zip(&binary)
            .map(|(&b, &bit)| {
                let target = if bit { 1.0 } else { 0.0 };
                (b * (1.0 - w) + target * w) as f32
            })
            .collect()
    }

    /// One prediction (full- or coarse-resolution) under precomputed
    /// step constants.
    fn predict_one_with(&self, x_k: &Topology, gc: &GridContext<'_>) -> Vec<f32> {
        if self.coarse <= 1 {
            return self.predict_grid_with(x_k, gc);
        }
        // Coarse path: majority-downsample the noisy input, predict on
        // the table's grid, replicate probabilities back up.
        let (rows, cols) = x_k.shape();
        let down = downsample_majority(x_k, self.coarse);
        let coarse_p = self.predict_grid_with(&down, gc);
        let ccols = down.cols();
        (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                coarse_p[(r / self.coarse).min(down.rows() - 1) * ccols
                    + (c / self.coarse).min(ccols - 1)]
            })
            .collect()
    }
}

impl Denoiser for MrfDenoiser {
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        self.predict_one_with(x_k, &self.grid_context(k, total_steps, condition))
    }

    fn native_size(&self) -> usize {
        self.native_size
    }
}

/// Majority vote over `factor × factor` blocks (ties round up to drawn).
fn downsample_majority(t: &Topology, factor: usize) -> Topology {
    if factor <= 1 {
        return t.clone();
    }
    let rows = t.rows().div_ceil(factor).max(1);
    let cols = t.cols().div_ceil(factor).max(1);
    Topology::from_fn(rows, cols, |r, c| {
        let mut ones = 0usize;
        let mut total = 0usize;
        for rr in r * factor..((r + 1) * factor).min(t.rows()) {
            for cc in c * factor..((c + 1) * factor).min(t.cols()) {
                ones += usize::from(t.get(rr, cc));
                total += 1;
            }
        }
        2 * ones >= total.max(1) && ones > 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiffusionModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn striped_dataset(period: usize) -> Vec<Topology> {
        (0..6)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % period < period / 2))
            .collect()
    }

    #[test]
    fn fit_learns_solid_interior_contexts() {
        let data = striped_dataset(8);
        let mrf = MrfDenoiser::fit(&[(0, &data)], 1.0);
        // Context "all 8 neighbours set" → centre almost surely set.
        assert!(mrf.table(Some(0))[255] > 0.9);
        // Context "no neighbour set" → centre almost surely clear.
        assert!(mrf.table(Some(0))[0] < 0.1);
    }

    #[test]
    fn unknown_condition_falls_back_to_pooled() {
        let data = striped_dataset(8);
        let mrf = MrfDenoiser::fit(&[(7, &data)], 1.0);
        assert_eq!(mrf.table(Some(42)), mrf.table(None));
    }

    #[test]
    fn prediction_denoises_toward_clean_pattern() {
        let data = striped_dataset(8);
        // Full-resolution fit: this test measures the raw table mechanism.
        let mrf = MrfDenoiser::fit_coarse(&[(0, &data)], 1.0, 1);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(10), mrf, 16);
        let clean = &data[0];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Light noise (k = 2 of 10): prediction should mostly match clean.
        let noisy = model.forward_noised(clean, 2, &mut rng);
        let p0 = model.denoiser().predict_x0(&noisy, 2, 10, Some(0));
        let mut correct = 0usize;
        for (i, &p) in p0.iter().enumerate() {
            let predicted = p > 0.5;
            let truth = clean.as_bytes()[i] != 0;
            correct += usize::from(predicted == truth);
        }
        let accuracy = correct as f64 / p0.len() as f64;
        assert!(accuracy > 0.85, "denoiser accuracy {accuracy}");
    }

    #[test]
    fn conditional_tables_differ_between_styles() {
        // 4-wide stripes have solid interiors; isolated pixels never see a
        // fully-set neighbourhood.
        let dense = striped_dataset(8);
        let sparse: Vec<Topology> = (0..6)
            .map(|i| Topology::from_fn(16, 16, move |r, c| r % 8 == i && c % 8 == 0))
            .collect();
        let mrf = MrfDenoiser::fit(&[(0, &dense), (1, &sparse)], 1.0);
        // Fully-surrounded context: confidently "on" for dense, unseen
        // (smoothed toward the tiny sparse marginal) for sparse.
        assert!(mrf.table(Some(0))[255] > 0.9);
        assert!(mrf.table(Some(0))[255] > mrf.table(Some(1))[255] + 0.3);
    }

    #[test]
    fn generation_with_mrf_produces_plausible_density() {
        // Localized island data (~10% density). Full-frame periodic
        // stripes are degenerate for a local neighbourhood model — the
        // vertical context self-reinforces and over-generates lines — so
        // the distribution-tracking assertion uses island-style data;
        // real-dataset tracking is additionally covered by the
        // chatpattern-core tests.
        let data: Vec<Topology> = (0..6)
            .map(|i| {
                Topology::from_fn(16, 16, move |r, c| {
                    let r0 = 2 + (i * 2) % 8;
                    let c0 = 2 + (i * 3) % 8;
                    (r0..r0 + 5).contains(&r) && (c0..c0 + 5).contains(&c)
                })
            })
            .collect();
        let expected: f64 = data.iter().map(Topology::density).sum::<f64>() / data.len() as f64;
        let mrf = MrfDenoiser::fit(&[(0, &data)], 1.0);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(12), mrf, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut densities = 0.0;
        for _ in 0..4 {
            densities += model.sample(16, 16, Some(0), &mut rng).density();
        }
        let mean = densities / 4.0;
        assert!(
            (mean - expected).abs() < 0.3,
            "generated density {mean:.3} vs training {expected:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one dataset")]
    fn empty_fit_panics() {
        let _ = MrfDenoiser::fit(&[], 1.0);
    }
}
