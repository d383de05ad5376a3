//! The conditional reverse diffusion process (paper Eqs. 9 and 11).

use crate::{Denoiser, NoiseSchedule};
use cp_squish::Topology;
use rand::Rng;

/// A discrete diffusion model: schedule + denoiser + native window size.
///
/// `sample` runs the full `K`-step ancestral reverse process from uniform
/// noise; `forward_noised` applies the closed-form forward process
/// (Eq. 2); `reverse_step` is one step of Eq. (9).
#[derive(Debug, Clone)]
pub struct DiffusionModel<D> {
    schedule: NoiseSchedule,
    denoiser: D,
    native_size: usize,
}

impl<D: Denoiser> DiffusionModel<D> {
    /// Assembles a model. `native_size` is the window size `L` the
    /// denoiser was trained at.
    #[must_use]
    pub fn new(schedule: NoiseSchedule, denoiser: D, native_size: usize) -> DiffusionModel<D> {
        DiffusionModel {
            schedule,
            denoiser,
            native_size,
        }
    }

    /// The noise schedule.
    #[must_use]
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The denoiser back-end.
    #[must_use]
    pub fn denoiser(&self) -> &D {
        &self.denoiser
    }

    /// Native window size `L`.
    #[must_use]
    pub fn native_size(&self) -> usize {
        self.native_size
    }

    /// Forward process `q(x_k | x_0)`: flips each bit with the cumulative
    /// probability `b̄_k` (Eq. 2 in its closed two-state form).
    #[must_use]
    pub fn forward_noised(&self, x0: &Topology, k: usize, rng: &mut impl Rng) -> Topology {
        let flip = self.schedule.flip_bar(k);
        Topology::from_fn(x0.rows(), x0.cols(), |r, c| {
            let bit = x0.get(r, c);
            if rng.gen::<f64>() < flip {
                !bit
            } else {
                bit
            }
        })
    }

    /// The four posterior values of step `k`, indexed
    /// `[x_k bit][x̃₀ bit]`. `posterior_one` is a pure function of
    /// `(k, x_k, x̃₀)`, so the categorical draw of every cell reads
    /// these four precomputed values instead of re-deriving them —
    /// byte-identical, since the draw evaluates the same expression on
    /// the same f64s.
    fn posterior_table(&self, k: usize) -> [[f64; 2]; 2] {
        let mut post = [[0.0f64; 2]; 2];
        for (xi, xk_bit) in [false, true].into_iter().enumerate() {
            for (oi, x0_bit) in [false, true].into_iter().enumerate() {
                post[xi][oi] = self.schedule.posterior_one(k, xk_bit, x0_bit);
            }
        }
        post
    }

    /// One reverse step: samples `x_{k-1}` given `x_k` (Eq. 9):
    /// `p_θ(x_{k-1}|x_k, c) = Σ_{x̃0} q(x_{k-1}|x_k, x̃0) · p_θ(x̃0|x_k, c)`.
    #[must_use]
    pub fn reverse_step(
        &self,
        x_k: &Topology,
        k: usize,
        condition: Option<u32>,
        rng: &mut impl Rng,
    ) -> Topology {
        let p0 = self
            .denoiser
            .predict_x0(x_k, k, self.schedule.len(), condition);
        debug_assert_eq!(p0.len(), x_k.len(), "denoiser output length mismatch");
        let post = self.posterior_table(k);
        let cols = x_k.cols();
        Topology::from_fn(x_k.rows(), cols, |r, c| {
            let xk = usize::from(x_k.get(r, c));
            let p_x0_one = f64::from(p0[r * cols + c]).clamp(0.0, 1.0);
            // Marginalize the posterior over x̃0 ∈ {0, 1}.
            let p_one = p_x0_one * post[xk][1] + (1.0 - p_x0_one) * post[xk][0];
            rng.gen::<f64>() < p_one
        })
    }

    /// Full ancestral sampling (Eq. 11): start from the uniform stationary
    /// distribution and run all `K` reverse steps.
    #[must_use]
    pub fn sample(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut impl Rng,
    ) -> Topology {
        let mut x = Topology::from_fn(rows, cols, |_, _| rng.gen::<bool>());
        for k in (1..=self.schedule.len()).rev() {
            x = self.reverse_step(&x, k, condition, rng);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denoiser::test_support::{ConstantDenoiser, IdentityDenoiser};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    #[test]
    fn forward_at_zero_is_identity() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(8),
            IdentityDenoiser { size: 8 },
            8,
        );
        let x0 = Topology::from_fn(8, 8, |r, c| (r + c) % 3 == 0);
        let x = model.forward_noised(&x0, 0, &mut rng());
        assert_eq!(x, x0);
    }

    #[test]
    fn forward_at_final_step_is_uniform() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(8),
            IdentityDenoiser { size: 32 },
            32,
        );
        let x0 = Topology::filled(32, 32, true);
        let x = model.forward_noised(&x0, 8, &mut rng());
        let density = x.density();
        assert!((density - 0.5).abs() < 0.1, "density {density}");
    }

    #[test]
    fn confident_denoiser_drives_sample_to_all_ones() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(10),
            ConstantDenoiser {
                probability: 1.0,
                size: 16,
            },
            16,
        );
        let x = model.sample(16, 16, None, &mut rng());
        // The last reverse step (k=1) collapses exactly onto x0 = 1.
        assert_eq!(x.count_ones(), 16 * 16);
    }

    #[test]
    fn confident_zero_denoiser_drives_sample_to_empty() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(10),
            ConstantDenoiser {
                probability: 0.0,
                size: 16,
            },
            16,
        );
        let x = model.sample(16, 16, None, &mut rng());
        assert_eq!(x.count_ones(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(6),
            ConstantDenoiser {
                probability: 0.5,
                size: 8,
            },
            8,
        );
        let a = model.sample(8, 8, None, &mut ChaCha8Rng::seed_from_u64(3));
        let b = model.sample(8, 8, None, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_step_shape_matches_input() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(4),
            ConstantDenoiser {
                probability: 0.5,
                size: 4,
            },
            4,
        );
        let x = Topology::filled(4, 6, false);
        let y = model.reverse_step(&x, 4, None, &mut rng());
        assert_eq!(y.shape(), (4, 6));
    }
}
