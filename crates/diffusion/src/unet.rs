//! The trainable U-Net denoiser back-end.
//!
//! Wraps [`cp_nn::UNet`] behind the [`Denoiser`] trait and implements the
//! paper's training objective (Eq. 10):
//!
//! `L = D_KL( q(x_{k-1}|x_k, x_0) ‖ p_θ(x_{k-1}|x_k, c) ) − λ log p_θ(x_0|x_k, c)`
//!
//! For binary states both terms have closed-form per-pixel gradients with
//! respect to the predicted logit, so training needs no autograd beyond
//! the network itself.
//!
//! This is the *real-learning* path — used to verify the full pipeline
//! end-to-end at reduced scale, while the large experiments run the
//! [`MrfDenoiser`](crate::MrfDenoiser) (see DESIGN.md).

use crate::{Denoiser, NoiseSchedule};
use cp_nn::{Tensor, UNet};
use cp_squish::Topology;
use rand::Rng;
use std::cell::RefCell;

/// A U-Net denoiser with its condition-id mapping.
///
/// Interior mutability: the network caches activations during forward, so
/// `predict_x0` (a `&self` trait method) borrows it through a `RefCell`.
#[derive(Debug)]
pub struct UNetDenoiser {
    net: RefCell<UNet>,
    condition_ids: Vec<u32>,
    native_size: usize,
}

impl UNetDenoiser {
    /// New untrained denoiser.
    ///
    /// `condition_ids` maps external condition ids to embedding rows; its
    /// length fixes the number of classes.
    ///
    /// # Panics
    ///
    /// Panics if `condition_ids` is empty.
    #[must_use]
    pub fn new(
        channels: usize,
        condition_ids: Vec<u32>,
        native_size: usize,
        rng: &mut impl Rng,
    ) -> UNetDenoiser {
        assert!(!condition_ids.is_empty(), "need at least one condition");
        UNetDenoiser {
            net: RefCell::new(UNet::new(channels, condition_ids.len(), rng)),
            condition_ids,
            native_size,
        }
    }

    /// Total parameter count of the wrapped network.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.net.borrow().parameter_count()
    }

    fn class_of(&self, condition: Option<u32>) -> Option<usize> {
        condition.and_then(|c| self.condition_ids.iter().position(|&id| id == c))
    }

    /// Runs `iterations` single-sample training steps of the Eq. 10 loss
    /// and returns the per-iteration losses.
    ///
    /// Each step: draw a random `(condition, x₀)` pair, a uniform step
    /// `k`, forward-noise to `x_k`, and descend the combined KL +
    /// `λ`-weighted cross-entropy gradient.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty or any dataset has no topologies.
    pub fn train(
        &mut self,
        datasets: &[(u32, &[Topology])],
        schedule: &NoiseSchedule,
        iterations: usize,
        learning_rate: f32,
        lambda: f64,
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        assert!(!datasets.is_empty(), "need training data");
        assert!(
            datasets.iter().all(|(_, set)| !set.is_empty()),
            "every dataset needs at least one topology"
        );
        let mut losses = Vec::with_capacity(iterations);
        let k_max = schedule.len();
        for _ in 0..iterations {
            let (cond, set) = &datasets[rng.gen_range(0..datasets.len())];
            let x0 = &set[rng.gen_range(0..set.len())];
            let k = rng.gen_range(1..=k_max);
            let flip = schedule.flip_bar(k);
            let x_k = Topology::from_fn(x0.rows(), x0.cols(), |r, c| {
                let bit = x0.get(r, c);
                if rng.gen::<f64>() < flip {
                    !bit
                } else {
                    bit
                }
            });
            let class = self.class_of(Some(*cond));
            let input = topology_to_tensor(&x_k);
            let t_norm = k as f32 / k_max as f32;
            let mut net = self.net.borrow_mut();
            let logits = net.forward(&input, t_norm, class);
            let (loss, grad) = loss_and_grad(&logits, &x_k, x0, schedule, k, lambda);
            losses.push(loss);
            net.backward(&grad);
            net.step(learning_rate);
        }
        losses
    }
}

/// Per-pixel Eq. 10 loss and its gradient with respect to the logits.
fn loss_and_grad(
    logits: &Tensor,
    x_k: &Topology,
    x0: &Topology,
    schedule: &NoiseSchedule,
    k: usize,
    lambda: f64,
) -> (f64, Tensor) {
    let (_, h, w) = logits.shape();
    let n = (h * w) as f64;
    let mut grad = Tensor::zeros(1, h, w);
    let mut loss = 0.0f64;
    for r in 0..h {
        for c in 0..w {
            let logit = f64::from(logits.get(0, r, c));
            let p0 = 1.0 / (1.0 + (-logit).exp());
            let p0c = p0.clamp(1e-6, 1.0 - 1e-6);
            let xk_bit = x_k.get(r, c);
            let x0_bit = x0.get(r, c);
            let a = schedule.posterior_one(k, xk_bit, true);
            let b = schedule.posterior_one(k, xk_bit, false);
            let target = schedule.posterior_one(k, xk_bit, x0_bit);
            let pi = (p0c * a + (1.0 - p0c) * b).clamp(1e-9, 1.0 - 1e-9);
            let t = target.clamp(1e-9, 1.0 - 1e-9);
            // Bernoulli KL(t ‖ π).
            loss += t * (t / pi).ln() + (1.0 - t) * ((1.0 - t) / (1.0 - pi)).ln();
            // −λ log p(x0).
            let ce = if x0_bit { -p0c.ln() } else { -(1.0 - p0c).ln() };
            loss += lambda * ce;
            let dkl_dpi = -t / pi + (1.0 - t) / (1.0 - pi);
            let dce_dp0 = if x0_bit {
                -1.0 / p0c
            } else {
                1.0 / (1.0 - p0c)
            };
            let dl_dp0 = dkl_dpi * (a - b) + lambda * dce_dp0;
            let dl_dlogit = dl_dp0 * p0c * (1.0 - p0c) / n;
            grad.set(0, r, c, dl_dlogit as f32);
        }
    }
    (loss / n, grad)
}

fn topology_to_tensor(t: &Topology) -> Tensor {
    Tensor::from_data(
        1,
        t.rows(),
        t.cols(),
        t.as_bytes().iter().map(|&b| f32::from(b)).collect(),
    )
}

impl Denoiser for UNetDenoiser {
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        let input = topology_to_tensor(x_k);
        let t_norm = k as f32 / total_steps.max(1) as f32;
        let class = self.class_of(condition);
        let logits = self.net.borrow_mut().forward(&input, t_norm, class);
        logits
            .as_slice()
            .iter()
            .map(|&l| 1.0 / (1.0 + (-l).exp()))
            .collect()
    }

    fn native_size(&self) -> usize {
        self.native_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiffusionModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn striped(period: usize) -> Vec<Topology> {
        (0..8)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % period < period / 2))
            .collect()
    }

    #[test]
    fn training_decreases_the_loss() {
        let data = striped(8);
        let schedule = NoiseSchedule::scaled_default(6);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut denoiser = UNetDenoiser::new(6, vec![0], 16, &mut rng);
        let losses = denoiser.train(&[(0, &data)], &schedule, 80, 3e-3, 1e-1, &mut rng);
        let head: f64 = losses[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = losses[losses.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(tail < head * 0.9, "loss {head:.4} -> {tail:.4}");
    }

    #[test]
    fn trained_unet_denoises_light_noise() {
        let data = striped(8);
        let schedule = NoiseSchedule::scaled_default(6);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut denoiser = UNetDenoiser::new(6, vec![0], 16, &mut rng);
        let _ = denoiser.train(&[(0, &data)], &schedule, 150, 3e-3, 1e-1, &mut rng);
        let model = DiffusionModel::new(schedule, denoiser, 16);
        let clean = &data[0];
        let noisy = model.forward_noised(clean, 1, &mut rng);
        let p0 = model.denoiser().predict_x0(&noisy, 1, 6, Some(0));
        let mut correct = 0usize;
        for (i, &p) in p0.iter().enumerate() {
            correct += usize::from((p > 0.5) == (clean.as_bytes()[i] != 0));
        }
        let accuracy = correct as f64 / p0.len() as f64;
        assert!(accuracy > 0.7, "accuracy {accuracy}");
    }

    #[test]
    fn unet_denoiser_plugs_into_sampling() {
        let schedule = NoiseSchedule::scaled_default(4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let denoiser = UNetDenoiser::new(4, vec![0], 16, &mut rng);
        let model = DiffusionModel::new(schedule, denoiser, 16);
        let sample = model.sample(16, 16, Some(0), &mut rng);
        assert_eq!(sample.shape(), (16, 16));
    }

    #[test]
    fn unknown_condition_maps_to_unconditional() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let denoiser = UNetDenoiser::new(4, vec![5], 16, &mut rng);
        assert_eq!(denoiser.class_of(Some(5)), Some(0));
        assert_eq!(denoiser.class_of(Some(9)), None);
        assert_eq!(denoiser.class_of(None), None);
    }

    #[test]
    fn parameter_count_positive() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let denoiser = UNetDenoiser::new(4, vec![0, 1], 16, &mut rng);
        assert!(denoiser.parameter_count() > 1000);
    }
}
