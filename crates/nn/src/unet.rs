//! A small two-level U-Net with time + class conditioning.
//!
//! Architecture (channel count `C` configurable):
//!
//! ```text
//! x ─ conv_in ─ ResBlock ─┬─ pool ─ ResBlock ─ ResBlock ─ upsample ─┐
//!                         │ (skip) ──────────────────────── concat ─┴─ conv ─ ResBlock ─ conv_out ─ logits
//! ```
//!
//! The diffusion step `k` enters through a sinusoidal embedding; the
//! class condition is a learned embedding *added to the time embedding*,
//! exactly the conditioning scheme the paper describes ("the condition
//! embedding is added into the embedding of the time step").

use crate::ops::{
    avg_pool2, avg_pool2_backward, concat_channels, concat_channels_backward, silu, silu_backward,
    silu_vec, silu_vec_backward, upsample2, upsample2_backward, Conv2d, Linear,
};
use crate::{Param, Tensor};
use rand::Rng;

const EMB_DIM: usize = 16;

/// Residual block: `x + conv2(silu(conv1(x) + proj(emb)))`.
#[derive(Debug, Clone)]
struct ResBlock {
    conv1: Conv2d,
    conv2: Conv2d,
    emb_proj: Linear,
    cache_pre_act: Option<Tensor>,
}

impl ResBlock {
    fn new(channels: usize, rng: &mut impl Rng) -> ResBlock {
        ResBlock {
            conv1: Conv2d::new(channels, channels, rng),
            conv2: Conv2d::new(channels, channels, rng),
            emb_proj: Linear::new(EMB_DIM, channels, rng),
            cache_pre_act: None,
        }
    }

    fn forward(&mut self, x: &Tensor, emb: &[f32]) -> Tensor {
        let mut h = self.conv1.forward(x);
        let bias = self.emb_proj.forward(emb);
        let (c, hh, ww) = h.shape();
        for (ch, &ch_bias) in bias.iter().enumerate().take(c) {
            for y in 0..hh {
                for xx in 0..ww {
                    let v = h.get(ch, y, xx) + ch_bias;
                    h.set(ch, y, xx, v);
                }
            }
        }
        self.cache_pre_act = Some(h.clone());
        let activated = silu(&h);
        let out = self.conv2.forward(&activated);
        out.add(x)
    }

    /// Returns `(grad_x, grad_emb)`.
    fn backward(&mut self, gout: &Tensor) -> (Tensor, Vec<f32>) {
        let pre = self.cache_pre_act.take().expect("backward before forward");
        let g_h2 = self.conv2.backward(gout);
        let g_pre = silu_backward(&pre, &g_h2);
        // Per-channel bias gradient (broadcast sum).
        let (c, hh, ww) = g_pre.shape();
        let mut g_bias = vec![0.0f32; c];
        for (ch, g_bias_ch) in g_bias.iter_mut().enumerate().take(c) {
            for y in 0..hh {
                for xx in 0..ww {
                    *g_bias_ch += g_pre.get(ch, y, xx);
                }
            }
        }
        let g_emb = self.emb_proj.backward(&g_bias);
        let g_x_conv = self.conv1.backward(&g_pre);
        (g_x_conv.add(gout), g_emb)
    }

    fn step(&mut self, lr: f32) {
        self.conv1.step(lr);
        self.conv2.step(lr);
        self.emb_proj.step(lr);
    }

    fn parameter_count(&self) -> usize {
        self.conv1.parameter_count()
            + self.conv2.parameter_count()
            + self.emb_proj.parameter_count()
    }
}

/// The two-level conditional U-Net.
#[derive(Debug, Clone)]
pub struct UNet {
    channels: usize,
    n_classes: usize,
    conv_in: Conv2d,
    down1: ResBlock,
    down2: ResBlock,
    mid: ResBlock,
    up_conv: Conv2d,
    up_block: ResBlock,
    conv_out: Conv2d,
    time_lin1: Linear,
    time_lin2: Linear,
    cond_emb: Param,
    cache_skip: Option<Tensor>,
    cache_hidden: Option<Vec<f32>>,
    cache_cond: Option<usize>,
}

impl UNet {
    /// New network with `channels` feature maps and `n_classes` condition
    /// embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `n_classes` is 0.
    #[must_use]
    pub fn new(channels: usize, n_classes: usize, rng: &mut impl Rng) -> UNet {
        assert!(
            channels > 0 && n_classes > 0,
            "channels/classes must be positive"
        );
        UNet {
            channels,
            n_classes,
            conv_in: Conv2d::new(1, channels, rng),
            down1: ResBlock::new(channels, rng),
            down2: ResBlock::new(channels, rng),
            mid: ResBlock::new(channels, rng),
            up_conv: Conv2d::new(channels * 2, channels, rng),
            up_block: ResBlock::new(channels, rng),
            conv_out: Conv2d::new(channels, 1, rng),
            time_lin1: Linear::new(EMB_DIM, EMB_DIM * 2, rng),
            time_lin2: Linear::new(EMB_DIM * 2, EMB_DIM, rng),
            cond_emb: Param::kaiming(n_classes * EMB_DIM, EMB_DIM, rng),
            cache_skip: None,
            cache_hidden: None,
            cache_cond: None,
        }
    }

    /// Number of condition classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.conv_in.parameter_count()
            + self.down1.parameter_count()
            + self.down2.parameter_count()
            + self.mid.parameter_count()
            + self.up_conv.parameter_count()
            + self.up_block.parameter_count()
            + self.conv_out.parameter_count()
            + self.time_lin1.parameter_count()
            + self.time_lin2.parameter_count()
            + self.cond_emb.len()
    }

    /// Forward pass: `x` is a `1 × H × W` map (H, W even), `t_norm` the
    /// normalized diffusion step `k/K`, `cond` an optional class id.
    ///
    /// # Panics
    ///
    /// Panics on non-single-channel input, odd spatial dims, or a class
    /// id out of range.
    #[must_use]
    pub fn forward(&mut self, x: &Tensor, t_norm: f32, cond: Option<usize>) -> Tensor {
        assert_eq!(x.channels(), 1, "unet expects a single input channel");
        assert!(
            x.height().is_multiple_of(2) && x.width().is_multiple_of(2),
            "unet needs even spatial dims"
        );
        if let Some(c) = cond {
            assert!(c < self.n_classes, "class id {c} out of range");
        }
        // Time features + class embedding.
        let mut feat = sinusoidal_embedding(t_norm);
        if let Some(c) = cond {
            let row = &self.cond_emb.values()[c * EMB_DIM..(c + 1) * EMB_DIM];
            for (f, r) in feat.iter_mut().zip(row) {
                *f += r;
            }
        }
        self.cache_cond = cond;
        let hidden = self.time_lin1.forward(&feat);
        self.cache_hidden = Some(hidden.clone());
        let emb = self.time_lin2.forward(&silu_vec(&hidden));

        let h0 = self.conv_in.forward(x);
        let h1 = self.down1.forward(&h0, &emb);
        self.cache_skip = Some(h1.clone());
        let pooled = avg_pool2(&h1);
        let h2 = self.down2.forward(&pooled, &emb);
        let m = self.mid.forward(&h2, &emb);
        let u = upsample2(&m);
        let cat = concat_channels(&u, &h1);
        let uc = self.up_conv.forward(&cat);
        let h3 = self.up_block.forward(&uc, &emb);
        self.conv_out.forward(&h3)
    }

    /// Backward pass from the logit gradient; accumulates all parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, g_logits: &Tensor) {
        let g_h3 = self.conv_out.backward(g_logits);
        let (g_uc, ge1) = self.up_block.backward(&g_h3);
        let g_cat = self.up_conv.backward(&g_uc);
        let (g_u, g_skip_a) = concat_channels_backward(&g_cat, self.channels);
        let g_m = upsample2_backward(&g_u);
        let (g_h2, ge2) = self.mid.backward(&g_m);
        let (g_pooled, ge3) = self.down2.backward(&g_h2);
        let g_skip_b = avg_pool2_backward(&g_pooled);
        let g_h1 = g_skip_a.add(&g_skip_b);
        let (g_h0, ge4) = self.down1.backward(&g_h1);
        let _gx = self.conv_in.backward(&g_h0);
        let _ = self.cache_skip.take();

        // Embedding gradient: sum over the four consumers.
        let mut g_emb = ge1;
        for extra in [ge2, ge3, ge4] {
            for (a, b) in g_emb.iter_mut().zip(&extra) {
                *a += b;
            }
        }
        let g_hidden_act = self.time_lin2.backward(&g_emb);
        let hidden = self.cache_hidden.take().expect("backward before forward");
        let g_hidden = silu_vec_backward(&hidden, &g_hidden_act);
        let g_feat = self.time_lin1.backward(&g_hidden);
        if let Some(c) = self.cache_cond.take() {
            let grads = self.cond_emb.grads_mut();
            for (i, g) in g_feat.iter().enumerate() {
                grads[c * EMB_DIM + i] += g;
            }
        }
    }

    /// One Adam step over every parameter buffer (clears gradients).
    pub fn step(&mut self, lr: f32) {
        self.conv_in.step(lr);
        self.down1.step(lr);
        self.down2.step(lr);
        self.mid.step(lr);
        self.up_conv.step(lr);
        self.up_block.step(lr);
        self.conv_out.step(lr);
        self.time_lin1.step(lr);
        self.time_lin2.step(lr);
        self.cond_emb.step(lr);
    }
}

/// Sinusoidal position features of the normalized step.
fn sinusoidal_embedding(t_norm: f32) -> Vec<f32> {
    let position = t_norm * 1000.0;
    (0..EMB_DIM)
        .map(|i| {
            let pair = (i / 2) as f32;
            let freq = 10000f32.powf(-2.0 * pair / EMB_DIM as f32);
            if i % 2 == 0 {
                (position * freq).sin()
            } else {
                (position * freq).cos()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn forward_shape_is_preserved() {
        let mut net = UNet::new(4, 2, &mut rng());
        let x = Tensor::zeros(1, 8, 8);
        let y = net.forward(&x, 0.3, Some(1));
        assert_eq!(y.shape(), (1, 8, 8));
    }

    #[test]
    fn parameter_count_is_substantial() {
        let net = UNet::new(8, 2, &mut rng());
        assert!(net.parameter_count() > 5000, "{}", net.parameter_count());
    }

    #[test]
    fn different_conditions_change_output() {
        let mut net = UNet::new(4, 2, &mut rng());
        let x = Tensor::from_data(1, 8, 8, (0..64).map(|i| (i as f32).cos()).collect());
        let y0 = net.forward(&x, 0.5, Some(0));
        let y1 = net.forward(&x, 0.5, Some(1));
        assert_ne!(y0.as_slice(), y1.as_slice());
    }

    #[test]
    fn different_times_change_output() {
        let mut net = UNet::new(4, 1, &mut rng());
        let x = Tensor::from_data(1, 8, 8, (0..64).map(|i| (i as f32).sin()).collect());
        let y0 = net.forward(&x, 0.1, None);
        let y1 = net.forward(&x, 0.9, None);
        assert_ne!(y0.as_slice(), y1.as_slice());
    }

    #[test]
    fn training_reduces_bce_on_fixed_target() {
        // Teach the net to output a vertical-stripe pattern regardless of
        // input: loss should drop substantially within a few steps.
        let mut net = UNet::new(6, 1, &mut rng());
        let target: Vec<f32> = (0..256)
            .map(|i| f32::from(u8::from((i % 16) < 8)))
            .collect();
        let mut r = rng();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..40 {
            let x = Tensor::from_data(
                1,
                16,
                16,
                (0..256)
                    .map(|_| f32::from(u8::from(rand::Rng::gen::<bool>(&mut r))))
                    .collect(),
            );
            let logits = net.forward(&x, 0.5, None);
            // BCE loss + gradient.
            let mut g = Tensor::zeros(1, 16, 16);
            let mut loss = 0.0f32;
            for (i, &t) in target.iter().enumerate() {
                let l = logits.as_slice()[i];
                let p = 1.0 / (1.0 + (-l).exp());
                loss -= t * p.max(1e-6).ln() + (1.0 - t) * (1.0 - p).max(1e-6).ln();
                g.as_mut_slice()[i] = (p - t) / 256.0;
            }
            loss /= 256.0;
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
            net.backward(&g);
            net.step(3e-3);
        }
        let first = first_loss.expect("ran at least one step");
        assert!(
            last_loss < first * 0.6,
            "loss did not drop: {first} -> {last_loss}"
        );
    }

    #[test]
    fn gradient_check_through_whole_network() {
        // Numerical gradient of the input against analytic conv_in grad is
        // impractical (input grad not returned), so check a weight deep in
        // the network instead: conv_out bias.
        let mut net = UNet::new(3, 1, &mut rng());
        let x = Tensor::from_data(1, 4, 4, (0..16).map(|i| (i as f32) * 0.05).collect());
        let eps = 1e-2;
        let loss_of = |net: &mut UNet, x: &Tensor| -> f32 {
            net.forward(x, 0.5, None).as_slice().iter().sum()
        };
        let base = net.conv_out.bias_value(0);
        net.conv_out.set_bias_value(0, base + eps);
        let up = loss_of(&mut net, &x);
        net.conv_out.set_bias_value(0, base - eps);
        let down = loss_of(&mut net, &x);
        net.conv_out.set_bias_value(0, base);
        let numeric = (up - down) / (2.0 * eps);
        let _ = net.forward(&x, 0.5, None);
        net.backward(&Tensor::from_data(1, 4, 4, vec![1.0; 16]));
        let analytic = net.conv_out.bias_grad(0);
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_out_of_range_panics() {
        let mut net = UNet::new(2, 1, &mut rng());
        let x = Tensor::zeros(1, 4, 4);
        let _ = net.forward(&x, 0.5, Some(5));
    }
}
