//! Minimal CPU neural-network substrate for the diffusion denoiser.
//!
//! The paper trains a DDPM-style U-Net for one million iterations on
//! GPUs. This crate provides a small but *real* CPU implementation with
//! manual back-propagation: enough to train the same architecture family
//! end-to-end at reduced scale and to verify the full learning pipeline
//! (the large-scale experiments use the statistical MRF denoiser; see
//! DESIGN.md for the substitution rationale).
//!
//! Contents:
//!
//! * [`Tensor`] — CHW `f32` feature maps (batch size 1 by design: the
//!   sampler runs one chain per request, so every forward pass sees
//!   one sample);
//! * [`Param`] — a learnable buffer with gradient and Adam state;
//! * [`Conv2d`] (3×3, pad 1), [`Linear`], SiLU, 2× average-pool /
//!   nearest-upsample, channel concat — each with forward + backward;
//! * [`UNet`] — a two-level U-Net with residual blocks, sinusoidal time
//!   embedding and a learned class-condition embedding, exactly the
//!   conditioning scheme of the paper (condition embedding added to the
//!   time embedding).
//!
//! # Example
//!
//! ```
//! use cp_nn::{Tensor, UNet};
//! use rand::SeedableRng;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut net = UNet::new(8, 2, &mut rng); // 8 channels, 2 classes
//! let x = Tensor::zeros(1, 16, 16);
//! let logits = net.forward(&x, 0.5, Some(0));
//! assert_eq!(logits.shape(), (1, 16, 16));
//! ```

pub mod adam;
pub mod ops;
pub mod param;
pub mod tensor;
pub mod unet;

pub use adam::AdamState;
pub use ops::{avg_pool2, concat_channels, silu, upsample2, Conv2d, Linear};
pub use param::Param;
pub use tensor::Tensor;
pub use unet::UNet;
