//! The denoiser abstraction: `p_θ(x₀ | x_k, c)`.

use cp_squish::Topology;

/// A learned estimator of the clean-topology posterior.
///
/// Given the noisy topology `x_k`, the step index `k` and an optional
/// style condition `c`, produce the per-cell probability that the clean
/// bit `x₀` is 1 (row-major, same length as the matrix).
///
/// The diffusion machinery (reverse step, RePaint modification, painting
/// walks) is written once against this trait; back-ends range from the
/// fitted statistical [`MrfDenoiser`](crate::MrfDenoiser) to the real
/// trainable U-Net ([`UNetDenoiser`](crate::UNetDenoiser)).
pub trait Denoiser {
    /// Predicts `P(x₀ = 1)` per cell of `x_k` at diffusion step `k`.
    ///
    /// `total_steps` is the schedule length `K`, so implementations can
    /// normalize `k` into a time embedding.
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32>;

    /// The native training resolution (window size `L`) of the model,
    /// used by the extension algorithms to size their working windows.
    fn native_size(&self) -> usize;
}

impl<D: Denoiser + ?Sized> Denoiser for &D {
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        (**self).predict_x0(x_k, k, total_steps, condition)
    }

    fn native_size(&self) -> usize {
        (**self).native_size()
    }
}

impl<D: Denoiser + ?Sized> Denoiser for Box<D> {
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        (**self).predict_x0(x_k, k, total_steps, condition)
    }

    fn native_size(&self) -> usize {
        (**self).native_size()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A denoiser that always predicts a fixed constant probability —
    /// used to unit-test the sampling machinery in isolation.
    #[derive(Debug, Clone)]
    pub struct ConstantDenoiser {
        pub probability: f32,
        pub size: usize,
    }

    impl Denoiser for ConstantDenoiser {
        fn predict_x0(
            &self,
            x_k: &Topology,
            _k: usize,
            _total_steps: usize,
            _condition: Option<u32>,
        ) -> Vec<f32> {
            vec![self.probability; x_k.len()]
        }

        fn native_size(&self) -> usize {
            self.size
        }
    }

    /// Predicts "keep exactly what you see" — the identity denoiser.
    #[derive(Debug, Clone)]
    pub struct IdentityDenoiser {
        pub size: usize,
    }

    impl Denoiser for IdentityDenoiser {
        fn predict_x0(
            &self,
            x_k: &Topology,
            _k: usize,
            _total_steps: usize,
            _condition: Option<u32>,
        ) -> Vec<f32> {
            x_k.as_bytes().iter().map(|&b| b as f32).collect()
        }

        fn native_size(&self) -> usize {
            self.size
        }
    }
}
