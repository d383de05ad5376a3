//! CHW feature-map tensors.

/// A `channels × height × width` tensor of `f32` (batch size 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(c: usize, h: usize, w: usize) -> Tensor {
        assert!(c > 0 && h > 0 && w > 0, "tensor dims must be positive");
        Tensor {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Builds a tensor from raw CHW data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != c*h*w`.
    #[must_use]
    pub fn from_data(c: usize, h: usize, w: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), c * h * w, "data length mismatch");
        Tensor { c, h, w, data }
    }

    /// `(channels, height, width)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Spatial height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (dimensions are positive).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat data view (CHW order).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        assert!(
            c < self.c && y < self.h && x < self.w,
            "tensor index out of bounds"
        );
        self.data[(c * self.h + y) * self.w + x]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        assert!(
            c < self.c && y < self.h && x < self.w,
            "tensor index out of bounds"
        );
        self.data[(c * self.h + y) * self.w + x] = v;
    }

    /// Element-wise sum with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "tensor shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_data(self.c, self.h, self.w, data)
    }

    /// Mean of all elements.
    #[must_use]
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_indexing() {
        let mut t = Tensor::zeros(2, 3, 4);
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.len(), 24);
        t.set(1, 2, 3, 5.0);
        assert_eq!(t.get(1, 2, 3), 5.0);
        assert_eq!(t.as_slice()[23], 5.0);
    }

    #[test]
    fn add_is_elementwise() {
        let a = Tensor::from_data(1, 1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_data(1, 1, 2, vec![10.0, 20.0]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_data_length_rejected() {
        let _ = Tensor::from_data(1, 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn mean_of_known_values() {
        let t = Tensor::from_data(1, 2, 2, vec![1.0, 2.0, 3.0, 6.0]);
        assert!((t.mean() - 3.0).abs() < 1e-6);
    }
}
