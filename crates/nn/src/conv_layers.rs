//! Convolution and pooling layers (NCHW).

use crate::init;
use crate::layer::{Layer, Mode};
use crate::param::Parameter;
use egeria_tensor::conv::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, depthwise_conv2d, depthwise_grad_input,
    depthwise_grad_weight, global_avg_pool, global_avg_pool_grad, upsample_nearest,
    upsample_nearest_grad, Conv2dSpec,
};
use egeria_tensor::{Result, Rng, Tensor, TensorError};

/// A 2-D convolution layer.
pub struct Conv2d {
    weight: Parameter,
    bias: Option<Parameter>,
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights.
    ///
    /// # Panics
    /// Panics if `stride == 0` (a construction-time programmer error).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let dims = [c_out, c_in, kernel, kernel];
        let weight = Parameter::new(
            format!("{name}.weight"),
            init::kaiming_normal(&dims, init::fan_in_of(&dims), rng),
        );
        let bias = bias.then(|| Parameter::new(format!("{name}.bias"), Tensor::zeros(&[c_out])));
        Conv2d {
            weight,
            bias,
            spec: Conv2dSpec::new(stride, padding).expect("stride > 0"),
            cached_input: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Immutable access to the weight parameter (used by quantization).
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Immutable access to the bias parameter, if present.
    pub fn bias(&self) -> Option<&Parameter> {
        self.bias.as_ref()
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Result<Tensor> {
        let y = conv2d(x, &self.weight.value, self.bias.as_ref().map(|b| &b.value), self.spec)?;
        self.cached_input = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or_else(|| {
            TensorError::Numerical("Conv2d::backward before forward".into())
        })?;
        if self.weight.requires_grad {
            let gw = conv2d_grad_weight(grad_out, x, self.weight.value.dims(), self.spec)?;
            self.weight.accumulate_grad(&gw)?;
        }
        if let Some(b) = &mut self.bias {
            if b.requires_grad {
                // Bias gradient: sum over batch and spatial dims.
                let (n, c, oh, ow) = {
                    let d = grad_out.dims();
                    (d[0], d[1], d[2], d[3])
                };
                let mut gb = vec![0.0f32; c];
                for ni in 0..n {
                    for (ci, g) in gb.iter_mut().enumerate() {
                        let base = (ni * c + ci) * oh * ow;
                        *g += grad_out.data()[base..base + oh * ow].iter().sum::<f32>();
                    }
                }
                b.accumulate_grad(&Tensor::from_vec(gb, &[c])?)?;
            }
        }
        conv2d_grad_input(grad_out, &self.weight.value, x.dims(), self.spec)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn kind(&self) -> &'static str {
        "Conv2d"
    }
}

/// A depthwise 2-D convolution layer (one filter per channel).
pub struct DepthwiseConv2d {
    weight: Parameter,
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `c` channels.
    ///
    /// # Panics
    /// Panics if `stride == 0` (a construction-time programmer error).
    pub fn new(name: &str, c: usize, kernel: usize, stride: usize, padding: usize, rng: &mut Rng) -> Self {
        let dims = [c, 1, kernel, kernel];
        DepthwiseConv2d {
            weight: Parameter::new(
                format!("{name}.weight"),
                init::kaiming_normal(&dims, kernel * kernel, rng),
            ),
            spec: Conv2dSpec::new(stride, padding).expect("stride > 0"),
            cached_input: None,
        }
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Result<Tensor> {
        let y = depthwise_conv2d(x, &self.weight.value, None, self.spec)?;
        self.cached_input = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or_else(|| {
            TensorError::Numerical("DepthwiseConv2d::backward before forward".into())
        })?;
        if self.weight.requires_grad {
            let gw = depthwise_grad_weight(grad_out, x, self.weight.value.dims(), self.spec)?;
            self.weight.accumulate_grad(&gw)?;
        }
        depthwise_grad_input(grad_out, &self.weight.value, x.dims(), self.spec)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight]
    }

    fn kind(&self) -> &'static str {
        "DepthwiseConv2d"
    }
}

/// Global average pooling `(n, c, h, w) → (n, c)`.
pub struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Result<Tensor> {
        self.cached_dims = Some(x.dims().to_vec());
        global_avg_pool(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self.cached_dims.as_ref().ok_or_else(|| {
            TensorError::Numerical("GlobalAvgPool::backward before forward".into())
        })?;
        global_avg_pool_grad(grad_out, dims)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn kind(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

/// Nearest-neighbour upsampling (for segmentation heads).
pub struct UpsampleNearest {
    factor: usize,
}

impl UpsampleNearest {
    /// Creates an upsampler by integer `factor`.
    pub fn new(factor: usize) -> Self {
        UpsampleNearest { factor }
    }
}

impl Layer for UpsampleNearest {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Result<Tensor> {
        upsample_nearest(x, self.factor)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        upsample_nearest_grad(grad_out, self.factor)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn kind(&self) -> &'static str {
        "UpsampleNearest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck_input;

    #[test]
    fn conv_output_shape_follows_spec() {
        let mut rng = Rng::new(1);
        let mut c = Conv2d::new("c", 3, 8, 3, 2, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = c.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut rng = Rng::new(2);
        let mut c = Conv2d::new("c", 2, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let worst = gradcheck_input(&mut c, &x, &[0, 13, 29, 49], 1e-2).unwrap();
        assert!(worst < 2e-2, "conv gradcheck deviation {worst}");
    }

    #[test]
    fn conv_bias_gradient_counts_positions() {
        let mut rng = Rng::new(3);
        let mut c = Conv2d::new("c", 1, 1, 1, 1, 0, true, &mut rng);
        let x = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let _ = c.forward(&x, Mode::Train).unwrap();
        let _ = c.backward(&Tensor::ones(&[2, 1, 3, 3])).unwrap();
        // Bias grad = number of output positions = 2*3*3.
        assert_eq!(c.bias.as_ref().unwrap().grad.as_ref().unwrap().data(), &[18.0]);
    }

    #[test]
    fn frozen_conv_accumulates_no_grads_but_propagates() {
        let mut rng = Rng::new(4);
        let mut c = Conv2d::new("c", 2, 2, 3, 1, 1, true, &mut rng);
        c.set_trainable(false);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let _ = c.forward(&x, Mode::Train).unwrap();
        let gx = c.backward(&Tensor::ones(&[1, 2, 4, 4])).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert!(c.params().iter().all(|p| p.grad.is_none()));
    }

    #[test]
    fn pool_layers_gradcheck() {
        let mut rng = Rng::new(5);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let mut g = GlobalAvgPool::new();
        assert!(gradcheck_input(&mut g, &x, &[0, 9, 21], 1e-2).unwrap() < 1e-2);
        let mut u = UpsampleNearest::new(2);
        assert!(gradcheck_input(&mut u, &x, &[0, 9, 21], 1e-2).unwrap() < 1e-2);
    }
}
