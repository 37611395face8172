mod conv2d;
mod dense;
mod flatten;
mod pool;
mod relu;

pub use conv2d::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, GlobalAvgPool};
pub use relu::Relu;
