use serde::{Deserialize, Serialize};

/// Metadata of a benchmark dataset — everything the scheduler and the
/// timing simulations need to know about the data.
///
/// # Example
///
/// ```
/// use comdml_data::DatasetSpec;
///
/// assert_eq!(DatasetSpec::cifar100().num_classes, 100);
/// assert_eq!(DatasetSpec::cinic10().train_samples, 90_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Number of training samples.
    pub train_samples: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
}

impl DatasetSpec {
    /// CIFAR-10: 50 000 train images, 32×32×3, 10 classes.
    pub fn cifar10() -> Self {
        Self {
            name: "cifar10".into(),
            train_samples: 50_000,
            num_classes: 10,
            channels: 3,
            height: 32,
            width: 32,
        }
    }

    /// CIFAR-100: 50 000 train images, 32×32×3, 100 classes.
    pub fn cifar100() -> Self {
        Self { name: "cifar100".into(), num_classes: 100, ..Self::cifar10() }
    }

    /// CINIC-10: 90 000 train images, 32×32×3, 10 classes.
    pub fn cinic10() -> Self {
        Self { name: "cinic10".into(), train_samples: 90_000, ..Self::cifar10() }
    }

    /// A miniature dataset (8×8×1, 4 classes, 512 samples) sized so the real
    /// training engine converges in seconds — used by tests and examples.
    pub fn miniature() -> Self {
        Self {
            name: "miniature".into(),
            train_samples: 512,
            num_classes: 4,
            channels: 1,
            height: 8,
            width: 8,
        }
    }

    /// Elements per sample.
    pub fn sample_elems(&self) -> usize {
        self.channels * self.height * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let c10 = DatasetSpec::cifar10();
        assert_eq!((c10.train_samples, c10.num_classes), (50_000, 10));
        assert_eq!(c10.sample_elems(), 3072);
        let c100 = DatasetSpec::cifar100();
        assert_eq!(c100.num_classes, 100);
        assert_eq!(c100.train_samples, 50_000);
        let cinic = DatasetSpec::cinic10();
        assert_eq!(cinic.train_samples, 90_000);
        assert_eq!(cinic.num_classes, 10);
    }

    #[test]
    fn miniature_is_small() {
        let m = DatasetSpec::miniature();
        assert!(m.train_samples <= 1024);
        assert_eq!(m.sample_elems(), 64);
    }
}
