//! # sls-datasets
//!
//! Dataset substrate for the sls-rbm workspace. It reproduces the *shape* of
//! the two evaluation corpora used by the paper:
//!
//! * **Datasets I** (Table II) — nine MSRA-MM 2.0 image-feature datasets
//!   (Book, Water, Weddingring, Birthdaycake, Vegetable, Ambulances, Vista,
//!   Wallpaper, Voituretuning), each ~800–950 instances, 892 or 899
//!   real-valued features, 3 classes. MSRA-MM 2.0 is no longer distributed,
//!   so [`generate_msra_dataset`] generates synthetic Gaussian-mixture
//!   datasets with exactly those shapes and per-dataset difficulty profiles
//!   calibrated to the paper's reported baseline accuracies (0.40–0.55).
//! * **Datasets II** (Table III) — six UCI datasets. Iris is regenerated
//!   deterministically from its published class statistics ([`iris`]); the
//!   other five are simulated with matching shapes and can be replaced by
//!   real CSV files via [`load_csv_dataset`].
//!
//! The central type is [`Dataset`]: a feature
//! [`Matrix`](sls_linalg::Matrix) plus ground-truth class labels and a
//! descriptive [`DatasetSpec`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod chunk;
mod csv;
mod dataset;
mod error;
mod iris;
mod msra;
mod preprocess;
mod spec;
mod synth;
mod uci;

pub use chunk::{leading_sample, ChunkSource, ChunkedCsvReader, InMemoryChunks};
pub use csv::{load_csv_dataset, parse_csv_dataset, CsvOptions};
pub use dataset::Dataset;
pub use error::DatasetError;
pub use iris::iris;
pub use msra::{generate_msra_dataset, msra_catalog, MsraDatasetId};
pub use preprocess::{binarize_bernoulli, binarize_median, standardize_columns, MedianBinarizer};
pub use spec::{DataFamily, DatasetSpec};
pub use synth::{DifficultyProfile, SyntheticBlobs};
pub use uci::{generate_uci_dataset, uci_catalog, UciDatasetId};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, DatasetError>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn catalogs_cover_all_paper_datasets() {
        assert_eq!(msra_catalog().len(), 9);
        assert_eq!(uci_catalog().len(), 6);
    }

    #[test]
    fn every_catalog_entry_generates_matching_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for id in msra_catalog() {
            let spec = id.spec();
            let ds = generate_msra_dataset(id, &mut rng);
            assert_eq!(ds.n_instances(), spec.instances);
            assert_eq!(ds.n_features(), spec.features);
            assert_eq!(ds.n_classes(), spec.classes);
        }
        for id in uci_catalog() {
            let spec = id.spec();
            let ds = generate_uci_dataset(id, &mut rng);
            assert_eq!(ds.n_instances(), spec.instances);
            assert_eq!(ds.n_features(), spec.features);
            assert_eq!(ds.n_classes(), spec.classes);
        }
    }
}
