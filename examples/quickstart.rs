//! Quickstart: run the full slsGRBM pipeline on a small synthetic dataset
//! and compare k-means clustering on raw features vs learned hidden features.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_rbm::clustering::KMeans;
use sls_rbm::datasets::SyntheticBlobs;
use sls_rbm::metrics::EvaluationReport;
use sls_rbm::rbm::{run_pipeline, ModelKind, SlsPipelineConfig};

fn main() {
    // Everything is seeded, so the example prints the same numbers on every
    // run.
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // 1. A small synthetic dataset: 210 instances, 16 features, 3 weakly
    //    separated classes with half the dimensions carrying no signal —
    //    the regime the paper targets.
    let dataset = SyntheticBlobs::new(210, 16, 3)
        .separation(3.0)
        .irrelevant_fraction(0.5)
        .generate(&mut rng);
    println!("dataset: {}", dataset.spec().summary());

    // 2. Cluster the raw features directly (the conventional baseline).
    let raw_assignment = KMeans::new(3)
        .fit(dataset.features(), &mut rng)
        .expect("k-means on raw features")
        .assignment;
    let raw_report =
        EvaluationReport::evaluate(raw_assignment.labels(), dataset.labels()).expect("evaluate");

    // 3. Run the slsGRBM pipeline: standardise, build self-learning local
    //    supervision from DP/K-means/AP via unanimous voting, train the
    //    Gaussian-visible model with the constrict/disperse objective, and
    //    extract hidden features.
    let config = SlsPipelineConfig::quick_demo().with_hidden(16);
    let outcome = run_pipeline(ModelKind::SlsGrbm, &config, dataset.features(), &mut rng)
        .expect("slsGRBM pipeline");
    if let Some(supervision) = outcome.supervision {
        println!(
            "supervision: {} local clusters covering {:.0}% of the data",
            supervision.n_clusters,
            supervision.coverage * 100.0
        );
    }

    // 4. Cluster the learned hidden features and compare.
    let sls_assignment = KMeans::new(3)
        .fit(&outcome.hidden_features, &mut rng)
        .expect("k-means on hidden features")
        .assignment;
    let sls_report =
        EvaluationReport::evaluate(sls_assignment.labels(), dataset.labels()).expect("evaluate");

    println!();
    println!(
        "{:<26}{:>10}{:>10}{:>10}",
        "representation", "accuracy", "purity", "FMI"
    );
    println!(
        "{:<26}{:>10.4}{:>10.4}{:>10.4}",
        "raw features + K-means", raw_report.accuracy, raw_report.purity, raw_report.fmi
    );
    println!(
        "{:<26}{:>10.4}{:>10.4}{:>10.4}",
        "slsGRBM features + K-means", sls_report.accuracy, sls_report.purity, sls_report.fmi
    );
    println!();
    println!(
        "reconstruction error over training: {:.4} -> {:.4} (the sls objective trades \
         reconstruction fidelity for constricted/dispersed hidden features)",
        outcome.history.initial_error().unwrap_or(f64::NAN),
        outcome.history.final_error().unwrap_or(f64::NAN)
    );
}
