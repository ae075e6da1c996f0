//! Test-only oracle: affinity propagation with column-wise message
//! passing, which the bitwise identity tests compare whole outcomes with.
//!
//! It fills every ordered pair of the similarity matrix, sorts for the
//! median, clones the similarities per fit, builds a fresh responsibility
//! matrix per iteration through the pooled row kernel, and walks the
//! availability update column by column.

use super::{deterministic_jitter, AffinityPropagation, AffinityPropagationOutcome};
use crate::{ClusterAssignment, ClusteringError, Result};
use sls_linalg::{squared_euclidean_distance, Matrix};

/// [`AffinityPropagation::fit`] as the column-wise implementation ran it.
pub(super) fn fit(ap: &AffinityPropagation, data: &Matrix) -> Result<AffinityPropagationOutcome> {
    let n = data.rows();
    if n == 0 {
        return Err(ClusteringError::EmptyData);
    }
    if n == 1 {
        return Ok(AffinityPropagationOutcome {
            assignment: ClusterAssignment::from_labels(vec![0], data, "AP"),
            exemplars: vec![0],
            iterations: 0,
            converged: true,
            preference: 0.0,
        });
    }
    let row_cost = n * data.cols();
    let mut similarities = data.map_rows_with(n, row_cost, &ap.parallel, |i, row, out| {
        for (j, slot) in out.iter_mut().enumerate() {
            if j != i {
                *slot = -squared_euclidean_distance(row, data.row(j));
            }
        }
    });
    let max_abs = similarities
        .as_slice()
        .iter()
        .fold(0.0_f64, |m, &s| m.max(s.abs()));
    if max_abs == 0.0 {
        return Ok(AffinityPropagationOutcome {
            assignment: ClusterAssignment::from_labels(vec![0; n], data, "AP"),
            exemplars: vec![0],
            iterations: 0,
            converged: true,
            preference: 0.0,
        });
    }
    let jitter_scale = 1e-6 * max_abs;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                similarities[(i, j)] += jitter_scale * deterministic_jitter(i, j);
            }
        }
    }
    let median = median_off_diagonal(&similarities);

    match (ap.target_clusters, ap.preference) {
        (Some(k), _) => fit_with_target(ap, data, &similarities, median, k),
        (None, Some(p)) => fit_with_preference(ap, data, &similarities, p),
        (None, None) => fit_with_preference(ap, data, &similarities, median),
    }
}

fn fit_with_target(
    ap: &AffinityPropagation,
    data: &Matrix,
    similarities: &Matrix,
    median: f64,
    k: usize,
) -> Result<AffinityPropagationOutcome> {
    let n = data.rows();
    if k > n {
        return Err(ClusteringError::TooManyClusters {
            requested: k,
            instances: n,
        });
    }
    let min_similarity = similarities
        .as_slice()
        .iter()
        .copied()
        .fold(0.0_f64, f64::min);
    let mut low = 2.0 * min_similarity - median.abs() - 1e-9;
    let mut high = 0.0;
    let mut best: Option<AffinityPropagationOutcome> = None;

    for _ in 0..24 {
        let mid = 0.5 * (low + high);
        let outcome = fit_with_preference(ap, data, similarities, mid)?;
        let found = outcome.exemplars.len();
        let better = match &best {
            None => true,
            Some(b) => {
                (found as isize - k as isize).abs()
                    < (b.exemplars.len() as isize - k as isize).abs()
            }
        };
        if better {
            best = Some(outcome);
        }
        match found.cmp(&k) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => low = mid,
            std::cmp::Ordering::Greater => high = mid,
        }
    }
    Ok(best.expect("at least one bisection iteration"))
}

fn fit_with_preference(
    ap: &AffinityPropagation,
    data: &Matrix,
    similarities: &Matrix,
    preference: f64,
) -> Result<AffinityPropagationOutcome> {
    let n = data.rows();
    let mut s = similarities.clone();
    for i in 0..n {
        s[(i, i)] = preference;
    }

    let mut responsibility = Matrix::zeros(n, n);
    let mut availability = Matrix::zeros(n, n);
    let lambda = ap.damping;
    let mut last_exemplars: Vec<usize> = Vec::new();
    let mut stable_for = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;

    for iter in 0..ap.max_iterations {
        iterations = iter + 1;
        responsibility = s.map_rows_with(n, 3 * n, &ap.parallel, |i, s_row, out| {
            let a_row = availability.row(i);
            let r_row = responsibility.row(i);
            let mut max1 = f64::NEG_INFINITY;
            let mut max2 = f64::NEG_INFINITY;
            let mut argmax1 = 0usize;
            for (k, (&a, &sv)) in a_row.iter().zip(s_row).enumerate() {
                let v = a + sv;
                if v > max1 {
                    max2 = max1;
                    max1 = v;
                    argmax1 = k;
                } else if v > max2 {
                    max2 = v;
                }
            }
            for (k, slot) in out.iter_mut().enumerate() {
                let competitor = if k == argmax1 { max2 } else { max1 };
                let new_r = s_row[k] - competitor;
                *slot = lambda * r_row[k] + (1.0 - lambda) * new_r;
            }
        });

        for k in 0..n {
            let positive_sum: f64 = (0..n)
                .filter(|&i| i != k)
                .map(|i| responsibility[(i, k)].max(0.0))
                .sum();
            for i in 0..n {
                let new_a = if i == k {
                    positive_sum
                } else {
                    let adjusted =
                        positive_sum - responsibility[(i, k)].max(0.0) + responsibility[(k, k)];
                    adjusted.min(0.0)
                };
                availability[(i, k)] = lambda * availability[(i, k)] + (1.0 - lambda) * new_a;
            }
        }

        let exemplars: Vec<usize> = (0..n)
            .filter(|&k| responsibility[(k, k)] + availability[(k, k)] > 0.0)
            .collect();
        if !exemplars.is_empty() && exemplars == last_exemplars {
            stable_for += 1;
            if stable_for >= ap.convergence_iterations {
                converged = true;
                break;
            }
        } else {
            stable_for = 0;
            last_exemplars = exemplars;
        }
    }

    let mut exemplars: Vec<usize> = (0..n)
        .filter(|&k| responsibility[(k, k)] + availability[(k, k)] > 0.0)
        .collect();
    if exemplars.is_empty() {
        let best = (0..n)
            .max_by(|&a, &b| {
                (responsibility[(a, a)] + availability[(a, a)])
                    .partial_cmp(&(responsibility[(b, b)] + availability[(b, b)]))
                    .expect("finite evidence")
            })
            .expect("n >= 1");
        exemplars.push(best);
    }

    let labels: Vec<usize> = s
        .reduce_rows_with(2 * exemplars.len(), &ap.parallel, |i, s_row| {
            if let Some(pos) = exemplars.iter().position(|&e| e == i) {
                return pos as f64;
            }
            let mut best_pos = 0usize;
            let mut best_sim = f64::NEG_INFINITY;
            for (pos, &e) in exemplars.iter().enumerate() {
                if s_row[e] > best_sim {
                    best_sim = s_row[e];
                    best_pos = pos;
                }
            }
            best_pos as f64
        })
        .into_iter()
        .map(|x| x as usize)
        .collect();

    let assignment = ClusterAssignment::from_labels(labels, data, "AP");
    Ok(AffinityPropagationOutcome {
        assignment,
        exemplars,
        iterations,
        converged,
        preference,
    })
}

fn median_off_diagonal(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut values: Vec<f64> = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                values.push(m[(i, j)]);
            }
        }
    }
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite similarities"));
    values[values.len() / 2]
}
