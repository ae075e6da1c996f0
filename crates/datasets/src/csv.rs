//! Minimal CSV loader so real UCI files can replace the simulated stand-ins.
//!
//! The format accepted is deliberately simple: one instance per line,
//! numeric feature columns separated by a configurable delimiter, with the
//! class label in the first or last column. Labels may be arbitrary strings;
//! they are mapped to dense integer classes in order of first appearance.

use crate::{DataFamily, Dataset, DatasetError, DatasetSpec, Result};
use sls_linalg::Matrix;
use std::collections::HashMap;
use std::path::Path;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `','`).
    pub delimiter: char,
    /// Whether the first line is a header to skip (default `false`).
    pub has_header: bool,
    /// Whether the class label is the last column (`true`, default) or the
    /// first column (`false`).
    pub label_last: bool,
    /// Name recorded in the resulting [`DatasetSpec`].
    pub name: String,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: ',',
            has_header: false,
            label_last: true,
            name: "csv-dataset".to_string(),
        }
    }
}

/// Loads a dataset from a CSV file on disk.
///
/// # Errors
///
/// Propagates I/O errors and all the parse errors of [`parse_csv_dataset`].
pub fn load_csv_dataset(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Dataset> {
    let content = std::fs::read_to_string(path)?;
    parse_csv_dataset(&content, options)
}

/// Parses a dataset from CSV text already in memory.
///
/// # Errors
///
/// * [`DatasetError::CsvParse`] if a feature value is not a finite number.
/// * [`DatasetError::CsvRaggedRow`] if rows have inconsistent column counts.
/// * [`DatasetError::EmptyDataset`] if no data rows are present.
pub fn parse_csv_dataset(content: &str, options: &CsvOptions) -> Result<Dataset> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut label_map: HashMap<String, usize> = HashMap::new();
    let mut expected_cols: Option<usize> = None;

    for (idx, line) in content.lines().enumerate() {
        let line_no = idx + 1;
        if options.has_header && idx == 0 {
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(options.delimiter).map(str::trim).collect();
        if fields.len() < 2 {
            return Err(DatasetError::CsvParse {
                line: line_no,
                message: "a row needs at least one feature and a label".to_string(),
            });
        }
        if let Some(expected) = expected_cols {
            if fields.len() != expected {
                return Err(DatasetError::CsvRaggedRow {
                    line: line_no,
                    expected,
                    found: fields.len(),
                });
            }
        } else {
            expected_cols = Some(fields.len());
        }

        let (label_field, feature_fields) = if options.label_last {
            let (features, label) = fields.split_at(fields.len() - 1);
            (label[0], features)
        } else {
            let (label, features) = fields.split_at(1);
            (label[0], features)
        };

        let features: Vec<f64> = feature_fields
            .iter()
            .map(|f| parse_feature(f, line_no))
            .collect::<Result<Vec<f64>>>()?;
        let next_label = label_map.len();
        let label = *label_map
            .entry(label_field.to_string())
            .or_insert(next_label);
        rows.push(features);
        labels.push(label);
    }

    if rows.is_empty() {
        return Err(DatasetError::EmptyDataset);
    }
    let features = Matrix::from_rows(&rows).map_err(DatasetError::Linalg)?;
    let spec = DatasetSpec::new(
        options.name.clone(),
        options.name.clone(),
        DataFamily::Uci,
        features.rows(),
        features.cols(),
        label_map.len(),
    );
    Dataset::new(spec, features, labels)
}

/// Parses one feature field of CSV line `line`.
///
/// Non-finite values (`NaN`, `inf`, or a literal such as `1e400` that
/// overflows to infinity) are rejected here, at parse time: every
/// downstream stage assumes finite inputs.
///
/// # Errors
///
/// [`DatasetError::CsvParse`] naming the field if it is not a number or
/// not finite.
pub(crate) fn parse_feature(field: &str, line: usize) -> Result<f64> {
    let value = field.parse::<f64>().map_err(|_| DatasetError::CsvParse {
        line,
        message: format!("cannot parse feature value '{field}' as a number"),
    })?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(DatasetError::CsvParse {
            line,
            message: format!("feature value '{field}' is not a finite number"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
1.0,2.0,a
1.5,2.5,a
8.0,9.0,b
8.5,9.5,b
";

    #[test]
    fn parses_label_last_csv() {
        let ds = parse_csv_dataset(SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_instances(), 4);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.labels(), &[0, 0, 1, 1]);
        assert_eq!(ds.features()[(2, 1)], 9.0);
    }

    #[test]
    fn parses_label_first_csv_with_header() {
        let content = "class,f1,f2\npos,1.0,2.0\nneg,3.0,4.0\n";
        let options = CsvOptions {
            has_header: true,
            label_last: false,
            name: "test".to_string(),
            ..CsvOptions::default()
        };
        let ds = parse_csv_dataset(content, &options).unwrap();
        assert_eq!(ds.n_instances(), 2);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.labels(), &[0, 1]);
        assert_eq!(ds.spec().name, "test");
    }

    #[test]
    fn supports_alternative_delimiters_and_blank_lines() {
        let content = "1.0;2.0;x\n\n3.0;4.0;y\n";
        let options = CsvOptions {
            delimiter: ';',
            ..CsvOptions::default()
        };
        let ds = parse_csv_dataset(content, &options).unwrap();
        assert_eq!(ds.n_instances(), 2);
    }

    #[test]
    fn rejects_bad_numbers() {
        let content = "1.0,notanumber,a\n";
        let err = parse_csv_dataset(content, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DatasetError::CsvParse { line: 1, .. }));
    }

    #[test]
    fn rejects_non_finite_values_with_their_line() {
        for field in ["NaN", "inf", "-inf", "1e400"] {
            let content = format!("1.0,2.0,a\n1.0,{field},a\n");
            match parse_csv_dataset(&content, &CsvOptions::default()) {
                Err(DatasetError::CsvParse { line: 2, message }) => assert_eq!(
                    message,
                    format!("feature value '{field}' is not a finite number")
                ),
                other => panic!("{field}: expected a line-2 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_ragged_rows() {
        let content = "1.0,2.0,a\n1.0,a\n";
        let err = parse_csv_dataset(content, &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::CsvRaggedRow {
                line: 2,
                expected: 3,
                found: 2
            }
        ));
    }

    #[test]
    fn rejects_rows_without_features() {
        let content = "justalabel\n";
        assert!(parse_csv_dataset(content, &CsvOptions::default()).is_err());
    }

    #[test]
    fn rejects_empty_content() {
        assert!(matches!(
            parse_csv_dataset("", &CsvOptions::default()),
            Err(DatasetError::EmptyDataset)
        ));
        assert!(matches!(
            parse_csv_dataset("\n\n", &CsvOptions::default()),
            Err(DatasetError::EmptyDataset)
        ));
    }

    #[test]
    fn load_csv_dataset_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("sls_datasets_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let ds = load_csv_dataset(&path, &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_instances(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_csv_dataset(
            "/nonexistent/definitely_missing.csv",
            &CsvOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::Io(_)));
    }
}
