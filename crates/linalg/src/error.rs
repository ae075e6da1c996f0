//! Error type shared by the fallible linear-algebra routines.

use std::fmt;

/// Errors produced by construction and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// A matrix constructor was given data whose length does not match the
    /// requested `rows * cols` shape.
    DataShapeMismatch {
        /// Rows requested by the caller.
        rows: usize,
        /// Columns requested by the caller.
        cols: usize,
        /// Length of the data actually supplied.
        data_len: usize,
    },
    /// The rows supplied to [`crate::Matrix::from_rows`] have differing
    /// lengths.
    RaggedRows {
        /// Length of the first row, treated as the expected width.
        expected: usize,
        /// Index of the first offending row.
        row: usize,
        /// Its length.
        found: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Operation name, for diagnostics.
        op: &'static str,
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// An operation that requires a non-empty matrix received an empty one.
    Empty {
        /// Operation name, for diagnostics.
        op: &'static str,
    },
    /// A row or column index is out of bounds for a checked accessor.
    IndexOutOfBounds {
        /// Axis name (`"row"` or `"column"`).
        axis: &'static str,
        /// Offending index.
        index: usize,
        /// Length of the axis.
        len: usize,
    },
    /// A column's mean is not finite: its values sum past the `f64` range,
    /// or one of them is infinite or NaN.
    NonFiniteMean {
        /// Index of the first such column.
        column: usize,
    },
    /// A column's standard deviation is not finite: its squared deviations
    /// from a finite mean sum past the `f64` range.
    NonFiniteStd {
        /// Index of the first such column.
        column: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DataShapeMismatch {
                rows,
                cols,
                data_len,
            } => write!(
                f,
                "data of length {data_len} cannot form a {rows}x{cols} matrix"
            ),
            LinalgError::RaggedRows {
                expected,
                row,
                found,
            } => write!(
                f,
                "row {row} has length {found}, expected {expected} (ragged input)"
            ),
            LinalgError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::Empty { op } => write!(f, "{op} requires a non-empty matrix"),
            LinalgError::IndexOutOfBounds { axis, index, len } => {
                write!(f, "{axis} index {index} out of bounds for length {len}")
            }
            LinalgError::NonFiniteMean { column } => write!(
                f,
                "column {column} has no finite mean: a value is not finite or the column sum overflows f64"
            ),
            LinalgError::NonFiniteStd { column } => write!(
                f,
                "column {column} has no finite standard deviation: its squared deviations overflow f64"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_data_shape_mismatch() {
        let e = LinalgError::DataShapeMismatch {
            rows: 2,
            cols: 3,
            data_len: 5,
        };
        assert_eq!(e.to_string(), "data of length 5 cannot form a 2x3 matrix");
    }

    #[test]
    fn display_ragged_rows() {
        let e = LinalgError::RaggedRows {
            expected: 4,
            row: 2,
            found: 3,
        };
        assert!(e.to_string().contains("row 2"));
        assert!(e.to_string().contains("expected 4"));
    }

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("2x3"));
        assert!(e.to_string().contains("4x5"));
    }

    #[test]
    fn display_empty_and_index() {
        assert!(LinalgError::Empty { op: "column_means" }
            .to_string()
            .contains("column_means"));
        let e = LinalgError::IndexOutOfBounds {
            axis: "row",
            index: 9,
            len: 3,
        };
        assert!(e.to_string().contains("row index 9"));
        let e = LinalgError::NonFiniteMean { column: 4 };
        assert!(e.to_string().starts_with("column 4 "));
        let e = LinalgError::NonFiniteStd { column: 2 };
        assert!(e.to_string().starts_with("column 2 "));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LinalgError>();
    }
}
