//! Differential test of the one-pass `rows` decoder: every generated body
//! must decode to the same bits, or be refused with the same `code` and
//! message, as the generic path (the `Value` tree,
//! `RowsRequest::to_matrix`, then the finite scan). The server answers
//! every refusal of either with status `400`.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sls_linalg::{Matrix, ParallelPolicy};
use sls_serve::api::{code, decode_rows, RowsRequest, MIN_BAND_BYTES};

/// The reference: parse to `RowsRequest`, `to_matrix`, finite scan, with
/// the server's codes and messages.
fn reference(body: &str) -> Result<Matrix, (&'static str, String)> {
    let rows: RowsRequest = serde_json::from_str(body)
        .map_err(|e| (code::INVALID_BODY, format!("invalid JSON body: {e}")))?;
    let matrix = rows.to_matrix().map_err(|m| (code::BAD_ROW_WIDTH, m))?;
    if let Some(at) = matrix.as_slice().iter().position(|v| !v.is_finite()) {
        let (i, j) = (at / matrix.cols(), at % matrix.cols());
        return Err((
            code::INVALID_BODY,
            format!("rows[{i}][{j}] is not a finite number"),
        ));
    }
    Ok(matrix)
}

fn bits(matrix: &Matrix) -> (usize, usize, Vec<u64>) {
    let values = matrix.as_slice().iter().map(|v| v.to_bits()).collect();
    (matrix.rows(), matrix.cols(), values)
}

fn assert_same(body: &str, policy: &ParallelPolicy) {
    let decoded = decode_rows(body, policy)
        .map(|m| bits(&m))
        .map_err(|e| (e.code, e.message));
    let expected = reference(body).map(|m| bits(&m));
    assert_eq!(decoded, expected, "body: {body}");
}

/// One number cell: mostly finite floats in the shapes a JSON writer
/// emits, plus the edge tokens.
fn number(rng: &mut ChaCha8Rng) -> String {
    match rng.gen_range(0..16u32) {
        0 => "-0".to_string(),
        1 => "1e400".to_string(),
        2 => "-1e400".to_string(),
        3 => "92233720368547758080".to_string(),
        4 => "-9223372036854775809".to_string(),
        5 => "1e-400".to_string(),
        6 => rng.gen_range(-1000..1000i64).to_string(),
        7 => format!("{:e}", rng.gen_range(-1e6..1e6f64)),
        8 => "0.1E+2".to_string(),
        _ => rng.gen_range(-3.0..3.0f64).to_string(),
    }
}

/// A cell that is not a convertible number.
fn non_number(rng: &mut ChaCha8Rng) -> &'static str {
    ["\"1\"", "null", "true", "[1]", "1.2.3", "-", "{}", "+1"][rng.gen_range(0..8usize)]
}

/// Whitespace (possibly none) to put around a token.
fn space(rng: &mut ChaCha8Rng, spaced: bool) -> &'static str {
    if !spaced {
        return "";
    }
    ["", " ", "\n", "\t", "\r\n ", "  "][rng.gen_range(0..6usize)]
}

/// Renders rows of cells as a `rows` array, with whitespace around every
/// token when `spaced`.
fn render(rows: &[Vec<String>], rng: &mut ChaCha8Rng, spaced: bool) -> String {
    let mut out = format!("[{}", space(rng, spaced));
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out += &format!("{},{}", space(rng, spaced), space(rng, spaced));
        }
        out += &format!("[{}", space(rng, spaced));
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out += &format!("{},{}", space(rng, spaced), space(rng, spaced));
            }
            out += cell;
        }
        out += &format!("{}]", space(rng, spaced));
    }
    out + space(rng, spaced) + "]"
}

/// A body from `seed`: well-formed or one of the malformed shapes picked by
/// `shape`, small or (for `wide`) large enough to decode in bands.
fn body(seed: u64, shape: u8, wide: bool) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (n_rows, n_cols) = if wide {
        (rng.gen_range(64..96usize), rng.gen_range(64..128usize))
    } else {
        (rng.gen_range(1..7usize), rng.gen_range(1..7usize))
    };
    let mut rows: Vec<Vec<String>> = (0..n_rows)
        .map(|_| {
            (0..n_cols)
                .map(|_| {
                    if rng.gen_range(0..40u32) == 0 {
                        number(&mut rng)
                    } else {
                        rng.gen_range(-3.0..3.0f64).to_string()
                    }
                })
                .collect()
        })
        .collect();
    let spaced = rng.gen_range(0..3u32) == 0;
    let (i, j) = (rng.gen_range(0..n_rows), rng.gen_range(0..n_cols));
    match shape {
        // Ragged: one row shorter or longer.
        1 => {
            if rng.gen_range(0..2u32) == 0 {
                rows[i].pop();
            } else {
                rows[i].push("1".to_string());
            }
        }
        // A wrong-type or malformed cell.
        2 => rows[i][j] = non_number(&mut rng).to_string(),
        // An edge number anywhere.
        3 => rows[i][j] = number(&mut rng),
        // Empty rows.
        4 => rows.clear(),
        5 => rows = vec![vec![]],
        // Nested rows.
        6 => rows[i] = vec![render(&rows[i..=i], &mut rng, spaced)],
        _ => {}
    }
    let array = render(&rows, &mut rng, spaced);
    let s = |rng: &mut ChaCha8Rng| space(rng, spaced);
    let field = |rng: &mut ChaCha8Rng, value: &str| {
        format!("{}\"rows\"{}:{}{value}", s(rng), s(rng), s(rng))
    };
    let rows_field = field(&mut rng, &array);
    let text = match shape {
        // Duplicate `rows`: the first one wins on the generic path.
        7 => format!("{{{rows_field},{}}}", field(&mut rng, "[[1,2]]")),
        8 => format!("{{{},{rows_field}}}", field(&mut rng, "[[1,2]]")),
        // Extra fields before and after `rows`.
        9 => format!("{{ \"id\" : [7, \"x\"],{rows_field}}}"),
        10 => format!("{{{rows_field}, \"tag\":\"[[[\" }}"),
        // Not the expected container.
        11 => array.clone(),
        12 => format!("{{{}}}", field(&mut rng, "5")),
        // Trailing garbage.
        13 => format!("{{{rows_field}}} x"),
        _ => format!(
            "{}{{{rows_field}{}}}{}",
            s(&mut rng),
            s(&mut rng),
            s(&mut rng)
        ),
    };
    // Truncated at a random byte (every generated byte is ASCII).
    if shape == 14 {
        let cut = rng.gen_range(0..text.len());
        return text[..cut].to_string();
    }
    text
}

proptest! {
    #[test]
    fn small_bodies_decode_like_the_generic_path(seed in 0u64..u64::MAX, shape in 0u8..16) {
        let text = body(seed, shape, false);
        assert_same(&text, &ParallelPolicy::serial());
        assert_same(&text, &ParallelPolicy::new(4));
    }

    #[test]
    fn banded_bodies_decode_like_the_generic_path(seed in 0u64..u64::MAX, shape in 0u8..16) {
        let text = body(seed, shape, true);
        prop_assert!(text.len() >= 2 * MIN_BAND_BYTES || [4, 5, 12, 14].contains(&shape));
        assert_same(&text, &ParallelPolicy::serial());
        assert_same(&text, &ParallelPolicy::new(4));
    }
}

#[test]
fn fixed_edge_bodies_decode_like_the_generic_path() {
    for text in [
        r#"{"rows":[]}"#,
        r#"{"rows":[[]]}"#,
        r#"{"rows":[[],[]]}"#,
        r#"{"rows":[[-0, 0]]}"#,
        r#"{"rows":[[1e400]]}"#,
        r#"{"rows":[[1,2],[3]]}"#,
        r#"{"rows":[[1,1e400],[3]]}"#,
        r#"{"rows":[[9223372036854775807, 9223372036854775808]]}"#,
        r#"{"rows":[[1]],"rows":[[2]]}"#,
        r#"{"rows":[[1]]}"#,
        r#"{"rows":[[1]]"#,
        r#"{"rows":[[1]]}}"#,
        r#" { "rows" : [ [ 1 , 2 ] ] } "#,
        "{\"rows\":\t[[1,\r\n2]]}",
        "{\"rows\":[[1]]}\u{c}",
        "",
        "{}",
        "null",
    ] {
        assert_same(text, &ParallelPolicy::serial());
    }
}
