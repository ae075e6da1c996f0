//! Chunked (mini-batch) ingestion over CSV files and in-memory datasets.
//!
//! Streaming training never needs the whole corpus in memory at once: it
//! consumes fixed-size row chunks, one at a time, possibly over several
//! epochs. A [`ChunkSource`] provides random access to those chunks so an
//! interrupted run can resume from a recorded `(epoch, chunk)` cursor and
//! re-read exactly the rows it would have seen — the contract the
//! checkpoint-resume machinery in `sls-rbm-core` relies on.
//!
//! Two implementations are provided:
//!
//! * [`ChunkedCsvReader`] — indexes the byte offset of every data row of a
//!   CSV file once at open time. The first read of a chunk reads the
//!   chunk's byte range in one call and parses its rows in row bands on the
//!   worker pool, then spills the values as raw native-endian `f64` to an
//!   anonymous temporary file, so every later read of that chunk is one
//!   `read_exact` straight into the chunk's matrix instead of a re-parse.
//!   Memory stays bounded by one chunk's text plus its values.
//! * [`InMemoryChunks`] — adapts an already-materialised feature matrix
//!   (e.g. a generated UCI stand-in) to the same interface, so the training
//!   driver is agnostic to where rows come from.

use crate::csv::parse_feature;
use crate::{CsvOptions, Dataset, DatasetError, Result};
use sls_linalg::{Matrix, ParallelPolicy, WorkerPool};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Random access to fixed-size row chunks of a feature source.
///
/// Implementations must be deterministic: `read_chunk(i)` returns the same
/// rows every time it is called, across passes and across process restarts,
/// as long as the underlying source is unchanged.
pub trait ChunkSource {
    /// Human-readable name of the source (file name or dataset name).
    fn name(&self) -> &str;

    /// Number of feature columns per row.
    fn n_features(&self) -> usize;

    /// Total number of rows across all chunks.
    fn n_instances(&self) -> usize;

    /// Nominal rows per chunk (the final chunk may be shorter).
    fn chunk_size(&self) -> usize;

    /// Number of chunks in one full pass.
    fn n_chunks(&self) -> usize {
        let n = self.n_instances();
        let c = self.chunk_size().max(1);
        n.div_ceil(c)
    }

    /// Rows in chunk `index` (the final chunk absorbs the remainder).
    fn rows_in_chunk(&self, index: usize) -> usize {
        let n = self.n_instances();
        let c = self.chunk_size().max(1);
        let start = index * c;
        n.saturating_sub(start).min(c)
    }

    /// Reads the rows of chunk `index` as a feature matrix.
    ///
    /// # Errors
    ///
    /// * [`DatasetError::ChunkOutOfRange`] if `index >= n_chunks()`.
    /// * Parse or I/O errors from the underlying source.
    fn read_chunk(&self, index: usize) -> Result<Matrix>;
}

/// Concatenates the leading chunks of `source` until at least `max_rows`
/// rows are collected (or the source is exhausted), then truncates to
/// exactly `max_rows`.
///
/// Used by the retrain pipeline to fit the preprocessor and run the
/// consensus stage on a bounded sample without materialising the corpus.
///
/// # Errors
///
/// Propagates the source's read errors.
pub fn leading_sample(source: &dyn ChunkSource, max_rows: usize) -> Result<Matrix> {
    let max_rows = max_rows.max(1);
    let cols = source.n_features();
    let mut data: Vec<f64> = Vec::new();
    let mut rows = 0;
    for index in 0..source.n_chunks() {
        if rows >= max_rows {
            break;
        }
        let chunk = source.read_chunk(index)?;
        let take = chunk.rows().min(max_rows - rows);
        data.extend_from_slice(&chunk.as_slice()[..take * chunk.cols()]);
        rows += take;
    }
    if rows == 0 {
        return Err(DatasetError::EmptyDataset);
    }
    Ok(Matrix::from_vec(rows, cols, data)?)
}

/// Chunked reader over a CSV file on disk.
///
/// Opening the reader makes one pass over the file to record the byte
/// offset and line number of every data row (header and blank lines are
/// skipped). The first `read_chunk(i)` then reads chunk `i`'s byte range,
/// from its first row's offset to the next chunk's (or to the end of the
/// file), in one call. Each row is the text from its offset to the next
/// row's, so rows parse independently: a chunk with enough fields for
/// [`ParallelPolicy::global`] to fan out parses in row bands on the
/// [`WorkerPool`], with the serial parse's values and the earliest line's
/// error. Field values are validated at that read, so a malformed or
/// non-finite value deep in the file surfaces when its chunk is first
/// read, with its 1-based line number.
///
/// The label column (first or last, per [`CsvOptions`]) is skipped — the
/// streaming trainer is unsupervised and consumes features only.
///
/// # Spill
///
/// Every chunk that parses cleanly is also written, as native-endian `f64`
/// values in row-major order, to a spill file; later reads of that chunk
/// read those bytes straight into the chunk's matrix instead of
/// re-parsing the text, which is over an order of magnitude cheaper. Only
/// the process that wrote the file ever reads it, so the byte order never
/// crosses machines.
///
/// * **Where:** a file created by `open` under [`std::env::temp_dir`]
///   (so `TMPDIR` on Unix) and unlinked straight away. Only the open
///   handle keeps it alive, so nothing is left on disk when the reader is
///   dropped or the process dies, even by `SIGKILL`.
/// * **Size:** `8 × rows × features` bytes once every chunk has been read.
///   Memory stays bounded by one chunk's text plus its values.
/// * **Lifetime:** the reader's. A resumed run opens a new reader and so
///   re-parses each chunk once.
/// * **Snapshot:** edits to the CSV after a chunk's first read are not
///   seen by this reader; it keeps answering with the first-read values.
/// * **Failures:** if the spill file cannot be created or unlinked the
///   reader parses on every read, as it would without a spill. A spill
///   read or write error drops the spill and falls back to parsing; it
///   never turns a good read into an error. A chunk that fails to parse
///   is not spilled, so it fails again, with the same line, next time.
#[derive(Debug)]
pub struct ChunkedCsvReader {
    path: PathBuf,
    options: CsvOptions,
    chunk_size: usize,
    /// `(byte_offset, 1-based line number)` of every data row, in order.
    offsets: Vec<(u64, usize)>,
    n_features: usize,
    /// The raw-`f64` copy of every chunk read so far (`None`: parse always).
    spill: Mutex<Option<Spill>>,
}

/// An unlinked temporary file holding chunk `i`'s values at byte
/// `i × chunk_size × n_features × 8`, so chunks spill in any order.
#[derive(Debug)]
struct Spill {
    file: File,
    /// Values in a full chunk (`chunk_size × n_features`).
    chunk_values: usize,
    /// Whether chunk `i` has been written.
    spilled: Vec<bool>,
}

impl Spill {
    /// Creates and unlinks a fresh file under the temp dir; `None` if
    /// either step fails.
    fn create(n_chunks: usize, chunk_values: usize) -> Option<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "sls-chunk-spill-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .ok()?;
        std::fs::remove_file(&path).ok()?;
        Some(Self {
            file,
            chunk_values,
            spilled: vec![false; n_chunks],
        })
    }

    fn seek_to(&mut self, index: usize) -> std::io::Result<()> {
        let at = index as u64 * self.chunk_values as u64 * 8;
        self.file.seek(SeekFrom::Start(at)).map(drop)
    }

    /// The `len` values of chunk `index`, or `None` if it was never written.
    fn read(&mut self, index: usize, len: usize) -> std::io::Result<Option<Vec<f64>>> {
        if !self.spilled[index] {
            return Ok(None);
        }
        let mut values = vec![0.0; len];
        self.seek_to(index)?;
        self.file.read_exact(ne_bytes(&mut values))?;
        Ok(Some(values))
    }

    /// Writes chunk `index`'s values; `values` is only borrowed mutably
    /// for the byte view and is left unchanged.
    fn write(&mut self, index: usize, values: &mut [f64]) -> std::io::Result<()> {
        self.seek_to(index)?;
        self.file.write_all(ne_bytes(values))?;
        self.spilled[index] = true;
        Ok(())
    }
}

/// `values` as their native-endian bytes: the spill's format, written and
/// read back by the same process.
fn ne_bytes(values: &mut [f64]) -> &mut [u8] {
    // SAFETY: the view covers exactly the `size_of_val(values)` bytes of
    // the slice and holds its exclusive borrow. `u8` has alignment 1, and
    // every byte pattern is a valid `u8` and every 8-byte pattern a valid
    // `f64`, so bytes written through the view leave valid values behind.
    unsafe {
        std::slice::from_raw_parts_mut(
            values.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(values),
        )
    }
}

impl ChunkedCsvReader {
    /// Indexes `path` and prepares chunked access with `chunk_size` rows per
    /// chunk (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// * [`DatasetError::Io`] if the file cannot be read.
    /// * [`DatasetError::EmptyDataset`] if it contains no data rows.
    /// * [`DatasetError::CsvParse`] if the first data row has fewer than two
    ///   columns (one feature plus the label).
    pub fn open(path: impl AsRef<Path>, options: &CsvOptions, chunk_size: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let mut reader = BufReader::new(file);
        let mut offsets: Vec<(u64, usize)> = Vec::new();
        let mut n_features: Option<usize> = None;
        let mut offset = 0u64;
        let mut line = String::new();
        let mut line_no = 0usize;
        loop {
            line.clear();
            let bytes = reader.read_line(&mut line)?;
            if bytes == 0 {
                break;
            }
            line_no += 1;
            let is_header = options.has_header && line_no == 1;
            let trimmed = line.trim();
            if !is_header && !trimmed.is_empty() {
                if n_features.is_none() {
                    let fields = trimmed.split(options.delimiter).count();
                    if fields < 2 {
                        return Err(DatasetError::CsvParse {
                            line: line_no,
                            message: "a row needs at least one feature and a label".to_string(),
                        });
                    }
                    n_features = Some(fields - 1);
                }
                offsets.push((offset, line_no));
            }
            offset += bytes as u64;
        }
        if offsets.is_empty() {
            return Err(DatasetError::EmptyDataset);
        }
        let chunk_size = chunk_size.max(1);
        let n_features = n_features.expect("offsets is non-empty");
        let spill = Spill::create(offsets.len().div_ceil(chunk_size), chunk_size * n_features);
        Ok(Self {
            path,
            options: options.clone(),
            chunk_size,
            offsets,
            n_features,
            spill: Mutex::new(spill),
        })
    }

    /// Runs `op` on the spill, if there still is one; an I/O error drops
    /// the spill for good.
    fn with_spill<T>(&self, op: impl FnOnce(&mut Spill) -> std::io::Result<T>) -> Option<T> {
        // A poisoned spill is still consistent: a chunk is marked spilled
        // only after all of its bytes were written.
        let mut spill = self.spill.lock().unwrap_or_else(PoisonError::into_inner);
        match op(spill.as_mut()?) {
            Ok(value) => Some(value),
            Err(_) => {
                spill.take();
                None
            }
        }
    }

    /// Parses chunk `index` from the CSV text into one row-major buffer,
    /// under `policy` (see [`parse_rows`]).
    fn parse_chunk(&self, index: usize, policy: &ParallelPolicy) -> Result<Vec<f64>> {
        let first = index * self.chunk_size;
        let rows = &self.offsets[first..first + self.rows_in_chunk(index)];
        let start = rows[0].0;
        let mut file = File::open(&self.path)?;
        let end = match self.offsets.get(first + rows.len()) {
            Some(&(next_chunk, _)) => next_chunk,
            None => file.metadata()?.len(),
        };
        file.seek(SeekFrom::Start(start))?;
        let len = end.saturating_sub(start);
        let mut text = Vec::with_capacity(len as usize);
        file.take(len).read_to_end(&mut text)?;
        parse_rows(&text, rows, self.n_features, &self.options, policy)
    }
}

impl ChunkSource for ChunkedCsvReader {
    fn name(&self) -> &str {
        &self.options.name
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn n_instances(&self) -> usize {
        self.offsets.len()
    }

    fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn read_chunk(&self, index: usize) -> Result<Matrix> {
        if index >= self.n_chunks() {
            return Err(DatasetError::ChunkOutOfRange {
                index,
                chunks: self.n_chunks(),
            });
        }
        let rows = self.rows_in_chunk(index);
        let values = match self
            .with_spill(|spill| spill.read(index, rows * self.n_features))
            .flatten()
        {
            Some(values) => values,
            None => {
                let mut values = self.parse_chunk(index, &ParallelPolicy::global())?;
                self.with_spill(|spill| spill.write(index, &mut values));
                values
            }
        };
        Ok(Matrix::from_vec(rows, self.n_features, values)?)
    }
}

/// Estimated cost of one CSV field (scan, trim and `str::parse`) in the
/// f64-operation units [`ParallelPolicy::effective_threads`] plans with.
/// Measured on a 2-core AVX2 Xeon with `parallel_bench`: the first serial
/// read of the 892-feature Book CSV parses its 800,128 fields in 49–66 ms
/// (`csv_first_read`, 61–83 ns a field), while a product's multiply-add
/// takes about 0.26 ns (`matmul`: 134M in 34–38 ms), so a field weighs
/// about 240 operations.
const FIELD_COST: usize = 240;

/// Parses the data rows indexed by `rows` (`(byte offset, line)`, in file
/// order) out of `text`, the file's bytes from the first row's offset up
/// to the end of the chunk, into one row-major buffer.
///
/// Row `r` is the text from its offset to row `r + 1`'s (the end of `text`
/// for the last row), so the blank lines between rows trim away and every
/// row parses on its own. When `policy` plans more than one thread for the
/// chunk, contiguous row bands parse as items of one
/// [`WorkerPool::for_each_mut`] call, each writing its rows' slice of the
/// buffer. Every band stops at its first error and the earliest band's
/// error is returned, so the result is the serial parse's, values and
/// error alike, for every policy.
fn parse_rows(
    text: &[u8],
    rows: &[(u64, usize)],
    n_features: usize,
    options: &CsvOptions,
    policy: &ParallelPolicy,
) -> Result<Vec<f64>> {
    let mut values = vec![0.0; rows.len() * n_features];
    let threads = policy.effective_threads(rows.len(), (n_features + 1) * FIELD_COST);
    if threads == 1 {
        // Inline, without starting the global pool.
        parse_band(text, rows, 0..rows.len(), options, &mut values)?;
        return Ok(values);
    }
    let band_rows = rows.len().div_ceil(threads);
    let mut bands: Vec<(&mut [f64], Result<()>)> = values
        .chunks_mut(band_rows * n_features)
        .map(|band| (band, Ok(())))
        .collect();
    WorkerPool::global().for_each_mut(&mut bands, |b, (band, result)| {
        let first = b * band_rows;
        *result = parse_band(
            text,
            rows,
            first..first + band.len() / n_features,
            options,
            band,
        );
    });
    bands.into_iter().try_for_each(|(_, result)| result)?;
    Ok(values)
}

/// Parses the chunk's rows `band` into `out` (their features, row-major),
/// stopping at the first bad row.
fn parse_band(
    text: &[u8],
    rows: &[(u64, usize)],
    band: Range<usize>,
    options: &CsvOptions,
    out: &mut [f64],
) -> Result<()> {
    let base = rows[0].0;
    // Where row `r` starts in `text`; an offset past the end (of a file that
    // shrank) stays past it.
    let at = |r: usize| {
        rows.get(r).map_or(text.len(), |&(offset, _)| {
            usize::try_from(offset - base).unwrap_or(usize::MAX)
        })
    };
    let n_features = out.len() / band.len();
    for (r, out) in band.zip(out.chunks_exact_mut(n_features)) {
        let (from, line) = (at(r), rows[r].1);
        if from >= text.len() {
            // The file shrank since it was indexed.
            return Err(DatasetError::CsvParse {
                line,
                message: "unexpected end of file (source changed since indexing?)".to_string(),
            });
        }
        let row = std::str::from_utf8(&text[from..at(r + 1).min(text.len())]).map_err(|_| {
            std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
        })?;
        parse_feature_row(row.trim(), line, options, out)?;
    }
    Ok(())
}

/// Parses the feature fields of one data row into `out`, skipping the label
/// column, in one scan that counts the fields as it parses them. A ragged
/// row is reported ahead of a bad value in it.
fn parse_feature_row(
    trimmed: &str,
    line: usize,
    options: &CsvOptions,
    out: &mut [f64],
) -> Result<()> {
    let skip_label = usize::from(!options.label_last);
    let mut found = 0usize;
    let mut bad = None;
    for field in trimmed.split(options.delimiter) {
        let slot = found.checked_sub(skip_label).and_then(|j| out.get_mut(j));
        if let (Some(slot), None) = (slot, &bad) {
            match parse_feature(field.trim(), line) {
                Ok(value) => *slot = value,
                Err(e) => bad = Some(e),
            }
        }
        found += 1;
    }
    if found != out.len() + 1 {
        return Err(DatasetError::CsvRaggedRow {
            line,
            expected: out.len() + 1,
            found,
        });
    }
    bad.map_or(Ok(()), Err)
}

/// Chunked view over an already-materialised feature matrix.
#[derive(Debug, Clone)]
pub struct InMemoryChunks {
    features: Matrix,
    chunk_size: usize,
    name: String,
}

impl InMemoryChunks {
    /// Wraps `features` with `chunk_size` rows per chunk (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// [`DatasetError::EmptyDataset`] if `features` has no rows.
    pub fn new(features: Matrix, chunk_size: usize, name: impl Into<String>) -> Result<Self> {
        if features.rows() == 0 {
            return Err(DatasetError::EmptyDataset);
        }
        Ok(Self {
            features,
            chunk_size: chunk_size.max(1),
            name: name.into(),
        })
    }

    /// Chunked view over a dataset's feature matrix.
    ///
    /// # Errors
    ///
    /// [`DatasetError::EmptyDataset`] if the dataset has no rows.
    pub fn from_dataset(dataset: &Dataset, chunk_size: usize) -> Result<Self> {
        Self::new(
            dataset.features().clone(),
            chunk_size,
            dataset.spec().name.clone(),
        )
    }
}

impl ChunkSource for InMemoryChunks {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_features(&self) -> usize {
        self.features.cols()
    }

    fn n_instances(&self) -> usize {
        self.features.rows()
    }

    fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn read_chunk(&self, index: usize) -> Result<Matrix> {
        if index >= self.n_chunks() {
            return Err(DatasetError::ChunkOutOfRange {
                index,
                chunks: self.n_chunks(),
            });
        }
        let cols = self.features.cols();
        let start = index * self.chunk_size;
        let rows = self.rows_in_chunk(index);
        let values = &self.features.as_slice()[start * cols..(start + rows) * cols];
        Ok(Matrix::from_vec(rows, cols, values.to_vec())?)
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
3.0,4.0,a
";

    /// Decimal spellings whose `f64` bits a round trip must keep: negative
    /// zero, the smallest subnormal, the largest finite value and a value
    /// one ulp off its short spelling.
    const EXTREME_VALUES: [&str; 4] = [
        "-0",
        "5e-324",
        "1.7976931348623157e308",
        "0.30000000000000004",
    ];

    const EXTREMES: &str = "\
-0,5e-324,a
1.7976931348623157e308,0.30000000000000004,b

-1.7976931348623157e308,-5e-324,a
0.1,-0.0,b
2.2250738585072014e-308,4.9406564584124654e-324,a
";

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn temp_csv(name: &str, content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sls_datasets_chunk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn csv_reader_indexes_and_reads_chunks() {
        let path = temp_csv("basic.csv", SAMPLE);
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap();
        assert_eq!(reader.n_instances(), 5);
        assert_eq!(reader.n_features(), 2);
        assert_eq!(reader.n_chunks(), 3);
        assert_eq!(reader.rows_in_chunk(0), 2);
        assert_eq!(reader.rows_in_chunk(2), 1);

        let c0 = reader.read_chunk(0).unwrap();
        assert_eq!(c0.shape(), (2, 2));
        assert_eq!(c0.row(0), &[1.0, 2.0]);
        // Chunk 1 starts after the blank line.
        let c1 = reader.read_chunk(1).unwrap();
        assert_eq!(c1.row(0), &[8.0, 9.0]);
        let c2 = reader.read_chunk(2).unwrap();
        assert_eq!(c2.shape(), (1, 2));
        assert_eq!(c2.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn csv_chunks_concatenate_to_the_full_parse() {
        let path = temp_csv("concat.csv", SAMPLE);
        let full = crate::parse_csv_dataset(SAMPLE, &CsvOptions::default()).unwrap();
        for chunk_size in [1, 2, 3, 5, 100] {
            let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), chunk_size).unwrap();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for i in 0..reader.n_chunks() {
                let chunk = reader.read_chunk(i).unwrap();
                rows.extend(chunk.row_iter().map(<[f64]>::to_vec));
            }
            let joined = Matrix::from_rows(&rows).unwrap();
            assert_eq!(joined.as_slice(), full.features().as_slice());
        }
    }

    #[test]
    fn csv_reader_respects_header_and_label_first() {
        let content = "class,f1,f2\npos,1.0,2.0\nneg,3.0,4.0\n";
        let path = temp_csv("header.csv", content);
        let options = CsvOptions {
            has_header: true,
            label_last: false,
            ..CsvOptions::default()
        };
        let reader = ChunkedCsvReader::open(&path, &options, 10).unwrap();
        assert_eq!(reader.n_instances(), 2);
        let chunk = reader.read_chunk(0).unwrap();
        assert_eq!(chunk.row(0), &[1.0, 2.0]);
        assert_eq!(chunk.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn bad_rows_error_with_absolute_line_numbers() {
        let content = "1.0,2.0,a\n1.0,oops,a\n";
        let path = temp_csv("bad.csv", content);
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 1).unwrap();
        assert!(reader.read_chunk(0).is_ok());
        let err = reader.read_chunk(1).unwrap_err();
        assert!(
            matches!(err, DatasetError::CsvParse { line: 2, .. }),
            "{err}"
        );

        let ragged = "1.0,2.0,a\n1.0,a\n";
        let path = temp_csv("ragged.csv", ragged);
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap();
        let err = reader.read_chunk(0).unwrap_err();
        assert!(
            matches!(
                err,
                DatasetError::CsvRaggedRow {
                    line: 2,
                    expected: 3,
                    found: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn non_finite_values_error_with_absolute_line_numbers() {
        for field in ["NaN", "inf", "1e400"] {
            let path = temp_csv(
                &format!("non_finite_{field}.csv"),
                &format!("1.0,2.0,a\n\n3.0,{field},b\n"),
            );
            let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap();
            match reader.read_chunk(0) {
                Err(DatasetError::CsvParse { line: 3, message }) => assert_eq!(
                    message,
                    format!("feature value '{field}' is not a finite number")
                ),
                other => panic!("{field}: expected a line-3 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_file_that_shrank_since_open_errors_at_the_first_missing_row() {
        let content = "1.0,2.0,a\n1.5,2.5,a\n8.0,9.0,b\n8.5,9.5,b\n";
        let kept = "1.0,2.0,a\n1.5,2.5,a\n".len() as u64;
        // (chunk size, chunk read, line of its first missing row)
        for (chunk_size, index, line) in [(4, 0, 3), (2, 1, 3), (3, 1, 4)] {
            let path = temp_csv(&format!("shrank_{chunk_size}.csv"), content);
            let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), chunk_size).unwrap();
            File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(kept)
                .unwrap();
            match reader.read_chunk(index) {
                Err(DatasetError::CsvParse { line: at, message }) => {
                    assert_eq!(at, line, "chunk size {chunk_size}");
                    assert_eq!(
                        message,
                        "unexpected end of file (source changed since indexing?)"
                    );
                }
                other => panic!("chunk size {chunk_size}: expected a parse error, got {other:?}"),
            }
            if chunk_size == 2 {
                // Chunk 0 (lines 1-2) is still whole.
                assert_eq!(reader.read_chunk(0).unwrap().row(1), &[1.5, 2.5]);
            }
        }
    }

    #[test]
    fn non_utf8_text_is_an_io_error_at_open_and_at_read() {
        let path = temp_csv("non_utf8_open.csv", "1.0,2.0,a\n");
        std::fs::write(&path, b"1.0,2.0,a\n\xff.5,2.5,a\n").unwrap();
        let err = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap_err();
        assert!(matches!(err, DatasetError::Io(_)), "{err}");

        // Same layout, so only the chunk read sees the bad byte.
        let path = temp_csv("non_utf8_read.csv", "1.0,2.0,a\n1.5,2.5,a\n");
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap();
        std::fs::write(&path, b"1.0,2.0,a\n\xff.5,2.5,a\n").unwrap();
        match reader.read_chunk(0) {
            Err(DatasetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert_eq!(e.to_string(), "stream did not contain valid UTF-8");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn spilled_rereads_are_bitwise_equal_to_the_full_parse() {
        for (name, content) in [("sample", SAMPLE), ("extremes", EXTREMES)] {
            let path = temp_csv(&format!("spill_rereads_{name}.csv"), content);
            let full = crate::parse_csv_dataset(content, &CsvOptions::default()).unwrap();
            let cols = full.n_features();
            for chunk_size in [1, 2, 3, 5, 100] {
                let reader =
                    ChunkedCsvReader::open(&path, &CsvOptions::default(), chunk_size).unwrap();
                let forwards = 0..reader.n_chunks();
                let order: Vec<usize> = forwards.clone().chain(forwards.rev()).collect();
                for _ in 0..3 {
                    for &i in &order {
                        let start = i * chunk_size * cols;
                        let end = start + reader.rows_in_chunk(i) * cols;
                        let chunk = reader.read_chunk(i).unwrap();
                        assert_eq!(
                            bits(chunk.as_slice()),
                            bits(&full.features().as_slice()[start..end]),
                            "{name}: chunk size {chunk_size}, chunk {i}"
                        );
                    }
                }
            }
        }
    }

    /// The shapes a data row comes in: CRLF line ends, blank and
    /// whitespace-only lines between rows, a header, the label first,
    /// padded fields and values at the edges of `f64`.
    fn varied_csv(rows: usize, crlf: bool, header: bool, label_first: bool) -> String {
        let end = if crlf { "\r\n" } else { "\n" };
        let mut text = String::new();
        if header {
            text += &format!("f1,f2,f3,class{end}");
        }
        for i in 0..rows {
            let mut fields: Vec<String> = (0..3)
                .map(|j| match (i + j) % 6 {
                    0..=3 => EXTREME_VALUES[(i + j) % 6].to_string(),
                    4 => format!(" {} ", i as f64 * 0.37 + j as f64),
                    _ => format!("-{i}e-{j}"),
                })
                .collect();
            let label = format!("c{}", i % 3);
            if label_first {
                fields.insert(0, label);
            } else {
                fields.push(label);
            }
            text += &fields.join(",");
            text += end;
            if i % 4 == 1 {
                text += end;
            }
            if i % 7 == 3 {
                text += &format!("  \t{end}");
            }
        }
        text
    }

    #[test]
    fn the_band_parse_is_bitwise_the_serial_parse() {
        for (case, (crlf, header, label_first)) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ]
        .into_iter()
        .enumerate()
        {
            let content = varied_csv(29, crlf, header, label_first);
            let options = CsvOptions {
                has_header: header,
                label_last: !label_first,
                ..CsvOptions::default()
            };
            let path = temp_csv(&format!("bands_{case}.csv"), &content);
            let full = crate::parse_csv_dataset(&content, &options).unwrap();
            for chunk_size in [1, 7, 29] {
                let reader = ChunkedCsvReader::open(&path, &options, chunk_size).unwrap();
                let mut joined = Vec::new();
                for i in 0..reader.n_chunks() {
                    let serial = reader.parse_chunk(i, &ParallelPolicy::serial()).unwrap();
                    for threads in 1..=4 {
                        let banded = reader.parse_chunk(i, &ParallelPolicy::eager(threads));
                        assert_eq!(
                            bits(&banded.unwrap()),
                            bits(&serial),
                            "case {case}, chunk size {chunk_size}, chunk {i}, {threads} threads"
                        );
                    }
                    joined.extend(serial);
                }
                assert_eq!(
                    bits(&joined),
                    bits(full.features().as_slice()),
                    "case {case}"
                );
            }
        }
    }

    /// The error of parsing `content` as one chunk, the same under the
    /// serial policy and every band split.
    fn chunk_error(name: &str, content: &str) -> DatasetError {
        let path = temp_csv(name, content);
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 100).unwrap();
        let serial = reader
            .parse_chunk(0, &ParallelPolicy::serial())
            .unwrap_err();
        for threads in 1..=4 {
            let banded = reader
                .parse_chunk(0, &ParallelPolicy::eager(threads))
                .unwrap_err();
            assert_eq!(
                format!("{banded:?}"),
                format!("{serial:?}"),
                "{name}, {threads} threads"
            );
        }
        serial
    }

    /// Twelve good rows (lines 1-12: four bands of three under four
    /// threads) with line `line` replaced by `row`.
    fn with_row(line: usize, row: &str) -> String {
        (1..=12)
            .map(|l| {
                if l == line {
                    format!("{row}\n")
                } else {
                    format!("{l}.0,{l}.5,a\n")
                }
            })
            .collect()
    }

    #[test]
    fn the_band_parse_reports_the_serial_parse_errors() {
        let ragged = chunk_error("parity_ragged.csv", &with_row(6, "1.0,a"));
        assert!(
            matches!(
                ragged,
                DatasetError::CsvRaggedRow {
                    line: 6,
                    expected: 3,
                    found: 2
                }
            ),
            "{ragged:?}"
        );
        let long = chunk_error("parity_long.csv", &with_row(6, "1.0,2.0,3.0,a"));
        assert!(
            matches!(
                long,
                DatasetError::CsvRaggedRow {
                    line: 6,
                    found: 4,
                    ..
                }
            ),
            "{long:?}"
        );
        match chunk_error("parity_bad.csv", &with_row(7, "1.0,oops,a")) {
            DatasetError::CsvParse { line: 7, message } => {
                assert_eq!(message, "cannot parse feature value 'oops' as a number");
            }
            other => panic!("expected a line-7 parse error, got {other:?}"),
        }
        for field in ["NaN", "inf", "1e400"] {
            match chunk_error(
                &format!("parity_{field}.csv"),
                &with_row(9, &format!("{field},1.0,a")),
            ) {
                DatasetError::CsvParse { line: 9, message } => assert_eq!(
                    message,
                    format!("feature value '{field}' is not a finite number")
                ),
                other => panic!("{field}: expected a line-9 parse error, got {other:?}"),
            }
        }
        // Ragged wins over a bad value in the same row, whichever comes
        // first in it.
        for row in ["oops,1.0,2.0,a", "1.0,2.0,oops,a", "oops,a"] {
            let err = chunk_error("parity_ragged_and_bad.csv", &with_row(5, row));
            assert!(
                matches!(err, DatasetError::CsvRaggedRow { line: 5, .. }),
                "{row}: {err:?}"
            );
        }
        // Bad rows in two bands: the earlier line wins, whatever its kind.
        let two = with_row(2, "1.0,oops,a").replace("11.0,11.5,a", "11.0,a");
        match chunk_error("parity_two_bands.csv", &two) {
            DatasetError::CsvParse { line: 2, message } => {
                assert_eq!(message, "cannot parse feature value 'oops' as a number");
            }
            other => panic!("expected a line-2 parse error, got {other:?}"),
        }
        let two = with_row(3, "1.0,a").replace("10.0,10.5,a", "10.0,oops,a");
        let err = chunk_error("parity_two_bands_ragged.csv", &two);
        assert!(
            matches!(err, DatasetError::CsvRaggedRow { line: 3, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn a_bad_chunk_is_not_spilled_and_fails_again() {
        let path = temp_csv("bad_twice.csv", "1.0,2.0,a\n1.0,oops,a\n");
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 1).unwrap();
        for _ in 0..2 {
            let err = reader.read_chunk(1).unwrap_err();
            assert!(
                matches!(err, DatasetError::CsvParse { line: 2, .. }),
                "{err}"
            );
        }
        assert_eq!(reader.read_chunk(0).unwrap().row(0), &[1.0, 2.0]);
    }

    #[test]
    fn a_reader_keeps_its_first_pass_snapshot() {
        let path = temp_csv("snapshot.csv", SAMPLE);
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap();
        let first: Vec<Matrix> = (0..reader.n_chunks())
            .map(|i| reader.read_chunk(i).unwrap())
            .collect();
        // Same layout (byte offsets and lines), different values.
        std::fs::write(&path, SAMPLE.replace('1', "7").replace('8', "6")).unwrap();
        for (i, expected) in first.iter().enumerate() {
            let chunk = reader.read_chunk(i).unwrap();
            let bits: Vec<u64> = chunk.as_slice().iter().map(|v| v.to_bits()).collect();
            let expected: Vec<u64> = expected.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, expected, "chunk {i}");
        }
    }

    #[test]
    fn empty_and_out_of_range_are_rejected() {
        let path = temp_csv("empty.csv", "\n\n");
        assert!(matches!(
            ChunkedCsvReader::open(&path, &CsvOptions::default(), 2),
            Err(DatasetError::EmptyDataset)
        ));

        let path = temp_csv("small.csv", "1.0,a\n");
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 2).unwrap();
        let err = reader.read_chunk(1).unwrap_err();
        assert!(
            matches!(
                err,
                DatasetError::ChunkOutOfRange {
                    index: 1,
                    chunks: 1
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn in_memory_chunks_match_source_rows() {
        let features = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
            vec![9.0, 10.0],
        ])
        .unwrap();
        let chunks = InMemoryChunks::new(features.clone(), 2, "mem").unwrap();
        assert_eq!(chunks.n_chunks(), 3);
        assert_eq!(chunks.read_chunk(2).unwrap().row(0), &[9.0, 10.0]);
        assert!(matches!(
            chunks.read_chunk(3),
            Err(DatasetError::ChunkOutOfRange { .. })
        ));
        assert!(matches!(
            InMemoryChunks::new(Matrix::zeros(0, 3), 2, "empty"),
            Err(DatasetError::EmptyDataset)
        ));
    }

    #[test]
    fn leading_sample_collects_and_truncates() {
        let features =
            Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0], vec![5.0]]).unwrap();
        let chunks = InMemoryChunks::new(features, 2, "mem").unwrap();
        let sample = leading_sample(&chunks, 3).unwrap();
        assert_eq!(sample.shape(), (3, 1));
        assert_eq!(sample.row(2), &[3.0]);
        let all = leading_sample(&chunks, 100).unwrap();
        assert_eq!(all.shape(), (5, 1));
    }
}
