//! Columnar batch views over the row-oriented stream layout.
//!
//! Stream batches arrive as fixed-width rows (§5.1's byte-serialised tuple
//! format). Rather than decoding attributes tuple by tuple, the operators in
//! `saber-cpu` *gather* each referenced attribute once per task into a dense
//! `f64` (or `i64`) column and then operate column-wise, which is what their
//! SIMD kernels vectorize.
//!
//! Gathering uses exactly the numeric coercions of
//! [`TupleRef::get_numeric`](crate::TupleRef::get_numeric) and
//! [`TupleRef::get_key`](crate::TupleRef::get_key), so a columnar evaluation
//! of an expression sees bit-identical inputs to `Expr::eval` on a tuple.

use crate::buffer::RowBuffer;
use crate::schema::DataType;
use std::ops::Range;

/// Decodes the attribute `column` of rows `range` into dense `f64` values,
/// with the same per-type coercion as `TupleRef::get_numeric`.
pub fn gather_numeric(buffer: &RowBuffer, range: Range<usize>, column: usize, out: &mut Vec<f64>) {
    let schema = buffer.schema();
    let stride = schema.row_size();
    let offset = schema.offset(column);
    let bytes = buffer.bytes();
    out.clear();
    out.reserve(range.len());
    let mut at = range.start * stride + offset;
    macro_rules! decode_rows {
        ($width:expr, $decode:expr) => {
            for _ in range {
                let raw: [u8; $width] = bytes[at..at + $width].try_into().unwrap();
                out.push($decode(raw));
                at += stride;
            }
        };
    }
    match schema.data_type(column) {
        DataType::Int => decode_rows!(4, |b| i32::from_le_bytes(b) as f64),
        DataType::Float => decode_rows!(4, |b| f32::from_le_bytes(b) as f64),
        DataType::Long | DataType::Timestamp => decode_rows!(8, |b| i64::from_le_bytes(b) as f64),
        DataType::Double => decode_rows!(8, f64::from_le_bytes),
    }
}

/// Decodes the attribute `column` of rows `range` into raw 64-bit group-by
/// keys, with the same per-type mapping as `TupleRef::get_key`.
pub fn gather_keys(buffer: &RowBuffer, range: Range<usize>, column: usize, out: &mut Vec<i64>) {
    let schema = buffer.schema();
    let stride = schema.row_size();
    let offset = schema.offset(column);
    let bytes = buffer.bytes();
    out.clear();
    out.reserve(range.len());
    let mut at = range.start * stride + offset;
    macro_rules! decode_rows {
        ($width:expr, $decode:expr) => {
            for _ in range {
                let raw: [u8; $width] = bytes[at..at + $width].try_into().unwrap();
                out.push($decode(raw));
                at += stride;
            }
        };
    }
    match schema.data_type(column) {
        DataType::Int => decode_rows!(4, |b| i32::from_le_bytes(b) as i64),
        DataType::Long | DataType::Timestamp => decode_rows!(8, i64::from_le_bytes),
        DataType::Float => decode_rows!(4, |b| f32::from_le_bytes(b).to_bits() as i64),
        DataType::Double => decode_rows!(8, |b| f64::from_le_bytes(b).to_bits() as i64),
    }
}

/// Decodes the timestamp attribute of rows `range` (the raw `i64`, as
/// `TupleRef::timestamp` returns it).
pub fn gather_timestamps(buffer: &RowBuffer, range: Range<usize>, out: &mut Vec<i64>) {
    gather_keys(
        buffer,
        range.clone(),
        buffer.schema().timestamp_index(),
        out,
    );
}

/// A set of gathered `f64` columns over one row range of a [`RowBuffer`] —
/// the batch-columnar operand the vectorized kernels consume.
///
/// Only the columns an operator actually references are gathered; asking for
/// any other column panics (it would be a planner bug, not a data error).
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    rows: usize,
    columns: Vec<Option<Vec<f64>>>,
}

impl ColumnarBatch {
    /// Gathers the `wanted` columns of rows `range` from `buffer`.
    pub fn gather(buffer: &RowBuffer, range: Range<usize>, wanted: &[usize]) -> Self {
        let mut columns: Vec<Option<Vec<f64>>> = vec![None; buffer.schema().len()];
        for &c in wanted {
            if columns[c].is_none() {
                let mut col = Vec::new();
                gather_numeric(buffer, range.clone(), c, &mut col);
                columns[c] = Some(col);
            }
        }
        Self {
            rows: range.len(),
            columns,
        }
    }

    /// An empty batch over zero rows (used when a task has no new rows).
    pub fn empty(width: usize) -> Self {
        Self {
            rows: 0,
            columns: vec![None; width],
        }
    }

    /// Number of gathered rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The gathered values of `column`.
    ///
    /// # Panics
    /// If `column` was not in the `wanted` set at gather time.
    pub fn column(&self, column: usize) -> &[f64] {
        self.columns[column]
            .as_deref()
            .expect("column was not gathered; planner must collect referenced columns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn sample() -> RowBuffer {
        let schema = Schema::from_pairs(&[
            ("ts", DataType::Timestamp),
            ("f", DataType::Float),
            ("i", DataType::Int),
            ("d", DataType::Double),
        ])
        .unwrap()
        .into_ref();
        let mut buf = RowBuffer::new(schema);
        for k in 0..10 {
            buf.push_values(&[
                Value::Timestamp(100 + k as i64),
                Value::Float(0.5 + k as f32),
                Value::Int(-3 * k),
                Value::Double(1.25 * k as f64),
            ])
            .unwrap();
        }
        buf
    }

    #[test]
    fn gathered_numerics_match_tuple_ref_coercions() {
        let buf = sample();
        let batch = ColumnarBatch::gather(&buf, 2..9, &[0, 1, 2, 3]);
        assert_eq!(batch.rows(), 7);
        for (k, i) in (2..9).enumerate() {
            let row = buf.row(i);
            for c in 0..4 {
                assert_eq!(batch.column(c)[k].to_bits(), row.get_numeric(c).to_bits());
            }
        }
    }

    #[test]
    fn gathered_keys_match_tuple_ref_keys() {
        let buf = sample();
        let mut keys = Vec::new();
        for c in 0..4 {
            gather_keys(&buf, 1..10, c, &mut keys);
            for (k, i) in (1..10).enumerate() {
                assert_eq!(keys[k], buf.row(i).get_key(c), "column {c}");
            }
        }
        let mut ts = Vec::new();
        gather_timestamps(&buf, 0..10, &mut ts);
        assert_eq!(ts[3], 103);
    }

    #[test]
    #[should_panic(expected = "not gathered")]
    fn asking_for_an_ungathered_column_panics() {
        let buf = sample();
        let batch = ColumnarBatch::gather(&buf, 0..10, &[1]);
        let _ = batch.column(2);
    }
}
