//! Row buffers: contiguous byte buffers holding fixed-width rows.
//!
//! [`RowBuffer`] is the unit the engine moves around outside the circular
//! input buffers: stream batches handed to query tasks, intermediate window
//! fragment results and output stream chunks are all row buffers. It is a
//! thin wrapper over `Vec<u8>` plus a shared schema and exposes row-indexed
//! access without deserialising anything.

use crate::error::{Result, SaberError};
use crate::schema::SchemaRef;
use crate::tuple::{TupleMut, TupleRef};
use crate::value::Value;

/// A growable, contiguous buffer of rows that share one schema.
#[derive(Debug, Clone)]
pub struct RowBuffer {
    schema: SchemaRef,
    bytes: Vec<u8>,
}

impl RowBuffer {
    /// Creates an empty buffer for rows of `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        Self {
            schema,
            bytes: Vec::new(),
        }
    }

    /// Creates an empty buffer with capacity for `rows` rows.
    pub fn with_capacity(schema: SchemaRef, rows: usize) -> Self {
        let row_size = schema.row_size();
        Self {
            schema,
            bytes: Vec::with_capacity(rows * row_size),
        }
    }

    /// Wraps existing row bytes. The byte length must be a multiple of the
    /// schema's row size.
    pub fn from_bytes(schema: SchemaRef, bytes: Vec<u8>) -> Result<Self> {
        if !bytes.len().is_multiple_of(schema.row_size()) {
            return Err(SaberError::Buffer(format!(
                "byte length {} is not a multiple of row size {}",
                bytes.len(),
                schema.row_size()
            )));
        }
        Ok(Self { schema, bytes })
    }

    /// The schema shared by all rows in this buffer.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of complete rows stored.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.schema.row_size()
    }

    /// True if the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Total payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw bytes of all rows.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the buffer and returns the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Removes all rows, keeping the allocation (object pooling, §5.1).
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Borrow row `index`.
    ///
    /// # Panics
    /// Panics if `index >= len()` (row access is on the hot path; the
    /// engine's dispatcher guarantees in-range indices).
    pub fn row(&self, index: usize) -> TupleRef<'_> {
        let row_size = self.schema.row_size();
        let start = index * row_size;
        TupleRef::new(&self.schema, &self.bytes[start..start + row_size])
    }

    /// Checked variant of [`RowBuffer::row`].
    pub fn try_row(&self, index: usize) -> Result<TupleRef<'_>> {
        if index >= self.len() {
            return Err(SaberError::Buffer(format!(
                "row {index} out of bounds (len {})",
                self.len()
            )));
        }
        Ok(self.row(index))
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'_>> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Appends one row given as raw bytes (must be exactly one row long).
    pub fn push_bytes(&mut self, row: &[u8]) -> Result<()> {
        if row.len() != self.schema.row_size() {
            return Err(SaberError::Buffer(format!(
                "expected a {}-byte row, got {} bytes",
                self.schema.row_size(),
                row.len()
            )));
        }
        self.bytes.extend_from_slice(row);
        Ok(())
    }

    /// Appends many rows given as raw bytes (length must be a row multiple).
    pub fn extend_from_bytes(&mut self, rows: &[u8]) -> Result<()> {
        if !rows.len().is_multiple_of(self.schema.row_size()) {
            return Err(SaberError::Buffer(format!(
                "byte length {} is not a multiple of row size {}",
                rows.len(),
                self.schema.row_size()
            )));
        }
        self.bytes.extend_from_slice(rows);
        Ok(())
    }

    /// Appends one row of decoded values (generators and tests).
    pub fn push_values(&mut self, values: &[Value]) -> Result<()> {
        self.schema.encode_row(values, &mut self.bytes)
    }

    /// Appends a new zero-initialised row and returns a mutable view over it
    /// so the caller can fill it in place (the allocation-free path operators
    /// use to emit results).
    pub fn push_uninit(&mut self) -> TupleMut<'_> {
        let row_size = self.schema.row_size();
        let start = self.bytes.len();
        self.bytes.resize(start + row_size, 0);
        TupleMut::new(&self.schema, &mut self.bytes[start..start + row_size])
    }

    /// Copies row `index` from `src` into this buffer (direct byte
    /// forwarding, §5.1). Both buffers must share the same row size.
    pub fn forward_row(&mut self, src: &RowBuffer, index: usize) -> Result<()> {
        if src.schema.row_size() != self.schema.row_size() {
            return Err(SaberError::Buffer(
                "cannot forward rows between schemas of different row sizes".into(),
            ));
        }
        let row_size = self.schema.row_size();
        let start = index * row_size;
        if start + row_size > src.bytes.len() {
            return Err(SaberError::Buffer(format!(
                "row {index} out of bounds (len {})",
                src.len()
            )));
        }
        self.bytes
            .extend_from_slice(&src.bytes[start..start + row_size]);
        Ok(())
    }

    /// Decodes every row (tests / debugging only).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().map(|t| t.to_values()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[
            ("ts", DataType::Timestamp),
            ("v", DataType::Float),
            ("k", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn buffer_with(n: usize) -> RowBuffer {
        let mut buf = RowBuffer::new(schema());
        for i in 0..n {
            buf.push_values(&[
                Value::Timestamp(i as i64),
                Value::Float(i as f32 * 0.5),
                Value::Int((i % 4) as i32),
            ])
            .unwrap();
        }
        buf
    }

    #[test]
    fn push_and_read_rows() {
        let buf = buffer_with(10);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.byte_len(), 10 * buf.schema().row_size());
        assert_eq!(buf.row(3).timestamp(), 3);
        assert_eq!(buf.row(3).get_f32(1), 1.5);
        assert_eq!(buf.row(7).get_i32(2), 3);
    }

    #[test]
    fn try_row_checks_bounds() {
        let buf = buffer_with(2);
        assert!(buf.try_row(1).is_ok());
        assert!(buf.try_row(2).is_err());
    }

    #[test]
    fn from_bytes_validates_row_multiple() {
        let s = schema();
        assert!(RowBuffer::from_bytes(s.clone(), vec![0; s.row_size() * 3]).is_ok());
        assert!(RowBuffer::from_bytes(s, vec![0; 5]).is_err());
    }

    #[test]
    fn push_bytes_validates_length() {
        let mut buf = RowBuffer::new(schema());
        let row = vec![0u8; buf.schema().row_size()];
        assert!(buf.push_bytes(&row).is_ok());
        assert!(buf.push_bytes(&row[1..]).is_err());
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn extend_from_bytes_appends_many_rows() {
        let src = buffer_with(4);
        let mut dst = RowBuffer::new(schema());
        dst.extend_from_bytes(src.bytes()).unwrap();
        assert_eq!(dst.len(), 4);
        assert!(dst.extend_from_bytes(&src.bytes()[1..]).is_err());
    }

    #[test]
    fn push_uninit_then_fill() {
        let mut buf = RowBuffer::new(schema());
        {
            let mut row = buf.push_uninit();
            row.set_i64(0, 42);
            row.set_f32(1, 1.0);
            row.set_i32(2, 9);
        }
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.row(0).timestamp(), 42);
        assert_eq!(buf.row(0).get_i32(2), 9);
    }

    #[test]
    fn forward_row_copies_raw_bytes() {
        let src = buffer_with(5);
        let mut dst = RowBuffer::new(schema());
        dst.forward_row(&src, 2).unwrap();
        assert_eq!(dst.len(), 1);
        assert_eq!(dst.row(0).timestamp(), 2);
        assert!(dst.forward_row(&src, 99).is_err());
    }

    #[test]
    fn forward_row_rejects_mismatched_row_sizes() {
        let other = Schema::from_pairs(&[("ts", DataType::Timestamp)])
            .unwrap()
            .into_ref();
        let src = buffer_with(1);
        let mut dst = RowBuffer::new(other);
        assert!(dst.forward_row(&src, 0).is_err());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = buffer_with(100);
        let cap = buf.bytes.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.bytes.capacity(), cap);
    }

    #[test]
    fn iter_visits_rows_in_order() {
        let buf = buffer_with(6);
        let stamps: Vec<i64> = buf.iter().map(|t| t.timestamp()).collect();
        assert_eq!(stamps, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn to_rows_decodes_everything() {
        let buf = buffer_with(2);
        let rows = buf.to_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], Value::Timestamp(1));
    }
}
