//! The output check. Like a black-box history checker it sees only what a
//! client sees — the result rows, in arrival order, with their receive
//! times — and judges them against the window contract: every complete
//! window exactly once, in order, and the first windows equal to the
//! single-threaded reference.

use saber::query::{OperatorDef, Query, WindowSpec};
use saber::types::schema::SchemaRef;
use saber::types::{DataType, RowBuffer};
use saber::workloads::reference;

/// Windows compared value by value against `workloads::reference`.
pub const PREFIX_WINDOWS: u64 = 64;
/// Receive time of a window that never arrived.
const MISSING: u64 = u64::MAX;
/// Slack on float aggregates, as `tests/end_to_end.rs` allows.
const FLOAT_TOLERANCE: f64 = 1.0;

/// What the checker needs to know about a statement.
#[derive(Debug, Clone)]
pub struct QueryShape {
    pub window: WindowSpec,
    /// Aggregation output (one row per group and window, stamped with the
    /// window start) rather than stateless output (input timestamps).
    pub aggregate: bool,
    pub out_schema: SchemaRef,
}

impl QueryShape {
    pub fn size(&self) -> u64 {
        self.window.size()
    }

    pub fn slide(&self) -> u64 {
        self.window.slide()
    }

    pub fn of(query: &Query) -> QueryShape {
        QueryShape {
            window: *query.window(0),
            aggregate: query
                .operators
                .iter()
                .any(|op| matches!(op, OperatorDef::Aggregation(_))),
            out_schema: query.output_schema.clone(),
        }
    }

    /// Window an output row belongs to: aggregate rows carry the window
    /// start (`w·slide`), stateless rows their input position.
    pub fn window_of(&self, timestamp: i64) -> u64 {
        timestamp.max(0) as u64 / self.step()
    }

    /// Input rows between the starts of consecutive windows. Stateless rows
    /// fall into tumbling windows of `size` whatever the declared slide.
    pub fn step(&self) -> u64 {
        if self.aggregate {
            self.slide()
        } else {
            self.size()
        }
    }

    /// Global index of the last input row of window `w`, which covers rows
    /// `[w·slide, w·slide + size)`.
    pub fn last_row(&self, w: u64) -> u64 {
        w * self.step() + self.size() - 1
    }

    /// The batch whose arrival completes window `w`: the window's latency
    /// clock starts when that batch was due.
    pub fn closing_batch(&self, w: u64, batch_rows: usize) -> u64 {
        self.last_row(w) / batch_rows as u64
    }

    /// Input rows fully covered by the first `windows` windows.
    pub fn rows_covered(&self, windows: u64) -> u64 {
        if windows == 0 {
            0
        } else {
            self.last_row(windows - 1) + 1
        }
    }

    /// Complete windows over `rows` input rows.
    pub fn complete_windows(&self, rows: u64) -> u64 {
        if self.aggregate {
            reference::complete_windows(&self.window, rows)
        } else {
            rows / self.size()
        }
    }

    /// Input rows the reference needs to produce the checked prefix.
    pub fn prefix_input_rows(&self) -> usize {
        self.rows_covered(PREFIX_WINDOWS) as usize
    }
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Violations {
    /// Windows never delivered (gaps, and the tail short of the expected
    /// count).
    pub missing: u64,
    pub duplicated: u64,
    /// Delivered after a later window.
    pub out_of_order: u64,
    /// Rows that break their window's own arithmetic (timestamps not
    /// increasing, group counts not summing to the window size, output row
    /// count off), and windows beyond the expected count.
    pub malformed: u64,
    /// Delivered windows among the first 64 that differ from the reference.
    pub unequal_to_reference: u64,
}

impl Violations {
    pub fn total(&self) -> u64 {
        self.missing
            + self.duplicated
            + self.out_of_order
            + self.malformed
            + self.unequal_to_reference
    }
}

pub struct Checker {
    shape: QueryShape,
    row_size: usize,
    ts_offset: usize,
    /// Offset of the `COUNT(*)` column of the GROUP-BY statement.
    count_offset: Option<usize>,
    /// Receive time (ns since the run's epoch) per window index.
    recv_ns: Vec<u64>,
    current: Option<u64>,
    last_ts: i64,
    count_sum: i64,
    rows: u64,
    prefix: Vec<u8>,
    violations: Violations,
}

impl Checker {
    pub fn new(shape: QueryShape) -> Checker {
        let schema = shape.out_schema.clone();
        let count_offset = shape.aggregate.then(|| {
            let idx = schema
                .index_of("cnt")
                .expect("the benchmark's GROUP-BY statement names its COUNT(*) `cnt`");
            assert_eq!(schema.data_type(idx), DataType::Long);
            schema.offset(idx)
        });
        Checker {
            row_size: schema.row_size(),
            ts_offset: schema.offset(schema.timestamp_index()),
            count_offset,
            recv_ns: Vec::new(),
            current: None,
            last_ts: -1,
            count_sum: 0,
            rows: 0,
            prefix: Vec::new(),
            violations: Violations::default(),
            shape,
        }
    }

    /// Windows seen so far, counting gaps (the index one past the newest).
    pub fn windows_seen(&self) -> u64 {
        self.recv_ns.len() as u64
    }

    /// One delivery: whole result rows received at `t_ns`.
    pub fn on_batch(&mut self, t_ns: u64, bytes: &[u8]) {
        if !bytes.len().is_multiple_of(self.row_size) {
            self.violations.malformed += 1;
        }
        for row in bytes.chunks_exact(self.row_size) {
            self.rows += 1;
            let ts = read_i64(row, self.ts_offset);
            let w = self.shape.window_of(ts);
            if self.shape.aggregate && (ts < 0 || !(ts as u64).is_multiple_of(self.shape.slide())) {
                self.violations.malformed += 1;
            }
            // A window that starts over — stateless timestamps regress, or
            // an aggregate window already holds all its rows — is a second
            // delivery of that window, not more of the first.
            let restarted = self.current == Some(w)
                && if self.shape.aggregate {
                    self.count_sum >= self.shape.size() as i64
                } else {
                    ts <= self.last_ts
                };
            if self.current != Some(w) || restarted {
                self.close_current();
                self.open(w, t_ns);
            }
            self.last_ts = ts;
            if let Some(at) = self.count_offset {
                self.count_sum += read_i64(row, at);
            }
            if w < PREFIX_WINDOWS {
                self.prefix.extend_from_slice(row);
            }
        }
    }

    fn open(&mut self, w: u64, t_ns: u64) {
        self.current = Some(w);
        self.count_sum = 0;
        let next = self.recv_ns.len() as u64;
        if w >= next {
            self.violations.missing += w - next;
            self.recv_ns.resize(w as usize, MISSING);
            self.recv_ns.push(t_ns);
        } else if self.recv_ns[w as usize] == MISSING {
            // Counted missing when a later window overtook it.
            self.violations.missing -= 1;
            self.violations.out_of_order += 1;
            self.recv_ns[w as usize] = t_ns;
        } else {
            self.violations.duplicated += 1;
        }
    }

    fn close_current(&mut self) {
        if self.current.is_some()
            && self.count_offset.is_some()
            && self.count_sum != self.shape.size() as i64
        {
            // Every input row of a count window lands in exactly one group.
            self.violations.malformed += 1;
        }
    }

    /// Ends the history: `expected_windows` complete windows were due,
    /// `expected_rows` output rows if the statement's row count is known,
    /// and `reference_rows` are the reference's rows for the checked prefix.
    pub fn finish(
        mut self,
        expected_windows: u64,
        expected_rows: Option<u64>,
        reference_rows: &RowBuffer,
    ) -> (Violations, Vec<u64>) {
        self.close_current();
        let seen = self.windows_seen();
        if seen < expected_windows {
            self.violations.missing += expected_windows - seen;
        } else {
            self.violations.malformed += seen - expected_windows;
        }
        if expected_rows.is_some_and(|rows| rows != self.rows) {
            self.violations.malformed += 1;
        }
        self.violations.unequal_to_reference =
            self.unequal_windows(reference_rows, expected_windows.min(PREFIX_WINDOWS));
        (self.violations, self.recv_ns)
    }

    /// Delivered windows among the first `windows` whose rows differ from the
    /// reference's: exact on timestamp, key and integer columns; float
    /// aggregates within `FLOAT_TOLERANCE`; stateless rows byte for byte.
    /// (A window that never arrived is counted missing, not unequal. A window
    /// delivered twice shows here too: its rows are in the prefix twice.)
    fn unequal_windows(&self, reference_rows: &RowBuffer, windows: u64) -> u64 {
        let got = self.rows_by_window(&self.prefix, windows);
        let want = self.rows_by_window(reference_rows.bytes(), windows);
        got.iter()
            .zip(&want)
            .filter(|(g, w)| {
                !g.is_empty()
                    && (g.len() != w.len() || g.iter().zip(*w).any(|(g, w)| !self.same_row(g, w)))
            })
            .count() as u64
    }

    /// The rows of `bytes` that fall into the first `windows` windows,
    /// grouped by window.
    fn rows_by_window<'a>(&self, bytes: &'a [u8], windows: u64) -> Vec<Vec<&'a [u8]>> {
        let mut rows = vec![Vec::new(); windows as usize];
        for row in bytes.chunks_exact(self.row_size) {
            let w = self.shape.window_of(read_i64(row, self.ts_offset));
            if w < windows {
                rows[w as usize].push(row);
            }
        }
        rows
    }

    fn same_row(&self, got: &[u8], want: &[u8]) -> bool {
        if !self.shape.aggregate {
            return got == want;
        }
        let schema = &self.shape.out_schema;
        (0..schema.len()).all(|col| {
            let at = schema.offset(col);
            match schema.data_type(col) {
                DataType::Float => {
                    (f64::from(read_f32(got, at)) - f64::from(read_f32(want, at))).abs()
                        < FLOAT_TOLERANCE
                }
                DataType::Double => {
                    (read_f64(got, at) - read_f64(want, at)).abs() < FLOAT_TOLERANCE
                }
                DataType::Int => got[at..at + 4] == want[at..at + 4],
                DataType::Long | DataType::Timestamp => got[at..at + 8] == want[at..at + 8],
            }
        })
    }
}

fn read_i64(row: &[u8], at: usize) -> i64 {
    i64::from_le_bytes(row[at..at + 8].try_into().expect("8 bytes"))
}

fn read_f32(row: &[u8], at: usize) -> f32 {
    f32::from_le_bytes(row[at..at + 4].try_into().expect("4 bytes"))
}

fn read_f64(row: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(row[at..at + 8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Pool;
    use crate::spec::{GROUP_SQL, SELECT_SQL};
    use saber::sql::Catalog;
    use saber::workloads::synthetic;

    fn compile(sql: &str) -> Query {
        let catalog = Catalog::new().with_stream("Syn", synthetic::schema());
        saber::sql::compile(sql, &catalog).unwrap()
    }

    fn shape(aggregate: bool, size: u64, slide: u64) -> QueryShape {
        QueryShape {
            window: WindowSpec::count(size, slide),
            aggregate,
            out_schema: synthetic::schema(),
        }
    }

    #[test]
    fn window_to_batch_mapping_tumbling_sliding_stateless() {
        // Tumbling aggregate, 1024-row windows, 256-row batches: window 0
        // closes with batch 3, window 1 with batch 7.
        let tumbling = shape(true, 1024, 1024);
        assert_eq!(tumbling.last_row(0), 1023);
        assert_eq!(tumbling.closing_batch(0, 256), 3);
        assert_eq!(tumbling.closing_batch(1, 256), 7);
        assert_eq!(tumbling.window_of(1024), 1);
        // Sliding 1024/512: window w covers [512w, 512w + 1024).
        let sliding = shape(true, 1024, 512);
        assert_eq!(sliding.last_row(0), 1023);
        assert_eq!(sliding.last_row(3), 2559);
        assert_eq!(sliding.closing_batch(3, 256), 9);
        assert_eq!(sliding.closing_batch(3, 16 * 1024), 0);
        assert_eq!(sliding.window_of(1536), 3);
        assert_eq!(sliding.rows_covered(2), 1536);
        // Stateless rows map by timestamp / size even if a slide is declared.
        let stateless = shape(false, 1024, 512);
        assert_eq!(stateless.window_of(1023), 0);
        assert_eq!(stateless.window_of(1024), 1);
        assert_eq!(stateless.last_row(2), 3071);
        assert_eq!(stateless.closing_batch(15, 16 * 1024), 0);
        assert_eq!(stateless.closing_batch(16, 16 * 1024), 1);
    }

    #[test]
    fn compiled_statements_have_the_expected_shapes() {
        let select = compile(SELECT_SQL);
        let s = QueryShape::of(&select);
        assert!(!s.aggregate);
        assert_eq!((s.size(), s.slide()), (1024, 1024));
        assert_eq!(s.complete_windows(5000), 4);
        let group = compile(GROUP_SQL);
        let g = QueryShape::of(&group);
        assert!(g.aggregate);
        assert_eq!((g.size(), g.slide()), (1024, 512));
        assert_eq!(g.complete_windows(2048), 3);
        assert_eq!(g.prefix_input_rows(), 63 * 512 + 1024);
    }

    /// Reference output of `sql` over the first `rows` generated rows, split
    /// into one delivery per window.
    fn reference_windows(sql: &str, rows: usize) -> (Query, RowBuffer, Vec<Vec<u8>>) {
        let query = compile(sql);
        let shape = QueryShape::of(&query);
        let input = Pool::generate(3, 1024).prefix(rows);
        let out = reference::run_single_input(&query, &input).unwrap();
        let size = out.schema().row_size();
        let mut windows: Vec<Vec<u8>> = Vec::new();
        for row in out.bytes().chunks_exact(size) {
            let w = shape.window_of(read_i64(row, 0)) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].extend_from_slice(row);
        }
        (query, out, windows)
    }

    fn run(sql: &str, tamper: impl Fn(&mut Vec<Vec<u8>>)) -> Violations {
        let rows = 8 * 1024;
        let (query, reference_rows, mut windows) = reference_windows(sql, rows);
        let shape = QueryShape::of(&query);
        let expected = shape.complete_windows(rows as u64);
        assert_eq!(windows.len() as u64, expected);
        tamper(&mut windows);
        let mut checker = Checker::new(shape);
        for (i, w) in windows.iter().enumerate() {
            checker.on_batch(i as u64, w);
        }
        checker.finish(expected, None, &reference_rows).0
    }

    #[test]
    fn an_untampered_history_passes() {
        for sql in [SELECT_SQL, GROUP_SQL] {
            assert_eq!(run(sql, |_| {}), Violations::default(), "{sql}");
        }
    }

    #[test]
    fn dropped_duplicated_and_reordered_windows_fail_the_checker() {
        for sql in [SELECT_SQL, GROUP_SQL] {
            let dropped = run(sql, |w| {
                w.remove(2);
            });
            assert_eq!(dropped.missing, 1, "{sql}");
            let duplicated = run(sql, |w| {
                let copy = w[3].clone();
                w.insert(4, copy);
            });
            assert_eq!(duplicated.duplicated, 1, "{sql}");
            let reordered = run(sql, |w| w.swap(4, 5));
            assert_eq!(reordered.out_of_order, 1, "{sql}");
            assert_eq!(reordered.missing, 0, "{sql}");
            // All three at once: the failed share the run reports is > 0.
            let all = run(sql, |w| {
                w.remove(1);
                let copy = w[2].clone();
                w.insert(3, copy);
                w.swap(5, 6);
            });
            assert!(all.missing >= 1 && all.duplicated >= 1 && all.out_of_order >= 1);
            assert!(all.total() >= 3, "{sql}: {all:?}");
        }
    }

    #[test]
    fn wrong_values_and_a_short_tail_fail_the_checker() {
        let flipped = run(SELECT_SQL, |w| {
            let last = w[0].len() - 1;
            w[0][last] ^= 1;
        });
        assert_eq!(flipped.unequal_to_reference, 1);
        let bad_count = run(GROUP_SQL, |w| {
            // Low byte of the first group's cnt in window 1.
            let schema = compile(GROUP_SQL).output_schema.clone();
            w[1][schema.offset(schema.index_of("cnt").unwrap())] ^= 1;
        });
        assert!(bad_count.malformed >= 1 && bad_count.unequal_to_reference >= 1);
        let short = run(GROUP_SQL, |w| {
            w.pop();
        });
        assert_eq!(short.missing, 1);
    }
}
