//! Window definitions and window arithmetic (paper §2.4 and §3).
//!
//! SABER decouples the *physical* stream batch handed to a query task from
//! the *logical* window definition of the query. The executor therefore needs
//! to answer, for an arbitrary batch of the stream, questions such as "which
//! windows intersect this batch?", "where does window `w` start and end?" and
//! "into which panes does this batch partition?". [`WindowSpec`] answers all
//! of them in O(1) arithmetic so window computation can be deferred to the
//! highly parallel execution stage (paper §4.1).
//!
//! Windows are identified by a [`WindowIndex`]: window `i` of a count-based
//! window `ω(s, l)` covers tuples `[i·l, i·l + s)`; for a time-based window
//! it covers timestamps `[i·l, i·l + s)`.

use saber_types::{Result, SaberError, Timestamp};

/// Sequence number of a logical window over one input stream.
pub type WindowIndex = u64;

/// A half-open range `[start, end)` of window indices.
pub type WindowRange = std::ops::Range<WindowIndex>;

/// A window function `ω(s, l)` with size `s` and slide `l` (paper §2.4).
///
/// * `CountBased` windows measure size/slide in tuples,
/// * `TimeBased` windows measure size/slide in timestamp units
///   (milliseconds in the application benchmarks).
///
/// `l < s` gives sliding windows, `l = s` tumbling windows. `l > s`
/// (sampling windows) is accepted by the arithmetic but rejected by
/// [`WindowSpec::validate`] because the paper does not consider it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowSpec {
    /// Count-based window: `size` and `slide` are tuple counts.
    CountBased {
        /// Window size in tuples.
        size: u64,
        /// Window slide in tuples.
        slide: u64,
    },
    /// Time-based window: `size` and `slide` are timestamp deltas.
    TimeBased {
        /// Window size in timestamp units (milliseconds).
        size: u64,
        /// Window slide in timestamp units (milliseconds).
        slide: u64,
    },
}

impl WindowSpec {
    /// A count-based window of `size` tuples sliding by `slide` tuples.
    pub fn count(size: u64, slide: u64) -> Self {
        WindowSpec::CountBased { size, slide }
    }

    /// A time-based window of `size` time units sliding by `slide` units.
    pub fn time(size: u64, slide: u64) -> Self {
        WindowSpec::TimeBased { size, slide }
    }

    /// A count-based tumbling window (`slide == size`).
    pub fn tumbling_count(size: u64) -> Self {
        WindowSpec::CountBased { size, slide: size }
    }

    /// An effectively unbounded window (used by LRB1's `[range unbounded]`):
    /// a huge tumbling count window; stateless queries ignore the bound.
    pub fn unbounded() -> Self {
        WindowSpec::CountBased {
            size: u64::MAX / 4,
            slide: u64::MAX / 4,
        }
    }

    /// Window size `s`.
    pub fn size(&self) -> u64 {
        match self {
            WindowSpec::CountBased { size, .. } | WindowSpec::TimeBased { size, .. } => *size,
        }
    }

    /// Window slide `l`.
    pub fn slide(&self) -> u64 {
        match self {
            WindowSpec::CountBased { slide, .. } | WindowSpec::TimeBased { slide, .. } => *slide,
        }
    }

    /// True for count-based windows.
    pub fn is_count_based(&self) -> bool {
        matches!(self, WindowSpec::CountBased { .. })
    }

    /// True for tumbling windows (`slide == size`).
    pub fn is_tumbling(&self) -> bool {
        self.size() == self.slide()
    }

    /// True for sliding windows (`slide < size`).
    pub fn is_sliding(&self) -> bool {
        self.slide() < self.size()
    }

    /// Validates the specification (positive size/slide, slide ≤ size).
    pub fn validate(&self) -> Result<()> {
        if self.size() == 0 {
            return Err(SaberError::Query("window size must be positive".into()));
        }
        if self.slide() == 0 {
            return Err(SaberError::Query("window slide must be positive".into()));
        }
        if self.slide() > self.size() {
            return Err(SaberError::Query(format!(
                "window slide {} larger than size {} (sampling windows unsupported)",
                self.slide(),
                self.size()
            )));
        }
        Ok(())
    }

    /// The position (tuple index or timestamp) at which window `w` opens.
    pub fn window_start(&self, w: WindowIndex) -> u64 {
        w * self.slide()
    }

    /// The position one past the last element of window `w`.
    pub fn window_end(&self, w: WindowIndex) -> u64 {
        self.window_start(w) + self.size()
    }

    /// The range of window indices that *contain* position `p`
    /// (`window_start(w) <= p < window_end(w)`).
    pub fn windows_containing(&self, p: u64) -> WindowRange {
        let slide = self.slide();
        let size = self.size();
        // Last window containing p starts at the largest multiple of `slide`
        // that is <= p.
        let last = p / slide;
        // First window containing p: smallest w with w*slide + size > p,
        // i.e. w > (p - size) / slide.
        let first = if p < size { 0 } else { (p - size) / slide + 1 };
        first..last + 1
    }

    /// The range of window indices whose content intersects the half-open
    /// position range `[start, end)`. This is the set of windows a stream
    /// batch covering `[start, end)` contributes fragments to.
    pub fn windows_intersecting(&self, start: u64, end: u64) -> WindowRange {
        if end <= start {
            return 0..0;
        }
        let first = self.windows_containing(start).start;
        let last = self.windows_containing(end - 1).end;
        first..last
    }

    /// The range of window indices that are fully contained in `[start, end)`.
    pub fn windows_closed_in(&self, start: u64, end: u64) -> WindowRange {
        let intersecting = self.windows_intersecting(start, end);
        let mut first = intersecting.start;
        // Skip windows that opened before `start`.
        while first < intersecting.end && self.window_start(first) < start {
            first += 1;
        }
        let mut last = intersecting.end;
        while last > first && self.window_end(last - 1) > end {
            last -= 1;
        }
        first..last
    }

    /// Pane layout for this window (paper §2.2/§5.3): panes are the distinct
    /// subsequences from which overlapping windows are assembled; their
    /// length is `gcd(size, slide)`.
    pub fn panes(&self) -> PaneLayout {
        let g = gcd(self.size(), self.slide());
        PaneLayout {
            pane_length: g,
            panes_per_window: self.size() / g,
            panes_per_slide: self.slide() / g,
        }
    }

    /// Converts a byte-denominated window definition (the paper writes e.g.
    /// `ω(32KB, 32KB)`) into a count-based window over rows of `row_size`
    /// bytes.
    pub fn count_from_bytes(size_bytes: u64, slide_bytes: u64, row_size: usize) -> Self {
        let rs = row_size as u64;
        WindowSpec::CountBased {
            size: (size_bytes / rs).max(1),
            slide: (slide_bytes / rs).max(1),
        }
    }
}

/// Pane decomposition of a window definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaneLayout {
    /// Length of one pane (tuples or time units, matching the window kind).
    pub pane_length: u64,
    /// Number of panes that make up one window.
    pub panes_per_window: u64,
    /// Number of panes the window advances by per slide.
    pub panes_per_slide: u64,
}

/// Greatest common divisor (Euclid).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Assigns a timestamp to a window index for time-based windows: the window
/// containing timestamps `[w*slide, w*slide + size)` is reported with the
/// timestamp of its start (used when emitting window results).
pub fn window_timestamp(spec: &WindowSpec, w: WindowIndex) -> Timestamp {
    spec.window_start(w) as Timestamp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_small_window() {
        // Fig. 2 of the paper: batches of 5 tuples, ω(3,1).
        let w = WindowSpec::count(3, 1);
        // Batch b1 covers tuples [0,5): windows w0..w2 are complete, w3 and
        // w4 are fragments.
        assert_eq!(w.windows_intersecting(0, 5), 0..5);
        assert_eq!(w.windows_closed_in(0, 5), 0..3);
        // Batch b2 covers [5,10): windows 3 and 4 finish there.
        assert_eq!(w.windows_intersecting(5, 10), 3..10);
        assert_eq!(w.windows_closed_in(5, 10), 5..8);
    }

    #[test]
    fn figure2_large_window() {
        // Fig. 2: ω(7,2) over 5-tuple batches: the first batch contains only
        // window fragments, no complete window.
        let w = WindowSpec::count(7, 2);
        let closed = w.windows_closed_in(0, 5);
        assert!(closed.is_empty());
        let intersecting = w.windows_intersecting(0, 5);
        assert_eq!(intersecting, 0..3);
    }

    #[test]
    fn window_start_end_are_slide_multiples() {
        let w = WindowSpec::count(10, 4);
        assert_eq!(w.window_start(0), 0);
        assert_eq!(w.window_start(3), 12);
        assert_eq!(w.window_end(3), 22);
    }

    #[test]
    fn windows_containing_position() {
        let w = WindowSpec::count(4, 2);
        // Position 5 is in windows starting at 2 and 4 → indices 1 and 2.
        assert_eq!(w.windows_containing(5), 1..3);
        // Position 0 is only in window 0.
        assert_eq!(w.windows_containing(0), 0..1);
        // Position 1 is only in window 0 (window 1 starts at 2).
        assert_eq!(w.windows_containing(1), 0..1);
    }

    #[test]
    fn tumbling_windows_partition_the_stream() {
        let w = WindowSpec::tumbling_count(8);
        assert!(w.is_tumbling());
        assert!(!w.is_sliding());
        for p in 0..64u64 {
            let r = w.windows_containing(p);
            assert_eq!(r.end - r.start, 1);
            assert_eq!(r.start, p / 8);
        }
    }

    #[test]
    fn sliding_window_membership_matches_bruteforce() {
        let specs = [
            WindowSpec::count(5, 1),
            WindowSpec::count(5, 2),
            WindowSpec::count(7, 3),
            WindowSpec::count(16, 16),
            WindowSpec::count(9, 4),
        ];
        for spec in specs {
            for p in 0..200u64 {
                let got = spec.windows_containing(p);
                // Brute force: all windows w with start <= p < end.
                let mut expected = Vec::new();
                for w in 0..(p + 1) {
                    if spec.window_start(w) <= p && p < spec.window_end(w) {
                        expected.push(w);
                    }
                }
                let got_vec: Vec<u64> = got.collect();
                assert_eq!(got_vec, expected, "spec {spec:?} position {p}");
            }
        }
    }

    #[test]
    fn intersecting_and_closed_are_consistent() {
        let spec = WindowSpec::count(6, 2);
        let closed = spec.windows_closed_in(4, 20);
        for w in closed.clone() {
            assert!(spec.window_start(w) >= 4);
            assert!(spec.window_end(w) <= 20);
        }
        let intersecting = spec.windows_intersecting(4, 20);
        assert!(intersecting.start <= closed.start);
        assert!(intersecting.end >= closed.end);
    }

    #[test]
    fn empty_range_has_no_windows() {
        let spec = WindowSpec::count(4, 2);
        assert!(spec.windows_intersecting(10, 10).is_empty());
        assert!(spec.windows_intersecting(10, 5).is_empty());
    }

    #[test]
    fn pane_layout_uses_gcd() {
        let spec = WindowSpec::count(60, 1);
        let panes = spec.panes();
        assert_eq!(panes.pane_length, 1);
        assert_eq!(panes.panes_per_window, 60);

        let spec = WindowSpec::count(32, 8);
        let panes = spec.panes();
        assert_eq!(panes.pane_length, 8);
        assert_eq!(panes.panes_per_window, 4);
        assert_eq!(panes.panes_per_slide, 1);

        let spec = WindowSpec::count(12, 8);
        assert_eq!(spec.panes().pane_length, 4);
    }

    #[test]
    fn validation_rules() {
        assert!(WindowSpec::count(4, 2).validate().is_ok());
        assert!(WindowSpec::count(0, 1).validate().is_err());
        assert!(WindowSpec::count(4, 0).validate().is_err());
        assert!(WindowSpec::count(4, 8).validate().is_err());
    }

    #[test]
    fn byte_windows_convert_to_rows() {
        // ω(32KB, 32KB) over 32-byte tuples = 1024-tuple tumbling window.
        let w = WindowSpec::count_from_bytes(32 * 1024, 32 * 1024, 32);
        assert_eq!(w.size(), 1024);
        assert!(w.is_tumbling());
        // ω(32KB, 32B) = size 1024, slide 1.
        let w = WindowSpec::count_from_bytes(32 * 1024, 32, 32);
        assert_eq!(w.slide(), 1);
    }

    #[test]
    fn time_windows_use_same_arithmetic() {
        let w = WindowSpec::time(3600, 1);
        assert!(!w.is_count_based());
        assert_eq!(w.windows_containing(3600).start, 1);
        assert_eq!(w.windows_containing(3599).start, 0);
        assert_eq!(window_timestamp(&w, 10), 10);
    }

    #[test]
    fn unbounded_window_is_huge_tumbling() {
        let w = WindowSpec::unbounded();
        assert!(w.is_tumbling());
        assert!(w.size() > 1 << 60);
    }
}
