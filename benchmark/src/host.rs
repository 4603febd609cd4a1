//! What the benchmark does about the machine it runs on: a probe that tells
//! how fast the host is right now, and a sweep that keeps the WAL's segments
//! out of the page cache.
//!
//! Both exist because the sandbox is a small VM on a shared host. Its speed
//! wanders by ±20 % over minutes (every thread of a run slows down together:
//! CPU per row of the system under test and of this probe moved 17 % and
//! 16 % across twelve runs, their ratio 1.8 %), and memory the guest has not
//! touched lately costs a hypervisor fault per page, which a page cache that
//! grows by 32 MB/s runs into after ten to twenty seconds — the WAL thread's
//! CPU then triples for the rest of the run.

use crate::procstat;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rows one probe run formats and parses back.
const PROBE_ROWS: u64 = 96;

/// CPU one probe run takes on the calibration box (2 vCPU Xeon 2.1 GHz) in a
/// calm hour (40–52 µs over forty runs). `cpu_s_per_mrow` is reported at
/// this speed: the measured CPU times `PROBE_REFERENCE_NS` over what the
/// probe took in the same slice.
pub const PROBE_REFERENCE_NS: f64 = 45_000.0;

/// A fixed piece of work of the kind the engine's front end does — format
/// rows as text, split and parse them back — in the benchmark's own code
/// (`std` only, nothing of the repository's), run every few milliseconds on
/// the coordinating thread and timed by that thread's CPU clock.
#[derive(Default)]
pub struct Probe {
    text: String,
    /// Probe runs so far.
    pub runs: u64,
    /// Thread CPU the runs took.
    pub cpu: Duration,
}

impl Probe {
    /// One run; returns the checksum of what it parsed.
    pub fn run(&mut self) -> f64 {
        let before = procstat::thread_cpu();
        let first = self.runs * PROBE_ROWS;
        self.text.clear();
        for k in first..first + PROBE_ROWS {
            // The shape of a `Syn` row: timestamp, a float, five integers.
            let _ = write!(
                self.text,
                "{},{},{},{},{},{},{};",
                k,
                (k % 1000) as f32 / 1000.0,
                k % 64,
                k % 1024,
                (k * 7) % 1024,
                (k * 13) % 1024,
                (k * 31) % 1024
            );
        }
        let mut sum = 0.0;
        for row in self.text.split_terminator(';') {
            for (i, field) in row.split(',').enumerate() {
                sum += if i == 1 {
                    f64::from(field.parse::<f32>().unwrap_or(0.0))
                } else {
                    field.parse::<i64>().unwrap_or(0) as f64
                };
            }
        }
        let sum = std::hint::black_box(sum);
        self.cpu += procstat::thread_cpu().saturating_sub(before);
        self.runs += 1;
        sum
    }
}

extern "C" {
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
}

const POSIX_FADV_DONTNEED: i32 = 4;

/// Drops the WAL's finished segments from the page cache, once each. The
/// store names segments by their zero-padded first sequence number (and
/// sorts them after its lock and snapshot files), so the last name in the
/// directory is the one being written; it syncs a segment when it rotates to
/// the next, so every other file is clean and the kernel frees its pages at
/// once. The next
/// segment's writes then land on pages the guest has just let go of
/// instead of ones it has to fault in from the host.
pub struct CacheSweep {
    dir: PathBuf,
    swept: BTreeSet<PathBuf>,
}

impl CacheSweep {
    pub fn new(dir: &Path) -> CacheSweep {
        CacheSweep {
            dir: dir.to_path_buf(),
            swept: BTreeSet::new(),
        }
    }

    /// Sweeps the files that appeared since the last call, the newest (the
    /// one being written) excepted; returns how many.
    pub fn sweep(&mut self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut files: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        files.sort();
        files.pop();
        let mut swept = 0;
        for path in files {
            if self.swept.contains(&path) {
                continue;
            }
            if let Ok(file) = File::open(&path) {
                // SAFETY: `file` is an open descriptor for the whole call,
                // and the call takes no pointers; it only advises the kernel
                // about that file's cached pages.
                unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
                swept += 1;
            }
            self.swept.insert(path);
        }
        swept
    }
}

/// What the coordinating thread does while it waits, from the start of the
/// warm-up to the end of the paced phase.
#[derive(Default)]
pub struct Housekeeping {
    pub probe: Probe,
    pub sweep: Option<CacheSweep>,
}

impl Housekeeping {
    /// How long the coordinator sleeps between two rounds.
    const INTERVAL: Duration = Duration::from_millis(5);
    /// Rounds between two sweeps (a segment fills in a quarter of a second).
    const SWEEP_EVERY: u64 = 20;

    /// Waits until `deadline`, a round every `INTERVAL`: the probe each
    /// round, the sweep every twentieth.
    pub fn until(&mut self, deadline: Instant) {
        while Instant::now() < deadline {
            self.probe.run();
            if self.probe.runs.is_multiple_of(Self::SWEEP_EVERY) {
                if let Some(sweep) = self.sweep.as_mut() {
                    sweep.sweep();
                }
            }
            let now = Instant::now();
            if now < deadline {
                std::thread::sleep((deadline - now).min(Self::INTERVAL));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_the_same_work_every_run_and_counts_its_cpu() {
        let (mut a, mut b) = (Probe::default(), Probe::default());
        let first = a.run();
        assert_eq!(first, b.run());
        assert_ne!(first, a.run(), "each run formats the next rows");
        assert_eq!(a.runs, 2);
        assert!(a.cpu > Duration::ZERO);
        // 96 rows of seven fields: the text is rebuilt, not appended to.
        assert_eq!(a.text.matches(';').count() as u64, PROBE_ROWS);
    }

    #[test]
    fn sweep_takes_each_finished_file_once_and_leaves_the_newest() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("tmp-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sweep = CacheSweep::new(&dir);
        assert_eq!(sweep.sweep(), 0);
        for name in ["wal-1", "wal-2", "wal-3"] {
            std::fs::write(dir.join(name), b"records").unwrap();
        }
        assert_eq!(sweep.sweep(), 2, "wal-3 is still being written");
        assert_eq!(sweep.sweep(), 0);
        std::fs::write(dir.join("wal-4"), b"records").unwrap();
        assert_eq!(sweep.sweep(), 1);
        assert_eq!(std::fs::read(dir.join("wal-1")).unwrap(), b"records");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            CacheSweep::new(&dir).sweep(),
            0,
            "a missing directory is no error"
        );
    }
}
