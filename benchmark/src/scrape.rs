//! Reads the Prometheus text the server's `Metrics` frame returns: the same
//! instruments `/metrics` serves, taken from outside the process boundary.

use crate::trace::StageHist;
use saber::engine::STAGE_NAMES;

/// One sample line: `(family, labels, value)`.
type Sample = (String, Vec<(String, String)>, f64);

pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                // `+Inf` bucket lines carry counts; their value still parses.
                let value: f64 = value.parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    None => (series, Vec::new()),
                    Some((name, rest)) => {
                        let labels = rest
                            .trim_end_matches('}')
                            .split("\",")
                            .filter_map(|kv| {
                                let (k, v) = kv.split_once("=\"")?;
                                Some((k.to_string(), v.trim_end_matches('"').to_string()))
                            })
                            .collect();
                        (name, labels)
                    }
                };
                Some((name.to_string(), labels, value))
            })
            .collect();
        Scrape { samples }
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |(n, ls, _)| {
            n == name
                && labels
                    .iter()
                    .all(|(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }

    /// Sum of every sample of `name` whose labels include `labels`.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.matching(name, labels).map(|(_, _, v)| v).sum()
    }

    /// Per-bucket counts `(le seconds, count)` of one histogram series,
    /// de-accumulated, without the `+Inf` bucket.
    fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Vec<(f64, u64)> {
        let bucket = format!("{name}_bucket");
        let mut cumulative: Vec<(f64, u64)> = self
            .matching(&bucket, labels)
            .filter_map(|(_, ls, v)| {
                let le: f64 = ls.iter().find(|(k, _)| k == "le")?.1.parse().ok()?;
                le.is_finite().then_some((le, *v as u64))
            })
            .collect();
        cumulative.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut previous = 0;
        cumulative
            .into_iter()
            .map(|(le, c)| {
                let count = c.saturating_sub(previous);
                previous = c;
                (le, count)
            })
            .collect()
    }

    /// Stage histograms of `query` in `STAGE_NAMES` order.
    pub fn stages(&self, query: &str) -> Vec<Vec<(f64, u64)>> {
        STAGE_NAMES
            .iter()
            .map(|stage| {
                self.hist(
                    "saber_query_stage_latency_seconds",
                    &[("query", query), ("stage", stage)],
                )
            })
            .collect()
    }
}

/// What each scraped stage histogram gained between two scrapes.
pub fn stage_delta(before: &[Vec<(f64, u64)>], after: &[Vec<(f64, u64)>]) -> Vec<StageHist> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| {
            StageHist(
                a.iter()
                    .map(|&(le, count)| {
                        let earlier = b.iter().find(|(l, _)| *l == le).map_or(0, |(_, c)| *c);
                        (le, count.saturating_sub(earlier))
                    })
                    .filter(|(_, count)| *count > 0)
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber::obs::{Histogram, PromWriter};

    fn exposition(h: &Histogram) -> String {
        let mut out = String::new();
        let mut w = PromWriter::new(&mut out);
        w.counter("saber_net_bytes_read_total", "bytes", &[], 4096.0);
        w.counter(
            "saber_query_tasks_created_total",
            "t",
            &[("query", "0")],
            7.0,
        );
        w.counter(
            "saber_query_tasks_created_total",
            "t",
            &[("query", "1")],
            5.0,
        );
        w.histogram(
            "saber_query_stage_latency_seconds",
            "stage",
            &[("query", "0"), ("stage", "total")],
            &h.snapshot(),
            1e9,
        );
        out
    }

    #[test]
    fn counters_and_stage_histograms_come_back_out_of_the_writers_text() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(2_000_000);
        }
        let first = Scrape::parse(&exposition(&h));
        assert_eq!(first.sum("saber_net_bytes_read_total", &[]), 4096.0);
        assert_eq!(first.sum("saber_query_tasks_created_total", &[]), 12.0);
        assert_eq!(
            first.sum("saber_query_tasks_created_total", &[("query", "1")]),
            5.0
        );
        for _ in 0..20 {
            h.record(16_000_000);
        }
        let second = Scrape::parse(&exposition(&h));
        let delta = stage_delta(&first.stages("0"), &second.stages("0"));
        let total = delta.last().unwrap();
        assert_eq!(total.0.iter().map(|(_, c)| c).sum::<u64>(), 20);
        let p50 = total.quantile(0.5);
        assert!((0.016..0.0172).contains(&p50), "{p50}");
        // Stages the text does not carry stay empty.
        assert!(delta[0].0.is_empty());
    }
}
