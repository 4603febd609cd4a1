//! A hot-path module denies panicking constructs; a proven site carries an
//! `#[expect]`, which fails the build once it covers nothing.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

#[expect(clippy::indexing_slicing, reason = "callers pass a non-empty slice")]
pub fn proven(values: &[f64]) -> f64 {
    values[0]
}

#[expect(clippy::indexing_slicing, reason = "no longer indexes")]
pub fn stale(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn first(values: &[f64]) -> f64 {
    *values.first().unwrap()
}

pub fn last(values: &[f64]) -> f64 {
    *values.last().expect("non-empty")
}

pub fn at(values: &[f64], i: usize) -> f64 {
    values[i]
}

pub fn rest(values: &[f64]) -> &[f64] {
    &values[1..]
}

pub fn macros(op: u8) -> u8 {
    match op {
        0 => panic!("bad op"),
        1 => unreachable!(),
        2 => todo!(),
        _ => unimplemented!(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_and_index() {
        let v = [1.0, 2.0];
        assert_eq!(v.first().unwrap() + v[1], 3.0);
    }
}
