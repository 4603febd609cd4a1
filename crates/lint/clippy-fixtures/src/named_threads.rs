//! Named threads: `disallowed_methods` bans `std::thread::{spawn, scope}`
//! outside test code and the harnesses.

use std::thread::{self, Builder, JoinHandle};

pub fn start() -> std::io::Result<JoinHandle<()>> {
    Builder::new().name("saber-x".into()).spawn(|| {})
}

pub fn run(work: &[u64]) {
    thread::scope(|s| {
        s.spawn(|| work.len());
    });
    thread::spawn(|| {});
}

#[cfg(test)]
mod tests {
    #[test]
    fn forks_in_a_test() {
        std::thread::scope(|s| {
            s.spawn(|| {});
        });
        std::thread::spawn(|| {}).join().unwrap();
    }
}
