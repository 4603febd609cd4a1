//! A harness drives the engine from outside it and allows itself bare
//! threads. Modules without the hot-path deny may unwrap.

#![allow(clippy::disallowed_methods, reason = "load threads")]

pub fn load() {
    std::thread::spawn(|| {}).join().unwrap();
}
