//! # saber-gpu
//!
//! A **simulated many-core accelerator** standing in for the GPGPU of the
//! SABER paper (§5.2, §5.4).
//!
//! The paper runs OpenCL kernels on an NVIDIA Quadro K5200 attached over a
//! PCIe 3.0 ×16 bus. No such device is available here, so this crate builds
//! the closest synthetic equivalent that exercises the same code paths:
//!
//! * a [`device::DeviceConfig`] describing the accelerator (its streaming
//!   multiprocessors as an executor thread pool, its memory, its bus),
//! * explicit [`memory`] regions (pinned host memory and device global
//!   memory) through which every task's data must move,
//! * a [`pcie::PcieBus`] model that paces `movein`/`moveout` transfers by a
//!   configurable DMA latency and bandwidth,
//! * data-parallel [`kernels`]: a task's rows split into work groups, each
//!   running the CPU's own operator function (`saber_cpu`) on its range —
//!   one operator implementation for both processors, as in the paper (§3),
//!   so the device models data movement and parallelism, not semantics,
//! * the five-stage [`pipeline`] (`copyin → movein → execute → moveout →
//!   copyout`) that overlaps data movement with kernel execution (Fig. 6),
//! * and an analytical [`costmodel`] of the paper-scale device used for
//!   reporting modeled timings next to measured ones.
//!
//! The accelerator's performance asymmetry relative to the CPU workers —
//! faster for compute-heavy kernels because a task is parallelised across the
//! device's work groups, slower for simple memory-bound kernels because every
//! byte pays the PCIe toll — therefore emerges from the same mechanisms as in
//! the paper, which is what the hybrid scheduling experiments need.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod costmodel;
pub mod device;
pub mod kernels;
pub mod memory;
pub mod pcie;
pub mod pipeline;

pub use device::{DeviceConfig, GpuDevice, GpuStats};
pub use pcie::PcieBus;
pub use pipeline::{GpuPipeline, PipelineJob, PipelineResult};
