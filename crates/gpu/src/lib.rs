//! # saber-gpu
//!
//! A **simulated accelerator** standing in for the GPGPU of the SABER paper
//! (§5.2, §5.4).
//!
//! The paper runs OpenCL kernels on an NVIDIA Quadro K5200 attached over a
//! PCIe 3.0 ×16 bus. No such device is available here, so this crate models
//! what distinguishes the accelerator from a CPU worker — the cost of moving
//! a task's data to and from it — and runs the operators themselves with the
//! CPU's own function:
//!
//! * a [`memory::DeviceMemory`] ledger of the device's global memory, which
//!   refuses a task that does not fit,
//! * a [`pcie::PcieBus`] model that paces `movein`/`moveout` transfers by a
//!   configurable DMA latency and bandwidth,
//! * the five-stage [`pipeline`] (`copyin → movein → execute → moveout →
//!   copyout`) that overlaps data movement with execution (Fig. 6), one
//!   thread per stage; its `execute` stage calls
//!   [`saber_cpu::CpuExecutor::execute`], so one operator implementation
//!   serves both processors, as in the paper (§3), and the device is one
//!   more lane running it.
//!
//! The accelerator lane therefore differs from a CPU worker in what it pays
//! per task — the PCIe toll on every byte in and out, overlapped with
//! execution by the pipeline — which is the asymmetry the hybrid scheduling
//! experiments need. It is not faster per row than a CPU worker; its gain is
//! one more lane of throughput.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod memory;
pub mod pcie;
pub mod pipeline;

pub use device::{DeviceConfig, GpuDevice, GpuStats};
pub use pcie::PcieBus;
pub use pipeline::{GpuPipeline, PipelineJob, PipelineResult};
