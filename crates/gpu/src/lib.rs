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
//! * a [`pcie::PcieBus`] that counts the `movein`/`moveout` transfers and
//!   prices each at a configurable DMA latency plus bytes over bandwidth,
//! * the [`pipeline`], which overlaps a task's transfers with the execution
//!   of its neighbours (Fig. 6) as arithmetic on a timeline of each link
//!   direction, driven by the accelerator worker's own thread. Its
//!   `execute` step calls [`saber_cpu::CpuExecutor::execute`], so one
//!   operator implementation serves both processors, as in the paper (§3),
//!   and the device is one more lane running it.
//!
//! The accelerator lane therefore differs from a CPU worker in what it pays
//! per task — the PCIe toll on every byte in and out, overlapped with
//! execution by the pipeline, in modeled time rather than host CPU — which
//! is the asymmetry the hybrid scheduling experiments need. It is not faster
//! per row than a CPU worker; its gain is one more lane of throughput.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod memory;
pub mod pcie;
pub mod pipeline;

pub use device::{DeviceConfig, GpuDevice, GpuStats};
pub use pcie::PcieBus;
pub use pipeline::{GpuPipeline, PipelineJob};
