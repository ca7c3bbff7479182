//! # machine — noisy quantum-machine emulation
//!
//! Binds a [`device::Device`] noise model to the simulators and executes
//! timed circuits by Monte-Carlo trajectories. This crate plays the role
//! the IBMQ backends play in the ADAPT paper: the thing programs (and
//! decoy circuits, and DD sequences) actually run on.
//!
//! Execution routes through a simulator-routing layer ([`engine`]):
//! Clifford circuits under Pauli-expressible noise take the CHP
//! stabilizer fast path, everything else runs on the SoA dense
//! state-vector path. See [`noise`] for the idling-noise model —
//! coherent quasi-static + OU detuning with spectator crosstalk, a
//! Pauli-twirled T1/T2 floor, depolarizing gate errors and readout flips
//! — and [`executor`] for the trajectory executor.
//!
//! # Examples
//!
//! ```
//! use device::Device;
//! use machine::{ExecutionConfig, Machine};
//! use qcirc::Circuit;
//!
//! let machine = Machine::new(Device::ibmq_guadalupe(42));
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//! let counts = machine
//!     .execute(&c, &ExecutionConfig { shots: 256, trajectories: 8, seed: 0, threads: 1 })
//!     .unwrap();
//! assert_eq!(counts.total(), 256);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backend;
pub mod deadline;
pub mod engine;
pub mod executor;
pub mod fault;
mod fork;
mod metrics;
pub mod noise;
pub mod plan;
pub mod resilient;

pub use backend::{Anomaly, Backend, JobSpec, ShotBatch};
pub use deadline::{CancelToken, Deadline, WireDeadline};
pub use engine::{EnginePolicy, EngineStats, SimEngine};
pub use executor::{ExecError, ExecutionConfig, Machine, NoiseToggles};
pub use fault::{FaultCounts, FaultPlan, FaultProfile, FaultyBackend, JobFaults};
pub use plan::{routing_key, structural_hash, CompiledPlan, PlanCache, PlanCacheStats};
pub use resilient::{FaultStats, ResilientExecutor, RetryPolicy, RetryPolicyError};
