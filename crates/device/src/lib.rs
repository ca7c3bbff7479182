//! # device — NISQ machine models
//!
//! Topologies, calibration snapshots, crosstalk couplings and calibration
//! drift for the IBMQ machines used in the ADAPT paper (Rome, London,
//! Guadalupe, Paris, Toronto), plus synthetic comparators (all-to-all).
//!
//! The hardware substitution is documented in `DESIGN.md`: error-rate and
//! latency *heterogeneity*, spectator crosstalk from active CNOT links, and
//! drift between calibration cycles are the device properties ADAPT
//! exploits, and all three are modeled here from seeded draws around
//! published machine profiles (Table 3 of the paper).
//!
//! # Examples
//!
//! ```
//! use device::Device;
//!
//! let dev = Device::ibmq_toronto(42);
//! // 700 qubit-link spectator combinations, as in §3.3 of the paper.
//! assert_eq!(dev.topology().qubit_link_combinations().len(), 700);
//!
//! // Crosstalk couplings drift between calibration cycles.
//! let next = dev.at_calibration_cycle(1);
//! assert_ne!(dev.calibration(), next.calibration());
//! ```

#![warn(missing_docs)]

pub mod calibration;
#[allow(clippy::module_inception)]
pub mod device;
pub mod hash;
pub mod seeds;
pub mod topology;

pub use calibration::{Calibration, LinkCalibration, MachineProfile, QubitCalibration};
pub use device::Device;
pub use seeds::SeedSpawner;
pub use topology::{LinkId, Topology};
