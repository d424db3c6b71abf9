//! Every algorithm evaluated in the paper. Each adaptive policy is a
//! factory of the stepper in the last column, which makes all its decisions.
//!
//! | Policy | Setting | Paper section | Stepper |
//! |--------|---------|---------------|---------|
//! | [`Adg`] | adaptive, oracle model | §III-B (Algorithm 2) | [`AdgStepper`] |
//! | [`Addatp`] | adaptive, noise model, additive error | §III-C (Algorithm 3) | [`AddatpStepper`] |
//! | [`Hatp`] | adaptive, noise model, hybrid error | §IV (Algorithm 4) | [`HatpStepper`] |
//! | [`Hntp`] | nonadaptive HATP | §VI-A | — |
//! | [`Nsg`] | nonadaptive simple greedy \[26\] | §VI-A | — |
//! | [`Ndg`] | nonadaptive double greedy \[26\] | §VI-A | — |
//! | [`Ars`] / [`Rs`] | (adaptive) random set \[10\] | §VI-A | [`ArsStepper`] (ARS) |
//! | [`Baseline`] / [`DeployAll`] | deploy the whole target set (nonadaptive / adaptive) | §VI-B | [`DeployAllStepper`] (DeployAll) |
//! | [`ThresholdBatch`] | adaptive, low-adaptivity batch rounds | beyond the paper (arXiv:1910.13073-style) | [`ThresholdBatchStepper`] |

mod addatp;
mod adg;
mod ars;
mod baseline;
mod hatp;
mod hntp;
mod ndg;
mod nsg;
mod threshold_batch;

pub use addatp::{Addatp, AddatpStepper};
pub use adg::{Adg, AdgStepper};
pub use ars::{Ars, ArsStepper, Rs};
pub use baseline::{Baseline, DeployAll, DeployAllStepper};
pub use hatp::{Hatp, HatpStepper};
pub use hntp::Hntp;
pub use ndg::Ndg;
pub use nsg::Nsg;
pub use threshold_batch::{ThresholdBatch, ThresholdBatchStepper};
