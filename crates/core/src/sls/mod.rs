//! Self-learning local supervision (sls) training — the paper's
//! contribution.
//!
//! The sls models are the same [`crate::Rbm`] as their baselines; what
//! changes is the *objective* (Eq. 16):
//!
//! ```text
//! F(θ) = -(η/N) Σ log p(v; θ) + (1-η) [ L_data(θ) + L_recon(θ) ]
//! ```
//!
//! where `L_data` (Eq. 14) penalises the spread of hidden features within
//! each local credible cluster and rewards the spread between cluster
//! centres, and `L_recon` (Eq. 15) applies the same pressure to the hidden
//! features of the *reconstructed* visible layer. [`gradient`] implements
//! the analytic gradients of `L_data` / `L_recon` (Eqs. 27–32). Combining
//! them with the CD term into the parameter updates (Eqs. 33–35) is the
//! guided branch of the crate's one mini-batch update, `cd::minibatch_step`,
//! which [`crate::CdTrainer`] runs over in-memory data and
//! [`crate::StreamTrainer`] chunk by chunk.
//!
//! ## A note on the sign of the supervision term
//!
//! Eq. 33 of the paper writes the supervision contribution with a `+` sign,
//! i.e. gradient *ascent* on `L_data + L_recon`. Taken literally this would
//! spread the members of a local cluster apart and pull different cluster
//! centres together — the opposite of the constrict/disperse behaviour the
//! paper describes and observes. We therefore apply gradient **descent** on
//! `L_data + L_recon` (equivalently, we read Eq. 33's braces as the negative
//! gradient), which realises the stated goal. This is the only place where
//! the implementation deviates from the paper's literal equations; it is
//! called out in DESIGN.md and EXPERIMENTS.md.

mod config;
mod gradient;
// Tests only: slsRBM / slsGRBM trained through `CdTrainer`.
mod models;
mod trainer;

pub use config::SlsConfig;

pub(crate) use gradient::sls_batch_gradients;
pub(crate) use trainer::clusters_in_batch;
