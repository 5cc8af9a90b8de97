//! Ground-truth evaluation for the MinoanER reproduction.
//!
//! * [`metrics`] — static quality: blocking PC/PQ/RR and matching
//!   precision/recall/F1 against a [`minoan_datagen::GroundTruth`].
//! * [`progressive`] — progressive quality from a resolution [`Trace`]:
//!   recall@budget curves, their normalised AUC, and the paper's three
//!   data-quality dimensions over consumed budget (attribute completeness,
//!   entity coverage, relationship completeness).
//! * [`report`] — plain-text tables and series used by the experiment
//!   harness (`minoan-bench`) to print paper-style outputs.
//!
//! [`Trace`]: minoan_er::Trace

pub mod bootstrap;
pub mod cluster_metrics;
pub mod metrics;
pub mod plot;
pub mod progressive;
pub mod report;

pub use bootstrap::{bootstrap_interval, mean_interval, proportion_interval, Interval};
pub use cluster_metrics::{cluster_quality, ClusterQuality, Prf};
pub use metrics::{BlockingQuality, MatchQuality};
pub use plot::{plot_recall_curves, render_plot, Series};
pub use progressive::{progressive_curves, recall_auc, CurvePoint};
pub use report::Table;
