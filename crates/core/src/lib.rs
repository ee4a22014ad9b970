//! # un-core — the local orchestrator (the paper's compute node)
//!
//! This crate assembles the whole compute node of Figure 1:
//!
//! ```text
//!                   Local Orchestrator  ←  NF-FG (REST / API)
//!        ┌─────────────┬────────────────┬──────────────┐
//!   VNF repository   VNF scheduler   Traffic steering   Resource mgr
//!   (resolver)       (NNF vs VNF)    (LSI-0 + LSIs)    (admission)
//!        └─────────────┴───────┬────────┴──────────────┘
//!                       Compute manager
//!        VM drv │ Docker drv │ DPDK drv │ **Native drv**
//! ```
//!
//! * [`repository`] — NF templates with their per-technology flavors
//!   (VM image / Docker image / DPDK process / native), plus the node
//!   provisioning helpers that load the standard images.
//! * [`placement`] — the paper's placement policy: prefer an NNF when
//!   the node offers one and it is free / multi-instance / sharable;
//!   fall back to Docker, then VM; honor explicit flavor hints.
//! * [`node`] — [`node::UniversalNode`]: the CPE kernel (`un-linux`),
//!   the compute manager, LSI-0 and per-graph LSIs, virtual links, NF-FG
//!   deploy / update / undeploy, the synchronous packet fabric, resource
//!   admission, and the Figure 1 architecture description.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod node;
pub mod placement;
pub mod repository;

pub use node::{
    graph_cookie, record_drop, rule_cookie, DeployError, DeployReport, Name, NodeDescription,
    NodeIo, PortId, UniversalNode,
};
pub use placement::{decide, Decision};
pub use repository::{NfTemplate, VnfRepository};
