//! # delayguard-cluster
//!
//! The sharded multi-node front door's campaigns: N complete
//! `delayguard-server` stacks partitioned by table behind a router, with
//! the popularity aggregates that price `d(i)` replicated by a periodic
//! delta-sync protocol (`DELTA` / `DELTA_ACK`, protocol v2).
//!
//! The cluster itself is the N-node mode of the one simulated world,
//! [`delayguard_testkit::SimWorld`] (set [`delayguard_testkit::SimConfig`]'s
//! `nodes` and `sync_interval_secs`): one virtual clock, real wire codec
//! on every hop (client↔router and node↔node), seeded digest, gossip
//! cadence, cut/heal. Keys are owned round-robin by
//! [`delayguard_testkit::PartitionMap`] (`id mod N`), which models hash
//! partitioning: ownership is uncorrelated with popularity, so every
//! shard sees a proportional slice of the Zipf head and tail.
//!
//! * [`campaign::ClusterCampaign`] — the paper's §2.4 campaigns against
//!   the cluster, with closed-form expectations: replicated nodes
//!   converge to the single-node Eq. 3/Eq. 4 economics; un-replicated
//!   shards collapse the adversary total to ≈ 1/N of the closed form
//!   ([`delayguard_core::analysis::sharded_unreplicated_total`]).
//!
//! Replication safety rests on the core seams this crate composes: the
//! origin-tagged remote key space
//! ([`delayguard_core::replica::tag_remote_key`]), replace-if-newer
//! delta application (order-independent, bit-exact under decay), and
//! the gatekeeper's mergeable charge-log CRDTs.

#![forbid(unsafe_code)]

pub mod campaign;

pub use campaign::{ClusterCampaign, ClusterCampaignParams};
