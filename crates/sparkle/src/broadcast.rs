//! Broadcast variables.
//!
//! Spark ships read-only values (the paper's in-memory `CM` matrix,
//! Section 3.3) to every executor once per broadcast; workers then read
//! their local copy. The simulated equivalent charges the network one copy
//! per node at creation and hands out cheap `Arc` clones thereafter.

use std::ops::Deref;
use std::sync::Arc;

use dcluster::{Load, Meter, SimCluster};
use linalg::Wire;

/// A value broadcast to every node of the cluster.
#[derive(Debug, Clone)]
pub struct Broadcast<T> {
    value: Arc<T>,
    bytes: u64,
}

impl<T: Wire> Broadcast<T> {
    /// Ships `value` to every node, charging the transfer to the cluster's
    /// intermediate-data meters at its encoded size.
    pub fn new(cluster: &SimCluster, value: T) -> Self {
        let bytes = value.encoded_size();
        cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
        if obs::enabled() {
            cluster.registry().counter("sparkle.broadcast_bytes").add(bytes);
        }
        Broadcast { value: Arc::new(value), bytes }
    }

    /// Payload size of one copy, in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

impl<T> Deref for Broadcast<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster::ClusterConfig;

    #[test]
    fn creation_charges_one_copy_per_node() {
        let cluster = SimCluster::new(ClusterConfig::paper_cluster()); // 8 nodes
        // Encoded payload: 1-byte varint length + 100 raw f64s.
        let b = Broadcast::new(&cluster, vec![0.0_f64; 100]);
        assert_eq!(b.size_bytes(), 801);
        assert_eq!(cluster.metrics().network_bytes, 801 * 8);
        assert_eq!(b.len(), 100, "deref reaches the payload");
    }

    #[test]
    fn clones_are_free() {
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let b = Broadcast::new(&cluster, vec![1.0_f64; 10]);
        let before = cluster.metrics().network_bytes;
        let c = b.clone();
        assert_eq!(cluster.metrics().network_bytes, before, "clone must not re-ship");
        assert_eq!(*c, *b);
    }
}
