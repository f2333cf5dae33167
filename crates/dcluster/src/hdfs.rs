//! Simulated distributed filesystem.
//!
//! MapReduce jobs communicate *between* jobs through HDFS: the output of
//! `meanJob` is read by every mapper of `YtXJob`, SSVD's huge N×k `Q`
//! matrix is written and re-read, and so on. This module is a byte-metered
//! namespace — artifacts are named, sized, and charged to the cluster's
//! disk model on `put`/`get`; payloads normally stay in the engine's
//! memory (this is a simulator, not a storage system), except for small
//! opaque blobs such as EM checkpoints, which are stored verbatim so a
//! restarted driver can actually read its state back.
//!
//! # Replication and crashes
//!
//! Every file carries a replica set: `dfs_replication` distinct nodes
//! chosen by hashing the file name (a pure placement function, so replica
//! sets are identical across runs). [`Dfs::on_node_crash`] removes the
//! crashed node's replicas; under-replicated files are copied back to
//! full strength (charged as network + disk traffic), and a file whose
//! *last* replica lived on the crashed node is lost — subsequent reads
//! return [`ClusterError::BlockLost`] instead of data.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::cluster::{ClusterError, Load, Meter, SimCluster};
use crate::faults::{mix, RecoveryEvent};

/// One named file: its size, an optional verbatim payload, and the nodes
/// currently holding a replica.
#[derive(Debug, Clone)]
struct DfsFile {
    bytes: u64,
    blob: Option<Arc<Vec<u8>>>,
    replicas: Vec<usize>,
}

/// Named byte-size ledger over the simulated DFS.
#[derive(Debug, Default)]
pub struct Dfs {
    // BTreeMap so crash-recovery iterates files in a deterministic order.
    files: Mutex<BTreeMap<String, DfsFile>>,
    // Job ids that currently own a namespace (see [`Dfs::register_job`]).
    jobs: Mutex<BTreeSet<String>>,
}

/// Prefixes `name` with a job-scoped namespace: `jobs/<job>/<name>`.
/// Two tenants writing the same logical file (say, an EM checkpoint)
/// land on distinct DFS paths iff their fits carry distinct job ids.
pub fn job_scoped(job: &str, name: &str) -> String {
    format!("jobs/{job}/{name}")
}

/// The replica set for `name`: `factor` distinct nodes starting from a
/// hash of the file name.
fn placement(name: &str, nodes: usize, factor: usize) -> Vec<usize> {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| mix(acc ^ b as u64));
    let first = (h as usize) % nodes.max(1);
    (0..factor.min(nodes.max(1))).map(|k| (first + k) % nodes.max(1)).collect()
}

impl Dfs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Dfs::default()
    }

    fn files(&self) -> MutexGuard<'_, BTreeMap<String, DfsFile>> {
        // The ledger is plain data; ignore poisoning.
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn insert(&self, cluster: &SimCluster, name: String, bytes: u64, blob: Option<Arc<Vec<u8>>>) {
        let cfg = cluster.config();
        let replicas = placement(&name, cfg.nodes, cfg.dfs_replication);
        self.files().insert(name, DfsFile { bytes, blob, replicas });
    }

    /// Records a file of `bytes` and charges the write to the cluster.
    /// Overwrites any previous file of the same name.
    ///
    /// Only the primary copy's bytes are charged — pipelined replication
    /// overlaps the write in real HDFS, and charging it here would skew
    /// every fault-free byte ledger. Post-crash *re*-replication traffic,
    /// which is not overlapped with anything, is charged in
    /// [`Dfs::on_node_crash`].
    pub fn put(&self, cluster: &SimCluster, name: impl Into<String>, bytes: u64) {
        let name = name.into();
        cluster.charge(Meter::DfsWrite, Load::Even(bytes), "dfs-write");
        if obs::enabled() {
            cluster.trace_instant("dfs", &format!("dfs.put {name} [{bytes} B]"));
        }
        self.insert(cluster, name, bytes, None);
    }

    /// Records a file with a verbatim payload (checkpoints): charged like
    /// [`Dfs::put`], and [`Dfs::get_blob`] returns the bytes themselves.
    pub fn put_blob(&self, cluster: &SimCluster, name: impl Into<String>, payload: Vec<u8>) {
        let name = name.into();
        let bytes = payload.len() as u64;
        cluster.charge(Meter::DfsWrite, Load::Even(bytes), "dfs-write");
        if obs::enabled() {
            cluster.trace_instant("dfs", &format!("dfs.put {name} [{bytes} B]"));
        }
        self.insert(cluster, name, bytes, Some(Arc::new(payload)));
    }

    /// Seeds a file without charging any I/O — for pre-loaded input data
    /// that exists before the simulation starts (the paper's datasets are
    /// already in HDFS when a job begins).
    pub fn seed(&self, cluster: &SimCluster, name: impl Into<String>, bytes: u64) {
        self.insert(cluster, name.into(), bytes, None);
    }

    /// Charges a full read of the named file and returns its size.
    /// A file that never existed is [`ClusterError::NoSuchFile`]; one whose
    /// last replica died with a crashed node is [`ClusterError::BlockLost`].
    pub fn get(&self, cluster: &SimCluster, name: &str) -> Result<u64, ClusterError> {
        let bytes = match self.files().get(name) {
            Some(f) if f.replicas.is_empty() => {
                return Err(ClusterError::BlockLost { name: name.to_string() })
            }
            Some(f) => f.bytes,
            None => return Err(ClusterError::NoSuchFile { name: name.to_string() }),
        };
        cluster.charge(Meter::DfsRead, Load::Even(bytes), "dfs-read");
        if obs::enabled() {
            cluster.trace_instant("dfs", &format!("dfs.get {name} [{bytes} B]"));
        }
        Ok(bytes)
    }

    /// Charges a full read and returns the stored payload. Errors like
    /// [`Dfs::get`]; a size-only file (no payload) is `NoSuchFile` too.
    pub fn get_blob(&self, cluster: &SimCluster, name: &str) -> Result<Arc<Vec<u8>>, ClusterError> {
        let (bytes, blob) = match self.files().get(name) {
            Some(f) if f.replicas.is_empty() => {
                return Err(ClusterError::BlockLost { name: name.to_string() })
            }
            Some(f) => match &f.blob {
                Some(b) => (f.bytes, Arc::clone(b)),
                None => return Err(ClusterError::NoSuchFile { name: name.to_string() }),
            },
            None => return Err(ClusterError::NoSuchFile { name: name.to_string() }),
        };
        cluster.charge(Meter::DfsRead, Load::Even(bytes), "dfs-read");
        if obs::enabled() {
            cluster.trace_instant("dfs", &format!("dfs.get {name} [{bytes} B]"));
        }
        Ok(blob)
    }

    /// Size of the named file without charging a read. Lost files report
    /// `None` like missing ones.
    pub fn stat(&self, name: &str) -> Option<u64> {
        self.files().get(name).filter(|f| !f.replicas.is_empty()).map(|f| f.bytes)
    }

    /// Nodes holding a replica of the named file (tests/reporting).
    pub fn replicas(&self, name: &str) -> Option<Vec<usize>> {
        self.files().get(name).map(|f| f.replicas.clone())
    }

    /// Total bytes currently stored (lost files excluded).
    pub fn total_bytes(&self) -> u64 {
        self.files().values().filter(|f| !f.replicas.is_empty()).map(|f| f.bytes).sum()
    }

    /// Number of stored files (lost files excluded).
    pub fn file_count(&self) -> usize {
        self.files().values().filter(|f| !f.replicas.is_empty()).count()
    }

    /// Removes a file, returning its size if it existed.
    pub fn delete(&self, name: &str) -> Option<u64> {
        self.files().remove(name).map(|f| f.bytes)
    }

    /// Claims the `jobs/<job>/` namespace for a running job. A second
    /// registration of the same id — tenant A and tenant B picking the
    /// same job name, or one tenant double-submitting — is rejected with
    /// [`ClusterError::DuplicateJob`] *before* either job writes a byte,
    /// so checkpoints can never silently overwrite each other.
    pub fn register_job(&self, job: &str) -> Result<(), ClusterError> {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if !jobs.insert(job.to_string()) {
            return Err(ClusterError::DuplicateJob { job: job.to_string() });
        }
        Ok(())
    }

    /// Releases a job id claimed by [`Dfs::register_job`] and deletes
    /// every file under its `jobs/<job>/` namespace, returning the bytes
    /// reclaimed. Releasing an unregistered id is a no-op.
    pub fn release_job(&self, job: &str) -> u64 {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if !jobs.remove(job) {
            return 0;
        }
        drop(jobs);
        let prefix = format!("jobs/{job}/");
        let mut files = self.files();
        let doomed: Vec<String> =
            files.keys().filter(|k| k.starts_with(&prefix)).cloned().collect();
        let mut reclaimed = 0u64;
        for name in doomed {
            if let Some(f) = files.remove(&name) {
                reclaimed += f.bytes;
            }
        }
        reclaimed
    }

    /// Job ids currently registered, in sorted order.
    pub fn registered_jobs(&self) -> Vec<String> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    /// Drops every replica stored on `node`. Files still holding another
    /// replica are re-replicated back to their configured factor (charged
    /// as network + disk traffic and returned as `replication_bytes`);
    /// files that lost their last replica become permanently lost. Events
    /// are emitted in file-name order — deterministic across runs.
    pub fn on_node_crash(
        &self,
        cluster: &SimCluster,
        node: usize,
    ) -> (Vec<RecoveryEvent>, u64) {
        let nodes = cluster.config().nodes;
        let factor = cluster.config().dfs_replication.min(nodes);
        let mut re_replicated: Vec<(String, u64)> = Vec::new();
        let mut lost: Vec<String> = Vec::new();
        {
            let mut files = self.files();
            for (name, f) in files.iter_mut() {
                let Some(pos) = f.replicas.iter().position(|&n| n == node) else { continue };
                f.replicas.remove(pos);
                if f.replicas.is_empty() {
                    f.blob = None;
                    lost.push(name.clone());
                    continue;
                }
                // Copy the block to the first node (scanning past the
                // crashed one) that doesn't already hold it. The crashed
                // node rejoins blank, so it is a valid last-resort target.
                while f.replicas.len() < factor {
                    let target = (0..nodes)
                        .map(|k| (node + 1 + k) % nodes)
                        .find(|t| !f.replicas.contains(t));
                    match target {
                        Some(t) => f.replicas.push(t),
                        None => break,
                    }
                }
                re_replicated.push((name.clone(), f.bytes));
            }
        }
        // Charge after releasing the file lock (metrics lock inside).
        let mut events = Vec::new();
        let mut replication_bytes = 0u64;
        for (name, bytes) in re_replicated {
            cluster.charge(Meter::Network, Load::Even(bytes), "re-replicate");
            cluster.charge(Meter::DfsWrite, Load::Even(bytes), "re-replicate");
            replication_bytes += bytes;
            events.push(RecoveryEvent::BlockReReplicated { file: name });
        }
        for name in lost {
            events.push(RecoveryEvent::BlockLost { file: name });
        }
        (events, replication_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    #[test]
    fn put_get_roundtrip_charges_io() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        dfs.put(&c, "Q-matrix", 1_000_000);
        assert_eq!(dfs.get(&c, "Q-matrix").unwrap(), 1_000_000);
        let m = c.metrics();
        assert_eq!(m.dfs_bytes_written, 1_000_000);
        assert_eq!(m.dfs_bytes_read, 1_000_000);
        assert!(m.virtual_time_secs > 0.0);
    }

    #[test]
    fn overwrite_replaces_size() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        dfs.put(&c, "f", 100);
        dfs.put(&c, "f", 250);
        assert_eq!(dfs.stat("f"), Some(250));
        assert_eq!(dfs.total_bytes(), 250);
        assert_eq!(dfs.file_count(), 1);
    }

    #[test]
    fn missing_file_is_an_observable_error() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        assert_eq!(
            dfs.get(&c, "ghost"),
            Err(ClusterError::NoSuchFile { name: "ghost".into() })
        );
        assert_eq!(c.metrics().dfs_bytes_read, 0, "a failed read charges nothing");
    }

    #[test]
    fn delete_removes() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        dfs.put(&c, "tmp", 10);
        assert_eq!(dfs.delete("tmp"), Some(10));
        assert_eq!(dfs.delete("tmp"), None);
        assert_eq!(dfs.stat("tmp"), None);
    }

    #[test]
    fn seed_is_uncharged() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        dfs.seed(&c, "input/Y", 5_000);
        assert_eq!(dfs.stat("input/Y"), Some(5_000));
        let m = c.metrics();
        assert_eq!(m.dfs_bytes_written, 0);
        assert_eq!(m.virtual_time_secs, 0.0);
    }

    #[test]
    fn blob_roundtrip_preserves_payload() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        dfs.put_blob(&c, "ckpt", vec![1, 2, 3, 4]);
        assert_eq!(*dfs.get_blob(&c, "ckpt").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(dfs.stat("ckpt"), Some(4));
        // A size-only file has no payload to return.
        dfs.put(&c, "sizes-only", 10);
        assert!(matches!(
            dfs.get_blob(&c, "sizes-only"),
            Err(ClusterError::NoSuchFile { .. })
        ));
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let a = placement("some/file", 8, 3);
        assert_eq!(a, placement("some/file", 8, 3));
        assert_eq!(a.len(), 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas must land on distinct nodes");
        // Factor capped at the node count.
        assert_eq!(placement("f", 2, 3).len(), 2);
    }

    #[test]
    fn crash_re_replicates_or_loses() {
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_dfs_replication(2));
        let dfs = Dfs::new();
        dfs.put(&c, "safe", 1_000);
        let replicas = dfs.replicas("safe").unwrap();
        let written_before = c.metrics().dfs_bytes_written;

        // Crash a node holding one of the two replicas: the file survives
        // and is copied back to factor 2, charged as recovery traffic.
        let (events, bytes) = dfs.on_node_crash(&c, replicas[0]);
        assert_eq!(events, vec![RecoveryEvent::BlockReReplicated { file: "safe".into() }]);
        assert_eq!(bytes, 1_000);
        assert_eq!(dfs.replicas("safe").unwrap().len(), 2);
        assert!(dfs.get(&c, "safe").is_ok());
        assert_eq!(c.metrics().dfs_bytes_written, written_before + 1_000);

        // With factor 1, losing the only replica loses the file.
        let c1 = SimCluster::new(ClusterConfig::paper_cluster().with_dfs_replication(1));
        let dfs1 = Dfs::new();
        dfs1.put(&c1, "fragile", 500);
        let only = dfs1.replicas("fragile").unwrap()[0];
        let (events, bytes) = dfs1.on_node_crash(&c1, only);
        assert_eq!(events, vec![RecoveryEvent::BlockLost { file: "fragile".into() }]);
        assert_eq!(bytes, 0);
        assert_eq!(
            dfs1.get(&c1, "fragile"),
            Err(ClusterError::BlockLost { name: "fragile".into() })
        );
        assert_eq!(dfs1.stat("fragile"), None);
    }

    #[test]
    fn job_scoped_names_never_collide_across_jobs() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        let a = job_scoped("tenantA-fit0", "_checkpoints/em-state");
        let b = job_scoped("tenantB-fit0", "_checkpoints/em-state");
        assert_ne!(a, b, "same logical file, different jobs, different paths");
        dfs.put_blob(&c, &a, vec![0xAA]);
        dfs.put_blob(&c, &b, vec![0xBB]);
        assert_eq!(*dfs.get_blob(&c, &a).unwrap(), vec![0xAA]);
        assert_eq!(*dfs.get_blob(&c, &b).unwrap(), vec![0xBB]);
    }

    #[test]
    fn duplicate_job_ids_are_rejected() {
        let dfs = Dfs::new();
        assert!(dfs.register_job("tenantA-fit0").is_ok());
        assert_eq!(
            dfs.register_job("tenantA-fit0"),
            Err(ClusterError::DuplicateJob { job: "tenantA-fit0".into() })
        );
        // A different id is fine, and releasing frees the name for reuse.
        assert!(dfs.register_job("tenantA-fit1").is_ok());
        dfs.release_job("tenantA-fit0");
        assert!(dfs.register_job("tenantA-fit0").is_ok());
        assert_eq!(dfs.registered_jobs(), ["tenantA-fit0", "tenantA-fit1"]);
    }

    #[test]
    fn release_job_reclaims_its_namespace_only() {
        let c = SimCluster::new(ClusterConfig::paper_cluster());
        let dfs = Dfs::new();
        dfs.register_job("j1").unwrap();
        dfs.register_job("j2").unwrap();
        dfs.put(&c, job_scoped("j1", "ckpt"), 100);
        dfs.put(&c, job_scoped("j1", "out"), 50);
        dfs.put(&c, job_scoped("j2", "ckpt"), 70);
        dfs.put(&c, "shared/input", 999);
        assert_eq!(dfs.release_job("j1"), 150);
        assert_eq!(dfs.stat(&job_scoped("j1", "ckpt")), None);
        assert_eq!(dfs.stat(&job_scoped("j2", "ckpt")), Some(70));
        assert_eq!(dfs.stat("shared/input"), Some(999));
        assert_eq!(dfs.release_job("never-registered"), 0);
    }

    #[test]
    fn crash_of_uninvolved_node_is_a_noop() {
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_dfs_replication(2));
        let dfs = Dfs::new();
        dfs.put(&c, "f", 100);
        let holders = dfs.replicas("f").unwrap();
        let outsider = (0..8).find(|n| !holders.contains(n)).unwrap();
        let (events, bytes) = dfs.on_node_crash(&c, outsider);
        assert!(events.is_empty());
        assert_eq!(bytes, 0);
        assert_eq!(dfs.replicas("f").unwrap(), holders);
    }
}
