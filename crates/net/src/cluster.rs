//! In-process cluster assembly: N nodes over one declustered file.
//!
//! A [`Cluster`] partitions the file's devices contiguously
//! ([`crate::partition`]), spawns one node thread per range (each with a
//! resident [`pmr_storage::exec::Executor`] over its subrange), and
//! wires a [`Frontend`] to them over the in-memory transport. Devices
//! are shared `Arc`s — the wire carries queries and yields, not pages —
//! so buddy failover works across node boundaries exactly as in a
//! single process, and a [`pmr_rt::fault::FaultPlan`] installed on the
//! file is honoured by every node.
//!
//! [`Cluster::kill_node`] turns a node into a crashed process mid-run:
//! it keeps consuming requests but never answers, so every query from
//! then on degrades that node's devices (until the frontend's circuit
//! breaker stops asking). With the `tcp` feature, `Cluster::new_tcp`
//! runs the same topology over loopback TCP sockets.

use crate::chaos::NetFaultPlan;
use crate::frontend::{Frontend, FrontendConfig};
use crate::{node, partition, transport};
use pmr_core::method::DistributionMethod;
use pmr_storage::cost::CostModel;
use pmr_storage::exec::Executor;
use pmr_storage::file::DeclusteredFile;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cluster topology and failure tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Node count; each owns a contiguous device range.
    pub nodes: usize,
    /// Frontend gather deadline / circuit-breaker settings.
    pub frontend: FrontendConfig,
    /// Optional seeded response-drop plan applied by every node.
    pub net_faults: Option<NetFaultPlan>,
}

impl Default for ClusterConfig {
    /// Four nodes, default frontend config, no net faults.
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            frontend: FrontendConfig::default(),
            net_faults: None,
        }
    }
}

/// A running in-process cluster: node threads plus their frontend.
///
/// Dropping the cluster shuts the nodes down and joins them.
pub struct Cluster<D> {
    frontend: Arc<Frontend<D>>,
    kills: Vec<Arc<AtomicBool>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<D: DistributionMethod + Clone + Send + Sync + 'static> Cluster<D> {
    /// Partitions `file`'s devices across `cfg.nodes` nodes and spawns
    /// them on the in-memory transport.
    ///
    /// # Panics
    ///
    /// When `cfg.nodes` is zero or exceeds the device count.
    pub fn new(file: &DeclusteredFile<D>, cost: CostModel, cfg: ClusterConfig) -> Cluster<D> {
        let sys = file.system().clone();
        let ranges = partition::contiguous(sys.devices(), cfg.nodes);
        let mut links = Vec::with_capacity(cfg.nodes);
        let mut kills = Vec::with_capacity(cfg.nodes);
        let mut handles = Vec::with_capacity(cfg.nodes);
        for (i, range) in ranges.into_iter().enumerate() {
            let (frontend_end, node_end) = transport::mem_pair();
            let exec = Executor::for_device_range(file, cost, range.clone());
            let kill = Arc::new(AtomicBool::new(false));
            handles.push(node::spawn(
                i as u32,
                sys.clone(),
                exec,
                node_end,
                Arc::clone(&kill),
                cfg.net_faults,
            ));
            kills.push(kill);
            links.push((frontend_end, range));
        }
        let method = Arc::new(file.method().clone());
        let frontend = Arc::new(Frontend::new(sys, method, cost, links, cfg.frontend));
        Cluster {
            frontend,
            kills,
            handles,
        }
    }

    /// Same topology over loopback TCP: each node accepts one connection
    /// on an ephemeral `127.0.0.1` port, and the frontend dials them.
    ///
    /// # Errors
    ///
    /// Any socket setup failure, as [`transport::TransportError`].
    #[cfg(feature = "tcp")]
    pub fn new_tcp(
        file: &DeclusteredFile<D>,
        cost: CostModel,
        cfg: ClusterConfig,
    ) -> Result<Cluster<D>, transport::TransportError> {
        let sys = file.system().clone();
        let ranges = partition::contiguous(sys.devices(), cfg.nodes);
        let mut links = Vec::with_capacity(cfg.nodes);
        let mut kills = Vec::with_capacity(cfg.nodes);
        let mut handles = Vec::with_capacity(cfg.nodes);
        for (i, range) in ranges.into_iter().enumerate() {
            let (listener, addr) = transport::tcp::listen()?;
            let exec = Executor::for_device_range(file, cost, range.clone());
            let kill = Arc::new(AtomicBool::new(false));
            let node_sys = sys.clone();
            let node_kill = Arc::clone(&kill);
            let faults = cfg.net_faults;
            let id = i as u32;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pmr-net-node-{id}"))
                    .spawn(move || {
                        if let Ok(duplex) = transport::tcp::accept(&listener) {
                            node::serve(id, node_sys, exec, duplex, node_kill, faults);
                        }
                    })
                    .expect("spawn node thread"),
            );
            kills.push(kill);
            links.push((transport::tcp::connect(addr)?, range));
        }
        let method = Arc::new(file.method().clone());
        let frontend = Arc::new(Frontend::new(sys, method, cost, links, cfg.frontend));
        Ok(Cluster {
            frontend,
            kills,
            handles,
        })
    }

    /// The shared frontend handle — clone it into as many caller threads
    /// as needed.
    pub fn frontend(&self) -> Arc<Frontend<D>> {
        Arc::clone(&self.frontend)
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.kills.len()
    }

    /// Simulates node `index` crashing: from now on it consumes requests
    /// without answering. The frontend degrades its devices per query
    /// and eventually circuit-breaks it.
    ///
    /// # Panics
    ///
    /// When `index` is out of range.
    pub fn kill_node(&self, index: usize) {
        self.kills[index].store(true, Ordering::Relaxed);
    }
}

impl<D> Drop for Cluster<D> {
    fn drop(&mut self) {
        self.frontend.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
