//! What the router and a shard worker have in common as processes: bind
//! the ingress their configuration names, serve it to the end of the
//! stream on this thread or a background one, and publish a
//! [`ShardReportInfo`].

use mbta_net::{NetConfig, NetIngress, ShardReportInfo};
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Binds the endpoint a role's (validated) configuration names.
fn bind(net: Result<NetConfig, String>) -> Result<NetIngress, String> {
    let net = net?;
    let addr = net.addr.clone();
    NetIngress::bind(net).map_err(|e| format!("cannot bind {addr}: {e}"))
}

/// A router or worker running on a background thread.
pub struct Handle<S> {
    addr: SocketAddr,
    thread: JoinHandle<Result<S, String>>,
}

impl<S> Handle<S> {
    /// The bound ingress address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the process to drain its stream and finish.
    pub fn join(self) -> Result<S, String> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err("cluster process thread panicked".into()))
    }
}

/// Binds the ingress, then serves it on a background thread. Binding
/// happens before the thread starts so the caller has the ephemeral
/// address immediately — the in-process tests and benches wire topologies
/// together this way.
pub(crate) fn spawn<S: Send + 'static>(
    net: Result<NetConfig, String>,
    serve: impl FnOnce(NetIngress) -> Result<S, String> + Send + 'static,
) -> Result<Handle<S>, String> {
    let ingress = bind(net)?;
    let addr = ingress.local_addr();
    let thread = std::thread::spawn(move || serve(ingress));
    Ok(Handle { addr, thread })
}

/// Serves to completion on the calling thread, reporting the bound
/// address through `on_ready` first (the CLI prints it so shell scripts
/// can capture ephemeral ports).
pub(crate) fn run<S>(
    net: Result<NetConfig, String>,
    on_ready: impl FnOnce(SocketAddr),
    serve: impl FnOnce(NetIngress) -> Result<S, String>,
) -> Result<S, String> {
    let ingress = bind(net)?;
    on_ready(ingress.local_addr());
    serve(ingress)
}

/// The one place a [`ShardReportInfo`] is built. `parts` yields
/// `(decisions, assignments, total weight)` per constituent — a worker's
/// namespaces, the router's owners — and is summed. Everything in a
/// worker's report is live except `decisions`, which stays end-of-run: its
/// live parts pass 0.
pub(crate) fn shard_report(
    (shard, n_shards): (usize, usize),
    poisoned: bool,
    namespaces: usize,
    events: u64,
    foreign_events: u64,
    parts: impl Iterator<Item = (u64, u64, f64)>,
) -> ShardReportInfo {
    let (decisions, assignments, total_weight) = parts.fold((0, 0, 0.0), |acc, p| {
        (acc.0 + p.0, acc.1 + p.1, acc.2 + p.2)
    });
    ShardReportInfo {
        shard: shard as u32,
        n_shards: n_shards as u32,
        poisoned,
        namespaces: namespaces as u32,
        events,
        foreign_events,
        decisions,
        assignments,
        total_weight,
    }
}
