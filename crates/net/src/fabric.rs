//! NEXTGenIO-shaped fabric topology.
//!
//! The research system the paper benchmarks on has dual-socket nodes, one
//! OmniPath adapter per socket (12.5 GiB/s raw), and a *dual-rail* fabric:
//! socket-0 adapters hang off one switch, socket-1 adapters off another.
//! A flow therefore travels on the rail of its source socket and, when the
//! destination endpoint lives on the other socket, crosses the destination
//! node's inter-socket (UPI) link — which is exactly the contention the
//! paper observes between engines "communicating through a single
//! interface on one socket".
//!
//! Each node also has a *host* link modelling the shared per-node cost of
//! moving bytes through the OS network stack; under the OFI TCP provider
//! this saturates near 9.7 GiB/s (cf. the paper's Table 2, where 8 process
//! pairs peak at 9.5 GiB/s), while PSM2's RDMA path makes it non-binding.

use std::cell::RefCell;
use std::collections::HashMap;

use daosim_kernel::sync::OneshotReceiver;
use daosim_kernel::{Sim, SimDuration};

use crate::flow::{FlowCap, FlowNet, LinkId, RouteId};

/// A communication endpoint: one socket of one node (i.e. one adapter).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Endpoint {
    pub node: u16,
    pub socket: u8,
}

impl Endpoint {
    pub fn new(node: u16, socket: u8) -> Self {
        Endpoint { node, socket }
    }
}

/// Calibrated constants for an OFI fabric provider.
#[derive(Clone, Copy, Debug)]
pub struct ProviderProfile {
    pub name: &'static str,
    /// Single-stream bandwidth cap, GiB/s. TCP on NEXTGenIO peaks at
    /// 3.1 GiB/s per stream; PSM2 (RDMA) reaches 12.1 GiB/s.
    pub per_flow_cap_gib: f64,
    /// Sub-linearity exponent for parallel streams between one host pair
    /// (Table 2: 2 pairs -> 4.1 GiB/s, not 6.2). Zero for RDMA.
    pub stream_alpha: f64,
    /// One-way small-message latency (includes software overhead).
    pub msg_latency: SimDuration,
    /// Raw adapter bandwidth, GiB/s.
    pub nic_raw_gib: f64,
    /// Per-node network-stack ceiling across both sockets, GiB/s.
    pub host_cap_gib: f64,
    /// Inter-socket link bandwidth, GiB/s.
    pub upi_cap_gib: f64,
}

impl ProviderProfile {
    /// OFI TCP provider (sockets; the configuration used for most of the
    /// paper's runs because PSM2 could not drive dual-rail DAOS).
    pub fn tcp() -> Self {
        ProviderProfile {
            name: "tcp",
            per_flow_cap_gib: 3.1,
            stream_alpha: 0.45,
            msg_latency: SimDuration::from_micros(30),
            nic_raw_gib: 12.5,
            host_cap_gib: 9.7,
            upi_cap_gib: 20.0,
        }
    }

    /// OFI PSM2 provider (RDMA over OmniPath; single-rail only).
    pub fn psm2() -> Self {
        ProviderProfile {
            name: "psm2",
            per_flow_cap_gib: 12.1,
            stream_alpha: 0.0,
            msg_latency: SimDuration::from_micros(5),
            nic_raw_gib: 12.5,
            host_cap_gib: 24.0,
            upi_cap_gib: 20.0,
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "tcp" => Some(Self::tcp()),
            "psm2" => Some(Self::psm2()),
            _ => None,
        }
    }
}

/// Static description of a fabric to build.
#[derive(Clone, Copy, Debug)]
pub struct FabricSpec {
    pub nodes: u16,
    pub sockets_per_node: u8,
    pub provider: ProviderProfile,
    /// Scale factor on every node's host-link capacity; lets a deployment
    /// model the efficiency loss observed on multi-node server sets.
    pub host_efficiency: f64,
}

impl FabricSpec {
    pub fn new(nodes: u16, provider: ProviderProfile) -> Self {
        FabricSpec {
            nodes,
            sockets_per_node: 2,
            provider,
            host_efficiency: 1.0,
        }
    }
}

struct NodeLinks {
    /// Raw adapter links, one (tx, rx) pair per socket.
    tx_raw: Vec<LinkId>,
    rx_raw: Vec<LinkId>,
    host: LinkId,
    upi: LinkId,
}

/// The built fabric: per-node links plus routing.
pub struct Fabric {
    spec: FabricSpec,
    net: FlowNet,
    nodes: Vec<NodeLinks>,
    /// Endpoint-pair routes interned in the flow network, so repeated
    /// transfers between the same endpoints skip route construction.
    route_ids: RefCell<HashMap<(Endpoint, Endpoint), RouteId>>,
}

impl Fabric {
    pub fn new(sim: &Sim, spec: FabricSpec) -> Self {
        Self::build(spec, FlowNet::new(sim))
    }

    /// A fabric whose flow network uses the reference per-flow solver
    /// (the test oracle; see [`FlowNet::new_naive`]).
    #[cfg(test)]
    pub fn new_naive(sim: &Sim, spec: FabricSpec) -> Self {
        Self::build(spec, FlowNet::new_naive(sim))
    }

    fn build(spec: FabricSpec, net: FlowNet) -> Self {
        assert!(spec.nodes > 0 && spec.sockets_per_node > 0);
        assert!(spec.host_efficiency > 0.0 && spec.host_efficiency <= 1.0);
        let p = &spec.provider;
        let nodes = (0..spec.nodes)
            .map(|_| NodeLinks {
                tx_raw: (0..spec.sockets_per_node)
                    .map(|_| net.add_link(p.nic_raw_gib))
                    .collect(),
                rx_raw: (0..spec.sockets_per_node)
                    .map(|_| net.add_link(p.nic_raw_gib))
                    .collect(),
                host: net.add_link(p.host_cap_gib * spec.host_efficiency),
                upi: net.add_link(p.upi_cap_gib),
            })
            .collect();
        Fabric {
            spec,
            net,
            nodes,
            route_ids: RefCell::new(HashMap::new()),
        }
    }

    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    pub fn provider(&self) -> &ProviderProfile {
        &self.spec.provider
    }

    /// The underlying flow network, for composing routes with extra links
    /// (e.g. software-stack capacities added by the DAOS service model).
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    fn check(&self, e: Endpoint) {
        assert!(
            e.node < self.spec.nodes && e.socket < self.spec.sockets_per_node,
            "endpoint {e:?} outside fabric spec {:?}",
            (self.spec.nodes, self.spec.sockets_per_node)
        );
    }

    /// Raw network route from `src` to `dst`. Node-local transfers use at
    /// most the UPI link; remote ones travel on the source socket's rail
    /// and cross the destination's UPI when the rails mismatch.
    pub fn route(&self, src: Endpoint, dst: Endpoint) -> Vec<LinkId> {
        self.check(src);
        self.check(dst);
        if src.node == dst.node {
            return if src.socket != dst.socket {
                vec![self.nodes[src.node as usize].upi]
            } else {
                Vec::new()
            };
        }
        let rail = src.socket.min(self.spec.sockets_per_node - 1);
        let s = &self.nodes[src.node as usize];
        let d = &self.nodes[dst.node as usize];
        let mut route = vec![
            s.tx_raw[src.socket as usize],
            s.host,
            d.rx_raw[rail as usize],
            d.host,
        ];
        if dst.socket != rail {
            route.push(d.upi);
        }
        route
    }

    /// Cap descriptor for a flow between two nodes under this provider:
    /// single-stream cap plus host-pair group scaling.
    pub fn flow_cap(&self, src: Endpoint, dst: Endpoint) -> FlowCap {
        let p = &self.spec.provider;
        FlowCap {
            base_gib: p.per_flow_cap_gib,
            group: if src.node == dst.node {
                None
            } else {
                Some(((src.node as u64) << 17) | ((dst.node as u64) << 1) | 1)
            },
            alpha: p.stream_alpha,
        }
    }

    /// Interned id of the raw route from `src` to `dst`, cached per
    /// endpoint pair.
    pub fn route_id(&self, src: Endpoint, dst: Endpoint) -> RouteId {
        if let Some(&id) = self.route_ids.borrow().get(&(src, dst)) {
            return id;
        }
        let id = self.net.intern_route(&self.route(src, dst));
        self.route_ids.borrow_mut().insert((src, dst), id);
        id
    }

    /// Starts a bulk transfer (bandwidth component only; the caller
    /// accounts message latency explicitly where the protocol dictates).
    pub fn transfer(&self, src: Endpoint, dst: Endpoint, bytes: u64) -> OneshotReceiver<()> {
        let cap = self.flow_cap(src, dst);
        self.net
            .transfer_interned(self.route_id(src, dst), bytes, cap)
    }

    /// Bulk transfer over the raw route extended with caller-provided
    /// links (software-stack capacities etc.).
    pub fn transfer_via(
        &self,
        src: Endpoint,
        dst: Endpoint,
        extra: &[LinkId],
        bytes: u64,
    ) -> OneshotReceiver<()> {
        let mut route = self.route(src, dst);
        route.extend_from_slice(extra);
        let cap = self.flow_cap(src, dst);
        self.net.transfer(&route, bytes, cap)
    }

    pub fn msg_latency(&self) -> SimDuration {
        self.spec.provider.msg_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fab(nodes: u16) -> (Sim, Fabric) {
        let sim = Sim::new();
        let f = Fabric::new(&sim, FabricSpec::new(nodes, ProviderProfile::tcp()));
        (sim, f)
    }

    #[test]
    fn same_socket_route_is_free() {
        let (_s, f) = fab(2);
        assert!(f.route(Endpoint::new(0, 0), Endpoint::new(0, 0)).is_empty());
    }

    #[test]
    fn cross_socket_local_route_uses_upi_only() {
        let (_s, f) = fab(2);
        let r = f.route(Endpoint::new(0, 0), Endpoint::new(0, 1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn same_rail_remote_route_has_four_links() {
        let (_s, f) = fab(2);
        let r = f.route(Endpoint::new(0, 1), Endpoint::new(1, 1));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn cross_rail_remote_route_crosses_upi() {
        let (_s, f) = fab(2);
        let r = f.route(Endpoint::new(0, 0), Endpoint::new(1, 1));
        assert_eq!(r.len(), 5);
        let upi = r[4];
        // The UPI link crossed must belong to the *destination* node.
        let r2 = f.route(Endpoint::new(1, 0), Endpoint::new(1, 1));
        assert_eq!(r2, vec![upi]);
    }

    #[test]
    fn single_stream_hits_per_flow_cap() {
        let (sim, f) = fab(2);
        let bytes = (3.1 * crate::flow::GIB) as u64;
        let f = std::rc::Rc::new(f);
        let fc = std::rc::Rc::clone(&f);
        let end = sim.block_on(async move {
            fc.transfer(Endpoint::new(0, 0), Endpoint::new(1, 0), bytes)
                .await;
        });
        // 3.1 GiB at 3.1 GiB/s = 1s.
        assert!((end.as_secs_f64() - 1.0).abs() < 1e-6, "{end}");
    }

    #[test]
    fn psm2_stream_is_faster_than_tcp() {
        let sim = Sim::new();
        let f = Fabric::new(&sim, FabricSpec::new(2, ProviderProfile::psm2()));
        let f = std::rc::Rc::new(f);
        let bytes = (12.1 * crate::flow::GIB) as u64;
        let fc = std::rc::Rc::clone(&f);
        let end = sim.block_on(async move {
            fc.transfer(Endpoint::new(0, 0), Endpoint::new(1, 0), bytes)
                .await;
        });
        assert!((end.as_secs_f64() - 1.0).abs() < 1e-6, "{end}");
    }

    #[test]
    fn host_efficiency_scales_node_ceiling() {
        let sim = Sim::new();
        let mut spec = FabricSpec::new(2, ProviderProfile::tcp());
        spec.host_efficiency = 0.5;
        let f = std::rc::Rc::new(Fabric::new(&sim, spec));
        // Saturate with many streams: aggregate should approach
        // host_cap * 0.5 = 4.85 GiB/s, so 4.85 GiB across 8 flows ~ 1s.
        let per_flow = (4.85 * crate::flow::GIB / 8.0) as u64;
        for i in 0..8u8 {
            let f = std::rc::Rc::clone(&f);
            sim.spawn(async move {
                f.transfer(Endpoint::new(0, i % 2), Endpoint::new(1, i % 2), per_flow)
                    .await;
            });
        }
        let end = sim.run().expect_quiescent();
        assert!(
            (end.as_secs_f64() - 1.0).abs() < 0.05,
            "end {end} (expected ~1s at halved host cap)"
        );
    }

    #[test]
    #[should_panic(expected = "outside fabric spec")]
    fn out_of_range_endpoint_panics() {
        let (_s, f) = fab(1);
        let _ = f.route(Endpoint::new(0, 0), Endpoint::new(1, 0));
    }
}
