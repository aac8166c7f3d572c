//! On-chip network models for the HardHarvest reproduction.
//!
//! Two of the paper's three networks are modeled here:
//!
//! * the regular on-chip **2-D mesh** (Table 1: 5 cycles/hop) that carries
//!   data between cores, LLC slices and the Request Context Memory;
//! * the **dedicated control tree** connecting cores to the centralized
//!   HardHarvest controller (Section 4.1.8: a latency-sensitive, thin-link
//!   tree, used so that controller traffic never competes with workload
//!   traffic);
//! * the **inter-server network** (Table 1: 1 µs round trip, 200 GB/s) that
//!   carries RPCs to backend services on other machines.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use hh_sim::{CoreId, Cycles};
use serde::{Deserialize, Serialize};

/// The regular 2-D mesh interconnect of one processor.
///
/// Cores are laid out row-major on a `cols × rows` grid; XY routing gives a
/// latency of `hops × cycles_per_hop`. The mesh also hosts one attachment
/// point for the NIC/Request-Context-Memory, placed at the grid center.
///
/// # Example
///
/// ```
/// use hh_noc::Mesh2D;
/// use hh_sim::{CoreId, Cycles};
///
/// let mesh = Mesh2D::new(6, 6, 5);
/// // Opposite corners of a 6x6 mesh: 10 hops of 5 cycles.
/// assert_eq!(mesh.latency(CoreId(0), CoreId(35)), Cycles::new(50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh2D {
    cols: usize,
    rows: usize,
    cycles_per_hop: u64,
}

impl Mesh2D {
    /// Creates a mesh; Table 1's configuration is `Mesh2D::new(6, 6, 5)`.
    ///
    /// # Panics
    /// Panics if any dimension or the hop latency is zero.
    pub fn new(cols: usize, rows: usize, cycles_per_hop: u64) -> Self {
        assert!(cols > 0 && rows > 0 && cycles_per_hop > 0);
        Mesh2D {
            cols,
            rows,
            cycles_per_hop,
        }
    }

    /// Table 1 default: 6×6 mesh, 5 cycles per hop.
    pub fn table1() -> Self {
        Mesh2D::new(6, 6, 5)
    }

    /// Number of node positions.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes(), "node {node} outside the mesh");
        (node % self.cols, node / self.cols)
    }

    /// Manhattan hop count between two cores under XY routing.
    pub fn hops(&self, from: CoreId, to: CoreId) -> u64 {
        let (fx, fy) = self.coords(from.index());
        let (tx, ty) = self.coords(to.index());
        (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
    }

    /// One-way latency between two cores.
    pub fn latency(&self, from: CoreId, to: CoreId) -> Cycles {
        Cycles::new(self.hops(from, to) * self.cycles_per_hop)
    }

    /// One-way latency from a core to the central attachment point (NIC /
    /// Request Context Memory), approximated as the mesh center.
    pub fn latency_to_center(&self, from: CoreId) -> Cycles {
        let center = (self.rows / 2) * self.cols + self.cols / 2;
        self.latency(from, CoreId::from(center))
    }
}

/// The dedicated tree network between cores and the HardHarvest controller.
///
/// Section 4.1.8: the controller is a centralized module reached over a
/// thin-link tree, chosen because control messages are small and
/// latency-sensitive. With fan-out `k`, a message climbs
/// `ceil(log_k(cores))` levels to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlTree {
    cores: usize,
    fanout: usize,
    cycles_per_level: u64,
}

impl ControlTree {
    /// Creates a control tree over `cores` leaves.
    ///
    /// # Panics
    /// Panics if `cores == 0`, `fanout < 2`, or the level latency is zero.
    pub fn new(cores: usize, fanout: usize, cycles_per_level: u64) -> Self {
        assert!(cores > 0 && fanout >= 2 && cycles_per_level > 0);
        ControlTree {
            cores,
            fanout,
            cycles_per_level,
        }
    }

    /// Default used in the evaluation: 36 cores, fan-out 4, 2 cycles per
    /// level (thin but fast links).
    pub fn table1() -> Self {
        ControlTree::new(36, 4, 2)
    }

    /// Number of tree levels between a leaf and the root controller.
    pub fn depth(&self) -> u32 {
        let mut levels = 0u32;
        let mut span = 1usize;
        while span < self.cores {
            span *= self.fanout;
            levels += 1;
        }
        levels.max(1)
    }

    /// One-way core→controller latency.
    pub fn to_controller(&self, _from: CoreId) -> Cycles {
        Cycles::new(self.depth() as u64 * self.cycles_per_level)
    }

    /// Round-trip core→controller→core latency (e.g. a dequeue
    /// instruction's reply).
    pub fn round_trip(&self, from: CoreId) -> Cycles {
        self.to_controller(from) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_latency_symmetric_and_zero_on_self() {
        let m = Mesh2D::table1();
        assert_eq!(m.nodes(), 36);
        for (a, b) in [(0u16, 35u16), (7, 29), (12, 12)] {
            assert_eq!(
                m.latency(CoreId(a), CoreId(b)),
                m.latency(CoreId(b), CoreId(a))
            );
        }
        assert_eq!(m.latency(CoreId(9), CoreId(9)), Cycles::ZERO);
    }

    #[test]
    fn mesh_hops_manhattan() {
        let m = Mesh2D::new(6, 6, 5);
        // node 0 = (0,0); node 8 = (2,1) → 3 hops
        assert_eq!(m.hops(CoreId(0), CoreId(8)), 3);
        assert_eq!(m.latency(CoreId(0), CoreId(8)), Cycles::new(15));
    }

    #[test]
    fn mesh_diameter_bounds_all_pairs() {
        let m = Mesh2D::table1();
        // Opposite corners of the 6x6 mesh: 10 hops of 5 cycles.
        let d = Cycles::new(10 * 5);
        assert_eq!(m.latency(CoreId(0), CoreId(35)), d);
        for a in 0..36u16 {
            for b in 0..36u16 {
                assert!(m.latency(CoreId(a), CoreId(b)) <= d);
            }
        }
    }

    #[test]
    fn mesh_center_latency_is_small() {
        let m = Mesh2D::table1();
        for a in 0..36u16 {
            assert!(m.latency_to_center(CoreId(a)) <= Cycles::new(6 * 5));
        }
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn mesh_rejects_out_of_range_node() {
        Mesh2D::table1().latency(CoreId(0), CoreId(36));
    }

    #[test]
    fn tree_depth_log() {
        assert_eq!(ControlTree::new(36, 4, 2).depth(), 3); // 4^3=64 ≥ 36
        assert_eq!(ControlTree::new(16, 4, 2).depth(), 2);
        assert_eq!(ControlTree::new(1, 2, 1).depth(), 1);
    }

    #[test]
    fn tree_round_trip_doubles() {
        let t = ControlTree::table1();
        assert_eq!(t.round_trip(CoreId(5)), t.to_controller(CoreId(5)) * 2);
        // A control round trip (12 cycles) is far below a software syscall.
        assert!(t.round_trip(CoreId(5)) < Cycles::from_ns(100.0));
    }
}
