use std::fmt;

use serde::{Deserialize, Serialize};

use elk_units::ByteRate;

/// The on-chip interconnect joining cores and HBM controllers.
///
/// The paper targets the two topologies used by today's ICCA chips (§5):
/// the IPU-style **all-to-all** exchange, where any core reaches any other
/// at full link bandwidth, and the SambaNova/Tenstorrent-style **2D mesh**,
/// where packets take XY dimension-order routes over per-hop links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Non-blocking all-to-all exchange. Each core sends and receives at
    /// `core_link`; transfers sharing an endpoint serialize.
    AllToAll {
        /// Per-core link bandwidth (5.5 GB/s on IPU MK2).
        core_link: ByteRate,
    },
    /// `rows × cols` 2D mesh with XY dimension-order routing. Each core
    /// talks to up to four neighbours simultaneously, each over `link`.
    Mesh2d {
        /// Grid height.
        rows: u32,
        /// Grid width.
        cols: u32,
        /// Per-direction link bandwidth.
        link: ByteRate,
    },
}

impl Topology {
    /// An all-to-all fabric sized so its aggregate bandwidth is
    /// `total / cores` per core.
    #[must_use]
    pub fn all_to_all_with_total(total: ByteRate, cores: u64) -> Self {
        Topology::AllToAll {
            core_link: total / cores,
        }
    }

    /// A mesh over `cores` cores, shaped as close to square as the core
    /// count allows, with per-hop links sized so the aggregate fabric
    /// bandwidth matches `total` (making all-to-all vs mesh sweeps compare
    /// equal-bisection designs, as Figs. 19–22 do).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn mesh_with_total(total: ByteRate, cores: u64) -> Self {
        let (rows, cols) = mesh_dims(cores);
        let links = mesh_link_count(rows, cols);
        Topology::Mesh2d {
            rows,
            cols,
            link: total / links,
        }
    }

    /// Number of cores the topology assumes, if it constrains one
    /// (`None` for all-to-all, which scales to any core count).
    #[must_use]
    pub fn core_capacity(&self) -> Option<u64> {
        match *self {
            Topology::AllToAll { .. } => None,
            Topology::Mesh2d { rows, cols, .. } => Some(rows as u64 * cols as u64),
        }
    }

    /// Aggregate fabric bandwidth: the sum of all link capacities, the
    /// figure the paper reports as "total interconnect bandwidth".
    #[must_use]
    pub fn total_bandwidth(&self, cores: u64) -> ByteRate {
        match *self {
            Topology::AllToAll { core_link } => core_link * cores,
            Topology::Mesh2d { rows, cols, link } => link * mesh_link_count(rows, cols),
        }
    }

    /// Average route length in hops for the compiler's traffic. 1 for
    /// all-to-all. For a 2D mesh we charge a constant locality factor of
    /// 4 rather than the uniform-random `(rows+cols)/3`: the compiler's
    /// tile mapping keeps compute-shift exchange nearest-neighbour and
    /// XY dimension-order routing streams HBM rows across the grid with
    /// drop-off, so sustained routes average a few hops (§5 "uses
    /// dimension-order routing to maximize the all-reduce bandwidth").
    #[must_use]
    pub fn mean_hops(&self) -> f64 {
        match *self {
            Topology::AllToAll { .. } => 1.0,
            Topology::Mesh2d { .. } => 4.0,
        }
    }

    /// Effective fabric throughput for bulk many-to-many traffic: the
    /// aggregate capacity derated by the mean hop count, since every hop
    /// of a mesh route consumes link capacity.
    #[must_use]
    pub fn effective_bulk_bandwidth(&self, cores: u64) -> ByteRate {
        self.total_bandwidth(cores) / self.mean_hops()
    }

    /// Effective per-core bandwidth for neighbour-structured exchange
    /// (compute-shift rotations): the full link rate on a mesh (shifts are
    /// nearest-neighbour), the core link on all-to-all.
    #[must_use]
    pub fn shift_bandwidth(&self) -> ByteRate {
        match *self {
            Topology::AllToAll { core_link } => core_link,
            Topology::Mesh2d { link, .. } => link,
        }
    }

    /// Bandwidth at which HBM controllers can inject into the fabric,
    /// before HBM channel limits. All-to-all attaches controllers as
    /// first-class nodes whose fan-out saturates receiver ingress, so
    /// injection is fabric-limited; a mesh distributes controllers along
    /// the grid edges with channel-matched ports, but edge fan-in bounds
    /// sustained injection to about half the fabric (the multi-hop
    /// distribution cost itself is charged via [`Topology::mean_hops`]).
    #[must_use]
    pub fn hbm_injection_bandwidth(&self, cores: u64) -> ByteRate {
        match *self {
            Topology::AllToAll { core_link } => core_link * cores,
            Topology::Mesh2d { rows, cols, link } => link * mesh_link_count(rows, cols) / 2u64,
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::AllToAll { core_link } => write!(f, "all-to-all ({core_link}/core)"),
            Topology::Mesh2d { rows, cols, link } => {
                write!(f, "{rows}x{cols} mesh ({link}/link)")
            }
        }
    }
}

/// Near-square grid covering `cores`.
fn mesh_dims(cores: u64) -> (u32, u32) {
    assert!(cores > 0, "mesh needs at least one core");
    let mut rows = (cores as f64).sqrt().floor() as u64;
    while rows > 1 && !cores.is_multiple_of(rows) {
        rows -= 1;
    }
    let cols = cores / rows;
    (rows as u32, cols as u32)
}

/// Directed link count of a `rows × cols` mesh (each undirected neighbour
/// pair carries one link per direction).
fn mesh_link_count(rows: u32, cols: u32) -> u64 {
    let r = rows as u64;
    let c = cols as u64;
    2 * (r * (c - 1) + c * (r - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipu_aggregate_bandwidth_is_about_8_tbps() {
        let t = Topology::AllToAll {
            core_link: ByteRate::gib_per_sec(5.5),
        };
        let total = t.total_bandwidth(1472);
        // 1472 * 5.5 GiB/s ≈ 7.9 TiB/s (the paper rounds to 8 TB/s).
        assert!((7.5e12..8.9e12).contains(&total.bytes_per_sec()));
    }

    #[test]
    fn mesh_dims_cover_exactly() {
        for cores in [1472u64, 1024, 5888, 736, 100] {
            let (r, c) = mesh_dims(cores);
            assert_eq!(r as u64 * c as u64, cores);
        }
        assert_eq!(mesh_dims(1472), (32, 46));
    }

    #[test]
    fn equal_total_bandwidth_construction() {
        let total = ByteRate::tib_per_sec(8.0);
        let a2a = Topology::all_to_all_with_total(total, 1472);
        let mesh = Topology::mesh_with_total(total, 1472);
        let ta = a2a.total_bandwidth(1472).bytes_per_sec();
        let tm = mesh.total_bandwidth(1472).bytes_per_sec();
        assert!((ta - tm).abs() / ta < 0.01);
    }

    #[test]
    fn mesh_pays_multiple_hops() {
        let total = ByteRate::tib_per_sec(8.0);
        let a2a = Topology::all_to_all_with_total(total, 1472);
        let mesh = Topology::mesh_with_total(total, 1472);
        assert_eq!(a2a.mean_hops(), 1.0);
        assert!(mesh.mean_hops() > 1.0);
        assert!(
            mesh.effective_bulk_bandwidth(1472).bytes_per_sec()
                < a2a.effective_bulk_bandwidth(1472).bytes_per_sec() / 2.0
        );
    }

    #[test]
    fn link_count_small_mesh() {
        // 2x2 mesh: 4 undirected edges -> 8 directed links.
        assert_eq!(mesh_link_count(2, 2), 8);
        // 1xN degenerates to a chain.
        assert_eq!(mesh_link_count(1, 4), 6);
    }

    #[test]
    fn capacity_only_bounds_meshes() {
        assert_eq!(
            Topology::AllToAll {
                core_link: ByteRate::gib_per_sec(5.5)
            }
            .core_capacity(),
            None
        );
        assert_eq!(
            Topology::Mesh2d {
                rows: 4,
                cols: 8,
                link: ByteRate::gib_per_sec(10.0)
            }
            .core_capacity(),
            Some(32)
        );
    }
}
