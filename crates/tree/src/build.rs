//! Octree nodes, the node builders, and the [`Octree`] snapshot tree.
//!
//! The node builders (`make_node`, `build_arena`) are generic over
//! `PosRead`, so the persistent arena's SoA columns and the
//! `Octree`'s AoS slice run the *same* FP instruction sequence. An
//! `Octree` is a thin owner of a [`TreeArena`]'s output:
//! [`Octree::build`] is `TreeArena::sort` + gather + the arena's node
//! build (parallel above `PAR_BUILD_CUTOFF`), and
//! [`Octree::build_serial`] is the serial reference — a serial
//! `(MortonKey, slot)` sort plus one DFS `build_arena`. The sort key is
//! a total order and the arena concatenates its octant subtrees in
//! octant order, so the two return bitwise-identical trees at any
//! thread count.

use greem_math::{Aabb, MortonKey, Sym3, Vec3};

use crate::arena::TreeArena;

/// Below this particle count the whole build runs serially — the
/// broadcast/latch overhead of eight subtree tasks outweighs the work.
pub(crate) const PAR_BUILD_CUTOFF: usize = 2048;

/// Position storage the sort and the node builders can read: an AoS
/// `[Vec3]` slice (the [`Octree`]) or the SoA columns of the persistent
/// arena (`crate::arena`). Monomorphised, so both paths run the *same* FP
/// instruction sequence — the moment sums stay bitwise identical
/// across layouts.
pub(crate) trait PosRead: Sync {
    fn pos_at(&self, i: usize) -> Vec3;
}

impl PosRead for [Vec3] {
    #[inline]
    fn pos_at(&self, i: usize) -> Vec3 {
        self[i]
    }
}

/// SoA position columns (borrowed from a `ParticleStore`).
pub(crate) struct SoaPos<'a> {
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
}

impl PosRead for SoaPos<'_> {
    #[inline]
    fn pos_at(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum particles in a leaf before it splits (unless max depth).
    pub leaf_capacity: usize,
    /// Maximum tree depth (≤ Morton resolution, 21).
    pub max_depth: u32,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            leaf_capacity: 8,
            max_depth: greem_math::morton::MORTON_BITS,
        }
    }
}

/// One octree node. Nodes reference a contiguous range of the tree's
/// Morton-sorted particle arrays, so a node's particles are always
/// `tree.pos()[first..first+count]`.
#[derive(Debug, Clone)]
pub struct Node {
    /// First particle (index into the sorted arrays).
    pub first: u32,
    /// Particle count.
    pub count: u32,
    /// Child node indices; -1 = absent. Empty octants have no node.
    pub child: [i32; 8],
    /// Centre of mass.
    pub com: Vec3,
    /// Total mass.
    pub mass: f64,
    /// Second central mass moment `Σ m·(r−com)(r−com)ᵀ`, packed
    /// `[xx, xy, xz, yy, yz, zz]` — the raw material of the quadrupole
    /// (pseudo-particle) extension; GreeM's production walk is
    /// monopole-only.
    pub s_moment: Sym3,
    /// Geometric cell centre (cells are cubes from recursive bisection).
    pub center: Vec3,
    /// Half the cell side length.
    pub half: f64,
    /// True when the node holds particles directly (no children).
    pub is_leaf: bool,
}

impl Node {
    /// The geometric cell as an AABB.
    pub fn cell(&self) -> Aabb {
        Aabb::new(
            self.center - Vec3::splat(self.half),
            self.center + Vec3::splat(self.half),
        )
    }

    /// Cell side length `ℓ` used by the opening criterion.
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }
}

/// A Barnes-Hut octree over a particle snapshot.
///
/// Construction copies and Morton-sorts the particles; `orig_index`
/// maps each sorted slot back to the caller's particle index so
/// accelerations can be scattered back.
///
/// ```
/// use greem_math::{Aabb, Vec3};
/// use greem_tree::{GroupWalk, Octree, TraverseParams, TreeParams};
///
/// let pos = vec![Vec3::new(0.2, 0.2, 0.2), Vec3::new(0.8, 0.8, 0.8)];
/// let tree = Octree::build(&pos, &[1.0, 3.0], Aabb::UNIT, TreeParams::default());
/// assert_eq!(tree.root().unwrap().mass, 4.0);
///
/// let walk = GroupWalk::new(&tree, TraverseParams {
///     r_cut: Some(0.4),
///     ..Default::default()
/// });
/// let stats = walk.for_each_group(|_group, _interaction_list| {});
/// assert_eq!(stats.sum_ni, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Octree {
    root_box: Aabb,
    nodes: Vec<Node>,
    pos: Vec<Vec3>,
    mass: Vec<f64>,
    orig_index: Vec<u32>,
}

impl Octree {
    /// Build over `positions`/`masses` inside `root_box` (the unit cube
    /// for periodic runs; any bounding box for open-boundary runs).
    /// Positions must lie inside `root_box`. The box is expanded to a
    /// cube internally (recursive bisection produces cubic cells, which
    /// the opening criterion's `ℓ/d` assumes).
    pub fn build(positions: &[Vec3], masses: &[f64], root_box: Aabb, params: TreeParams) -> Octree {
        assert_eq!(positions.len(), masses.len());
        let mut arena = TreeArena::new();
        let order = arena.sort_pos(positions, positions.len(), root_box);
        let pos: Vec<Vec3> = order.iter().map(|&i| positions[i as usize]).collect();
        let mass: Vec<f64> = order.iter().map(|&i| masses[i as usize]).collect();
        arena.build_pos(pos.as_slice(), &mass, params);
        let (root_box, nodes, orig_index) = arena.into_parts();
        Octree {
            root_box,
            nodes,
            pos,
            mass,
            orig_index,
        }
    }

    /// Serial reference build: identical result to [`build`](Self::build)
    /// (same `(key, slot)` sort order, same DFS arena layout), used by
    /// the parallel-equivalence tests.
    pub fn build_serial(
        positions: &[Vec3],
        masses: &[f64],
        root_box: Aabb,
        params: TreeParams,
    ) -> Octree {
        assert_eq!(positions.len(), masses.len());
        let n = positions.len();
        let (root_box, key_of) = morton_frame(root_box);
        let keys: Vec<MortonKey> = positions.iter().map(|&p| key_of(p)).collect();
        // The `(key, slot)` pair is a total order, so the permutation is
        // unique — equal keys keep input order — and this sort agrees
        // exactly with the arena's parallel one.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (keys[i as usize], i));
        let sorted_keys: Vec<MortonKey> = order.iter().map(|&i| keys[i as usize]).collect();
        let pos: Vec<Vec3> = order.iter().map(|&i| positions[i as usize]).collect();
        let mass: Vec<f64> = order.iter().map(|&i| masses[i as usize]).collect();
        let mut nodes = Vec::new();
        if n > 0 {
            let half = root_box.max_extent() * 0.5;
            let pos = pos.as_slice();
            build_arena(
                &mut nodes,
                &sorted_keys,
                pos,
                &mass,
                0,
                n,
                0,
                root_box.center(),
                half,
                &params,
            );
        }
        Octree {
            root_box,
            nodes,
            pos,
            mass,
            orig_index: order,
        }
    }

    /// The root bounding box the tree was built in.
    pub fn root_box(&self) -> Aabb {
        self.root_box
    }

    /// All nodes (index 0 is the root when the tree is non-empty).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when the tree holds no particles.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Morton-sorted positions.
    pub fn pos(&self) -> &[Vec3] {
        &self.pos
    }

    /// Morton-sorted masses.
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// For sorted slot `i`, the caller's original particle index.
    pub fn orig_index(&self) -> &[u32] {
        &self.orig_index
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<&Node> {
        self.nodes.first()
    }
}

/// `root_box` expanded to a cube about its centre, and the Morton key of
/// a position inside that cube. Both builders key through this, so the
/// parallel and serial sorts agree bit for bit.
pub(crate) fn morton_frame(root_box: Aabb) -> (Aabb, impl Fn(Vec3) -> MortonKey + Sync) {
    let side = root_box.max_extent().max(f64::MIN_POSITIVE);
    let cube = Aabb::new(
        root_box.center() - Vec3::splat(0.5 * side),
        root_box.center() + Vec3::splat(0.5 * side),
    );
    let (lo, scale) = (cube.lo, Vec3::splat(1.0 / side));
    let key_of = move |p: Vec3| {
        let q = (p - lo).hadamard(scale);
        debug_assert!(
            (-1e-9..1.0 + 1e-9).contains(&q.x)
                && (-1e-9..1.0 + 1e-9).contains(&q.y)
                && (-1e-9..1.0 + 1e-9).contains(&q.z),
            "particle outside root box: {p:?}"
        );
        MortonKey::from_unit_pos(q.x, q.y, q.z)
    };
    (cube, key_of)
}

/// Node over sorted slots `[first, last)`: moments and geometry, no
/// children yet.
pub(crate) fn make_node<P: PosRead + ?Sized>(
    pos: &P,
    mass: &[f64],
    first: usize,
    last: usize,
    center: Vec3,
    half: f64,
) -> Node {
    let count = last - first;
    debug_assert!(count > 0);
    let mut m = 0.0;
    let mut com = Vec3::ZERO;
    for (i, &w) in mass.iter().enumerate().take(last).skip(first) {
        m += w;
        com += pos.pos_at(i) * w;
    }
    let com = if m > 0.0 {
        com / m
    } else {
        // Massless clump (possible in tests): fall back to centroid.
        (first..last).map(|i| pos.pos_at(i)).sum::<Vec3>() / count as f64
    };
    let mut s_moment = [0.0; 6];
    for (i, &w) in mass.iter().enumerate().take(last).skip(first) {
        let d = pos.pos_at(i) - com;
        s_moment[0] += w * d.x * d.x;
        s_moment[1] += w * d.x * d.y;
        s_moment[2] += w * d.x * d.z;
        s_moment[3] += w * d.y * d.y;
        s_moment[4] += w * d.y * d.z;
        s_moment[5] += w * d.z * d.z;
    }
    Node {
        first: first as u32,
        count: count as u32,
        child: [-1; 8],
        com,
        mass: m,
        s_moment,
        center,
        half,
        is_leaf: true,
    }
}

/// Recursively build the subtree over sorted slots `[first, last)` at
/// `level` into `nodes` (a DFS arena with indices local to `nodes`);
/// returns the subtree root's index.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_arena<P: PosRead + ?Sized>(
    nodes: &mut Vec<Node>,
    keys: &[MortonKey],
    pos: &P,
    mass: &[f64],
    first: usize,
    last: usize,
    level: u32,
    center: Vec3,
    half: f64,
    params: &TreeParams,
) -> i32 {
    let count = last - first;
    let idx = nodes.len();
    nodes.push(make_node(pos, mass, first, last, center, half));
    if count <= params.leaf_capacity || level >= params.max_depth {
        return idx as i32;
    }
    // Split: particles are key-sorted, so each octant is a
    // contiguous sub-range found by scanning the 3-bit digit.
    nodes[idx].is_leaf = false;
    let mut start = first;
    let quarter = half * 0.5;
    while start < last {
        let oct = keys[start].octant_at_level(level);
        let mut end = start + 1;
        while end < last && keys[end].octant_at_level(level) == oct {
            end += 1;
        }
        let off = Vec3::new(
            if oct & 0b100 != 0 { quarter } else { -quarter },
            if oct & 0b010 != 0 { quarter } else { -quarter },
            if oct & 0b001 != 0 { quarter } else { -quarter },
        );
        let child = build_arena(
            nodes,
            keys,
            pos,
            mass,
            start,
            end,
            level + 1,
            center + off,
            quarter,
            params,
        );
        nodes[idx].child[oct as usize] = child;
        start = end;
    }
    idx as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    use greem_math::testutil::rand_positions;

    fn build_uniform(n: usize, seed: u64) -> (Octree, Vec<Vec3>) {
        let pos = rand_positions(n, seed);
        let masses = vec![1.0 / n as f64; n];
        let tree = Octree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        (tree, pos)
    }

    #[test]
    fn empty_tree() {
        let tree = Octree::build(&[], &[], Aabb::UNIT, TreeParams::default());
        assert!(tree.is_empty());
        assert!(tree.root().is_none());
    }

    #[test]
    fn root_has_total_mass_and_com() {
        let (tree, pos) = build_uniform(500, 1);
        let root = tree.root().unwrap();
        assert_eq!(root.count as usize, 500);
        assert!((root.mass - 1.0).abs() < 1e-12);
        let com: Vec3 = pos.iter().copied().sum::<Vec3>() / 500.0;
        assert!((root.com - com).norm() < 1e-12);
    }

    #[test]
    fn children_partition_parent() {
        let (tree, _) = build_uniform(300, 2);
        for node in tree.nodes() {
            if node.is_leaf {
                continue;
            }
            let mut covered = 0u32;
            let mut next = node.first;
            let mut mass = 0.0;
            let mut com = Vec3::ZERO;
            for &c in &node.child {
                if c < 0 {
                    continue;
                }
                let ch = &tree.nodes()[c as usize];
                assert_eq!(ch.first, next, "children must tile the range in order");
                next += ch.count;
                covered += ch.count;
                mass += ch.mass;
                com += ch.com * ch.mass;
            }
            assert_eq!(covered, node.count);
            assert!((mass - node.mass).abs() < 1e-12);
            assert!((com / mass - node.com).norm() < 1e-10);
        }
    }

    #[test]
    fn leaves_respect_capacity() {
        let params = TreeParams {
            leaf_capacity: 4,
            max_depth: 21,
        };
        let pos = rand_positions(200, 3);
        let masses = vec![1.0; 200];
        let tree = Octree::build(&pos, &masses, Aabb::UNIT, params);
        for node in tree.nodes() {
            if node.is_leaf {
                assert!(node.count <= 4, "leaf holds {} > 4", node.count);
            }
        }
    }

    #[test]
    fn particles_stay_in_their_cells() {
        let (tree, _) = build_uniform(300, 4);
        for node in tree.nodes() {
            let cell = node.cell();
            for i in node.first..node.first + node.count {
                let p = tree.pos()[i as usize];
                // Allow boundary fuzz: quantisation puts a particle in a
                // definite cell, geometry may disagree by one ULP-cell.
                let d2 = cell.dist2_to_point(p);
                let tol = (1e-6 * node.half).powi(2).max(1e-24);
                assert!(
                    d2 <= tol,
                    "particle {p:?} outside its cell {cell:?} (d2={d2})"
                );
            }
        }
    }

    #[test]
    fn coincident_particles_stop_at_max_depth() {
        // Many particles at the same point cannot be separated: the tree
        // must terminate via max_depth, not recurse forever.
        let p = Vec3::splat(0.123456);
        let pos = vec![p; 50];
        let masses = vec![1.0; 50];
        let tree = Octree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let deepest = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf)
            .map(|n| n.count)
            .max()
            .unwrap();
        assert_eq!(deepest, 50, "all coincident particles end in one leaf");
    }

    #[test]
    fn orig_index_is_permutation() {
        let (tree, pos) = build_uniform(128, 5);
        let mut seen = [false; 128];
        for (slot, &oi) in tree.orig_index().iter().enumerate() {
            assert!(!seen[oi as usize]);
            seen[oi as usize] = true;
            assert_eq!(tree.pos()[slot], pos[oi as usize]);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn parallel_build_matches_serial_bitwise() {
        // Above PAR_BUILD_CUTOFF so the parallel path actually runs.
        let n = 5000;
        let pos = rand_positions(n, 7);
        let masses: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
        let par = Octree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let ser = Octree::build_serial(&pos, &masses, Aabb::UNIT, TreeParams::default());
        assert_eq!(par.orig_index(), ser.orig_index());
        assert_eq!(par.nodes().len(), ser.nodes().len());
        for (a, b) in par.nodes().iter().zip(ser.nodes()) {
            assert_eq!(a.first, b.first);
            assert_eq!(a.count, b.count);
            assert_eq!(a.child, b.child);
            assert_eq!(a.com, b.com);
            assert_eq!(a.mass, b.mass);
            assert_eq!(a.s_moment, b.s_moment);
            assert_eq!(a.center, b.center);
            assert_eq!(a.half, b.half);
            assert_eq!(a.is_leaf, b.is_leaf);
        }
    }

    #[test]
    fn duplicate_keys_sort_deterministically() {
        // Equal Morton keys keep input order under the (key, slot)
        // total order, so repeated builds agree slot-for-slot.
        let mut pos = rand_positions(3000, 9);
        for p in pos.iter_mut().take(1000) {
            *p = Vec3::splat(0.25); // heavy duplication
        }
        let masses = vec![1.0; pos.len()];
        let a = Octree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let b = Octree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        assert_eq!(a.orig_index(), b.orig_index());
    }

    #[test]
    fn open_boundary_root_box() {
        // Tree over a non-unit box (the open-boundary baseline path).
        let pos = vec![
            Vec3::new(-3.0, 2.0, 10.0),
            Vec3::new(5.0, -1.0, 12.0),
            Vec3::new(0.0, 0.5, 11.0),
        ];
        let bb = Aabb::from_points(pos.iter().copied());
        let root_box = Aabb::new(bb.lo - Vec3::splat(1e-9), bb.hi + Vec3::splat(1e-9));
        let tree = Octree::build(&pos, &[1.0, 2.0, 3.0], root_box, TreeParams::default());
        assert_eq!(tree.root().unwrap().count, 3);
        assert!((tree.root().unwrap().mass - 6.0).abs() < 1e-12);
    }
}
