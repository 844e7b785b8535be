//! Route signatures and minimal-path selection (§5.2.1, third
//! challenge).
//!
//! A signature `S{(p1,q1),(p2,q2)}` is an `L`-bit set over the mesh's
//! directed links marking which links a (minimal) path uses. Given two
//! accesses `x` and `y` with sources `(px,qx)`, `(py,qy)` and
//! destinations `(pr,qr)`, `(ps,qs)`, the compiler selects signatures
//! maximizing `|Sx ∩ Sy|` — every common link is a router where the NDC
//! computation `x op y` can be performed.

use crate::mesh::{LinkId, Mesh, Route};
use ndc_types::Coord;

/// An `L`-bit link set, stored as packed 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteSignature {
    words: Vec<u64>,
    num_links: usize,
}

impl RouteSignature {
    pub fn empty(mesh: &Mesh) -> Self {
        let n = mesh.num_links();
        RouteSignature {
            words: vec![0; n.div_ceil(64)],
            num_links: n,
        }
    }

    pub fn from_route(mesh: &Mesh, route: &Route) -> Self {
        let mut s = Self::empty(mesh);
        for &l in &route.links {
            s.set(l);
        }
        s
    }

    pub fn set(&mut self, l: LinkId) {
        debug_assert!(l.index() < self.num_links);
        self.words[l.index() / 64] |= 1 << (l.index() % 64);
    }

    pub fn get(&self, l: LinkId) -> bool {
        self.words[l.index() / 64] & (1 << (l.index() % 64)) != 0
    }

    /// Bitwise intersection (the paper's `∩`).
    pub fn and(&self, other: &RouteSignature) -> RouteSignature {
        debug_assert_eq!(self.num_links, other.num_links);
        RouteSignature {
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b)
                .collect(),
            num_links: self.num_links,
        }
    }

    /// Number of set bits ("the total number of 1s").
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterate over the set links.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(LinkId((wi as u32) * 64 + b))
            })
        })
    }
}

/// Displacement (in hops) up to which every minimal route is
/// enumerated: `C(10, 5) = 252` routes at worst, which covers any
/// endpoint pair on the paper's 5×5 mesh exactly as before. Beyond
/// this, exhaustive enumeration is combinatorial — `C(30, 15) ≈ 155
/// million` routes for opposite corners of the 16×16 scale-up mesh —
/// so the enumeration falls back to [`bounded_routes`].
const MAX_EXHAUSTIVE_HOPS: u16 = 10;

/// Enumerate minimal (monotone, Manhattan-length) routes between two
/// coordinates. For displacements up to [`MAX_EXHAUSTIVE_HOPS`] this
/// is every such route (`C(dx+dy, dx)` of them); for larger
/// displacements it is the two-bend staircase family — `O(dx + dy)`
/// routes including the XY and YX extremes — which preserves route
/// *diversity* (which links a route can occupy) without the
/// combinatorial blowup that made signature selection intractable at
/// 12×12 and beyond.
pub fn minimal_routes(mesh: &Mesh, src: Coord, dst: Coord) -> Vec<Route> {
    let dist = src.x.abs_diff(dst.x) + src.y.abs_diff(dst.y);
    if dist > MAX_EXHAUSTIVE_HOPS {
        return bounded_routes(mesh, src, dst);
    }
    let mut out = Vec::new();
    let mut links = Vec::with_capacity(dist as usize);
    recurse(mesh, src, (src, dst), &mut links, &mut out);
    out
}

/// One hop from `at` toward `to` along X.
fn step_x(at: Coord, to: Coord) -> Coord {
    let x = if to.x > at.x { at.x + 1 } else { at.x - 1 };
    Coord::new(x, at.y)
}

/// One hop from `at` toward `to` along Y.
fn step_y(at: Coord, to: Coord) -> Coord {
    let y = if to.y > at.y { at.y + 1 } else { at.y - 1 };
    Coord::new(at.x, y)
}

/// Walk from `a` to `b` inclusive, one hop at a time, in either axis
/// direction.
fn axis_walk(a: u16, b: u16) -> Box<dyn Iterator<Item = u16>> {
    if a <= b {
        Box::new(a..=b)
    } else {
        Box::new((b..=a).rev())
    }
}

/// Monotone routes with at most two bends: `x–y–x` staircases through
/// every intermediate column and `y–x–y` staircases through every
/// interior row. Both L-shaped (XY, YX) routes are members (the
/// `x–y–x` family at the extreme columns), and the set spans every
/// link an exhaustive enumeration could reach, so link-overlap
/// maximization still has the full rectangle to work with.
fn bounded_routes(mesh: &Mesh, src: Coord, dst: Coord) -> Vec<Route> {
    if src.x == dst.x || src.y == dst.y {
        // Straight line: a single minimal route.
        return vec![mesh.xy_route(src, dst)];
    }
    let mut out = Vec::new();
    let hops = src.manhattan(dst) as usize;
    let mut push = |via: &[Coord]| {
        let mut links = Vec::with_capacity(hops);
        // Each leg of `via` is axis-aligned, so its XY route is the leg.
        for w in via.windows(2) {
            links.extend(mesh.xy_route(w[0], w[1]).links);
        }
        out.push(Route { src, dst, links });
    };
    // x–y–x through every column between the endpoints (the first,
    // `mx = src.x`, is the YX route; the last, `mx = dst.x`, is XY).
    for mx in axis_walk(src.x, dst.x) {
        push(&[src, Coord::new(mx, src.y), Coord::new(mx, dst.y), dst]);
    }
    // y–x–y through interior rows (the boundary rows duplicate the XY
    // and YX routes already emitted above).
    for my in axis_walk(src.y, dst.y).skip(1) {
        if my == dst.y {
            continue;
        }
        push(&[src, Coord::new(src.x, my), Coord::new(dst.x, my), dst]);
    }
    out
}

/// Extend the route prefix `links` (which ends at `at`) by every
/// monotone continuation to `ends.1`.
fn recurse(
    mesh: &Mesh,
    at: Coord,
    ends: (Coord, Coord),
    links: &mut Vec<LinkId>,
    out: &mut Vec<Route>,
) {
    let (src, dst) = ends;
    if at == dst {
        out.push(Route {
            src,
            dst,
            links: links.clone(),
        });
        return;
    }
    // Move one step closer in X, then (as an alternative) in Y —
    // exploring both orders yields every monotone staircase.
    for next in [
        (at.x != dst.x).then(|| step_x(at, dst)),
        (at.y != dst.y).then(|| step_y(at, dst)),
    ]
    .into_iter()
    .flatten()
    {
        links.push(mesh.link_between(at, next));
        recurse(mesh, next, ends, links, out);
        links.pop();
    }
}

/// The result of signature selection for a pair of accesses.
#[derive(Debug, Clone)]
pub struct SignaturePair {
    pub route_a: Route,
    pub route_b: Route,
    /// `|Sa ∩ Sb|` — the number of routers where the two operands'
    /// messages share a link buffer.
    pub common_links: u32,
}

/// Select, among all minimal routes of `(a_src → a_dst)` and
/// `(b_src → b_dst)`, the pair maximizing the number of common links
/// (§5.2.1: "selects signatures carefully in an attempt to maximize 1s
/// in S{...} ∩ S{...}"). Ties prefer the XY route (index 0 of the
/// enumeration explores X-first moves first), keeping the baseline
/// routing when reshaping buys nothing: the winner is the first pair,
/// in row-major enumeration order, with the largest overlap.
pub fn best_signature_pair(
    mesh: &Mesh,
    a_src: Coord,
    a_dst: Coord,
    b_src: Coord,
    b_dst: Coord,
) -> SignaturePair {
    let mut routes_a = minimal_routes(mesh, a_src, a_dst);
    let mut routes_b = minimal_routes(mesh, b_src, b_dst);
    let (i, j, common_links) = best_pair_index(mesh, &routes_a, &routes_b);
    SignaturePair {
        route_a: routes_a.swap_remove(i),
        route_b: routes_b.swap_remove(j),
        common_links,
    }
}

/// The search behind [`best_signature_pair`], on signatures projected
/// onto the only links that can matter.
///
/// A link two routes share lies in `U_a ∩ U_b`, the intersection of the
/// two families' link unions, so each route is projected onto that set
/// (one `u64` whenever it has at most 64 links, as it nearly always
/// does) and a pair's overlap is a popcount of the projected `and`.
/// The scan stops once a pair reaches `|U_a ∩ U_b|`, and skips a row
/// whose own projected length cannot beat the best so far; neither
/// shortcut can pass over a strictly better pair, so the result is the
/// exhaustive scan's.
fn best_pair_index(mesh: &Mesh, routes_a: &[Route], routes_b: &[Route]) -> (usize, usize, u32) {
    let union = |routes: &[Route]| {
        let mut s = RouteSignature::empty(mesh);
        for &l in routes.iter().flat_map(|r| &r.links) {
            s.set(l);
        }
        s
    };
    let shared = union(routes_a).and(&union(routes_b));
    let ceiling = shared.count_ones();
    let width = (ceiling as usize).div_ceil(64).max(1);
    let mut rank = vec![u32::MAX; mesh.num_links()];
    for (k, l) in shared.links().enumerate() {
        rank[l.index()] = k as u32;
    }
    let project = |routes: &[Route]| {
        let mut out = vec![0u64; routes.len() * width];
        for (r, words) in routes.iter().zip(out.chunks_exact_mut(width)) {
            for &l in &r.links {
                let k = rank[l.index()];
                if k != u32::MAX {
                    words[k as usize / 64] |= 1 << (k % 64);
                }
            }
        }
        out
    };
    let (pa, pb) = (project(routes_a), project(routes_b));
    let common =
        |x: &[u64], y: &[u64]| -> u32 { x.iter().zip(y).map(|(a, b)| (a & b).count_ones()).sum() };

    let mut best = (0, 0, common(&pa[..width], &pb[..width]));
    'rows: for (i, sa) in pa.chunks_exact(width).enumerate() {
        if best.2 == ceiling {
            break;
        }
        if sa.iter().map(|w| w.count_ones()).sum::<u32>() <= best.2 {
            continue;
        }
        for (j, sb) in pb.chunks_exact(width).enumerate() {
            let c = common(sa, sb);
            if c > best.2 {
                best = (i, j, c);
                if c == ceiling {
                    break 'rows;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_types::NocConfig;

    fn mesh6() -> Mesh {
        Mesh::new(NocConfig {
            width: 6,
            height: 6,
            link_bytes: 16,
            hop_cycles: 3,
        })
    }

    #[test]
    fn signature_set_get_and_count() {
        let m = mesh6();
        let r = m.xy_route(Coord::new(0, 0), Coord::new(3, 2));
        let s = RouteSignature::from_route(&m, &r);
        assert_eq!(s.count_ones(), 5);
        for &l in &r.links {
            assert!(s.get(l));
        }
        let collected: Vec<LinkId> = s.links().collect();
        assert_eq!(collected.len(), 5);
        let mut sorted = r.links.clone();
        sorted.sort();
        assert_eq!(collected, sorted);
    }

    #[test]
    fn intersection_of_disjoint_routes_is_empty() {
        let m = mesh6();
        let r1 = m.xy_route(Coord::new(0, 0), Coord::new(2, 0));
        let r2 = m.xy_route(Coord::new(0, 5), Coord::new(2, 5));
        let s1 = RouteSignature::from_route(&m, &r1);
        let s2 = RouteSignature::from_route(&m, &r2);
        assert_eq!(s1.and(&s2).count_ones(), 0);
    }

    #[test]
    fn minimal_route_counts() {
        let m = mesh6();
        // (0,0) -> (2,2): C(4,2) = 6 staircases.
        let routes = minimal_routes(&m, Coord::new(0, 0), Coord::new(2, 2));
        assert_eq!(routes.len(), 6);
        // Straight line: exactly one.
        let routes = minimal_routes(&m, Coord::new(0, 0), Coord::new(0, 4));
        assert_eq!(routes.len(), 1);
        // Self: one empty route.
        let routes = minimal_routes(&m, Coord::new(3, 3), Coord::new(3, 3));
        assert_eq!(routes.len(), 1);
        assert!(routes[0].links.is_empty());
    }

    /// Reproduces the Figure 11 scenario: two accesses whose XY routes
    /// do not share a link, but reshaped minimal routes share several.
    #[test]
    fn reshaping_creates_overlap_fig11() {
        let m = mesh6();
        // Access a: (0,0) -> (3,3); access b: (0,3)->(3,0) region chosen
        // so XY routes are disjoint on inner links but staircases can
        // overlap.
        let a_src = Coord::new(0, 1);
        let a_dst = Coord::new(3, 2);
        let b_src = Coord::new(1, 0);
        let b_dst = Coord::new(2, 3);
        let xy1 = RouteSignature::from_route(&m, &m.xy_route(a_src, a_dst));
        let xy2 = RouteSignature::from_route(&m, &m.xy_route(b_src, b_dst));
        let xy_common = xy1.and(&xy2).count_ones();
        let best = best_signature_pair(&m, a_src, a_dst, b_src, b_dst);
        assert!(
            best.common_links > xy_common,
            "reshaping should beat XY here: best {} vs xy {}",
            best.common_links,
            xy_common
        );
        assert!(best.common_links >= 1);
    }

    #[test]
    fn same_source_and_dest_share_everything() {
        let m = mesh6();
        let s = Coord::new(1, 1);
        let d = Coord::new(4, 1);
        let best = best_signature_pair(&m, s, d, s, d);
        assert_eq!(best.common_links, 3);
    }

    /// The node-path route enumeration the link-building one replaced:
    /// every monotone path X-step first within 10 hops, else the
    /// two-bend staircases by column, then by interior row.
    fn reference_routes(mesh: &Mesh, src: Coord, dst: Coord) -> Vec<Route> {
        fn walk(a: u16, b: u16) -> Vec<u16> {
            if a <= b {
                (a..=b).collect()
            } else {
                (b..=a).rev().collect()
            }
        }
        fn recurse(mesh: &Mesh, dst: Coord, path: &mut Vec<Coord>, out: &mut Vec<Route>) {
            let at = *path.last().unwrap();
            if at == dst {
                out.push(mesh.route_via(path));
                return;
            }
            let mut nexts = Vec::new();
            if at.x != dst.x {
                nexts.push(Coord::new(walk(at.x, dst.x)[1], at.y));
            }
            if at.y != dst.y {
                nexts.push(Coord::new(at.x, walk(at.y, dst.y)[1]));
            }
            for next in nexts {
                path.push(next);
                recurse(mesh, dst, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        if src.manhattan(dst) <= MAX_EXHAUSTIVE_HOPS as u32 {
            recurse(mesh, dst, &mut vec![src], &mut out);
        } else if src.x == dst.x || src.y == dst.y {
            out.push(mesh.xy_route(src, dst));
        } else {
            let staircase = |via: [Coord; 4]| {
                let mut path = vec![src];
                for w in via.windows(2) {
                    if w[0].x == w[1].x {
                        let ys = walk(w[0].y, w[1].y);
                        path.extend(ys[1..].iter().map(|&y| Coord::new(w[0].x, y)));
                    } else {
                        let xs = walk(w[0].x, w[1].x);
                        path.extend(xs[1..].iter().map(|&x| Coord::new(x, w[0].y)));
                    }
                }
                mesh.route_via(&path)
            };
            for mx in walk(src.x, dst.x) {
                out.push(staircase([
                    src,
                    Coord::new(mx, src.y),
                    Coord::new(mx, dst.y),
                    dst,
                ]));
            }
            for my in walk(src.y, dst.y) {
                if my != src.y && my != dst.y {
                    out.push(staircase([
                        src,
                        Coord::new(src.x, my),
                        Coord::new(dst.x, my),
                        dst,
                    ]));
                }
            }
        }
        out
    }

    /// The allocating all-pairs scan the projected search replaced,
    /// kept as the equivalence reference.
    fn reference_pair(mesh: &Mesh, a: (Coord, Coord), b: (Coord, Coord)) -> SignaturePair {
        let routes_a = reference_routes(mesh, a.0, a.1);
        let routes_b = reference_routes(mesh, b.0, b.1);
        assert_eq!(routes_a, minimal_routes(mesh, a.0, a.1), "{a:?}");
        assert_eq!(routes_b, minimal_routes(mesh, b.0, b.1), "{b:?}");
        let sigs = |routes: &[Route]| -> Vec<RouteSignature> {
            routes
                .iter()
                .map(|r| RouteSignature::from_route(mesh, r))
                .collect()
        };
        let (sigs_a, sigs_b) = (sigs(&routes_a), sigs(&routes_b));
        let mut best: Option<(usize, usize, u32)> = None;
        for (i, sa) in sigs_a.iter().enumerate() {
            for (j, sb) in sigs_b.iter().enumerate() {
                let common = sa.and(sb).count_ones();
                if best.is_none_or(|(_, _, c)| common > c) {
                    best = Some((i, j, common));
                }
            }
        }
        let (i, j, common_links) = best.unwrap();
        SignaturePair {
            route_a: routes_a[i].clone(),
            route_b: routes_b[j].clone(),
            common_links,
        }
    }

    fn assert_matches_reference(mesh: &Mesh, a: (Coord, Coord), b: (Coord, Coord)) {
        let fast = best_signature_pair(mesh, a.0, a.1, b.0, b.1);
        let slow = reference_pair(mesh, a, b);
        assert_eq!(fast.route_a, slow.route_a, "route_a for {a:?} / {b:?}");
        assert_eq!(fast.route_b, slow.route_b, "route_b for {a:?} / {b:?}");
        assert_eq!(fast.common_links, slow.common_links, "{a:?} / {b:?}");
    }

    /// Every `(a_src, b_src, dst)` triple of the paper's 5×5 mesh — the
    /// shape of the simulator's reply-route queries (two banks, one
    /// core) — selects exactly the reference pair.
    #[test]
    fn projected_search_matches_reference_on_every_5x5_triple() {
        let m = Mesh::new(NocConfig {
            width: 5,
            height: 5,
            link_bytes: 16,
            hop_cycles: 3,
        });
        let nodes: Vec<Coord> = (0..5u16)
            .flat_map(|y| (0..5u16).map(move |x| Coord::new(x, y)))
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                for &d in &nodes {
                    assert_matches_reference(&m, (a, d), (b, d));
                }
            }
        }
    }

    /// A seeded 16×16 sample covering both route families: pairs within
    /// 10 hops (exhaustive enumeration) and beyond (staircases), with
    /// shared and with independent destinations.
    #[test]
    fn projected_search_matches_reference_on_16x16_sample() {
        let m = Mesh::new(NocConfig {
            width: 16,
            height: 16,
            link_bytes: 16,
            hop_cycles: 3,
        });
        let mut g = ndc_types::SplitMix64::new(0x516e);
        let at = |g: &mut ndc_types::SplitMix64| Coord::new(g.below(16) as u16, g.below(16) as u16);
        let (mut short, mut long) = (0, 0);
        while short < 48 || long < 48 {
            let d = at(&mut g);
            let (a, b) = (at(&mut g), at(&mut g));
            let b_dst = if g.below(2) == 0 { d } else { at(&mut g) };
            let is_long = a.manhattan(d) > 10 || b.manhattan(b_dst) > 10;
            let count = if is_long { &mut long } else { &mut short };
            if *count < 48 {
                *count += 1;
                assert_matches_reference(&m, (a, d), (b, b_dst));
            }
        }
    }

    #[test]
    fn chosen_routes_remain_minimal() {
        let m = mesh6();
        let a_src = Coord::new(0, 0);
        let a_dst = Coord::new(2, 2);
        let b_src = Coord::new(2, 0);
        let b_dst = Coord::new(0, 2);
        let best = best_signature_pair(&m, a_src, a_dst, b_src, b_dst);
        assert_eq!(best.route_a.hops() as u32, a_src.manhattan(a_dst));
        assert_eq!(best.route_b.hops() as u32, b_src.manhattan(b_dst));
    }
}
