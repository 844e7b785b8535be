//! Mesh topology: nodes, directed links, and static XY routing.

use ndc_types::{Coord, NocConfig, NodeId};

/// A directed communication link between two adjacent mesh nodes.
///
/// Links are numbered densely so a route signature can be a bitset over
/// all `L` links (§5.2.1: "for an on-chip network with a total L
/// communication links, a signature can be represented using an L-bit
/// sequence").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One concrete path through the mesh: an ordered list of directed
/// links from source to destination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Route {
    pub src: Coord,
    pub dst: Coord,
    pub links: Vec<LinkId>,
}

impl Route {
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Static description of a `w × h` 2D mesh.
///
/// Directed links are numbered in four blocks: east (`x → x+1`), west,
/// south (`y → y+1`), north. The block layout is an implementation
/// detail; use [`Mesh::link_between`] / [`Mesh::link_endpoints`].
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: NocConfig,
}

impl Mesh {
    pub fn new(cfg: NocConfig) -> Self {
        assert!(cfg.width >= 1 && cfg.height >= 1, "degenerate mesh");
        Mesh { cfg }
    }

    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    pub fn width(&self) -> u16 {
        self.cfg.width
    }

    pub fn height(&self) -> u16 {
        self.cfg.height
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// Total number of directed links, the `L` of route signatures.
    pub fn num_links(&self) -> usize {
        let w = self.cfg.width as usize;
        let h = self.cfg.height as usize;
        // Horizontal: (w-1)*h in each direction; vertical: w*(h-1) each.
        2 * ((w - 1) * h + w * (h - 1))
    }

    fn east_count(&self) -> u32 {
        (self.cfg.width as u32 - 1) * self.cfg.height as u32
    }

    fn south_count(&self) -> u32 {
        self.cfg.width as u32 * (self.cfg.height as u32 - 1)
    }

    /// The directed link from `a` to the adjacent node `b`.
    ///
    /// # Panics
    /// Panics if `a` and `b` are not mesh-adjacent.
    pub fn link_between(&self, a: Coord, b: Coord) -> LinkId {
        let w1 = self.cfg.width as u32 - 1;
        let h1 = self.cfg.height as u32 - 1;
        let (ax, ay, bx, by) = (a.x as u32, a.y as u32, b.x as u32, b.y as u32);
        let east = self.east_count();
        let south = self.south_count();
        if by == ay && bx == ax + 1 {
            // East block: indexed by (row, column-of-left-node).
            LinkId(ay * w1 + ax)
        } else if by == ay && bx + 1 == ax {
            // West block.
            LinkId(east + ay * w1 + bx)
        } else if bx == ax && by == ay + 1 {
            // South block: indexed by (column, row-of-top-node).
            LinkId(2 * east + ax * h1 + ay)
        } else if bx == ax && by + 1 == ay {
            // North block.
            LinkId(2 * east + south + ax * h1 + by)
        } else {
            panic!("link_between: {a} and {b} are not adjacent");
        }
    }

    /// Inverse of [`Mesh::link_between`]: the (from, to) endpoints.
    pub fn link_endpoints(&self, l: LinkId) -> (Coord, Coord) {
        let w1 = self.cfg.width as u32 - 1;
        let h1 = self.cfg.height as u32 - 1;
        let east = self.east_count();
        let south = self.south_count();
        let i = l.0;
        if i < east {
            let (y, x) = (i / w1, i % w1);
            (
                Coord::new(x as u16, y as u16),
                Coord::new(x as u16 + 1, y as u16),
            )
        } else if i < 2 * east {
            let j = i - east;
            let (y, x) = (j / w1, j % w1);
            (
                Coord::new(x as u16 + 1, y as u16),
                Coord::new(x as u16, y as u16),
            )
        } else if i < 2 * east + south {
            let j = i - 2 * east;
            let (x, y) = (j / h1, j % h1);
            (
                Coord::new(x as u16, y as u16),
                Coord::new(x as u16, y as u16 + 1),
            )
        } else {
            let j = i - 2 * east - south;
            let (x, y) = (j / h1, j % h1);
            (
                Coord::new(x as u16, y as u16 + 1),
                Coord::new(x as u16, y as u16),
            )
        }
    }

    /// The router a message sits in after traversing `l`: the link's
    /// downstream endpoint. NDC link-buffer computations happen at this
    /// router's buffer.
    pub fn link_router(&self, l: LinkId) -> NodeId {
        let (_, to) = self.link_endpoints(l);
        NodeId::from_coord(to, self.cfg.width)
    }

    /// Static XY (dimension-ordered) route: travel along X first, then
    /// Y. This is the baseline routing of the simulated machine
    /// (Table 1: "XY-routing").
    pub fn xy_route(&self, src: Coord, dst: Coord) -> Route {
        Route {
            src,
            dst,
            links: self.xy_links(src, dst).collect(),
        }
    }

    /// The links of [`Mesh::xy_route`], computed one at a time without
    /// building the route. Consecutive links of one leg have
    /// consecutive ids in the link numbering, so each leg is a start id
    /// and a ±1 step.
    pub fn xy_links(&self, src: Coord, dst: Coord) -> XyLinks {
        let w1 = self.cfg.width as u32 - 1;
        let h1 = self.cfg.height as u32 - 1;
        let east = self.east_count();
        let south = self.south_count();
        let (sx, sy, dx, dy) = (src.x as u32, src.y as u32, dst.x as u32, dst.y as u32);
        // X leg along row `sy`: east links `sy*w1 + x`, west links
        // `east + sy*w1 + (x-1)` out of column x.
        let x = if dx >= sx {
            Leg::new(sy * w1 + sx, 1, dx - sx)
        } else {
            Leg::new(east + sy * w1 + sx - 1, u32::MAX, sx - dx)
        };
        // Y leg down column `dx`: south links `2*east + dx*h1 + y`,
        // north links `2*east + south + dx*h1 + (y-1)` out of row y.
        let y = if dy >= sy {
            Leg::new(2 * east + dx * h1 + sy, 1, dy - sy)
        } else {
            Leg::new(2 * east + south + dx * h1 + sy - 1, u32::MAX, sy - dy)
        };
        XyLinks { x, y }
    }

    /// Build a route from an explicit node sequence (used by the
    /// compiler's reshaped routes). Consecutive coordinates must be
    /// adjacent.
    pub fn route_via(&self, path: &[Coord]) -> Route {
        assert!(!path.is_empty());
        let mut links = Vec::with_capacity(path.len().saturating_sub(1));
        for pair in path.windows(2) {
            links.push(self.link_between(pair[0], pair[1]));
        }
        Route {
            src: path[0],
            dst: *path.last().unwrap(),
            links,
        }
    }
}

/// One straight leg of an XY route: `left` links starting at id
/// `next`, each `step` (wrapping: 1 or -1) after the previous.
#[derive(Debug, Clone, Copy)]
struct Leg {
    next: u32,
    step: u32,
    left: u32,
}

impl Leg {
    fn new(first: u32, step: u32, len: u32) -> Leg {
        Leg {
            next: first,
            step,
            left: len,
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<LinkId> {
        if self.left == 0 {
            return None;
        }
        let l = LinkId(self.next);
        self.next = self.next.wrapping_add(self.step);
        self.left -= 1;
        Some(l)
    }
}

/// Iterator over the links of an XY route (see [`Mesh::xy_links`]).
#[derive(Debug, Clone, Copy)]
pub struct XyLinks {
    x: Leg,
    y: Leg,
}

impl Iterator for XyLinks {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        self.x.pop().or_else(|| self.y.pop())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.x.left + self.y.left) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for XyLinks {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh5() -> Mesh {
        Mesh::new(NocConfig {
            width: 5,
            height: 5,
            link_bytes: 16,
            hop_cycles: 3,
        })
    }

    #[test]
    fn link_count_for_5x5() {
        // 5x5 mesh: 4*5=20 east + 20 west + 20 south + 20 north = 80.
        assert_eq!(mesh5().num_links(), 80);
    }

    #[test]
    fn link_ids_are_dense_and_invertible() {
        let m = mesh5();
        let mut seen = std::collections::HashSet::new();
        for y in 0..5u16 {
            for x in 0..5u16 {
                let a = Coord::new(x, y);
                for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1)] {
                    let nx = x as i32 + dx;
                    let ny = y as i32 + dy;
                    if nx < 0 || ny < 0 || nx >= 5 || ny >= 5 {
                        continue;
                    }
                    let b = Coord::new(nx as u16, ny as u16);
                    let l = m.link_between(a, b);
                    assert!(l.index() < m.num_links(), "id {l:?} out of range");
                    assert!(seen.insert(l), "duplicate link id {l:?}");
                    assert_eq!(m.link_endpoints(l), (a, b));
                }
            }
        }
        assert_eq!(seen.len(), m.num_links());
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let m = mesh5();
        let r = m.xy_route(Coord::new(0, 0), Coord::new(2, 2));
        assert_eq!(r.hops(), 4);
        // First two hops move east along row 0, then two south.
        let (f0, t0) = m.link_endpoints(r.links[0]);
        assert_eq!((f0, t0), (Coord::new(0, 0), Coord::new(1, 0)));
        let (f3, t3) = m.link_endpoints(r.links[3]);
        assert_eq!((f3, t3), (Coord::new(2, 1), Coord::new(2, 2)));
    }

    #[test]
    fn xy_route_handles_negative_directions() {
        let m = mesh5();
        let r = m.xy_route(Coord::new(4, 4), Coord::new(1, 0));
        assert_eq!(r.hops(), 7);
        let mut at = Coord::new(4, 4);
        for &l in &r.links {
            let (from, to) = m.link_endpoints(l);
            assert_eq!(from, at);
            at = to;
        }
        assert_eq!(at, Coord::new(1, 0));
    }

    #[test]
    fn self_route_is_empty() {
        let m = mesh5();
        let r = m.xy_route(Coord::new(2, 2), Coord::new(2, 2));
        assert!(r.links.is_empty());
    }

    #[test]
    fn route_via_custom_path() {
        let m = mesh5();
        // A YX-ish detour path from (0,0) to (1,1).
        let r = m.route_via(&[Coord::new(0, 0), Coord::new(0, 1), Coord::new(1, 1)]);
        assert_eq!(r.hops(), 2);
        assert_eq!(r.src, Coord::new(0, 0));
        assert_eq!(r.dst, Coord::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_link_panics() {
        mesh5().link_between(Coord::new(0, 0), Coord::new(2, 0));
    }

    #[test]
    fn link_router_is_downstream() {
        let m = mesh5();
        let l = m.link_between(Coord::new(1, 1), Coord::new(2, 1));
        assert_eq!(m.link_router(l), NodeId::from_coord(Coord::new(2, 1), 5));
    }

    /// The node-stepping XY route the arithmetic walk replaced, kept as
    /// the reference it is checked against.
    fn xy_route_reference(m: &Mesh, src: Coord, dst: Coord) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut at = src;
        while at.x != dst.x {
            let next = if dst.x > at.x {
                Coord::new(at.x + 1, at.y)
            } else {
                Coord::new(at.x - 1, at.y)
            };
            links.push(m.link_between(at, next));
            at = next;
        }
        while at.y != dst.y {
            let next = if dst.y > at.y {
                Coord::new(at.x, at.y + 1)
            } else {
                Coord::new(at.x, at.y - 1)
            };
            links.push(m.link_between(at, next));
            at = next;
        }
        links
    }

    #[test]
    fn xy_links_match_the_node_stepping_route_on_every_pair() {
        for (w, h) in [(5u16, 5u16), (1, 4), (4, 1), (3, 7), (16, 16)] {
            let m = Mesh::new(NocConfig {
                width: w,
                height: h,
                link_bytes: 16,
                hop_cycles: 3,
            });
            for s in 0..m.nodes() {
                for d in 0..m.nodes() {
                    let src = NodeId(s as u16).coord(w);
                    let dst = NodeId(d as u16).coord(w);
                    let walk = m.xy_links(src, dst);
                    assert_eq!(walk.len(), src.manhattan(dst) as usize);
                    let links: Vec<LinkId> = walk.collect();
                    assert_eq!(
                        links,
                        xy_route_reference(&m, src, dst),
                        "{w}x{h} {src}->{dst}"
                    );
                    assert_eq!(m.xy_route(src, dst).links, links);
                }
            }
        }
    }
}
