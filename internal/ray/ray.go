// Package ray generates search successors on the gridless routing plane —
// the paper's replacement for grid expansion.
//
// The paper's requirements for the successor generator are that it
//
//	(1) extends any path as far toward the goal as is feasible in x and y, and
//	(2) hugs cells (obstacles) as they are encountered.
//
// Requirement (1) is realized by casting a ray toward the goal along each
// axis; the ray stops at the goal-aligned coordinate, at the first obstacle
// boundary, or at the routing bounds (Sutherland-style ray tracing via
// plane.Index). Requirement (2) is realized at expansion time: whenever the
// expanded point lies on an obstacle boundary, slides along every incident
// obstacle edge toward the edge's corners are emitted (each slide is itself
// a ray, so another obstacle can stop it early).
//
// Because every emitted coordinate is an obstacle-edge coordinate, a
// goal/pin coordinate, or a routing bound, the reachable state space is a
// finite subset of the Hanan-style grid induced by those event coordinates,
// so the search always terminates.
package ray

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/plane"
)

// Mode selects how aggressively successors are generated.
type Mode uint8

const (
	// Directed is the paper's generator: goal-ward rays plus boundary
	// hugging. It produces remarkably few nodes (Figure 1).
	Directed Mode = iota
	// AllDirs casts rays in all four directions from every node in addition
	// to boundary hugging. It produces a denser graph; the ablation
	// experiments compare it against Directed.
	AllDirs
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Directed {
		return "directed"
	}
	return "all-dirs"
}

// Gen generates successors over a plane index. It is stateless apart from
// configuration and safe for concurrent use.
type Gen struct {
	// Ix is the obstacle index. It must be non-nil.
	Ix *plane.Index
	// Mode selects the generation strategy. The zero value is Directed.
	Mode Mode
}

// Successors invokes emit for every successor point of `at` when searching
// toward `guide`. The emitted via is the direction of travel from `at` to
// the successor. guide supplies the goal-aligned ray limits; for multi-goal
// searches the caller passes the nearest goal point.
func (g *Gen) Successors(at, guide geom.Point, emit func(next geom.Point, via geom.Dir)) {
	b := g.Ix.Bounds()

	// emitRay casts one ray, emitting the final stop point plus one escape
	// point per visible obstacle-corner line crossing the ray (see
	// cornerProjections) — the track-graph vertices a shortest route may
	// need to turn at, each emitted once.
	emitRay := func(d geom.Dir, limit geom.Coord) {
		h := g.Ix.RayHit(at, d, limit)
		var next geom.Point
		if d.Horizontal() {
			next = geom.Pt(h.Stop, at.Y)
		} else {
			next = geom.Pt(at.X, h.Stop)
		}
		if next != at {
			emit(next, d)
			g.cornerProjections(at, d, h.Stop, emit)
		}
	}

	// Requirement (1): goal-ward rays, limited at goal alignment.
	hd, vd := geom.DirTowards(at, guide)
	if hd != geom.DirNone {
		emitRay(hd, guide.X)
	}
	if vd != geom.DirNone {
		emitRay(vd, guide.Y)
	}

	if g.Mode == AllDirs {
		// Rays in the remaining directions run to the routing bounds.
		for _, d := range geom.Dirs {
			if d == hd || d == vd {
				continue
			}
			switch d {
			case geom.East:
				emitRay(d, b.MaxX)
			case geom.West:
				emitRay(d, b.MinX)
			case geom.North:
				emitRay(d, b.MaxY)
			case geom.South:
				emitRay(d, b.MinY)
			}
		}
	}

	g.hug(at, emitRay)
}

// cornerProjections emits an escape point at every visible perpendicular
// projection of an obstacle corner onto the ray just cast from `at` in
// direction d (which stopped at coordinate stop along the travel axis).
//
// These are the vertices of the classical track graph: a shortest
// rectilinear path among rectangular obstacles can always be deformed so
// that each of its segments lies on a maximal free line through an obstacle
// corner (or through the start/goal). A route travelling along this ray may
// therefore need to turn exactly where such a corner line crosses it. A
// projection counts only when the perpendicular segment from the corner to
// the ray is unobstructed — otherwise the crossing lies on a different
// maximal free segment of the same line and is not a track vertex.
//
// Each track vertex is emitted once, however many cells share its edge
// line (a whole row or column of a macro grid does). The emitted stream is
// a full cell scan's — ascending cell, then coordinate — with the repeats
// dropped: a line's vertex is credited to the lowest-id cell on it whose
// projection is visible, and vertices are emitted in (cell, coordinate)
// order. A repeat would have been a no-op for the search anyway (same
// point, direction and cost as the first), so only the generated count
// differs from emitting every cell's projection.
func (g *Gen) cornerProjections(at geom.Point, d geom.Dir, stop geom.Coord, emit func(geom.Point, geom.Dir)) {
	horiz := d.Horizontal()
	var cands []plane.Corner
	if horiz {
		cands = g.Ix.CornersX(geom.Min(at.X, stop), geom.Max(at.X, stop))
	} else {
		cands = g.Ix.CornersY(geom.Min(at.Y, stop), geom.Max(at.Y, stop))
	}
	// The corridor's entries are (coordinate, cell)-ordered, so each edge
	// line is one run with its cells ascending. Keep the first visible
	// entry of every run and skip the rest of it; the stack buffer keeps
	// the common case allocation-free.
	var buf [32]plane.Corner
	lines := buf[:0]
	for i := 0; i < len(cands); {
		line := cands[i].At
		for ; i < len(cands) && cands[i].At == line; i++ {
			if g.projectionVisible(at, horiz, cands[i]) {
				lines = append(lines, cands[i])
				rest := cands[i+1:]
				i += 1 + sort.Search(len(rest), func(k int) bool { return rest[k].At > line })
				break
			}
		}
	}
	// At most one survivor per line: re-sort into the (cell, coordinate)
	// order of a full cell scan, which the router's deterministic
	// tie-breaking depends on. The keys are distinct (coordinates are), so
	// the unstable sort is still deterministic.
	slices.SortFunc(lines, func(a, b plane.Corner) int {
		if a.Cell != b.Cell {
			return int(a.Cell - b.Cell)
		}
		return cmp.Compare(a.At, b.At)
	})
	for _, cd := range lines {
		if horiz {
			emit(geom.Pt(cd.At, at.Y), d)
		} else {
			emit(geom.Pt(at.X, cd.At), d)
		}
	}
}

// projectionVisible reports whether the corner entry cd projects onto the
// ray line through `at` (horizontal when horiz). A ray line strictly inside
// the cell's cross span cannot cross its corner tracks without having been
// blocked first; otherwise the perpendicular segment from the cell's
// nearest corner to the ray must be unobstructed.
func (g *Gen) projectionVisible(at geom.Point, horiz bool, cd plane.Corner) bool {
	c := g.Ix.Cell(int(cd.Cell))
	var seg geom.Seg
	if horiz {
		var cy geom.Coord
		switch {
		case at.Y <= c.MinY:
			cy = c.MinY
		case at.Y >= c.MaxY:
			cy = c.MaxY
		default:
			return false
		}
		seg = geom.S(geom.Pt(cd.At, cy), geom.Pt(cd.At, at.Y))
	} else {
		var cx geom.Coord
		switch {
		case at.X <= c.MinX:
			cx = c.MinX
		case at.X >= c.MaxX:
			cx = c.MaxX
		default:
			return false
		}
		seg = geom.S(geom.Pt(cx, cd.At), geom.Pt(at.X, cd.At))
	}
	_, blocked := g.Ix.SegBlocked(seg)
	return !blocked
}

// hug emits slides along every obstacle edge containing `at`.
func (g *Gen) hug(at geom.Point, emitRay func(geom.Dir, geom.Coord)) {
	// Requirement (2): hug every obstacle whose boundary contains `at`.
	var buf [4]int
	for _, ci := range g.Ix.BoundaryCells(at, buf[:0]) {
		c := g.Ix.Cell(ci)
		// Slide along each incident edge toward the edge corners. A point
		// on a horizontal edge (y == MinY or MaxY, x within span) slides
		// east/west; a point on a vertical edge slides north/south; a
		// corner lies on two edges and slides along both.
		onHorizEdge := (at.Y == c.MinY || at.Y == c.MaxY) && at.X >= c.MinX && at.X <= c.MaxX
		onVertEdge := (at.X == c.MinX || at.X == c.MaxX) && at.Y >= c.MinY && at.Y <= c.MaxY
		if onHorizEdge {
			if at.X > c.MinX {
				emitRay(geom.West, c.MinX)
			}
			if at.X < c.MaxX {
				emitRay(geom.East, c.MaxX)
			}
		}
		if onVertEdge {
			if at.Y > c.MinY {
				emitRay(geom.South, c.MinY)
			}
			if at.Y < c.MaxY {
				emitRay(geom.North, c.MaxY)
			}
		}
	}
}
