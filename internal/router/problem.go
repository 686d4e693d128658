package router

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/ray"
	"repro/internal/search"
)

// State identifies a search node: a point on the routing plane plus the
// direction the route was travelling when it arrived there. For
// direction-independent cost models the router collapses In to DirNone so
// each point is a single node, exactly the paper's formulation; directional
// models (the ε corner rule) need the approach direction to price bends.
//
// The zero Point with virtual=true is the synthetic multi-source start.
type State struct {
	At      geom.Point
	In      geom.Dir
	virtual bool
}

// indexThreshold is the target-set size (points + segments) above which the
// sorted-table index pays for itself. Below it the plain scans win: a
// two-pin net has a single target point, and four binary searches cost more
// than one subtraction. The property tests pin both paths to each other, so
// the threshold is a pure performance knob.
const indexThreshold = 16

// targetSet is the goal of a connection search: a set of points and
// segments. A plain two-pin route has a single target point; a Steiner
// attachment targets the whole partially-built tree, segments included —
// the paper's modification of the spanning-tree algorithm.
//
// On multi-terminal nets the partial tree reaches hundreds of segments, and
// the search asks nearest once per expansion (the ray guide) and once per
// new node (the heuristic) and crossing once per emitted successor, so
// large sets are answered from a targetIndex of per-axis sorted tables
// instead of the linear scans.
// RouteNet mutates one shared set as the tree accretes (addPoints/addSegs);
// the index is brought up to date incrementally by prepare, which the
// search core invokes once per run (search.PreparedProblem).
type targetSet struct {
	points []geom.Point
	segs   []geom.Seg
	// idx is allocated lazily, the first time the set grows past the index
	// threshold: two-pin connection queries (the overwhelmingly common
	// case) then pay for a small struct and two slice headers, not the
	// full table set.
	idx *targetIndex
	// validated marks that every target point passed endpoint validation;
	// RouteNet's candidate searches share one set, so the check runs once.
	validated bool
}

// reset readies a recycled set for a new net, keeping table capacity.
func (t *targetSet) reset() {
	t.points = t.points[:0]
	t.segs = t.segs[:0]
	t.validated = false
	if t.idx != nil {
		t.idx.reset()
	}
}

// addPoints appends target points; the index catches up on next prepare.
func (t *targetSet) addPoints(pts ...geom.Point) {
	t.points = append(t.points, pts...)
}

// addSeg appends one target segment; the index catches up on next prepare.
func (t *targetSet) addSeg(s geom.Seg) {
	t.segs = append(t.segs, s)
}

// prepare brings the index up to date when the set is large enough to be
// worth indexing (or already was). Called by the search core before every
// run; cheap when nothing changed.
func (t *targetSet) prepare() {
	if t.idx == nil {
		if len(t.points)+len(t.segs) < indexThreshold {
			return
		}
		t.idx = &targetIndex{}
	}
	t.idx.syncTo(t.points, t.segs)
}

// indexed reports whether the index covers the current set.
func (t *targetSet) indexed() bool {
	return t.idx != nil && t.idx.built && t.idx.nPts == len(t.points) && t.idx.nSegs == len(t.segs)
}

// contains reports whether p is on the target set.
func (t *targetSet) contains(p geom.Point) bool {
	if t.indexed() {
		return t.idx.contains(p)
	}
	for _, q := range t.points {
		if p == q {
			return true
		}
	}
	for _, s := range t.segs {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

// nearest returns the closest point of the target set to p and its
// Manhattan distance. The distance is an admissible heuristic; the point
// guides ray generation. Distance ties break toward the lexicographically
// smaller point, which makes the answer a pure function of the set — both
// the scan below and the indexed query return the identical point.
func (t *targetSet) nearest(p geom.Point) (geom.Point, geom.Coord) {
	if t.indexed() {
		return t.idx.nearest(p)
	}
	best := geom.Point{}
	bestD := geom.Coord(-1)
	consider := func(q geom.Point) {
		d := p.Manhattan(q)
		if bestD < 0 || d < bestD || (d == bestD && q.Less(best)) {
			best, bestD = q, d
		}
	}
	for _, q := range t.points {
		consider(q)
	}
	for _, s := range t.segs {
		// The nearest point of an axis-parallel segment to p clamps p's
		// coordinates onto the segment's span.
		b := s.Bounds()
		consider(geom.Pt(geom.Clamp(p.X, b.MinX, b.MaxX), geom.Clamp(p.Y, b.MinY, b.MaxY)))
	}
	return best, bestD
}

// crossing returns the point where the directed travel segment from→to
// first meets the target set, if it does. Rays are cast toward the nearest
// target, but a travel segment can also cross a *different* target segment
// transversally; detecting that crossing early is what lets a route attach
// to the middle of an existing tree edge. The first contact is the answer:
// every candidate lies on the travel segment, so its distance from `from`
// determines it uniquely and the result does not depend on scan order.
func (t *targetSet) crossing(from, to geom.Point) (geom.Point, bool) {
	if from == to {
		// Degenerate travel: the only possible contact is the point itself.
		if t.contains(from) {
			return from, true
		}
		return geom.Point{}, false
	}
	if t.indexed() {
		return t.idx.crossing(from, to)
	}
	travel := geom.S(from, to)
	d := travel.Dir()
	best := geom.Point{}
	bestD := geom.Coord(-1)
	consider := func(q geom.Point) {
		if !travel.Contains(q) {
			return
		}
		dist := from.Manhattan(q)
		if bestD < 0 || dist < bestD {
			best, bestD = q, dist
		}
	}
	for _, q := range t.points {
		consider(q)
	}
	for _, s := range t.segs {
		if !travel.Intersects(s) {
			continue
		}
		// Intersection of two axis-parallel segments: the overlap box is
		// degenerate; its corner nearest `from` along the travel direction
		// is the first contact.
		ov := travel.Bounds().Intersection(s.Bounds())
		var q geom.Point
		switch d {
		case geom.East, geom.North, geom.DirNone:
			q = geom.Pt(ov.MinX, ov.MinY)
		case geom.West:
			q = geom.Pt(ov.MaxX, ov.MinY)
		case geom.South:
			q = geom.Pt(ov.MinX, ov.MaxY)
		}
		consider(q)
	}
	if bestD < 0 {
		return geom.Point{}, false
	}
	return best, true
}

// targetSpan is one non-degenerate target segment filed in a targetIndex:
// At is the fixed coordinate (x of a vertical segment, y of a horizontal
// one), [Lo, Hi] the span along the segment's own axis.
type targetSpan struct {
	At, Lo, Hi geom.Coord
}

// targetIndex answers the targetSet queries from per-axis sorted tables,
// the way plane.Index answers obstacle queries: nearest runs a best-first
// outward scan over four tables (O(log n) binary searches plus the entries
// within the best distance), crossing a bounded corridor scan over the
// tables that can touch the travel segment.
//
// The point tables hold every target point plus every segment endpoint.
// Endpoints are sound extra candidates for nearest: the clamp point of a
// segment is its unique distance minimizer, so an endpoint either is the
// clamp point or lies strictly farther — it can never win a distance tie
// against a different point and perturb the lexicographic tie-break.
// Degenerate (single-point) segments are filed as points only.
type targetIndex struct {
	ptsByX []geom.Point // target points + segment endpoints, sorted (X, Y)
	ptsByY []geom.Point // same entries, sorted (Y, X)
	vsegs  []targetSpan // vertical segments, sorted (At, Lo, Hi)
	hsegs  []targetSpan // horizontal segments, sorted (At, Lo, Hi)

	built       bool
	nPts, nSegs int // prefix of points/segs already filed
	scratchPts  []geom.Point
	scratchV    []targetSpan
	scratchH    []targetSpan
}

// reset empties the index, keeping capacity for reuse.
func (ix *targetIndex) reset() {
	ix.ptsByX = ix.ptsByX[:0]
	ix.ptsByY = ix.ptsByY[:0]
	ix.vsegs = ix.vsegs[:0]
	ix.hsegs = ix.hsegs[:0]
	ix.built = false
	ix.nPts, ix.nSegs = 0, 0
}

// syncTo files every point and segment not yet in the tables. The new
// entries of one round are sorted among themselves and merged into the
// sorted tables backward in place — O(new log new + table) per round
// instead of a full rebuild.
func (ix *targetIndex) syncTo(points []geom.Point, segs []geom.Seg) {
	if ix.nPts == len(points) && ix.nSegs == len(segs) {
		ix.built = true
		return
	}
	newPts := ix.scratchPts[:0]
	newPts = append(newPts, points[ix.nPts:]...)
	vs, hs := ix.scratchV[:0], ix.scratchH[:0]
	for _, s := range segs[ix.nSegs:] {
		if s.A == s.B {
			newPts = append(newPts, s.A)
			continue
		}
		newPts = append(newPts, s.A, s.B)
		b := s.Bounds()
		if s.Vertical() {
			vs = append(vs, targetSpan{At: b.MinX, Lo: b.MinY, Hi: b.MaxY})
		} else {
			hs = append(hs, targetSpan{At: b.MinY, Lo: b.MinX, Hi: b.MaxX})
		}
	}
	sort.Slice(newPts, func(a, b int) bool { return ptLessXY(newPts[a], newPts[b]) })
	ix.ptsByX = mergeSorted(ix.ptsByX, newPts, ptLessXY)
	sort.Slice(newPts, func(a, b int) bool { return ptLessYX(newPts[a], newPts[b]) })
	ix.ptsByY = mergeSorted(ix.ptsByY, newPts, ptLessYX)
	sort.Slice(vs, func(a, b int) bool { return spanLess(vs[a], vs[b]) })
	ix.vsegs = mergeSorted(ix.vsegs, vs, spanLess)
	sort.Slice(hs, func(a, b int) bool { return spanLess(hs[a], hs[b]) })
	ix.hsegs = mergeSorted(ix.hsegs, hs, spanLess)
	ix.scratchPts = newPts[:0]
	ix.scratchV, ix.scratchH = vs[:0], hs[:0]
	ix.nPts, ix.nSegs = len(points), len(segs)
	ix.built = true
}

func ptLessXY(a, b geom.Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

func ptLessYX(a, b geom.Point) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

func spanLess(a, b targetSpan) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}

// mergeSorted merges the sorted batch add into the sorted dst in place
// (growing dst), back to front so no element is overwritten before it is
// consumed. add must not alias dst.
func mergeSorted[T any](dst, add []T, less func(a, b T) bool) []T {
	if len(add) == 0 {
		return dst
	}
	n := len(dst)
	dst = append(dst, add...)
	i, j, w := n-1, len(add)-1, len(dst)-1
	//grlint:bounded merge of two finite sorted slices; one cursor retreats per iteration
	for i >= 0 && j >= 0 {
		if less(add[j], dst[i]) {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = add[j]
			j--
		}
		w--
	}
	for j >= 0 {
		dst[w] = add[j]
		j--
		w--
	}
	return dst
}

// contains reports whether p lies on an indexed point or segment.
func (ix *targetIndex) contains(p geom.Point) bool {
	i := sort.Search(len(ix.ptsByX), func(k int) bool { return !ptLessXY(ix.ptsByX[k], p) })
	if i < len(ix.ptsByX) && ix.ptsByX[i] == p {
		return true
	}
	j := sort.Search(len(ix.vsegs), func(k int) bool { return ix.vsegs[k].At >= p.X })
	for ; j < len(ix.vsegs) && ix.vsegs[j].At == p.X; j++ {
		if e := ix.vsegs[j]; e.Lo <= p.Y && p.Y <= e.Hi {
			return true
		}
	}
	k := sort.Search(len(ix.hsegs), func(k int) bool { return ix.hsegs[k].At >= p.Y })
	for ; k < len(ix.hsegs) && ix.hsegs[k].At == p.Y; k++ {
		if e := ix.hsegs[k]; e.Lo <= p.X && p.X <= e.Hi {
			return true
		}
	}
	return false
}

// nearest is the indexed nearest-target query: a best-first outward scan
// over eight frontiers (left/right of p in each of the four tables), always
// advancing the frontier with the smallest axis distance. Since Manhattan
// distance is at least the distance along either axis, the scan can stop as
// soon as every frontier's next entry is farther along its axis than the
// best full distance found — candidates at exactly the best distance are
// still visited, so the lexicographic tie-break sees every contender.
//
// A frontier advances one coordinate line at a time, not one entry: a
// Steiner trunk files dozens of points and segments on one x, and all of
// them share the frontier's axis distance. Of a line's points only the two
// bracketing p's cross coordinate are considered, binary-searched; every
// other one is strictly farther than one of them. A line's segments yield
// one candidate, the clamp point, if any of them spans p's cross
// coordinate; its full distance then equals the axis distance. Segments
// beyond p's span contribute via their endpoints in the point tables.
func (ix *targetIndex) nearest(p geom.Point) (geom.Point, geom.Coord) {
	best := geom.Point{}
	bestD := geom.Coord(-1)
	consider := func(q geom.Point) {
		d := p.Manhattan(q)
		if bestD < 0 || d < bestD || (d == bestD && q.Less(best)) {
			best, bestD = q, d
		}
	}
	xr := sort.Search(len(ix.ptsByX), func(k int) bool { return ix.ptsByX[k].X >= p.X })
	xl := xr - 1
	yr := sort.Search(len(ix.ptsByY), func(k int) bool { return ix.ptsByY[k].Y >= p.Y })
	yl := yr - 1
	vr := sort.Search(len(ix.vsegs), func(k int) bool { return ix.vsegs[k].At >= p.X })
	vl := vr - 1
	hr := sort.Search(len(ix.hsegs), func(k int) bool { return ix.hsegs[k].At >= p.Y })
	hl := hr - 1
	//grlint:bounded each iteration retires one frontier cursor over four finite sorted tables
	for {
		minD := geom.Coord(-1)
		minF := -1
		upd := func(d geom.Coord, f int) {
			if minD < 0 || d < minD {
				minD, minF = d, f
			}
		}
		if xl >= 0 {
			upd(p.X-ix.ptsByX[xl].X, 0)
		}
		if xr < len(ix.ptsByX) {
			upd(ix.ptsByX[xr].X-p.X, 1)
		}
		if yl >= 0 {
			upd(p.Y-ix.ptsByY[yl].Y, 2)
		}
		if yr < len(ix.ptsByY) {
			upd(ix.ptsByY[yr].Y-p.Y, 3)
		}
		if vl >= 0 {
			upd(p.X-ix.vsegs[vl].At, 4)
		}
		if vr < len(ix.vsegs) {
			upd(ix.vsegs[vr].At-p.X, 5)
		}
		if hl >= 0 {
			upd(p.Y-ix.hsegs[hl].At, 6)
		}
		if hr < len(ix.hsegs) {
			upd(ix.hsegs[hr].At-p.Y, 7)
		}
		if minF < 0 || (bestD >= 0 && minD > bestD) {
			break
		}
		// Every entry of a run shares the frontier's axis distance, so a
		// run is retired in one step: of a point run only the two entries
		// bracketing p's cross coordinate can be nearest (the others are
		// strictly farther along the run's line), and a segment run
		// contributes one clamp point if any of its segments covers p.
		switch minF {
		case 0:
			x := ix.ptsByX[xl].X
			s := runStart(xl, func(k int) bool { return ix.ptsByX[k].X == x })
			bracketRun(ix.ptsByX[s:xl+1], p.Y, false, consider)
			xl = s - 1
		case 1:
			x := ix.ptsByX[xr].X
			e := runEnd(xr, len(ix.ptsByX), func(k int) bool { return ix.ptsByX[k].X == x })
			bracketRun(ix.ptsByX[xr:e], p.Y, false, consider)
			xr = e
		case 2:
			y := ix.ptsByY[yl].Y
			s := runStart(yl, func(k int) bool { return ix.ptsByY[k].Y == y })
			bracketRun(ix.ptsByY[s:yl+1], p.X, true, consider)
			yl = s - 1
		case 3:
			y := ix.ptsByY[yr].Y
			e := runEnd(yr, len(ix.ptsByY), func(k int) bool { return ix.ptsByY[k].Y == y })
			bracketRun(ix.ptsByY[yr:e], p.X, true, consider)
			yr = e
		case 4:
			at := ix.vsegs[vl].At
			s := runStart(vl, func(k int) bool { return ix.vsegs[k].At == at })
			if runCovers(ix.vsegs[s:vl+1], p.Y) {
				consider(geom.Pt(at, p.Y))
			}
			vl = s - 1
		case 5:
			at := ix.vsegs[vr].At
			e := runEnd(vr, len(ix.vsegs), func(k int) bool { return ix.vsegs[k].At == at })
			if runCovers(ix.vsegs[vr:e], p.Y) {
				consider(geom.Pt(at, p.Y))
			}
			vr = e
		case 6:
			at := ix.hsegs[hl].At
			s := runStart(hl, func(k int) bool { return ix.hsegs[k].At == at })
			if runCovers(ix.hsegs[s:hl+1], p.X) {
				consider(geom.Pt(p.X, at))
			}
			hl = s - 1
		case 7:
			at := ix.hsegs[hr].At
			e := runEnd(hr, len(ix.hsegs), func(k int) bool { return ix.hsegs[k].At == at })
			if runCovers(ix.hsegs[hr:e], p.X) {
				consider(geom.Pt(p.X, at))
			}
			hr = e
		}
	}
	return best, bestD
}

// runEnd returns the end of the run of entries in [i, n) for which in
// holds, given in(i). It probes 1, 2, 4, … entries ahead and
// binary-searches the last gap, so a run costs O(log run), not O(log n).
func runEnd(i, n int, in func(int) bool) int {
	step := 1
	for i+step < n && in(i+step) {
		i += step
		step *= 2
	}
	hi := min(i+step, n)
	return i + 1 + sort.Search(hi-i-1, func(k int) bool { return !in(i + 1 + k) })
}

// runStart is runEnd toward lower indices: the first index of the run of
// entries ending at i for which in holds, given in(i).
func runStart(i int, in func(int) bool) int {
	step := 1
	for i-step >= 0 && in(i-step) {
		i -= step
		step *= 2
	}
	lo := max(i-step, -1)
	return lo + 1 + sort.Search(i-lo-1, func(k int) bool { return in(lo + 1 + k) })
}

// bracketRun considers the entries of a point run — one line, sorted by the
// cross coordinate (x when byX, else y) — that bracket c: the last one
// below c and the first one at or above it. Every other entry is strictly
// farther from any point whose cross coordinate is c, or equal to a
// bracketing one.
func bracketRun(run []geom.Point, c geom.Coord, byX bool, consider func(geom.Point)) {
	m := sort.Search(len(run), func(k int) bool {
		if byX {
			return run[k].X >= c
		}
		return run[k].Y >= c
	})
	if m < len(run) {
		consider(run[m])
	}
	if m > 0 {
		consider(run[m-1])
	}
}

// runCovers reports whether any segment of a run — one line, sorted by
// (Lo, Hi) — spans c. Only segments with Lo <= c can; the scan walks them
// from the last one down, since on a tree's trunk of abutting segments
// that one covers c whenever any does.
func runCovers(run []targetSpan, c geom.Coord) bool {
	for i := sort.Search(len(run), func(k int) bool { return run[k].Lo > c }) - 1; i >= 0; i-- {
		if run[i].Hi >= c {
			return true
		}
	}
	return false
}

// crossing is the indexed first-contact query for a non-degenerate travel
// segment: point contacts come from the cross-axis point table's row (or
// column) at the travel line, transversal segment contacts from a bounded
// corridor scan between the travel endpoints, and collinear overlaps from
// the same-At entries of the parallel table. Every candidate lies on the
// travel segment, so the minimum distance from `from` identifies it
// uniquely.
func (ix *targetIndex) crossing(from, to geom.Point) (geom.Point, bool) {
	bestD := geom.Coord(-1)
	if from.Y == to.Y {
		y := from.Y
		xlo, xhi := geom.Min(from.X, to.X), geom.Max(from.X, to.X)
		east := to.X > from.X
		bestX := geom.Coord(0)
		considerX := func(x geom.Coord) {
			d := geom.Abs(from.X - x)
			if bestD < 0 || d < bestD {
				bestD, bestX = d, x
			}
		}
		i := sort.Search(len(ix.ptsByY), func(k int) bool {
			q := ix.ptsByY[k]
			return q.Y > y || (q.Y == y && q.X >= xlo)
		})
		for ; i < len(ix.ptsByY) && ix.ptsByY[i].Y == y && ix.ptsByY[i].X <= xhi; i++ {
			considerX(ix.ptsByY[i].X)
		}
		j := sort.Search(len(ix.vsegs), func(k int) bool { return ix.vsegs[k].At >= xlo })
		for ; j < len(ix.vsegs) && ix.vsegs[j].At <= xhi; j++ {
			if e := ix.vsegs[j]; e.Lo <= y && y <= e.Hi {
				considerX(e.At)
			}
		}
		k := sort.Search(len(ix.hsegs), func(k int) bool { return ix.hsegs[k].At >= y })
		for ; k < len(ix.hsegs) && ix.hsegs[k].At == y; k++ {
			e := ix.hsegs[k]
			if lo, hi := geom.Max(xlo, e.Lo), geom.Min(xhi, e.Hi); lo <= hi {
				if east {
					considerX(lo)
				} else {
					considerX(hi)
				}
			}
		}
		if bestD < 0 {
			return geom.Point{}, false
		}
		return geom.Pt(bestX, y), true
	}
	x := from.X
	ylo, yhi := geom.Min(from.Y, to.Y), geom.Max(from.Y, to.Y)
	north := to.Y > from.Y
	bestY := geom.Coord(0)
	considerY := func(y geom.Coord) {
		d := geom.Abs(from.Y - y)
		if bestD < 0 || d < bestD {
			bestD, bestY = d, y
		}
	}
	i := sort.Search(len(ix.ptsByX), func(k int) bool {
		q := ix.ptsByX[k]
		return q.X > x || (q.X == x && q.Y >= ylo)
	})
	for ; i < len(ix.ptsByX) && ix.ptsByX[i].X == x && ix.ptsByX[i].Y <= yhi; i++ {
		considerY(ix.ptsByX[i].Y)
	}
	j := sort.Search(len(ix.hsegs), func(k int) bool { return ix.hsegs[k].At >= ylo })
	for ; j < len(ix.hsegs) && ix.hsegs[j].At <= yhi; j++ {
		if e := ix.hsegs[j]; e.Lo <= x && x <= e.Hi {
			considerY(e.At)
		}
	}
	k := sort.Search(len(ix.vsegs), func(k int) bool { return ix.vsegs[k].At >= x })
	for ; k < len(ix.vsegs) && ix.vsegs[k].At == x; k++ {
		e := ix.vsegs[k]
		if lo, hi := geom.Max(ylo, e.Lo), geom.Min(yhi, e.Hi); lo <= hi {
			if north {
				considerY(lo)
			} else {
				considerY(hi)
			}
		}
	}
	if bestD < 0 {
		return geom.Point{}, false
	}
	return geom.Pt(x, bestY), true
}

// connProblem adapts a connection query to the generic search framework.
// The cur/emit/wrap fields are per-expansion scratch: the search core passes
// one stable emit closure for the whole run, so the ray-to-search adapter
// closure is built once and rebound through the fields instead of being
// reallocated on every expansion.
type connProblem struct {
	gen        ray.Gen
	cost       CostModel
	sources    []geom.Point
	targets    *targetSet
	onExpand   func(geom.Point, search.Cost)
	onGenerate func(geom.Point, search.Cost)

	directional bool
	cur         State
	emit        func(State, search.Cost)
	wrap        func(geom.Point, geom.Dir)
}

var (
	_ search.Problem[State]       = (*connProblem)(nil)
	_ search.TracedProblem[State] = (*connProblem)(nil)
	_ search.PreparedProblem      = (*connProblem)(nil)
)

// stateTracer forwards search events to the router's callbacks.
type stateTracer struct {
	onExpand   func(geom.Point, search.Cost)
	onGenerate func(geom.Point, search.Cost)
}

// Expanded implements search.Tracer.
func (t stateTracer) Expanded(s State, g search.Cost) {
	if t.onExpand != nil && !s.virtual {
		t.onExpand(s.At, g)
	}
}

// Generated implements search.Tracer.
func (t stateTracer) Generated(s State, g search.Cost) {
	if t.onGenerate != nil && !s.virtual {
		t.onGenerate(s.At, g)
	}
}

// Tracer implements search.TracedProblem.
func (p *connProblem) Tracer() search.Tracer[State] {
	if p.onExpand == nil && p.onGenerate == nil {
		return nil
	}
	return stateTracer{onExpand: p.onExpand, onGenerate: p.onGenerate}
}

// Prepare implements search.PreparedProblem: it brings the target set's
// sorted tables up to date with the points and segments RouteNet appended
// since the last search, once per run.
func (p *connProblem) Prepare() { p.targets.prepare() }

// Start implements search.Problem with the synthetic multi-source node.
func (p *connProblem) Start() State { return State{virtual: true} }

// IsGoal implements search.Problem.
func (p *connProblem) IsGoal(s State) bool {
	return !s.virtual && p.targets.contains(s.At)
}

// Heuristic implements search.Problem: Scale times the Manhattan distance
// to the nearest target, the paper's admissible lower bound. The virtual
// start gets 0, trivially admissible.
func (p *connProblem) Heuristic(s State) search.Cost {
	if s.virtual {
		return 0
	}
	_, d := p.targets.nearest(s.At)
	if d < 0 {
		return 0
	}
	return Scale * d
}

// Successors implements search.Problem.
func (p *connProblem) Successors(s State, emit func(State, search.Cost)) {
	if s.virtual {
		// Dedup the (tiny) source set without a per-query map.
		for i, src := range p.sources {
			dup := false
			for _, prev := range p.sources[:i] {
				if prev == src {
					dup = true
					break
				}
			}
			if !dup {
				emit(State{At: src}, 0)
			}
		}
		return
	}
	p.cur = s
	p.emit = emit
	if p.wrap == nil {
		p.directional = p.cost.Directional()
		p.wrap = func(next geom.Point, via geom.Dir) {
			s := p.cur
			p.emitMove(s, next, via)
			// If the travel segment crosses the target set before reaching
			// `next`, emit the crossing too so mid-segment attachments are
			// reachable goals.
			if q, ok := p.targets.crossing(s.At, next); ok && q != next && q != s.At {
				p.emitMove(s, q, via)
			}
		}
	}
	guide, _ := p.targets.nearest(s.At)
	p.gen.Successors(s.At, guide, p.wrap)
}

// emitMove prices and emits a single successor.
func (p *connProblem) emitMove(s State, next geom.Point, via geom.Dir) {
	cost := p.cost.SegCost(s.At, next, s.In)
	st := State{At: next}
	if p.directional {
		st.In = via
	}
	p.emit(st, cost)
}
