package router

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// This file pins the indexed targetSet queries — nearest (including the
// lexicographic tie-break on distance ties), crossing, and contains — to
// the naive linear scans they replaced, over randomized target sets with
// deliberately tie-prone coordinates. The fuzz target drives the identical
// comparison from arbitrary seeds. Routes are byte-for-byte functions of
// these three queries, so their equivalence is what keeps routing output
// identical under the index.

// naiveNearest is the pre-index linear scan (candidates: every target
// point, plus the clamp point of every segment; min by distance, ties by
// lexicographic point order).
func naiveNearest(points []geom.Point, segs []geom.Seg, p geom.Point) (geom.Point, geom.Coord) {
	best := geom.Point{}
	bestD := geom.Coord(-1)
	consider := func(q geom.Point) {
		d := p.Manhattan(q)
		if bestD < 0 || d < bestD || (d == bestD && q.Less(best)) {
			best, bestD = q, d
		}
	}
	for _, q := range points {
		consider(q)
	}
	for _, s := range segs {
		b := s.Bounds()
		consider(geom.Pt(geom.Clamp(p.X, b.MinX, b.MaxX), geom.Clamp(p.Y, b.MinY, b.MaxY)))
	}
	return best, bestD
}

// naiveCrossing is the pre-index first-contact scan.
func naiveCrossing(points []geom.Point, segs []geom.Seg, from, to geom.Point) (geom.Point, bool) {
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
	for _, q := range points {
		consider(q)
	}
	for _, s := range segs {
		if !travel.Intersects(s) {
			continue
		}
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

// naiveContains is the pre-index membership scan.
func naiveContains(points []geom.Point, segs []geom.Seg, p geom.Point) bool {
	for _, q := range points {
		if p == q {
			return true
		}
	}
	for _, s := range segs {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

// randomTargets builds a random target set. Coordinates are drawn from a
// small range so distance ties, collinear overlaps, and shared edge
// coordinates occur constantly — the cases where the tie-break rules
// actually discriminate. One set in four is trunk-shaped instead.
func randomTargets(r *rand.Rand) ([]geom.Point, []geom.Seg) {
	coord := func() geom.Coord { return geom.Coord(r.Intn(41) - 20) }
	if r.Intn(4) == 0 {
		return trunkTargets(r, coord)
	}
	pts := make([]geom.Point, r.Intn(24))
	for i := range pts {
		pts[i] = geom.Pt(coord(), coord())
	}
	segs := make([]geom.Seg, 0, 24)
	for i := r.Intn(24); i > 0; i-- {
		a := geom.Pt(coord(), coord())
		switch r.Intn(3) {
		case 0: // horizontal
			segs = append(segs, geom.S(a, geom.Pt(coord(), a.Y)))
		case 1: // vertical
			segs = append(segs, geom.S(a, geom.Pt(a.X, coord())))
		default: // degenerate
			segs = append(segs, geom.S(a, a))
		}
	}
	return pts, segs
}

// trunkTargets builds the partial Steiner tree of a column-control net: a
// vertical trunk of segments on one x — mostly abutting, sometimes
// overlapping or leaving a gap — with pins on it and short horizontal
// branches out to off-trunk pins. Whole runs of table entries then share
// one coordinate, the shape the indexed nearest retires a line at a time.
func trunkTargets(r *rand.Rand, coord func() geom.Coord) ([]geom.Point, []geom.Seg) {
	x := coord()
	var pts []geom.Point
	var segs []geom.Seg
	for y := geom.Coord(-20 + r.Intn(6)); y < 20; {
		next := geom.Min(y+geom.Coord(r.Intn(8)+1), 20)
		segs = append(segs, geom.S(geom.Pt(x, y), geom.Pt(x, next)))
		pts = append(pts, geom.Pt(x, y))
		if r.Intn(3) == 0 { // branch out to an off-trunk pin
			bx := x + geom.Coord(r.Intn(11)-5)
			segs = append(segs, geom.S(geom.Pt(x, next), geom.Pt(bx, next)))
			pts = append(pts, geom.Pt(bx, next))
		}
		switch r.Intn(6) {
		case 0: // overlap the next trunk segment with this one
			y = next - geom.Coord(r.Intn(int(next-y)))
		case 1: // leave a gap in the trunk
			y = next + geom.Coord(r.Intn(3)+1)
		default:
			y = next
		}
	}
	return pts, segs
}

// indexedSet builds a targetSet and forces the index on regardless of the
// size threshold, so small fuzzed sets exercise the indexed path too.
func indexedSet(pts []geom.Point, segs []geom.Seg) *targetSet {
	ts := &targetSet{points: pts, segs: segs, idx: &targetIndex{}}
	ts.idx.syncTo(ts.points, ts.segs)
	return ts
}

// checkTargetSetAgainstNaive compares every indexed query with its naive
// reference on one random set; shared by the quick.Check test and the fuzz
// target.
func checkTargetSetAgainstNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pts, segs := randomTargets(r)
	if len(pts)+len(segs) == 0 {
		return // routeConnection rejects empty target sets before querying
	}
	ts := indexedSet(pts, segs)
	if !ts.indexed() {
		t.Fatalf("seed=%d: forced index not active", seed)
	}
	coord := func() geom.Coord { return geom.Coord(r.Intn(49) - 24) }
	for trial := 0; trial < 80; trial++ {
		p := geom.Pt(coord(), coord())
		if len(pts) > 0 && r.Intn(3) == 0 {
			// Collinear with a target point: on a trunk, the query shares
			// the trunk's x (or a pin's y).
			if q := pts[r.Intn(len(pts))]; r.Intn(2) == 0 {
				p.X = q.X
			} else {
				p.Y = q.Y
			}
		}

		gotQ, gotD := ts.nearest(p)
		wantQ, wantD := naiveNearest(pts, segs, p)
		if gotQ != wantQ || gotD != wantD {
			t.Fatalf("seed=%d nearest(%v) = (%v,%d), naive (%v,%d)", seed, p, gotQ, gotD, wantQ, wantD)
		}

		if got, want := ts.contains(p), naiveContains(pts, segs, p); got != want {
			t.Fatalf("seed=%d contains(%v) = %v, naive %v", seed, p, got, want)
		}

		// Axis-parallel travel segments, sometimes degenerate, sometimes
		// starting on the target set itself.
		to := p
		switch r.Intn(5) {
		case 0: // degenerate
		case 1, 2:
			to = geom.Pt(coord(), p.Y)
		default:
			to = geom.Pt(p.X, coord())
		}
		gotQ2, gotOK := ts.crossing(p, to)
		wantQ2, wantOK := naiveCrossing(pts, segs, p, to)
		if gotOK != wantOK || (gotOK && gotQ2 != wantQ2) {
			t.Fatalf("seed=%d crossing(%v,%v) = (%v,%v), naive (%v,%v)",
				seed, p, to, gotQ2, gotOK, wantQ2, wantOK)
		}
	}
}

func TestTargetSetIndexMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		checkTargetSetAgainstNaive(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTargetSetNearestTieBreak pins the exact tie-break the index must
// preserve: among several targets at the same Manhattan distance the
// lexicographically smallest point wins, whatever order the tables are
// scanned in.
func TestTargetSetNearestTieBreak(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(5, 0), geom.Pt(0, 5), geom.Pt(-5, 0), geom.Pt(0, -5),
		geom.Pt(2, 3), geom.Pt(3, 2), geom.Pt(-2, -3),
	}
	segs := []geom.Seg{
		geom.S(geom.Pt(5, -7), geom.Pt(5, 7)),  // clamp (5,0), distance 5
		geom.S(geom.Pt(-9, 4), geom.Pt(-1, 4)), // clamp (-1,4), distance 5
	}
	ts := indexedSet(pts, segs)
	q, d := ts.nearest(geom.Pt(0, 0))
	if d != 5 || q != geom.Pt(-5, 0) {
		t.Fatalf("nearest tie-break = (%v,%d), want ((-5,0),5)", q, d)
	}
	wq, wd := naiveNearest(pts, segs, geom.Pt(0, 0))
	if wq != q || wd != d {
		t.Fatalf("naive reference disagrees: (%v,%d)", wq, wd)
	}
}

// TestTargetSetIncrementalSync grows one shared set the way RouteNet does —
// appending pins and tree segments round by round — and checks the
// incrementally merged tables against the naive scans after every round.
func TestTargetSetIncrementalSync(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ts := &targetSet{idx: &targetIndex{}}
	var pts []geom.Point
	var segs []geom.Seg
	coord := func() geom.Coord { return geom.Coord(r.Intn(41) - 20) }
	for round := 0; round < 12; round++ {
		for i := r.Intn(4); i >= 0; i-- {
			p := geom.Pt(coord(), coord())
			pts = append(pts, p)
			ts.addPoints(p)
		}
		for i := r.Intn(4); i > 0; i-- {
			a := geom.Pt(coord(), coord())
			var s geom.Seg
			if r.Intn(2) == 0 {
				s = geom.S(a, geom.Pt(coord(), a.Y))
			} else {
				s = geom.S(a, geom.Pt(a.X, coord()))
			}
			segs = append(segs, s)
			ts.addSeg(s)
		}
		ts.idx.syncTo(ts.points, ts.segs) // the per-search Prepare hook
		if !ts.indexed() {
			t.Fatalf("round %d: index out of sync", round)
		}
		for trial := 0; trial < 40; trial++ {
			p := geom.Pt(coord(), coord())
			gotQ, gotD := ts.nearest(p)
			wantQ, wantD := naiveNearest(pts, segs, p)
			if gotQ != wantQ || gotD != wantD {
				t.Fatalf("round %d nearest(%v) = (%v,%d), naive (%v,%d)",
					round, p, gotQ, gotD, wantQ, wantD)
			}
			to := geom.Pt(coord(), p.Y)
			gotQ2, gotOK := ts.crossing(p, to)
			wantQ2, wantOK := naiveCrossing(pts, segs, p, to)
			if gotOK != wantOK || (gotOK && gotQ2 != wantQ2) {
				t.Fatalf("round %d crossing(%v,%v) = (%v,%v), naive (%v,%v)",
					round, p, to, gotQ2, gotOK, wantQ2, wantOK)
			}
		}
	}
}

// FuzzTargetSetQueries explores the same naive-vs-indexed comparison from
// arbitrary seeds; `go test` runs the corpus, `go test -fuzz` explores.
func FuzzTargetSetQueries(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkTargetSetAgainstNaive(t, seed)
	})
}
