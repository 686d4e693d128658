package ray

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/plane"
)

// naiveCornerProjections is the pre-index generator: a full scan over every
// cell, kept here as the reference the corridor-restricted enumeration must
// reproduce exactly — including emission order, which feeds the search's
// deterministic tie-breaking.
func naiveCornerProjections(ix *plane.Index, at geom.Point, d geom.Dir, stop geom.Coord, emit func(geom.Point, geom.Dir)) {
	horiz := d.Horizontal()
	var lo, hi geom.Coord
	if horiz {
		lo, hi = geom.Min(at.X, stop), geom.Max(at.X, stop)
	} else {
		lo, hi = geom.Min(at.Y, stop), geom.Max(at.Y, stop)
	}
	for ci, n := 0, ix.NumCells(); ci < n; ci++ {
		c := ix.Cell(ci)
		if horiz {
			var cy geom.Coord
			switch {
			case at.Y <= c.MinY:
				cy = c.MinY
			case at.Y >= c.MaxY:
				cy = c.MaxY
			default:
				continue
			}
			for _, cx := range [2]geom.Coord{c.MinX, c.MaxX} {
				if cx <= lo || cx >= hi {
					continue
				}
				q := geom.Pt(cx, at.Y)
				if _, blocked := ix.SegBlocked(geom.S(geom.Pt(cx, cy), q)); !blocked {
					emit(q, d)
				}
			}
		} else {
			var cx geom.Coord
			switch {
			case at.X <= c.MinX:
				cx = c.MinX
			case at.X >= c.MaxX:
				cx = c.MaxX
			default:
				continue
			}
			for _, cy := range [2]geom.Coord{c.MinY, c.MaxY} {
				if cy <= lo || cy >= hi {
					continue
				}
				q := geom.Pt(at.X, cy)
				if _, blocked := ix.SegBlocked(geom.S(geom.Pt(cx, cy), q)); !blocked {
					emit(q, d)
				}
			}
		}
	}
}

// dedupFirst drops every repeated point of a projection stream, keeping the
// first occurrence in place.
func dedupFirst[T any](in []T, key func(T) geom.Point) []T {
	seen := make(map[geom.Point]bool, len(in))
	var out []T
	for _, h := range in {
		if k := key(h); !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
	}
	return out
}

// cornerField draws the obstacle field of one seed inside [0,200]². Even
// seeds draw an aligned grid with some edges jittered off their line, so
// many cells share each edge line and a line's lowest-id cell is often
// occluded by its neighbours or has the ray inside its span; channels
// lists the grid's free mid-channel coordinates (both axes) to aim rays
// down. Odd seeds draw up to 14 random, possibly overlapping rectangles.
func cornerField(r *rand.Rand, seed int64) (rects []geom.Rect, channels []geom.Coord) {
	if seed%2 != 0 {
		for i := 0; i < r.Intn(14)+1; i++ {
			x, y := int64(r.Intn(180)), int64(r.Intn(180))
			w, h := int64(r.Intn(25)+1), int64(r.Intn(25)+1)
			rects = append(rects, geom.R(x, y, geom.Min(x+w, 200), geom.Min(y+h, 200)))
		}
		return rects, nil
	}
	n := r.Intn(4) + 3          // n×n cells
	step := geom.Coord(200 / n) // cell pitch
	gap := geom.Coord(r.Intn(6) + 6)
	jitter := func() geom.Coord {
		if r.Intn(4) == 0 {
			return geom.Coord(r.Intn(5) - 2)
		}
		return 0
	}
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			x, y := geom.Coord(col)*step+gap, geom.Coord(row)*step+gap
			rects = append(rects, geom.R(x+jitter(), y+jitter(), x+step-gap+jitter(), y+step-gap+jitter()))
		}
	}
	for k := 0; k <= n; k++ {
		channels = append(channels, geom.Coord(k)*step+gap/2)
	}
	return rects, channels
}

// checkCornerProjections compares the indexed enumeration against the naive
// scan with its repeats dropped (first occurrence kept) for random rays over
// one seed's field; shared with the fuzz target.
func checkCornerProjections(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	bounds := geom.R(0, 0, 200, 200)
	rects, channels := cornerField(r, seed)
	ix, err := plane.New(bounds, rects)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gen{Ix: ix}
	type hit struct {
		p geom.Point
		d geom.Dir
	}
	coord := func() geom.Coord {
		if len(channels) > 0 && r.Intn(2) == 0 {
			return channels[r.Intn(len(channels))]
		}
		return geom.Coord(r.Intn(201))
	}
	for trial := 0; trial < 50; trial++ {
		at := geom.Pt(coord(), coord())
		d := geom.Dirs[r.Intn(4)]
		// A plausible ray stop: where the tracer would stop this ray.
		var limit geom.Coord
		if d == geom.East || d == geom.North {
			limit = 200
		}
		stop := ix.RayHit(at, d, limit).Stop
		var got, naive []hit
		g.cornerProjections(at, d, stop, func(p geom.Point, d geom.Dir) {
			got = append(got, hit{p, d})
		})
		naiveCornerProjections(ix, at, d, stop, func(p geom.Point, d geom.Dir) {
			naive = append(naive, hit{p, d})
		})
		want := dedupFirst(naive, func(h hit) geom.Point { return h.p })
		if len(got) != len(want) {
			t.Fatalf("seed=%d at=%v d=%v stop=%d: got %v, naive deduplicated %v", seed, at, d, stop, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d at=%v d=%v stop=%d: got %v, naive deduplicated %v", seed, at, d, stop, got, want)
			}
		}
	}
}

// TestCornerProjectionsEmitEachVertexOnce casts a channel-spanning ray along
// each axis of a 16×16 macro grid, where every edge line is shared by a
// whole row or column of cells. Each visible edge line must yield exactly
// one track vertex: the emitted points are distinct, and there are as many
// as there are distinct edge lines strictly inside the corridor that some
// cell's corner sees unobstructed.
func TestCornerProjectionsEmitEachVertexOnce(t *testing.T) {
	l, err := gen.MacroGrid(16, 16, 40, 30, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gen{Ix: ix}
	b := ix.Bounds()
	// The channel between columns 0 and 1 (x = 52..64) and between rows 0
	// and 1 (y = 42..54), cast from the die edge to the far bound.
	for _, tc := range []struct {
		at    geom.Point
		d     geom.Dir
		limit geom.Coord
	}{
		{geom.Pt(58, b.MinY), geom.North, b.MaxY},
		{geom.Pt(b.MinX, 48), geom.East, b.MaxX},
	} {
		h := ix.RayHit(tc.at, tc.d, tc.limit)
		if h.Blocked {
			t.Fatalf("%v ray from %v blocked at %d; expected a free channel", tc.d, tc.at, h.Stop)
		}
		var got []geom.Point
		g.cornerProjections(tc.at, tc.d, h.Stop, func(p geom.Point, _ geom.Dir) {
			got = append(got, p)
		})
		seen := map[geom.Point]bool{}
		for _, p := range got {
			if seen[p] {
				t.Fatalf("%v ray: vertex %v emitted more than once (%d emissions)", tc.d, p, len(got))
			}
			seen[p] = true
		}
		// Visible edge lines by brute force over every cell and edge.
		lines := map[geom.Coord]bool{}
		for ci := 0; ci < ix.NumCells(); ci++ {
			c := ix.Cell(ci)
			if tc.d.Horizontal() {
				if tc.at.Y > c.MinY && tc.at.Y < c.MaxY {
					continue
				}
				cy := c.MinY
				if tc.at.Y >= c.MaxY {
					cy = c.MaxY
				}
				for _, x := range [2]geom.Coord{c.MinX, c.MaxX} {
					if x > tc.at.X && x < h.Stop {
						if _, blocked := ix.SegBlocked(geom.S(geom.Pt(x, cy), geom.Pt(x, tc.at.Y))); !blocked {
							lines[x] = true
						}
					}
				}
			} else {
				if tc.at.X > c.MinX && tc.at.X < c.MaxX {
					continue
				}
				cx := c.MinX
				if tc.at.X >= c.MaxX {
					cx = c.MaxX
				}
				for _, y := range [2]geom.Coord{c.MinY, c.MaxY} {
					if y > tc.at.Y && y < h.Stop {
						if _, blocked := ix.SegBlocked(geom.S(geom.Pt(cx, y), geom.Pt(tc.at.X, y))); !blocked {
							lines[y] = true
						}
					}
				}
			}
		}
		if len(lines) != 32 {
			t.Fatalf("%v ray: %d visible edge lines, want 32 (two per row or column)", tc.d, len(lines))
		}
		if len(got) != len(lines) {
			t.Fatalf("%v ray: %d vertices emitted, want one per visible edge line (%d)", tc.d, len(got), len(lines))
		}
	}
}

func TestCornerProjectionsMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		checkCornerProjections(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func FuzzCornerProjections(f *testing.F) {
	for _, seed := range []int64{0, 3, 64, 4711, -11} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCornerProjections(t, seed)
	})
}
