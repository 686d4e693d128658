package ray

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/plane"
	"repro/internal/search"
)

// naiveSuccessors is Gen.Successors with the full-scan corner stream of
// naiveCornerProjections, repeats included: the generator as it was before
// corner projections emitted each track vertex once.
func naiveSuccessors(g *Gen, at, guide geom.Point, emit func(geom.Point, geom.Dir)) {
	b := g.Ix.Bounds()
	emitRay := func(d geom.Dir, limit geom.Coord) {
		h := g.Ix.RayHit(at, d, limit)
		next := geom.Pt(h.Stop, at.Y)
		if !d.Horizontal() {
			next = geom.Pt(at.X, h.Stop)
		}
		if next != at {
			emit(next, d)
			naiveCornerProjections(g.Ix, at, d, h.Stop, emit)
		}
	}
	hd, vd := geom.DirTowards(at, guide)
	if hd != geom.DirNone {
		emitRay(hd, guide.X)
	}
	if vd != geom.DirNone {
		emitRay(vd, guide.Y)
	}
	if g.Mode == AllDirs {
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

// pointProblem is a two-point connection search over a Gen: unit cost per
// unit of wire and the Manhattan lower bound. succ selects the successor
// stream under test.
type pointProblem struct {
	g        *Gen
	src, dst geom.Point
	succ     func(g *Gen, at, guide geom.Point, emit func(geom.Point, geom.Dir))
}

func (p *pointProblem) Start() geom.Point                  { return p.src }
func (p *pointProblem) IsGoal(s geom.Point) bool           { return s == p.dst }
func (p *pointProblem) Heuristic(s geom.Point) search.Cost { return search.Cost(s.Manhattan(p.dst)) }
func (p *pointProblem) Successors(s geom.Point, emit func(geom.Point, search.Cost)) {
	p.succ(p.g, s, p.dst, func(next geom.Point, _ geom.Dir) {
		emit(next, search.Cost(s.Manhattan(next)))
	})
}

// TestDedupedSuccessorsSearchEquivalent runs A* between random free points
// twice — once on Gen.Successors, once on the naive stream with its
// repeated track vertices — over random and aligned-grid fields. A repeat
// has the same point and cost as its first emission, so dropping it must
// leave the search's outcome and expansions unchanged and may only lower
// the generated count.
func TestDedupedSuccessorsSearchEquivalent(t *testing.T) {
	indexed := func(g *Gen, at, guide geom.Point, emit func(geom.Point, geom.Dir)) {
		g.Successors(at, guide, emit)
	}
	fewer := false
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		rects, channels := cornerField(r, seed)
		ix, err := plane.New(geom.R(0, 0, 200, 200), rects)
		if err != nil {
			t.Fatal(err)
		}
		free := func() geom.Point {
			for {
				p := geom.Pt(geom.Coord(r.Intn(201)), geom.Coord(r.Intn(201)))
				if len(channels) > 0 && r.Intn(2) == 0 {
					p.X = channels[r.Intn(len(channels))]
				}
				if _, blocked := ix.PointBlocked(p); !blocked {
					return p
				}
			}
		}
		for _, mode := range []Mode{Directed, AllDirs} {
			g := &Gen{Ix: ix, Mode: mode}
			for trial := 0; trial < 4; trial++ {
				src, dst := free(), free()
				opts := search.Options{MaxExpansions: 20000}
				got, gotErr := search.Find[geom.Point](&pointProblem{g, src, dst, indexed}, opts)
				want, wantErr := search.Find[geom.Point](&pointProblem{g, src, dst, naiveSuccessors}, opts)
				if gotErr != wantErr || got.Found != want.Found || got.Cost != want.Cost ||
					got.Stats.Expanded != want.Stats.Expanded {
					t.Fatalf("seed=%d mode=%v %v→%v: deduplicated (found=%v cost=%d expanded=%d err=%v), naive (found=%v cost=%d expanded=%d err=%v)",
						seed, mode, src, dst, got.Found, got.Cost, got.Stats.Expanded, gotErr,
						want.Found, want.Cost, want.Stats.Expanded, wantErr)
				}
				if len(got.Path) != len(want.Path) {
					t.Fatalf("seed=%d mode=%v %v→%v: path %v, naive %v", seed, mode, src, dst, got.Path, want.Path)
				}
				for i := range got.Path {
					if got.Path[i] != want.Path[i] {
						t.Fatalf("seed=%d mode=%v %v→%v: path %v, naive %v", seed, mode, src, dst, got.Path, want.Path)
					}
				}
				if got.Stats.Generated > want.Stats.Generated {
					t.Fatalf("seed=%d mode=%v %v→%v: generated %d with deduplication, %d without",
						seed, mode, src, dst, got.Stats.Generated, want.Stats.Generated)
				}
				fewer = fewer || got.Stats.Generated < want.Stats.Generated
			}
		}
	}
	if !fewer {
		t.Fatal("no search generated fewer successors with deduplication; the fields exercise no shared edge lines")
	}
}
